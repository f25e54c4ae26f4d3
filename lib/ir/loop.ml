type lang = C | Fortran | Fortran90

type array_info = { aname : string; elem_size : int; length : int; base : int }

type t = {
  name : string;
  body : Op.t array;
  arrays : array_info array;
  nest_level : int;
  lang : lang;
  trip_static : int option;
  trip_actual : int;
  aliased : bool;
  outer_trip : int;
  exit_prob : float;
  live_out : Op.reg list;
}

let backedge_index t =
  let found = ref (-1) in
  Array.iteri
    (fun i op -> match op.Op.opcode with Op.Br Op.Backedge -> found := i | _ -> ())
    t.body;
  if !found < 0 then invalid_arg (Printf.sprintf "Loop %s: no backedge" t.name)
  else !found

let count p t = Array.fold_left (fun acc op -> if p op then acc + 1 else acc) 0 t.body

let op_count t = Array.length t.body
let float_op_count = count Op.is_float
let branch_count = count Op.is_branch
let memory_op_count = count Op.is_memory
let load_count = count Op.is_load
let store_count = count Op.is_store
let implicit_count = count Op.is_implicit

let operand_count t =
  Array.fold_left (fun acc op -> acc + Op.operand_count op) 0 t.body

let use_count t =
  Array.fold_left (fun acc op -> acc + List.length (Op.uses op)) 0 t.body

let def_count t =
  Array.fold_left (fun acc op -> acc + List.length (Op.defs op)) 0 t.body

let unique_predicates t =
  let module IS = Set.Make (Int) in
  let set =
    Array.fold_left
      (fun acc op -> match op.Op.pred with Some p -> IS.add p acc | None -> acc)
      IS.empty t.body
  in
  IS.cardinal set

let indirect_ref_count t =
  count
    (fun op ->
      match Op.mref op with
      | Some { Op.mkind = Op.Indirect; _ } -> true
      | Some _ | None -> false)
    t

let has_early_exit t =
  count (fun op -> match op.Op.opcode with Op.Br Op.Exit -> true | _ -> false) t > 0

let has_call t = count (fun op -> match op.Op.opcode with Op.Call -> true | _ -> false) t > 0

let digest t = Digest.string (Marshal.to_string { t with name = "" } [])

let unrollable t = not (has_call t || has_early_exit t)

let code_bytes t =
  (* Itanium-style: 3 ops per 16-byte bundle. *)
  let bundles = (op_count t + 2) / 3 in
  bundles * 16

let live_in_regs t =
  let module RS = Set.Make (struct
    type t = Op.reg
    let compare = compare
  end) in
  let defined = ref RS.empty in
  let live_in = ref RS.empty in
  Array.iter
    (fun op ->
      List.iter
        (fun r -> if not (RS.mem r !defined) then live_in := RS.add r !live_in)
        (Op.uses op);
      List.iter (fun r -> defined := RS.add r !defined) (Op.defs op))
    t.body;
  RS.elements !live_in

let max_reg_id t =
  Array.fold_left
    (fun acc op ->
      List.fold_left
        (fun acc (r : Op.reg) -> max acc r.Op.id)
        acc
        (Op.defs op @ Op.uses op))
    0 t.body

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error (t.name ^ ": " ^ s)) fmt in
  if Array.length t.body = 0 then err "empty body"
  else if
    count (fun op -> match op.Op.opcode with Op.Br Op.Backedge -> true | _ -> false) t <> 1
  then err "body must contain exactly one backedge"
  else if
    (match t.body.(Array.length t.body - 1).Op.opcode with
    | Op.Br Op.Backedge -> false
    | _ -> true)
  then err "backedge must be the last op in the body"
  else if t.trip_actual < 0 then err "trip_actual must be non-negative"
  else if t.outer_trip <= 0 then err "outer_trip must be positive"
  else if t.exit_prob < 0.0 || t.exit_prob >= 1.0 then err "exit_prob out of range"
  else if
    match t.trip_static with Some n -> n < 0 | None -> false
  then err "static trip count must be non-negative"
  else begin
    let bad_mref = ref None in
    Array.iter
      (fun op ->
        match Op.mref op with
        | Some { Op.array; _ } when array < 0 || array >= Array.length t.arrays ->
          bad_mref := Some op.Op.uid
        | Some _ | None -> ())
      t.body;
    match !bad_mref with
    | Some uid -> err "op %d references an out-of-range array" uid
    | None ->
      let module IS = Set.Make (Int) in
      let defined_preds =
        Array.fold_left
          (fun acc op ->
            match (op.Op.opcode, op.Op.dst) with
            | Op.Cmp, Some { Op.id; _ } -> IS.add id acc
            | _ -> acc)
          IS.empty t.body
      in
      let bad_pred = ref None in
      Array.iter
        (fun op ->
          match op.Op.pred with
          | Some p when not (IS.mem p defined_preds) -> bad_pred := Some op.Op.uid
          | Some _ | None -> ())
        t.body;
      (match !bad_pred with
      | Some uid -> err "op %d is guarded by an undefined predicate" uid
      | None -> Ok ())
  end
