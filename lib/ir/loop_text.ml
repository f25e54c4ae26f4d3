(* Serialisation *)

let lang_name = function
  | Loop.C -> "c"
  | Loop.Fortran -> "fortran"
  | Loop.Fortran90 -> "fortran90"

let lang_of_name = function
  | "c" -> Some Loop.C
  | "fortran" -> Some Loop.Fortran
  | "fortran90" -> Some Loop.Fortran90
  | _ -> None

let default_aliased = function
  | Loop.C -> true
  | Loop.Fortran | Loop.Fortran90 -> false

let reg_name (r : Op.reg) =
  match r.Op.cls with
  | Op.Int -> Printf.sprintf "r%d" r.Op.id
  | Op.Flt -> Printf.sprintf "f%d" r.Op.id

let cls_letter = function Op.Int -> "i" | Op.Flt -> "f"

let mref_text (loop : Loop.t) (m : Op.mref) =
  Printf.sprintf "%s [%d*i%+d]" loop.Loop.arrays.(m.Op.array).Loop.aname m.Op.stride
    m.Op.offset

(* The canonical overhead trio appended by Builder.finish / the unroller. *)
let core_of (loop : Loop.t) =
  let body = loop.Loop.body in
  let n = Array.length body in
  let is_iv (op : Op.t) =
    match (op.Op.opcode, op.Op.dst, op.Op.srcs) with
    | Op.Ialu, Some d, [ s ] -> d = s
    | _ -> false
  in
  if
    n >= 3
    && is_iv body.(n - 3)
    && (match body.(n - 2).Op.opcode with Op.Cmp -> true | _ -> false)
    && (match body.(n - 1).Op.opcode with Op.Br Op.Backedge -> true | _ -> false)
  then Array.sub body 0 (n - 3)
  else Array.sub body 0 (max 0 (n - 1))

let op_text loop (op : Op.t) =
  let pred_prefix =
    match op.Op.pred with
    | Some p -> Printf.sprintf "(%s) " (reg_name { Op.id = p; cls = Op.Int })
    | None -> ""
  in
  let bang (m : Op.mref) = if m.Op.mkind = Op.Indirect then "!" else "" in
  let srcs_text srcs = String.concat " " (List.map reg_name srcs) in
  match (op.Op.opcode, op.Op.dst) with
  | Op.Load m, Some d ->
    Printf.sprintf "%s%s %s = load%s %s%s" pred_prefix (cls_letter d.Op.cls) (reg_name d)
      (bang m) (mref_text loop m)
      (match op.Op.srcs with [] -> "" | srcs -> " " ^ srcs_text srcs)
  | Op.Store m, None ->
    Printf.sprintf "%sstore%s %s %s" pred_prefix (bang m) (mref_text loop m)
      (srcs_text op.Op.srcs)
  | Op.Br Op.Exit, None -> Printf.sprintf "%sexit %s" pred_prefix (srcs_text op.Op.srcs)
  | Op.Call, None -> pred_prefix ^ "call"
  | opcode, Some d ->
    let name =
      match opcode with
      | Op.Ialu -> "ialu"
      | Op.Imul -> "imul"
      | Op.Fadd -> "fadd"
      | Op.Fmul -> "fmul"
      | Op.Fmadd -> "fmadd"
      | Op.Fdiv -> "fdiv"
      | Op.Cmp -> "cmp"
      | Op.Sel -> "sel"
      | Op.Mov -> "mov"
      | Op.Load _ | Op.Store _ | Op.Br _ | Op.Call -> assert false
    in
    Printf.sprintf "%s%s %s = %s %s" pred_prefix (cls_letter d.Op.cls) (reg_name d) name
      (srcs_text op.Op.srcs)
  | (Op.Ialu | Op.Imul | Op.Fadd | Op.Fmul | Op.Fmadd | Op.Fdiv | Op.Cmp | Op.Sel
    | Op.Mov | Op.Br _ | Op.Load _), None ->
    pred_prefix ^ "# (malformed op)"

let to_string (loop : Loop.t) =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  add "loop %s {" loop.Loop.name;
  add "  lang %s" (lang_name loop.Loop.lang);
  add "  trip %d" loop.Loop.trip_actual;
  (match loop.Loop.trip_static with
  | None -> add "  trip_static unknown"
  | Some t when t <> loop.Loop.trip_actual -> add "  trip_static %d" t
  | Some _ -> ());
  if loop.Loop.nest_level <> 1 then add "  nest %d" loop.Loop.nest_level;
  if loop.Loop.outer_trip <> 1 then add "  outer %d" loop.Loop.outer_trip;
  if loop.Loop.aliased <> default_aliased loop.Loop.lang then
    add "  aliased %b" loop.Loop.aliased;
  if loop.Loop.exit_prob > 0.0 then add "  exit_prob %g" loop.Loop.exit_prob;
  Array.iter
    (fun (a : Loop.array_info) ->
      add "  array %s %d elem=%d" a.Loop.aname a.Loop.length a.Loop.elem_size)
    loop.Loop.arrays;
  let core = core_of loop in
  (* Live-ins of the core need declarations. *)
  let core_loop = { loop with Loop.body = core } in
  List.iter
    (fun (r : Op.reg) -> add "  reg %s %s" (cls_letter r.Op.cls) (reg_name r))
    (Loop.live_in_regs core_loop);
  Array.iter (fun op -> add "  %s" (op_text loop op)) core;
  List.iter (fun r -> add "  liveout %s" (reg_name r)) loop.Loop.live_out;
  add "}";
  Buffer.contents buf

(* Parsing *)

type pstate = {
  mutable name : string;
  mutable lang : Loop.lang;
  mutable trip : int option;
  mutable trip_static : [ `Default | `Unknown | `Known of int ];
  mutable nest : int;
  mutable outer : int;
  mutable aliased : bool option;
  mutable exit_prob : float;
  mutable arrays : (string * Loop.array_info) list; (* reversed *)
  mutable next_addr : int;
  mutable regs : (string, Op.reg) Hashtbl.t;
  mutable next_reg : int;
  mutable ops : Op.t list; (* reversed *)
  mutable next_uid : int;
  mutable live_out : Op.reg list;
}

let fresh_state () =
  {
    name = "";
    lang = Loop.C;
    trip = None;
    trip_static = `Default;
    nest = 1;
    outer = 1;
    aliased = None;
    exit_prob = 0.0;
    arrays = [];
    next_addr = 0x10000;
    regs = Hashtbl.create 32;
    next_reg = 0;
    next_uid = 0;
    ops = [];
    live_out = [];
  }

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let lookup_reg st name =
  match Hashtbl.find_opt st.regs name with
  | Some r -> r
  | None -> fail "unknown register '%s'" name

let declare_reg st cls name =
  if Hashtbl.mem st.regs name then fail "register '%s' declared twice" name;
  let r = { Op.id = st.next_reg; cls } in
  st.next_reg <- st.next_reg + 1;
  Hashtbl.replace st.regs name r;
  r

(* Destination registers: first write declares, later writes reuse (the
   accumulate pattern), with a class check. *)
let dest_reg st cls name =
  match Hashtbl.find_opt st.regs name with
  | Some r ->
    if r.Op.cls <> cls then fail "register '%s' changes class" name;
    r
  | None -> declare_reg st cls name

let array_index st name =
  let rec go i = function
    | [] -> fail "unknown array '%s'" name
    | (n, _) :: rest -> if n = name then i else go (i - 1) rest
  in
  go (List.length st.arrays - 1) st.arrays

let cls_of_letter = function
  | "f" -> Op.Flt
  | "i" -> Op.Int
  | s -> fail "expected register class 'f' or 'i', got '%s'" s

let parse_mref st ~indirect arr_name bracket =
  let array = array_index st arr_name in
  let stride, offset =
    try Scanf.sscanf bracket "[%d*i%d]" (fun s o -> (s, o))
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      fail "bad memory reference '%s' (expected [S*i+O])" bracket
  in
  { Op.array; stride; offset; mkind = (if indirect then Op.Indirect else Op.Direct) }

let append st ?dst ?(srcs = []) ?pred opcode =
  let uid = st.next_uid in
  st.next_uid <- uid + 1;
  st.ops <- Op.make ~uid ?dst ~srcs ?pred opcode :: st.ops

let opcode_of_name = function
  | "ialu" -> Some Op.Ialu
  | "imul" -> Some Op.Imul
  | "fadd" -> Some Op.Fadd
  | "fmul" -> Some Op.Fmul
  | "fmadd" -> Some Op.Fmadd
  | "fdiv" -> Some Op.Fdiv
  | "cmp" -> Some Op.Cmp
  | "sel" -> Some Op.Sel
  | "mov" -> Some Op.Mov
  | _ -> None

let parse_op_line st tokens =
  (* Optional predication prefix: (rN) *)
  let pred, tokens =
    match tokens with
    | t :: rest when String.length t >= 3 && t.[0] = '(' && t.[String.length t - 1] = ')' ->
      let pname = String.sub t 1 (String.length t - 2) in
      let r = lookup_reg st pname in
      if r.Op.cls <> Op.Int then fail "predicate '%s' is not an integer register" pname;
      (Some r.Op.id, rest)
    | _ -> (None, tokens)
  in
  match tokens with
  | [ "call" ] -> append st ?pred Op.Call
  | [ "exit"; p ] -> append st ~srcs:[ lookup_reg st p ] ?pred (Op.Br Op.Exit)
  | ("store" | "store!") :: arr :: bracket :: rest ->
    let indirect = List.hd tokens = "store!" in
    let m = parse_mref st ~indirect arr bracket in
    let srcs = List.map (lookup_reg st) rest in
    if srcs = [] then fail "store needs a value operand";
    append st ~srcs ?pred (Op.Store m)
  | cls :: name :: "=" :: ("load" | "load!") :: arr :: bracket :: rest ->
    let cls = cls_of_letter cls in
    let indirect = List.nth tokens 3 = "load!" in
    let m = parse_mref st ~indirect arr bracket in
    let srcs = List.map (lookup_reg st) rest in
    let dst = dest_reg st cls name in
    append st ~dst ~srcs ?pred (Op.Load m)
  | cls :: name :: "=" :: opname :: rest -> begin
    let cls = cls_of_letter cls in
    match opcode_of_name opname with
    | None -> fail "unknown opcode '%s'" opname
    | Some opcode ->
      let srcs = List.map (lookup_reg st) rest in
      let dst = dest_reg st cls name in
      append st ~dst ~srcs ?pred opcode
  end
  | _ -> fail "cannot parse op line: %s" (String.concat " " tokens)

let align64 n = (n + 63) land lnot 63

let int_token what n =
  match int_of_string_opt n with Some v -> v | None -> fail "bad %s '%s' (expected an integer)" what n

let positive_token what n =
  let v = int_token what n in
  if v <= 0 then fail "bad %s '%s' (expected a positive integer)" what n;
  v

let parse_line st tokens =
  match tokens with
  | [] -> ()
  | [ "}" ] -> () (* handled by caller *)
  | "lang" :: [ l ] -> begin
    match lang_of_name l with
    | Some lang -> st.lang <- lang
    | None -> fail "unknown language '%s'" l
  end
  | "trip" :: [ n ] -> st.trip <- Some (int_token "trip" n)
  | "trip_static" :: [ "unknown" ] -> st.trip_static <- `Unknown
  | "trip_static" :: [ n ] -> st.trip_static <- `Known (int_token "trip_static" n)
  | "nest" :: [ n ] -> st.nest <- int_token "nest" n
  | "outer" :: [ n ] -> st.outer <- int_token "outer" n
  | "aliased" :: [ b ] -> begin
    match bool_of_string_opt b with
    | Some b -> st.aliased <- Some b
    | None -> fail "bad aliased '%s' (expected true or false)" b
  end
  | "exit_prob" :: [ p ] -> begin
    match float_of_string_opt p with
    | Some p -> st.exit_prob <- p
    | None -> fail "bad exit_prob '%s' (expected a number)" p
  end
  | "array" :: name :: len :: rest ->
    let elem =
      match rest with
      | [] -> 8
      | [ e ] when String.length e > 5 && String.sub e 0 5 = "elem=" ->
        positive_token "array element size" (String.sub e 5 (String.length e - 5))
      | _ -> fail "bad array declaration"
    in
    let length = positive_token "array length" len in
    let base = align64 st.next_addr in
    st.next_addr <- base + (elem * length);
    st.arrays <- (name, { Loop.aname = name; elem_size = elem; length; base }) :: st.arrays
  | "reg" :: cls :: [ name ] -> ignore (declare_reg st (cls_of_letter cls) name)
  | "liveout" :: [ name ] -> st.live_out <- lookup_reg st name :: st.live_out
  | _ -> parse_op_line st tokens

let tokenize line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let finish st =
  let trip =
    match st.trip with Some t -> t | None -> fail "missing 'trip' declaration"
  in
  let iv = declare_reg st Op.Int "$iv" in
  append st ~dst:iv ~srcs:[ iv ] Op.Ialu;
  let p = { Op.id = st.next_reg; cls = Op.Int } in
  st.next_reg <- st.next_reg + 1;
  append st ~dst:p ~srcs:[ iv ] Op.Cmp;
  append st ~srcs:[ p ] (Op.Br Op.Backedge);
  let loop =
    {
      Loop.name = st.name;
      body = Array.of_list (List.rev st.ops);
      arrays = Array.of_list (List.rev_map snd st.arrays);
      nest_level = st.nest;
      lang = st.lang;
      trip_static =
        (match st.trip_static with
        | `Default -> Some trip
        | `Unknown -> None
        | `Known t -> Some t);
      trip_actual = trip;
      aliased = Option.value st.aliased ~default:(default_aliased st.lang);
      outer_trip = st.outer;
      exit_prob = st.exit_prob;
      live_out = List.rev st.live_out;
    }
  in
  match Loop.validate loop with
  | Ok () -> loop
  | Error e -> fail "invalid loop: %s" e

let parse_many text =
  let lines = String.split_on_char '\n' text in
  let loops = ref [] in
  let current = ref None in
  try
    List.iteri
      (fun lineno line ->
        let tokens = tokenize line in
        try
          match (tokens, !current) with
          | [], _ -> ()
          | "loop" :: name :: [ "{" ], None ->
            let st = fresh_state () in
            st.name <- name;
            current := Some st
          | "loop" :: _, Some _ -> fail "nested 'loop' (missing '}'?)"
          | [ "}" ], Some st ->
            loops := finish st :: !loops;
            current := None
          | [ "}" ], None -> fail "'}' without an open loop"
          | _, None -> fail "directive outside a loop block"
          | _, Some st -> parse_line st tokens
        with Parse_error msg -> fail "line %d: %s" (lineno + 1) msg)
      lines;
    match !current with
    | Some _ -> Error "unterminated loop block (missing '}')"
    | None -> Ok (List.rev !loops)
  with Parse_error msg -> Error msg

let parse text =
  match parse_many text with
  | Error e -> Error e
  | Ok [ l ] -> Ok l
  | Ok [] -> Error "no loop definition found"
  | Ok _ -> Error "expected exactly one loop definition"
