(* Reference dependence-graph builder: the list-based [Deps.build] and
   [Deps.to_csr] as they were before graphs were built straight into CSR,
   kept verbatim (edge records in lists, a polymorphic-compare register map,
   a list scan per use).  [Deps.build] must produce the same eleven CSR
   arrays; the sched suite's "csr-native graph = reference builder"
   property checks that. *)

open Deps

type edge = { src : int; dst : int; dkind : kind; latency : int; distance : int }

type t = {
  n : int;
  edges : edge list;
  succs : edge list array;
  preds : edge list array;
}

let mem_flow_latency = 2
let mem_anti_latency = 0
let mem_output_latency = 1

module RegMap = Map.Make (struct
  type t = Op.reg
  let compare = compare
end)

let dedupe_regs regs =
  List.sort_uniq compare regs

(* Per-op register reads, folding the guard predicate in as a read of the
   integer register that the defining Cmp wrote. *)
let reads_of op =
  let pred_reads =
    match op.Op.pred with
    | Some p -> [ { Op.id = p; cls = Op.Int } ]
    | None -> []
  in
  dedupe_regs (Op.uses op @ pred_reads)

let register_edges body =
  let n = Array.length body in
  let defs_of = ref RegMap.empty in
  for i = 0 to n - 1 do
    List.iter
      (fun r ->
        let cur = Option.value (RegMap.find_opt r !defs_of) ~default:[] in
        defs_of := RegMap.add r (i :: cur) !defs_of)
      (Op.defs body.(i))
  done;
  let defs_of = RegMap.map List.rev !defs_of in
  let edges = ref [] in
  let add src dst dkind latency distance =
    if not (src = dst && distance = 0) then
      edges := { src; dst; dkind; latency; distance } :: !edges
  in
  let last_def defs = List.nth defs (List.length defs - 1) in
  (* Flow and anti dependences, per use. *)
  for u = 0 to n - 1 do
    List.iter
      (fun r ->
        match RegMap.find_opt r defs_of with
        | None -> () (* pure live-in *)
        | Some defs ->
          (* Reaching def: nearest def strictly before [u], else the last def
             of the previous iteration. *)
          let before = List.filter (fun d -> d < u) defs in
          (match List.rev before with
          | d :: _ -> add d u Reg_flow 0 0 (* latency patched by caller *)
          | [] -> add (last_def defs) u Reg_flow 0 1);
          (* Anti: the next def after [u] must wait, else the first def of
             the next iteration. *)
          let after = List.filter (fun d -> d > u) defs in
          (match after with
          | d :: _ -> add u d Reg_anti 0 0
          | [] -> add u (List.hd defs) Reg_anti 0 1))
      (reads_of body.(u))
  done;
  (* Output dependences between successive defs of the same register. *)
  RegMap.iter
    (fun _r defs ->
      let rec chain = function
        | d1 :: (d2 :: _ as rest) ->
          add d1 d2 Reg_output 1 0;
          chain rest
        | [ _ ] | [] -> ()
      in
      chain defs;
      match defs with
      | d1 :: _ :: _ -> add (last_def defs) d1 Reg_output 1 1
      | _ -> ())
    defs_of;
  !edges

(* Memory disambiguation for one ordered pair of references.  Returns the
   dependence direction and distance, or [None] when they provably never
   alias. *)
type alias = No_alias | Same_iter | A_then_b of int | B_then_a of int | Unknown

let classify_pair ~aliased (a : Op.mref) (b : Op.mref) =
  match (a.Op.mkind, b.Op.mkind) with
  | Op.Indirect, _ | _, Op.Indirect -> Unknown
  | Op.Direct, Op.Direct ->
    if a.Op.array <> b.Op.array then (if aliased then Unknown else No_alias)
    else if a.Op.stride = b.Op.stride then begin
      if a.Op.stride = 0 then if a.Op.offset = b.Op.offset then Same_iter else No_alias
      else
        let diff = a.Op.offset - b.Op.offset in
        if diff mod a.Op.stride <> 0 then No_alias
        else
          let d = diff / a.Op.stride in
          if d = 0 then Same_iter else if d > 0 then A_then_b d else B_then_a (-d)
    end
    else Unknown

let mem_kind_of src_is_store dst_is_store =
  match (src_is_store, dst_is_store) with
  | true, false -> (Mem_flow, mem_flow_latency)
  | false, true -> (Mem_anti, mem_anti_latency)
  | true, true -> (Mem_output, mem_output_latency)
  | false, false -> assert false

let memory_edges ~aliased body =
  let n = Array.length body in
  let mem_positions = ref [] in
  for i = n - 1 downto 0 do
    if Op.is_memory body.(i) then mem_positions := i :: !mem_positions
  done;
  let edges = ref [] in
  let add src dst src_store dst_store distance =
    let dkind, latency = mem_kind_of src_store dst_store in
    edges := { src; dst; dkind; latency; distance } :: !edges
  in
  let pairs = !mem_positions in
  List.iteri
    (fun ia pa ->
      List.iteri
        (fun ib pb ->
          if ib > ia then begin
            let a = body.(pa) and b = body.(pb) in
            let sa = Op.is_store a and sb = Op.is_store b in
            if sa || sb then
              match (Op.mref a, Op.mref b) with
              | Some ra, Some rb -> begin
                match classify_pair ~aliased ra rb with
                | No_alias -> ()
                | Same_iter ->
                  add pa pb sa sb 0;
                  (* A stride-0 pair hits the same address every iteration,
                     so the later op also feeds the earlier one next time. *)
                  if ra.Op.stride = 0 then add pb pa sb sa 1
                | A_then_b d -> add pa pb sa sb d
                | B_then_a d -> add pb pa sb sa d
                | Unknown ->
                  (* Conservative: order within the iteration and forbid
                     reordering across one iteration in either direction. *)
                  add pa pb sa sb 0;
                  add pb pa sb sa 1
              end
              | _ -> assert false
          end)
        pairs)
    pairs;
  !edges

let control_edges body =
  let n = Array.length body in
  let edges = ref [] in
  for e = 0 to n - 1 do
    match body.(e).Op.opcode with
    | Op.Br Op.Exit ->
      for j = e + 1 to n - 1 do
        edges := { src = e; dst = j; dkind = Control; latency = 0; distance = 0 } :: !edges
      done
    | _ -> ()
  done;
  !edges

let serial_edges body =
  let n = Array.length body in
  let edges = ref [] in
  (* Calls serialise against everything around them. *)
  for c = 0 to n - 1 do
    match body.(c).Op.opcode with
    | Op.Call ->
      for j = 0 to n - 1 do
        if j < c then
          edges := { src = j; dst = c; dkind = Serial; latency = 1; distance = 0 } :: !edges
        else if j > c then
          edges := { src = c; dst = j; dkind = Serial; latency = 1; distance = 0 } :: !edges
      done
    | _ -> ()
  done;
  (* The backedge delimits the iteration: nothing may schedule after it. *)
  Array.iteri
    (fun i op ->
      match op.Op.opcode with
      | Op.Br Op.Backedge ->
        for j = 0 to n - 1 do
          if j <> i then
            edges := { src = j; dst = i; dkind = Serial; latency = 0; distance = 0 } :: !edges
        done
      | _ -> ())
    body;
  !edges

let build ~latency (loop : Loop.t) =
  let body = loop.Loop.body in
  let n = Array.length body in
  let reg_edges =
    List.map
      (fun e ->
        if e.dkind = Reg_flow then { e with latency = latency body.(e.src) } else e)
      (register_edges body)
  in
  let edges =
    reg_edges
    @ memory_edges ~aliased:loop.Loop.aliased body
    @ control_edges body
    @ serial_edges body
  in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  List.iter
    (fun e ->
      succs.(e.src) <- e :: succs.(e.src);
      preds.(e.dst) <- e :: preds.(e.dst))
    edges;
  { n; edges; succs; preds }

let to_csr t =
  let n = t.n in
  let m = List.length t.edges in
  let e_src = Array.make m 0
  and e_dst = Array.make m 0
  and e_kind = Array.make m 0
  and e_lat = Array.make m 0
  and e_dist = Array.make m 0 in
  List.iteri
    (fun i e ->
      e_src.(i) <- e.src;
      e_dst.(i) <- e.dst;
      e_kind.(i) <- kind_code e.dkind;
      e_lat.(i) <- e.latency;
      e_dist.(i) <- e.distance)
    t.edges;
  (* Counting sort of edge indices by endpoint, preserving edge order
     within each group. *)
  let group key =
    let off = Array.make (n + 1) 0 in
    for i = 0 to m - 1 do
      off.(key.(i) + 1) <- off.(key.(i) + 1) + 1
    done;
    for v = 1 to n do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    let idx = Array.make m 0 in
    let cursor = Array.copy off in
    for i = 0 to m - 1 do
      let v = key.(i) in
      idx.(cursor.(v)) <- i;
      cursor.(v) <- cursor.(v) + 1
    done;
    (off, idx)
  in
  let succ_off, succ_edge = group e_src in
  let pred_off, pred_edge = group e_dst in
  {
    csr_n = n;
    n_edges = m;
    e_src;
    e_dst;
    e_kind;
    e_lat;
    e_dist;
    succ_off;
    succ_edge;
    pred_off;
    pred_edge;
  }

(* The edges of a CSR graph in index order, as records. *)
let edges_of_csr (g : csr) =
  List.init g.n_edges (fun i ->
      {
        src = g.e_src.(i);
        dst = g.e_dst.(i);
        dkind = kind_of_code g.e_kind.(i);
        latency = g.e_lat.(i);
        distance = g.e_dist.(i);
      })
