let names =
  [|
    "nest_level";
    "num_ops";
    "num_fp_ops";
    "num_branches";
    "num_mem_ops";
    "num_operands";
    "num_implicit_ops";
    "num_unique_predicates";
    "critical_path_latency";
    "est_cycle_length";
    "is_fortran";
    "data_footprint_kb";
    "num_parallel_computations";
    "max_dependence_height";
    "max_memory_height";
    "max_control_height";
    "avg_dependence_height";
    "num_indirect_refs";
    "min_mem_carried_distance";
    "num_mem_carried_deps";
    "tripcount";
    "num_uses";
    "num_defs";
    "num_loads";
    "num_stores";
    "num_fdiv";
    "num_calls";
    "has_early_exit";
    "known_tripcount";
    "max_fan_in";
    "live_range_size";
    "reg_pressure_est";
    "code_size_bytes";
    "recurrence_latency";
    "may_alias";
    "trip_div2";
    "trip_div4";
    "trip_div8";
  |]

let count = Array.length names

let index_of name =
  let found = ref (-1) in
  Array.iteri (fun i n -> if n = name then found := i) names;
  if !found < 0 then raise Not_found else !found

(* Body-order live-range statistics: an approximation of what the register
   allocator will see, computable before scheduling.  Loop-carried values
   span the whole body. *)
let live_range_stats (loop : Loop.t) =
  let body = loop.Loop.body in
  let n = Array.length body in
  let first_def = Hashtbl.create 16 in
  let first_use = Hashtbl.create 16 in
  let last_occ = Hashtbl.create 16 in
  Array.iteri
    (fun i op ->
      let note_use (r : Op.reg) =
        if not (Hashtbl.mem first_use r) then Hashtbl.add first_use r i;
        Hashtbl.replace last_occ r i
      in
      List.iter note_use (Op.uses op);
      (match op.Op.pred with
      | Some p -> note_use { Op.id = p; cls = Op.Int }
      | None -> ());
      List.iter
        (fun r ->
          if not (Hashtbl.mem first_def r) then Hashtbl.add first_def r i;
          Hashtbl.replace last_occ r i)
        (Op.defs op))
    body;
  let ranges = ref [] in
  Hashtbl.iter
    (fun r d ->
      let carried =
        match Hashtbl.find_opt first_use r with
        | Some u -> u <= d
        | None -> false
      in
      let carried = carried || List.mem r loop.Loop.live_out in
      let lo, hi =
        if carried then (0, n - 1)
        else (d, Option.value (Hashtbl.find_opt last_occ r) ~default:d)
      in
      ranges := (lo, hi) :: !ranges)
    first_def;
  let ranges = !ranges in
  let avg_len =
    match ranges with
    | [] -> 0.0
    | _ ->
      let total = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges in
      float_of_int total /. float_of_int (List.length ranges)
  in
  let pressure = ref 0 in
  for i = 0 to n - 1 do
    let live = List.length (List.filter (fun (lo, hi) -> lo <= i && i <= hi) ranges) in
    pressure := max !pressure live
  done;
  (avg_len, float_of_int !pressure)

let extract ?memo machine (loop : Loop.t) =
  let latency op = Machine.latency machine op in
  let deps = Deps_memo.get ?memo machine loop in
  let stats = Dag.analyze deps (fun i -> latency loop.Loop.body.(i)) in
  let f = float_of_int in
  let fdivs =
    Array.fold_left
      (fun acc (op : Op.t) -> match op.Op.opcode with Op.Fdiv -> acc + 1 | _ -> acc)
      0 loop.Loop.body
  in
  let calls =
    Array.fold_left
      (fun acc (op : Op.t) -> match op.Op.opcode with Op.Call -> acc + 1 | _ -> acc)
      0 loop.Loop.body
  in
  let avg_live, pressure = live_range_stats loop in
  let ops = Loop.op_count loop in
  let mem = Loop.memory_op_count loop in
  [|
    f loop.Loop.nest_level;
    f ops;
    f (Loop.float_op_count loop);
    f (Loop.branch_count loop);
    f mem;
    f (Loop.operand_count loop);
    f (Loop.implicit_count loop);
    f (Loop.unique_predicates loop);
    f stats.Dag.critical_path;
    f (Machine.res_cycles machine loop.Loop.body);
    (match loop.Loop.lang with Loop.C -> 0.0 | Loop.Fortran | Loop.Fortran90 -> 1.0);
    log1p
      (Array.fold_left
         (fun acc (a : Loop.array_info) -> acc +. (f (a.Loop.elem_size * a.Loop.length) /. 1024.0))
         0.0 loop.Loop.arrays);
    f stats.Dag.computations;
    f stats.Dag.max_dependence_height;
    f stats.Dag.max_memory_height;
    f stats.Dag.max_control_height;
    stats.Dag.avg_dependence_height;
    f (Loop.indirect_ref_count loop);
    (if stats.Dag.min_mem_to_mem_distance = max_int then -1.0
     else f stats.Dag.min_mem_to_mem_distance);
    f stats.Dag.mem_to_mem_dependences;
    (match loop.Loop.trip_static with Some n -> log1p (f n) | None -> -1.0);
    f (Loop.use_count loop);
    f (Loop.def_count loop);
    f (Loop.load_count loop);
    f (Loop.store_count loop);
    f fdivs;
    f calls;
    (if Loop.has_early_exit loop then 1.0 else 0.0);
    (match loop.Loop.trip_static with Some _ -> 1.0 | None -> 0.0);
    f stats.Dag.max_fan_in;
    avg_live;
    pressure;
    log1p (f (Loop.code_bytes loop));
    f stats.Dag.recurrence_latency;
    (if loop.Loop.aliased then 1.0 else 0.0);
    (match loop.Loop.trip_static with Some n when n mod 2 = 0 -> 1.0 | _ -> 0.0);
    (match loop.Loop.trip_static with Some n when n mod 4 = 0 -> 1.0 | _ -> 0.0);
    (match loop.Loop.trip_static with Some n when n mod 8 = 0 -> 1.0 | _ -> 0.0);
  |]
