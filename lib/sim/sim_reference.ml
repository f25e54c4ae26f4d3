(* Reference simulator: a line-for-line copy of the original
   (pre-fast-path) implementation.  It is the oracle the property tests
   compare [Simulator] against bit-for-bit, on random loops and on every
   executable of the FAST labelling sweep.  Keep it dumb: no
   memoised dependence graphs, no fast-forwarding, per-iteration fetch
   probing — any change here weakens the equivalence evidence. *)

type state = {
  machine : Machine.t;
  l1d : Cache_reference.t;
  l1i : Cache_reference.t;
  l2 : Cache_reference.t;
}

let create_state machine =
  {
    machine;
    l1d = Cache_reference.create machine.Machine.l1d;
    l1i = Cache_reference.create machine.Machine.l1i;
    l2 = Cache_reference.create machine.Machine.l2;
  }

let reset_state s =
  Cache_reference.reset s.l1d;
  Cache_reference.reset s.l1i;
  Cache_reference.reset s.l2

type stats = {
  mutable issue_cycles : int;
  mutable data_stall_cycles : int;
  mutable fetch_stall_cycles : int;
  mutable branch_cycles : int;
  mutable entry_overhead_cycles : int;
  mutable pipeline_fill_cycles : int;
}

let empty_stats () =
  {
    issue_cycles = 0;
    data_stall_cycles = 0;
    fetch_stall_cycles = 0;
    branch_cycles = 0;
    entry_overhead_cycles = 0;
    pipeline_fill_cycles = 0;
  }

type executable = Pipeline_state.executable = {
  schedules : (Schedule.t * int * int) list;
  unroll_factor : int;
  total_code_bytes : int;
  outer_trip : int;
  exit_prob : float;
  entry_extra_cycles : int;
  total_spills : int;
}

(* Deterministic address scramble for indirect references. *)
let indirect_index uid iter length =
  let h = (uid * 2654435761) + (iter * 40503) in
  let h = (h lxor (h lsr 13)) * 97 in
  (h land max_int) mod length

let code_base = 0x40000000
let scratch_base = 0x70000000

(* Between two entries of a loop nest the rest of the program runs: it
   displaces essentially all of the loop's code from the I-cache (hundreds
   of other basic blocks execute) and part of its data from the D-cache. *)
let inter_entry_dirty_ilines = 384
let inter_entry_dirty_dlines = 96

(* Pre-resolved per-op execution record. *)
type exec_op = {
  cycle : int;
  dst_id : int;        (* -1 = none *)
  src_ids : int array;
  base_latency : int;
  consumer_slack : int;
  (* schedule slack beyond the base latency before any consumer needs the
     result; a cache-miss penalty up to this amount is hidden *)
  mem : mem_info option;
}

and mem_info = {
  is_load : bool;
  addr_base : int;
  elem : int;
  arr_len : int;
  stride : int;
  offset : int;
  indirect : bool;
  uid : int;
}

let prepare (sched : Schedule.t) =
  let m = sched.Schedule.machine in
  let loop = sched.Schedule.loop in
  let window =
    match sched.Schedule.kind with
    | Schedule.Pipelined { ii; _ } -> ii
    | Schedule.Straight -> 0
  in
  let g = Deps.build ~latency:(Machine.latency m) loop in
  let slack_of pos =
    let t0 = sched.Schedule.assignment.(pos) in
    let lat = Machine.latency m loop.Loop.body.(pos) in
    let slack = ref max_int in
    for k = g.Deps.succ_off.(pos) to g.Deps.succ_off.(pos + 1) - 1 do
      let e = g.Deps.succ_edge.(k) in
      if g.Deps.e_kind.(e) = Deps.reg_flow_code then
        let consumer =
          sched.Schedule.assignment.(g.Deps.e_dst.(e)) + (window * g.Deps.e_dist.(e))
        in
        slack := min !slack (max 0 (consumer - t0 - lat))
    done;
    if !slack = max_int then window else !slack
  in
  let order =
    let idx = Array.init (Array.length loop.Loop.body) (fun i -> i) in
    Array.sort
      (fun a b ->
        compare (sched.Schedule.assignment.(a), a) (sched.Schedule.assignment.(b), b))
      idx;
    idx
  in
  let resolve pos =
    let op = loop.Loop.body.(pos) in
    let mem =
      match Op.mref op with
      | Some r ->
        let a = loop.Loop.arrays.(r.Op.array) in
        Some
          {
            is_load = Op.is_load op;
            addr_base = a.Loop.base;
            elem = a.Loop.elem_size;
            arr_len = max a.Loop.length 1;
            stride = r.Op.stride;
            offset = r.Op.offset;
            indirect = (r.Op.mkind = Op.Indirect);
            uid = op.Op.uid;
          }
      | None -> None
    in
    {
      cycle = sched.Schedule.assignment.(pos);
      dst_id = (match op.Op.dst with Some r -> r.Op.id | None -> -1);
      src_ids = Array.of_list (List.map (fun (r : Op.reg) -> r.Op.id) (Op.uses op));
      base_latency = Machine.latency m op;
      consumer_slack = slack_of pos;
      mem;
    }
  in
  Array.map resolve order

(* Data access through the hierarchy; returns extra stall cycles beyond the
   base latency (0 for stores: they retire through the store buffer but
   still allocate lines). *)
let data_access st ~is_load addr =
  let m = st.machine in
  if Cache_reference.access st.l1d addr then 0
  else begin
    let extra = if Cache_reference.access st.l2 addr then m.Machine.l2_hit_extra else m.Machine.mem_extra in
    if is_load then extra else 0
  end

let fetch_cost st ~code_bytes =
  let m = st.machine in
  let line = m.Machine.l1i.Machine.line_bytes in
  let nlines = max 1 ((code_bytes + line - 1) / line) in
  let cost = ref 0 in
  for l = 0 to nlines - 1 do
    let addr = code_base + (l * line) in
    if not (Cache_reference.access st.l1i addr) then begin
      cost := !cost + m.Machine.l1i_miss_extra;
      if not (Cache_reference.access st.l2 addr) then cost := !cost + (m.Machine.mem_extra / 4)
    end
  done;
  !cost

let dirty_caches st =
  let dl = Cache_reference.line_bytes st.l1d and il = Cache_reference.line_bytes st.l1i in
  for l = 0 to inter_entry_dirty_dlines - 1 do
    ignore (Cache_reference.access st.l1d (scratch_base + (l * dl)))
  done;
  for l = 0 to inter_entry_dirty_ilines - 1 do
    ignore (Cache_reference.access st.l1i (scratch_base + (l * il)))
  done

let address mi iter =
  if mi.indirect then mi.addr_base + (mi.elem * indirect_index mi.uid iter mi.arr_len)
  else begin
    let idx = (mi.stride * iter) + mi.offset in
    let idx = ((idx mod mi.arr_len) + mi.arr_len) mod mi.arr_len in
    mi.addr_base + (mi.elem * idx)
  end

(* One entry's worth of a straight schedule: in-order issue with scoreboard
   stalls; returns cycles consumed. *)
let run_straight st sched exec_ops reg_ready ~stats ~start ~trips ~phase ~max_sim_iters
    ~code_bytes =
  let m = st.machine in
  let issue_span = sched.Schedule.length in
  let per_iter_base = issue_span + m.Machine.taken_branch_cost in
  let sim_iters = min trips max_sim_iters in
  let t = ref start in
  let half = max 1 (sim_iters / 2) in
  let t_at_half = ref start in
  for it = 0 to sim_iters - 1 do
    if it = half then t_at_half := !t;
    let fetch = fetch_cost st ~code_bytes in
    stats.fetch_stall_cycles <- stats.fetch_stall_cycles + fetch;
    t := !t + fetch;
    let stall = ref 0 in
    let orig_iter = phase + it in
    Array.iter
      (fun eop ->
        let issue = ref (!t + eop.cycle + !stall) in
        Array.iter
          (fun id ->
            let ready = reg_ready.(id) in
            if ready > !issue then begin
              stall := !stall + (ready - !issue);
              issue := ready
            end)
          eop.src_ids;
        match eop.mem with
        | Some mi ->
          let extra = data_access st ~is_load:mi.is_load (address mi orig_iter) in
          if eop.dst_id >= 0 then
            reg_ready.(eop.dst_id) <- !issue + eop.base_latency + extra
        | None ->
          if eop.dst_id >= 0 then reg_ready.(eop.dst_id) <- !issue + eop.base_latency)
      exec_ops;
    stats.issue_cycles <- stats.issue_cycles + issue_span;
    stats.branch_cycles <- stats.branch_cycles + m.Machine.taken_branch_cost;
    stats.data_stall_cycles <- stats.data_stall_cycles + !stall;
    t := !t + per_iter_base + !stall
  done;
  if trips > sim_iters && sim_iters > half then begin
    let steady = float_of_int (!t - !t_at_half) /. float_of_int (sim_iters - half) in
    let extra = int_of_float (Float.round (steady *. float_of_int (trips - sim_iters))) in
    (* Attribute extrapolated cycles to categories in the simulated
       window's proportions. *)
    let window = max 1 (!t - start) in
    let scale v = v * extra / window in
    stats.issue_cycles <- stats.issue_cycles + scale stats.issue_cycles;
    stats.branch_cycles <- stats.branch_cycles + scale stats.branch_cycles;
    stats.data_stall_cycles <- stats.data_stall_cycles + scale stats.data_stall_cycles;
    stats.fetch_stall_cycles <- stats.fetch_stall_cycles + scale stats.fetch_stall_cycles;
    t := !t + extra
  end;
  !t

(* One entry of a pipelined kernel: II per iteration plus miss stalls. *)
let run_pipelined st sched exec_ops ~stats ~ii ~stages ~start ~trips ~phase ~max_sim_iters
    ~code_bytes =
  let sim_iters = min trips max_sim_iters in
  let t = ref start in
  let half = max 1 (sim_iters / 2) in
  let t_at_half = ref start in
  (* Prologue and epilogue: filling and draining the pipeline. *)
  stats.pipeline_fill_cycles <- stats.pipeline_fill_cycles + (2 * (stages - 1) * ii);
  t := !t + (2 * (stages - 1) * ii);
  ignore sched;
  for it = 0 to sim_iters - 1 do
    if it = half then t_at_half := !t;
    let fetch = fetch_cost st ~code_bytes in
    stats.fetch_stall_cycles <- stats.fetch_stall_cycles + fetch;
    t := !t + fetch;
    let orig_iter = phase + it in
    let stalls = ref 0 in
    Array.iter
      (fun eop ->
        match eop.mem with
        | Some mi ->
          let extra = data_access st ~is_load:mi.is_load (address mi orig_iter) in
          (* The modulo schedule hides up to the consumer slack of the load. *)
          stalls := !stalls + max 0 (extra - eop.consumer_slack)
        | None -> ())
      exec_ops;
    stats.issue_cycles <- stats.issue_cycles + ii;
    stats.data_stall_cycles <- stats.data_stall_cycles + !stalls;
    t := !t + ii + !stalls
  done;
  if trips > sim_iters && sim_iters > half then begin
    let steady = float_of_int (!t - !t_at_half) /. float_of_int (sim_iters - half) in
    let extra = int_of_float (Float.round (steady *. float_of_int (trips - sim_iters))) in
    let window = max 1 (!t - start) in
    let scale v = v * extra / window in
    stats.issue_cycles <- stats.issue_cycles + scale stats.issue_cycles;
    stats.data_stall_cycles <- stats.data_stall_cycles + scale stats.data_stall_cycles;
    stats.fetch_stall_cycles <- stats.fetch_stall_cycles + scale stats.fetch_stall_cycles;
    t := !t + extra
  end;
  !t

let run_profiled ?(max_sim_iters = 400) st exe =
  let prepared =
    List.map
      (fun (sched, trips, phase) ->
        let nregs = Loop.max_reg_id sched.Schedule.loop + 1 in
        (sched, trips, phase, prepare sched, nregs))
      exe.schedules
  in
  let max_regs =
    List.fold_left (fun acc (_, _, _, _, n) -> max acc n) 1 prepared
  in
  let reg_ready = Array.make max_regs 0 in
  let stats = empty_stats () in
  let total = ref 0 in
  (* Entries beyond the first few repeat the same warm-cache behaviour;
     simulate three exactly and extrapolate the rest from the last one. *)
  let exact_entries = min exe.outer_trip 3 in
  let last_entry_cycles = ref 0 in
  for _entry = 1 to exact_entries do
    dirty_caches st;
    Array.fill reg_ready 0 max_regs 0;
    (* Time runs continuously across kernel and remainder within an entry so
       that loop-carried values (reductions) stall the remainder correctly. *)
    let entry_clock = ref 0 in
    List.iter
      (fun (sched, trips, phase, exec_ops, _) ->
        if trips > 0 then
          entry_clock :=
            match sched.Schedule.kind with
            | Schedule.Straight ->
              run_straight st sched exec_ops reg_ready ~stats ~start:!entry_clock ~trips
                ~phase ~max_sim_iters ~code_bytes:exe.total_code_bytes
            | Schedule.Pipelined { ii; stages } ->
              run_pipelined st sched exec_ops ~stats ~ii ~stages ~start:!entry_clock
                ~trips ~phase ~max_sim_iters ~code_bytes:exe.total_code_bytes)
      prepared;
    stats.entry_overhead_cycles <- stats.entry_overhead_cycles + exe.entry_extra_cycles;
    last_entry_cycles := !entry_clock + exe.entry_extra_cycles;
    total := !total + !last_entry_cycles
  done;
  if exe.outer_trip > exact_entries then begin
    let extra_entries = exe.outer_trip - exact_entries in
    let scale v = v * extra_entries / max exact_entries 1 in
    stats.issue_cycles <- stats.issue_cycles + scale stats.issue_cycles;
    stats.branch_cycles <- stats.branch_cycles + scale stats.branch_cycles;
    stats.data_stall_cycles <- stats.data_stall_cycles + scale stats.data_stall_cycles;
    stats.fetch_stall_cycles <- stats.fetch_stall_cycles + scale stats.fetch_stall_cycles;
    stats.pipeline_fill_cycles <- stats.pipeline_fill_cycles + scale stats.pipeline_fill_cycles;
    stats.entry_overhead_cycles <- stats.entry_overhead_cycles + scale stats.entry_overhead_cycles;
    total := !total + (extra_entries * !last_entry_cycles)
  end;
  (!total, stats)

let run ?max_sim_iters st exe = fst (run_profiled ?max_sim_iters st exe)
