(* Id-indexed liveness tables.  Every register producer (Builder,
   Loop_text, the spill rewriter below) draws ids from a single counter,
   so an id identifies a register including its class; dense arrays
   indexed by id replace the Op.reg-keyed hashtables that dominated
   compile time in the respill loop. *)
type liveness = {
  seen : bool array;              (* register occurs in the intervals *)
  lcls : Op.reg_class array;      (* class, meaningful where seen *)
  carried : bool array;
  live_in : bool array;
  lo : int array;
  hi : int array;
}

(* Loop-carried values: read at or before their first definition, or
   live-out — these stay live across the whole iteration. *)
let mark_carried (loop : Loop.t) nregs =
  let first_def = Array.make nregs (-1) in
  let first_use = Array.make nregs (-1) in
  Array.iteri
    (fun i op ->
      List.iter
        (fun (r : Op.reg) -> if first_use.(r.Op.id) < 0 then first_use.(r.Op.id) <- i)
        (Op.uses op);
      (match op.Op.pred with
      | Some p -> if first_use.(p) < 0 then first_use.(p) <- i
      | None -> ());
      List.iter
        (fun (r : Op.reg) -> if first_def.(r.Op.id) < 0 then first_def.(r.Op.id) <- i)
        (Op.defs op))
    loop.Loop.body;
  let carried = Array.make nregs false in
  for id = 0 to nregs - 1 do
    let d = first_def.(id) and u = first_use.(id) in
    if d >= 0 && u >= 0 && u <= d then carried.(id) <- true
  done;
  List.iter
    (fun (r : Op.reg) -> if first_def.(r.Op.id) >= 0 then carried.(r.Op.id) <- true)
    loop.Loop.live_out;
  carried

(* Per-register live interval in issue cycles, under a given schedule. *)
let live_intervals (sched : Schedule.t) =
  let loop = sched.Schedule.loop in
  let body = loop.Loop.body in
  let nregs = Loop.max_reg_id loop + 1 in
  let carried = mark_carried loop nregs in
  let horizon = max (sched.Schedule.length - 1) 0 in
  let lv =
    {
      seen = Array.make nregs false;
      lcls = Array.make nregs Op.Int;
      carried;
      live_in = Array.make nregs false;
      lo = Array.make nregs 0;
      hi = Array.make nregs 0;
    }
  in
  let extend (r : Op.reg) lo hi =
    let id = r.Op.id in
    if lv.seen.(id) then begin
      if lo < lv.lo.(id) then lv.lo.(id) <- lo;
      if hi > lv.hi.(id) then lv.hi.(id) <- hi
    end
    else begin
      lv.seen.(id) <- true;
      lv.lcls.(id) <- r.Op.cls;
      lv.lo.(id) <- lo;
      lv.hi.(id) <- hi
    end
  in
  List.iter
    (fun (r : Op.reg) ->
      lv.live_in.(r.Op.id) <- true;
      extend r 0 horizon)
    (Loop.live_in_regs loop);
  Array.iteri
    (fun i op ->
      let t = sched.Schedule.assignment.(i) in
      let touch (r : Op.reg) =
        if carried.(r.Op.id) then extend r 0 horizon else extend r t t
      in
      List.iter touch (Op.defs op);
      List.iter touch (Op.uses op);
      match op.Op.pred with
      | Some p -> touch { Op.id = p; cls = Op.Int }
      | None -> ())
    body;
  lv

(* Peak live values per class of a straight schedule, from its
   intervals [lv]. *)
let straight_pressure (sched : Schedule.t) lv =
  let len = max sched.Schedule.length 1 in
  (* Difference arrays: each interval contributes +1 at lo and -1 past
     min hi (len-1); a prefix-sum then yields per-cycle live counts. *)
  let int_d = Array.make (len + 1) 0 in
  let fp_d = Array.make (len + 1) 0 in
  let nregs = Array.length lv.seen in
  for id = 0 to nregs - 1 do
    if lv.seen.(id) then begin
      let lo = lv.lo.(id) and hi = min lv.hi.(id) (len - 1) in
      if lo <= hi then begin
        let d = match lv.lcls.(id) with Op.Int -> int_d | Op.Flt -> fp_d in
        d.(lo) <- d.(lo) + 1;
        d.(hi + 1) <- d.(hi + 1) - 1
      end
    end
  done;
  let peak d =
    let best = ref 0 and cur = ref 0 in
    for c = 0 to len - 1 do
      cur := !cur + d.(c);
      if !cur > !best then best := !cur
    done;
    !best
  in
  (peak int_d, peak fp_d)

let pressure (sched : Schedule.t) =
  match sched.Schedule.kind with
  | Schedule.Pipelined _ ->
    (sched.Schedule.int_pressure, sched.Schedule.fp_pressure)
  | Schedule.Straight -> straight_pressure sched (live_intervals sched)

let spill_array_name = "$spill"

let find_or_add_spill_array (loop : Loop.t) =
  let arrays = loop.Loop.arrays in
  let existing = ref None in
  Array.iteri
    (fun i a -> if a.Loop.aname = spill_array_name then existing := Some i)
    arrays;
  match !existing with
  | Some i -> (loop, i)
  | None ->
    let top =
      Array.fold_left
        (fun acc (a : Loop.array_info) -> max acc (a.Loop.base + (a.Loop.elem_size * a.Loop.length)))
        0x8000 arrays
    in
    let base = (top + 63) land lnot 63 in
    let slot = { Loop.aname = spill_array_name; elem_size = 8; length = 64; base } in
    ({ loop with Loop.arrays = Array.append arrays [| slot |] }, Array.length arrays)

(* Count existing spill slots so repeated rounds use fresh offsets. *)
let used_spill_slots (loop : Loop.t) spill_arr =
  Array.fold_left
    (fun acc op ->
      match Op.mref op with
      | Some { Op.array; offset; _ } when array = spill_arr -> max acc (offset + 1)
      | _ -> acc)
    0 loop.Loop.body

(* Rewrite the loop so that [victim] lives in memory: store once after its
   def, reload before each use. *)
let spill_register (loop : Loop.t) (victim : Op.reg) =
  let loop, spill_arr = find_or_add_spill_array loop in
  let slot = used_spill_slots loop spill_arr in
  let next_reg = ref (Loop.max_reg_id loop + 1) in
  let fresh cls =
    let id = !next_reg in
    incr next_reg;
    { Op.id; cls }
  in
  let out = ref [] in
  let emit op = out := op :: !out in
  Array.iter
    (fun (op : Op.t) ->
      let needs_reload =
        List.mem victim op.Op.srcs
        || (match op.Op.pred with
           | Some p -> victim = { Op.id = p; cls = Op.Int }
           | None -> false)
      in
      let op =
        if not needs_reload then op
        else begin
          let reload = fresh victim.Op.cls in
          emit
            (Op.make ~uid:0 ~dst:reload
               (Op.Load { Op.array = spill_arr; stride = 0; offset = slot; mkind = Op.Direct }));
          let srcs = List.map (fun r -> if r = victim then reload else r) op.Op.srcs in
          let pred =
            match op.Op.pred with
            | Some p when victim = { Op.id = p; cls = Op.Int } -> Some reload.Op.id
            | other -> other
          in
          { op with Op.srcs; pred }
        end
      in
      emit op;
      if List.mem victim (Op.defs op) then
        emit
          (Op.make ~uid:0 ~srcs:[ victim ]
             (Op.Store { Op.array = spill_arr; stride = 0; offset = slot; mkind = Op.Direct })))
    loop.Loop.body;
  let body = Array.of_list (List.rev !out) |> Array.mapi (fun i op -> { op with Op.uid = i }) in
  { loop with Loop.body }

let allocate_from ?(max_rounds = 6) ~sched (first : Schedule.t) =
  let machine_limits (s : Schedule.t) =
    (s.Schedule.machine.Machine.int_regs, s.Schedule.machine.Machine.fp_regs)
  in
  let rec go (s : Schedule.t) round spills =
    let loop = s.Schedule.loop in
    match s.Schedule.kind with
    | Schedule.Pipelined _ -> { s with Schedule.spills }
    | Schedule.Straight ->
      let lv = live_intervals s in
      let int_p, fp_p = straight_pressure s lv in
      let int_max, fp_max = machine_limits s in
      let over_int = int_p > int_max and over_fp = fp_p > fp_max in
      if (not (over_int || over_fp)) || round >= max_rounds then
        { s with Schedule.spills; int_pressure = int_p; fp_pressure = fp_p }
      else begin
        let cls = if over_fp then Op.Flt else Op.Int in
        (* Widest-live-range value of the over-subscribed class, excluding
           only carried values and live-ins (invariants).  Registers that
           an earlier round spilled, and the reload registers it made,
           stay eligible, so a later round may pick one of them again.
           Ascending-id scan keeps the lowest id among equal spans — the
           same victim the Op.reg-ordered search picked. *)
        let nregs = Array.length lv.seen in
        let best = ref (-1) and best_span = ref 0 in
        for id = 0 to nregs - 1 do
          if
            lv.seen.(id)
            && lv.lcls.(id) = cls
            && (not lv.carried.(id))
            && not lv.live_in.(id)
          then begin
            let span = lv.hi.(id) - lv.lo.(id) in
            if span >= 1 && span > !best_span then begin
              best := id;
              best_span := span
            end
          end
        done;
        if !best < 0 then { s with Schedule.spills; int_pressure = int_p; fp_pressure = fp_p }
        else
          go
            (sched (spill_register loop { Op.id = !best; cls }))
            (round + 1) (spills + 1)
      end
  in
  go first 0 0

let allocate ?max_rounds ~sched (loop : Loop.t) =
  allocate_from ?max_rounds ~sched (sched loop)
