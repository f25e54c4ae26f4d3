let res_mii machine (loop : Loop.t) = Machine.res_cycles machine loop.Loop.body

(* Longest-path fixpoint with weights (lat - II*dist); divergence after n
   rounds means a positive cycle, i.e. II is below RecMII.  Serial edges
   are excluded (the rotated branch is not a constraint). *)
let feasible_ii (g : Deps.csr) ii =
  let n = g.Deps.csr_n in
  let dist = Array.make n 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n + 1 do
    changed := false;
    incr rounds;
    for e = 0 to g.Deps.n_edges - 1 do
      if g.Deps.e_kind.(e) <> Deps.serial_code then begin
        let w = g.Deps.e_lat.(e) - (ii * g.Deps.e_dist.(e)) in
        let cand = dist.(g.Deps.e_src.(e)) + w in
        if cand > dist.(g.Deps.e_dst.(e)) then begin
          dist.(g.Deps.e_dst.(e)) <- cand;
          changed := true
        end
      end
    done
  done;
  not !changed

(* Any recurrence cycle spans at least one iteration (the distance-0
   subgraph is acyclic for a valid loop), so an II of the total edge
   latency makes every cycle's weight non-positive: a sound upper bound
   for the search, derived from the graph instead of a magic constant. *)
let rec_mii_of (g : Deps.csr) =
  let ub = ref 1 in
  for e = 0 to g.Deps.n_edges - 1 do
    if g.Deps.e_kind.(e) <> Deps.serial_code then ub := !ub + g.Deps.e_lat.(e)
  done;
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if feasible_ii g mid then search lo mid else search (mid + 1) hi
  in
  search 1 !ub

let rec_mii ?memo machine (loop : Loop.t) =
  rec_mii_of (Deps_memo.get ?memo machine loop)

let kind_index = function Machine.M -> 0 | Machine.I -> 1 | Machine.F -> 2 | Machine.B -> 3

let avail m = [| m.Machine.m_units; m.Machine.i_units; m.Machine.f_units; m.Machine.b_units |]

let occupancy m (op : Op.t) =
  match op.Op.opcode with
  | Op.Fdiv when m.Machine.fdiv_unpipelined -> m.Machine.lat_fdiv
  | _ -> 1

(* Modulo reservation table: per modulo slot, per unit kind + issue total. *)
type mrt = { ii : int; rows : int array array; machine : Machine.t; units : int array }

let mrt_create machine ii =
  { ii; rows = Array.init ii (fun _ -> Array.make 5 0); machine; units = avail machine }

let mrt_fits mrt op time =
  let m = mrt.machine in
  let k = kind_index (Machine.unit_of op) in
  let occ = min (occupancy m op) mrt.ii in
  let ok = ref true in
  for d = 0 to occ - 1 do
    let slot = (time + d) mod mrt.ii in
    if mrt.rows.(slot).(k) >= mrt.units.(k) then ok := false
  done;
  if mrt.rows.(time mod mrt.ii).(4) >= m.Machine.issue_width then ok := false;
  !ok

let mrt_change mrt op time delta =
  let m = mrt.machine in
  let k = kind_index (Machine.unit_of op) in
  let occ = min (occupancy m op) mrt.ii in
  for d = 0 to occ - 1 do
    let slot = (time + d) mod mrt.ii in
    mrt.rows.(slot).(k) <- mrt.rows.(slot).(k) + delta
  done;
  let islot = time mod mrt.ii in
  mrt.rows.(islot).(4) <- mrt.rows.(islot).(4) + delta

(* Height priorities for a given II: H(v) = max over outgoing edges of
   H(dst) + lat - II*dist, iterated to fixpoint (II >= RecMII guarantees
   convergence). *)
let heights (g : Deps.csr) ii =
  let n = g.Deps.csr_n in
  let h = Array.make n 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n + 1 do
    changed := false;
    incr rounds;
    for e = 0 to g.Deps.n_edges - 1 do
      if g.Deps.e_kind.(e) <> Deps.serial_code then begin
        let cand = h.(g.Deps.e_dst.(e)) + g.Deps.e_lat.(e) - (ii * g.Deps.e_dist.(e)) in
        if cand > h.(g.Deps.e_src.(e)) then begin
          h.(g.Deps.e_src.(e)) <- cand;
          changed := true
        end
      end
    done
  done;
  h

let charge_reg int_req fp_req (r : Op.reg) =
  match r.Op.cls with
  | Op.Int -> incr int_req
  | Op.Flt -> incr fp_req

(* Rotating-register requirement at a given schedule. *)
let register_requirement (loop : Loop.t) (g : Deps.csr) assignment ii =
  let body = loop.Loop.body in
  let n = Array.length body in
  let lifetime = Array.make n 0 in
  for e = 0 to g.Deps.n_edges - 1 do
    if g.Deps.e_kind.(e) = Deps.reg_flow_code then begin
      let src = g.Deps.e_src.(e) in
      let span = assignment.(g.Deps.e_dst.(e)) + (ii * g.Deps.e_dist.(e)) - assignment.(src) in
      lifetime.(src) <- max lifetime.(src) span
    end
  done;
  let int_req = ref 0 and fp_req = ref 0 in
  for v = 0 to n - 1 do
    match body.(v).Op.dst with
    | Some { Op.cls; _ } ->
      let l = max lifetime.(v) 1 in
      let copies = (l + ii - 1) / ii in
      (match cls with
      | Op.Int -> int_req := !int_req + copies
      | Op.Flt -> fp_req := !fp_req + copies)
    | None -> ()
  done;
  (* Loop invariants each hold a register for the whole loop. *)
  List.iter (charge_reg int_req fp_req) (Loop.live_in_regs loop);
  (!int_req, !fp_req)

(* The floor of [register_requirement] over every II and placement: a
   defined value needs at least one copy (its lifetime is clamped to 1, so
   ceil(lifetime / II) >= 1) and an invariant exactly one register. *)
let min_register_requirement (loop : Loop.t) =
  let int_req = ref 0 and fp_req = ref 0 in
  Array.iter (fun (op : Op.t) -> Option.iter (charge_reg int_req fp_req) op.Op.dst) loop.Loop.body;
  List.iter (charge_reg int_req fp_req) (Loop.live_in_regs loop);
  (!int_req, !fp_req)

let try_ii machine (loop : Loop.t) (g : Deps.csr) ii =
  let body = loop.Loop.body in
  let n = Array.length body in
  let h = heights g ii in
  let time = Array.make n (-1) in
  let prev_time = Array.make n (-1) in
  let mrt = mrt_create machine ii in
  (* Unplaced ops, greatest height first, then body position.  An op is
     queued exactly while it has no time, so [n] slots suffice. *)
  let max_h = Array.fold_left max 0 h in
  let rank v = ((max_h - h.(v)) * n) + v in
  let queue = Rank_heap.create n in
  for v = 0 to n - 1 do
    Rank_heap.push queue (rank v)
  done;
  let unschedule v =
    mrt_change mrt body.(v) time.(v) (-1);
    time.(v) <- -1;
    Rank_heap.push queue (rank v)
  in
  let budget = ref (n * 16) in
  let failed = ref false in
  while (not !failed) && not (Rank_heap.is_empty queue) do
    if !budget <= 0 then failed := true
    else begin
      decr budget;
      let v = Rank_heap.pop queue mod n in
      (* Serial edges are not constraints: the branch is rotated. *)
      let estart = ref 0 in
      for k = g.Deps.pred_off.(v) to g.Deps.pred_off.(v + 1) - 1 do
        let e = g.Deps.pred_edge.(k) in
        let src = g.Deps.e_src.(e) in
        if g.Deps.e_kind.(e) <> Deps.serial_code && time.(src) >= 0 then
          estart := max !estart (time.(src) + g.Deps.e_lat.(e) - (ii * g.Deps.e_dist.(e)))
      done;
      let estart = !estart in
      (* Find a resource-feasible slot in the II-wide window. *)
      let slot = ref None in
      (let t = ref estart in
       while !slot = None && !t < estart + ii do
         if mrt_fits mrt body.(v) !t then slot := Some !t;
         incr t
       done);
      let t =
        match !slot with
        | Some t -> t
        | None ->
          (* Force placement, ensuring forward progress on re-placement. *)
          let forced = max estart (prev_time.(v) + 1) in
          (* Evict resource conflicts at the forced slot. *)
          let victims = ref [] in
          for u = 0 to n - 1 do
            if u <> v && time.(u) >= 0 then begin
              let same_issue = time.(u) mod ii = forced mod ii in
              let same_kind = Machine.unit_of body.(u) = Machine.unit_of body.(v) in
              let occ_u = min (occupancy machine body.(u)) ii in
              let occ_v = min (occupancy machine body.(v)) ii in
              let overlap =
                let hits = Array.make ii false in
                for d = 0 to occ_u - 1 do
                  hits.((time.(u) + d) mod ii) <- true
                done;
                let any = ref false in
                for d = 0 to occ_v - 1 do
                  if hits.((forced + d) mod ii) then any := true
                done;
                !any
              in
              if (same_kind && overlap) || same_issue then victims := u :: !victims
            end
          done;
          (* Evict until the op fits; victims in deterministic order. *)
          let rec evict = function
            | [] -> ()
            | u :: rest ->
              if mrt_fits mrt body.(v) forced then ()
              else begin
                unschedule u;
                evict rest
              end
          in
          evict (List.sort compare !victims);
          if not (mrt_fits mrt body.(v) forced) then failed := true;
          forced
      in
      if not !failed then begin
        mrt_change mrt body.(v) t 1;
        time.(v) <- t;
        prev_time.(v) <- t;
        (* Evict scheduled successors whose dependence the placement broke. *)
        for k = g.Deps.succ_off.(v) to g.Deps.succ_off.(v + 1) - 1 do
          let e = g.Deps.succ_edge.(k) in
          let u = g.Deps.e_dst.(e) in
          if g.Deps.e_kind.(e) <> Deps.serial_code && u <> v && time.(u) >= 0 then
            if time.(u) + (ii * g.Deps.e_dist.(e)) < t + g.Deps.e_lat.(e) then unschedule u
        done
      end
    end
  done;
  if !failed then None else Some time

(* No II can pass the rotating-register check in [schedule] when the
   floor already exceeds a rotating file. *)
let over_register_floor machine loop =
  let int_floor, fp_floor = min_register_requirement loop in
  int_floor > machine.Machine.rot_int_regs || fp_floor > machine.Machine.rot_fp_regs

let tel name = Telemetry.incr Telemetry.global ~pass:"modulo-sched" name 1

let schedule ?(max_ii = 128) ?graph machine (loop : Loop.t) =
  tel "attempts";
  if Loop.has_call loop || Loop.has_early_exit loop then None
  else if over_register_floor machine loop then begin
    (* Refused before paying for the dependence graph, RecMII and the II
       search. *)
    tel "refused-regs";
    None
  end
  else begin
    (* One dependence analysis feeds RecMII, placement heights and the
       placement loop itself. *)
    let g = match graph with Some g -> Lazy.force g | None -> Deps_memo.build machine loop in
    let mii = max (res_mii machine loop) (rec_mii_of g) in
    let rec attempt ii =
      if ii > max_ii then None
      else
        match try_ii machine loop g ii with
        | None -> attempt (ii + 1)
        | Some time ->
          let int_req, fp_req = register_requirement loop g time ii in
          if
            int_req > machine.Machine.rot_int_regs
            || fp_req > machine.Machine.rot_fp_regs
          then attempt (ii + 1)
          else begin
            let span = Array.fold_left (fun acc t -> max acc (t + 1)) 1 time in
            let stages = ((span + ii - 1) / ii) in
            Some
              {
                Schedule.loop;
                machine;
                assignment = time;
                length = span;
                kind = Schedule.Pipelined { ii; stages };
                spills = 0;
                int_pressure = int_req;
                fp_pressure = fp_req;
                csr = g;
              }
          end
    in
    attempt mii
  end
