(* Per-cycle resource tracking, indexed by absolute cycle.

   [used] holds, for each cycle, the ops issued on each unit kind and in
   total.  [next.(k)] is a union-find "next free cycle" forest for unit
   kind [k]: a cycle is its own root while an op of kind [k] could still
   issue there, and points past itself once that unit or the cycle's issue
   width is full.  Usage only grows, so a blocked cycle stays blocked and
   the forest only ever merges. *)
type restable = {
  avail : int array; (* [m; i; f; b; issue width] *)
  mutable used : int array; (* cycle * slots + slot *)
  mutable next : int array array; (* kind -> cycle -> skip pointer *)
}

let slots = 5
let issue_slot = 4
let kind_index = function Machine.M -> 0 | Machine.I -> 1 | Machine.F -> 2 | Machine.B -> 3

let make_restable m =
  {
    avail =
      [| m.Machine.m_units; m.Machine.i_units; m.Machine.f_units; m.Machine.b_units;
         m.Machine.issue_width |];
    used = Array.make (32 * slots) 0;
    next = Array.init 4 (fun _ -> Array.init 32 Fun.id);
  }

(* Make cycle [c] addressable in every table. *)
let ensure rt c =
  let n = Array.length rt.next.(0) in
  if c >= n then begin
    let n' = max (c + 1) (2 * n) in
    let used = Array.make (n' * slots) 0 in
    Array.blit rt.used 0 used 0 (n * slots);
    rt.used <- used;
    rt.next <-
      Array.map
        (fun nx ->
          let nx' = Array.init n' Fun.id in
          Array.blit nx 0 nx' 0 n;
          nx')
        rt.next
  end

(* Root of [c]: the first cycle at or after [c] where kind [k] may issue.
   Compresses the walked path onto the root. *)
let find rt k c =
  ensure rt c;
  let nx = rt.next.(k) in
  let root = ref c in
  while nx.(!root) <> !root do root := nx.(!root) done;
  let c = ref c in
  while !c <> !root do
    let up = nx.(!c) in
    nx.(!c) <- !root;
    c := up
  done;
  !root

let block rt k c =
  ensure rt (c + 1);
  let nx = rt.next.(k) in
  if nx.(c) = c then nx.(c) <- c + 1

let full rt c slot = rt.used.((c * slots) + slot) >= rt.avail.(slot)

(* Cycles an op occupies its unit: unpipelined divides block the unit. *)
let occupancy m (op : Op.t) =
  match op.Op.opcode with
  | Op.Fdiv when m.Machine.fdiv_unpipelined -> m.Machine.lat_fdiv
  | _ -> 1

(* The earliest start at or after [from] where the op's unit is free for
   its whole occupancy and the issue cycle has spare width.  A start that
   is a root has both at its issue cycle; a full unit at a later cycle [d]
   of the window rules out every start up to [d]. *)
let first_fit rt k occ from =
  let rec try_at s =
    ensure rt (s + occ - 1);
    let rec clash d =
      if d >= s + occ then None else if full rt d k then Some d else clash (d + 1)
    in
    match clash (s + 1) with None -> s | Some d -> try_at (find rt k (d + 1))
  in
  try_at (find rt k from)

let reserve rt k occ s =
  for c = s to s + occ - 1 do
    let i = (c * slots) + k in
    rt.used.(i) <- rt.used.(i) + 1;
    if full rt c k then block rt k c
  done;
  let i = (s * slots) + issue_slot in
  rt.used.(i) <- rt.used.(i) + 1;
  if full rt s issue_slot then for k' = 0 to 3 do block rt k' s done

let schedule ?graph machine (loop : Loop.t) =
  let body = loop.Loop.body in
  let n = Array.length body in
  let g = match graph with Some g -> g | None -> Deps_memo.build machine loop in
  (* All walks below are over the distance-0 subgraph (the per-iteration
     DAG), reading the CSR arrays directly. *)
  let iter_succs0 v f =
    for s = g.Deps.succ_off.(v) to g.Deps.succ_off.(v + 1) - 1 do
      let e = g.Deps.succ_edge.(s) in
      if g.Deps.e_dist.(e) = 0 then f e
    done
  in
  (* Heights: latency-weighted longest path to a sink over distance-0
     edges, computed sinks-first over a reverse topological order. *)
  let height = Array.make n 0 in
  let order = Array.make n 0 in
  let filled = ref 0 in
  let visited = Array.make n false in
  let rec visit v =
    if not visited.(v) then begin
      visited.(v) <- true;
      iter_succs0 v (fun e -> visit g.Deps.e_dst.(e));
      order.(!filled) <- v;
      incr filled
    end
  in
  for v = 0 to n - 1 do visit v done;
  (* [order] holds sinks first. *)
  for i = 0 to n - 1 do
    let v = order.(i) in
    let best = ref 0 in
    iter_succs0 v (fun e ->
        let cand = height.(g.Deps.e_dst.(e)) + g.Deps.e_lat.(e) in
        if cand > !best then best := cand);
    height.(v) <- !best
  done;
  let unscheduled_preds = Array.make n 0 in
  for e = 0 to g.Deps.n_edges - 1 do
    if g.Deps.e_dist.(e) = 0 then begin
      let d = g.Deps.e_dst.(e) in
      unscheduled_preds.(d) <- unscheduled_preds.(d) + 1
    end
  done;
  let assignment = Array.make n (-1) in
  let earliest = Array.make n 0 in
  let rt = make_restable machine in
  (* Ready ops keyed by greatest height first, then body position (for
     determinism): [(max_h - height) * n + v] orders exactly so. *)
  let max_h = Array.fold_left max 0 height in
  let rank v = ((max_h - height.(v)) * n) + v in
  let ready = Rank_heap.create n in
  for v = 0 to n - 1 do
    if unscheduled_preds.(v) = 0 then Rank_heap.push ready (rank v)
  done;
  for _ = 1 to n do
    if Rank_heap.is_empty ready then failwith "List_sched: dependence cycle in distance-0 graph";
    let v = Rank_heap.pop ready mod n in
    let k = kind_index (Machine.unit_of body.(v)) in
    let occ = occupancy machine body.(v) in
    let cycle = first_fit rt k occ earliest.(v) in
    reserve rt k occ cycle;
    assignment.(v) <- cycle;
    iter_succs0 v (fun e ->
        let d = g.Deps.e_dst.(e) in
        earliest.(d) <- max earliest.(d) (cycle + g.Deps.e_lat.(e));
        unscheduled_preds.(d) <- unscheduled_preds.(d) - 1;
        if unscheduled_preds.(d) = 0 then Rank_heap.push ready (rank d))
  done;
  let length = Array.fold_left (fun acc c -> max acc (c + 1)) 1 assignment in
  {
    Schedule.loop;
    machine;
    assignment;
    length;
    kind = Schedule.Straight;
    spills = 0;
    int_pressure = 0;
    fp_pressure = 0;
    csr = g;
  }
