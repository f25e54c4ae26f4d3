type t = {
  sets : int;
  assoc : int;
  line : int;
  (* Shift/mask indexing when line and sets are powers of two (all the
     shipped machine geometries); [line_shift < 0] falls back to division. *)
  line_shift : int;
  set_mask : int;
  set_shift : int;
  tags : int array;    (* sets * assoc, -1 = invalid *)
  stamps : int array;  (* LRU timestamps *)
  mutable clock : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let log2_exact v =
  let rec go s v = if v = 1 then Some s else if v land 1 = 1 then None else go (s + 1) (v lsr 1) in
  if v <= 0 then None else go 0 v

let create (g : Machine.cache_geom) =
  let sets = max 1 (g.Machine.size_bytes / (g.Machine.line_bytes * g.Machine.assoc)) in
  let line_shift, set_mask, set_shift =
    match (log2_exact g.Machine.line_bytes, log2_exact sets) with
    | Some ls, Some ss -> (ls, sets - 1, ss)
    | _ -> (-1, 0, 0)
  in
  {
    sets;
    assoc = g.Machine.assoc;
    line = g.Machine.line_bytes;
    line_shift;
    set_mask;
    set_shift;
    tags = Array.make (sets * g.Machine.assoc) (-1);
    stamps = Array.make (sets * g.Machine.assoc) 0;
    clock = 0;
    hit_count = 0;
    miss_count = 0;
  }

let set_of_addr t addr =
  if t.line_shift >= 0 then (addr lsr t.line_shift) land t.set_mask
  else (addr / t.line) mod t.sets

(* The way scan and the LRU victim scan are the simulator's innermost
   loops; they are written allocation-free (no tuple or option returns —
   the bytecode/native compilers here do not unbox them) and use the
   unchecked accessors, with indices in range by construction
   ([base < sets * assoc], [w < assoc]). *)
let base_of t addr =
  if t.line_shift >= 0 then ((addr lsr t.line_shift) land t.set_mask) * t.assoc
  else addr / t.line mod t.sets * t.assoc

let tag_of t addr =
  if t.line_shift >= 0 then (addr lsr t.line_shift) lsr t.set_shift else addr / t.line / t.sets

(* Way holding [tag] in the set at [base], or -1. *)
let find_way t base tag =
  let rec scan w =
    if w = t.assoc then -1
    else if Array.unsafe_get t.tags (base + w) = tag then w
    else scan (w + 1)
  in
  scan 0

let access t addr =
  t.clock <- t.clock + 1;
  let base = base_of t addr in
  let tag = tag_of t addr in
  let w = find_way t base tag in
  if w >= 0 then begin
    Array.unsafe_set t.stamps (base + w) t.clock;
    t.hit_count <- t.hit_count + 1;
    true
  end
  else begin
    (* Evict the LRU way. *)
    let victim = ref 0 in
    for w = 1 to t.assoc - 1 do
      if Array.unsafe_get t.stamps (base + w) < Array.unsafe_get t.stamps (base + !victim) then
        victim := w
    done;
    t.tags.(base + !victim) <- tag;
    t.stamps.(base + !victim) <- t.clock;
    t.miss_count <- t.miss_count + 1;
    false
  end

let probe t addr = find_way t (base_of t addr) (tag_of t addr) >= 0

let copy t = { t with tags = Array.copy t.tags; stamps = Array.copy t.stamps }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0

let lines t = t.sets * t.assoc
let line_bytes t = t.line
let sets t = t.sets
let assoc t = t.assoc
let hits t = t.hit_count
let misses t = t.miss_count

(* Recency-normalised view of one set: the way tags ordered most- to
   least-recently used.  Two cache states with equal snapshots for every
   relevant set behave identically under any future access sequence —
   hits, victim choices and therefore future snapshots depend only on
   tags and the per-set recency order, never on absolute stamp or clock
   values.  The simulator's steady-state detectors compare these. *)
let snapshot_set t set buf off =
  let base = set * t.assoc in
  (* Rank each way by counting strictly-more-recent peers (ties — possible
     only between never-touched ways, which share stamp 0 — broken by way
     index), then scatter tags by rank.  One pass per way, no sort state,
     no allocation.  assoc <= 8. *)
  for w = 0 to t.assoc - 1 do
    let sw = Array.unsafe_get t.stamps (base + w) in
    let rank = ref 0 in
    for v = 0 to t.assoc - 1 do
      let sv = Array.unsafe_get t.stamps (base + v) in
      if sv > sw || (sv = sw && v < w) then incr rank
    done;
    Array.unsafe_set buf (off + !rank) (Array.unsafe_get t.tags (base + w))
  done

(* A flood: an access sequence that touches every set with at least
   [assoc] distinct lines.  Such a sequence evicts all prior contents, so
   the state it leaves behind — per-set tags and recency order, the only
   state future behaviour can observe — is one canonical state independent
   of what preceded it, and installing that state directly is equivalent
   to replaying the sequence.  The simulator's inter-entry I-cache scrub
   is exactly such a sequence, applied once per simulated loop entry. *)
type flood = {
  f_tags : int array;
  f_rank : int array; (* stamp order within each set, 1 .. assoc = MRU *)
}

let plan_flood t addrs =
  let fresh =
    {
      t with
      tags = Array.make (t.sets * t.assoc) (-1);
      stamps = Array.make (t.sets * t.assoc) 0;
      clock = 0;
      hit_count = 0;
      miss_count = 0;
    }
  in
  Array.iter (fun a -> ignore (access fresh a)) addrs;
  (* Full validity from cold means every set received >= assoc distinct
     lines — the flood condition. *)
  if Array.exists (fun tg -> tg < 0) fresh.tags then None
  else begin
    let rank = Array.make (t.sets * t.assoc) 0 in
    for s = 0 to t.sets - 1 do
      let base = s * t.assoc in
      for w = 0 to t.assoc - 1 do
        let sw = fresh.stamps.(base + w) in
        let r = ref 1 in
        for v = 0 to t.assoc - 1 do
          if fresh.stamps.(base + v) < sw then incr r
        done;
        rank.(base + w) <- !r
      done
    done;
    Some { f_tags = fresh.tags; f_rank = rank }
  end

let apply_flood t f =
  let n = t.sets * t.assoc in
  Array.blit f.f_tags 0 t.tags 0 n;
  let c = t.clock in
  for i = 0 to n - 1 do
    Array.unsafe_set t.stamps i (c + Array.unsafe_get f.f_rank i)
  done;
  t.clock <- c + t.assoc
