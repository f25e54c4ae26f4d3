(* Shared dependence-graph layer.

   The same (loop, machine) pair used to be analysed from scratch by the
   schedule pass, the allocator's respill rounds, the modulo scheduler
   (twice: RecMII and placement), the simulator's [prepare] and feature
   extraction — six O(n²) [Deps.build] calls per compiled loop.  This memo
   builds the graph once per distinct loop content and latency model and
   hands out the edge-list view together with its flat CSR arrays.

   Keyed like [Compile_cache]: a digest of the marshalled loop (name
   blanked, so structurally identical loops share an entry) and machine.
   The machine fully determines the latency function, which is the only
   part of [Deps.build] that is not pure loop structure. *)

type entry = { deps : Deps.t; csr : Deps.csr }

type store = {
  table : (string, entry) Hashtbl.t;
  fifo : string Queue.t;
  capacity : int;
}

type t = {
  mutex : Mutex.t;
  store : store;
  telemetry : Telemetry.t;
  mutable hit_count : int;
  mutable miss_count : int;
}

let create ?(capacity = 16384) ?(telemetry = Telemetry.global) () =
  {
    mutex = Mutex.create ();
    store = { table = Hashtbl.create 256; fifo = Queue.create (); capacity };
    telemetry;
    hit_count = 0;
    miss_count = 0;
  }

let global = create ()

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let key machine (loop : Loop.t) =
  Digest.string (Marshal.to_string ({ loop with Loop.name = "" }, machine) [])

let build machine loop =
  let deps = Deps.build ~latency:(Machine.latency machine) loop in
  { deps; csr = Deps.to_csr deps }

let get ?(memo = global) machine loop =
  let k = key machine loop in
  let cached =
    locked memo (fun () ->
        match Hashtbl.find_opt memo.store.table k with
        | Some e ->
          memo.hit_count <- memo.hit_count + 1;
          Some e
        | None ->
          memo.miss_count <- memo.miss_count + 1;
          None)
  in
  match cached with
  | Some e ->
    Telemetry.incr memo.telemetry ~pass:"deps-memo" "hits" 1;
    e
  | None ->
    Telemetry.incr memo.telemetry ~pass:"deps-memo" "misses" 1;
    let e = build machine loop in
    locked memo (fun () ->
        let s = memo.store in
        if s.capacity > 0 && not (Hashtbl.mem s.table k) then begin
          if Hashtbl.length s.table >= s.capacity then begin
            let oldest = Queue.pop s.fifo in
            Hashtbl.remove s.table oldest
          end;
          Hashtbl.add s.table k e;
          Queue.push k s.fifo
        end);
    e

let deps ?memo machine loop = (get ?memo machine loop).deps

let hits t = locked t (fun () -> t.hit_count)
let misses t = locked t (fun () -> t.miss_count)

let hit_rate t =
  locked t (fun () ->
      let total = t.hit_count + t.miss_count in
      if total = 0 then 0.0 else float_of_int t.hit_count /. float_of_int total)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.store.table;
      Queue.clear t.store.fifo;
      t.hit_count <- 0;
      t.miss_count <- 0)
