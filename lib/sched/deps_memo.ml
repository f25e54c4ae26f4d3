(* Shared dependence-graph layer.

   The same (loop, machine) pair used to be analysed from scratch by the
   schedule pass, the allocator's respill rounds, the modulo scheduler
   (twice: RecMII and placement), the simulator's [prepare] and feature
   extraction — six O(n²) [Deps.build] calls per compiled loop.  This memo
   builds the graph once per distinct loop content and latency model and
   hands out the edge-list view together with its flat CSR arrays.

   The machine fully determines the latency function, which is the only
   part of [Deps.build] that is not pure loop structure. *)

type entry = { deps : Deps.t; csr : Deps.csr }

type t = (string, entry) Memo.t

let create ?(capacity = 16384) ?(telemetry = Telemetry.global) () =
  Memo.create ~telemetry:(telemetry, "deps-memo") capacity

let global = create ()

let get ?(memo = global) machine loop =
  let k = Digest.string (Loop.digest loop ^ Machine.digest machine) in
  match Memo.find memo k with
  | Some e -> e
  | None ->
    let deps = Deps.build ~latency:(Machine.latency machine) loop in
    let e = { deps; csr = Deps.to_csr deps } in
    Memo.add memo k e;
    e

let deps ?memo machine loop = (get ?memo machine loop).deps
let hits = Memo.hits
let misses = Memo.misses
let clear = Memo.clear
