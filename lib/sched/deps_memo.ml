(* Dependence graphs, built once per use site and optionally memoised.

   The pipeline builds one graph per scheduled loop with [build] and hands
   it to the schedulers, which attach it to the [Schedule.t] for the
   simulator: each graph lives exactly as long as its schedule.  The memo
   serves callers that re-derive a graph from a loop alone (feature
   extraction and RecMII queries).

   The machine fully determines the latency function, which is the only
   part of [Deps.build] that is not pure loop structure. *)

type t = (string, Deps.csr) Memo.t

let create ?(capacity = 16384) ?(telemetry = Telemetry.global) () =
  Memo.create ~telemetry:(telemetry, "deps-memo") capacity

let global = create ()

let build machine loop = Deps.build ~latency:(Machine.latency machine) loop

let get ?(memo = global) machine loop =
  let k = Digest.string (Loop.digest loop ^ Machine.digest machine) in
  match Memo.find memo k with
  | Some g -> g
  | None ->
    let g = build machine loop in
    Memo.add memo k g;
    g

let hits = Memo.hits
let misses = Memo.misses
let clear = Memo.clear
