type key = string

type t = {
  exes : (key, Pipeline_state.executable) Memo.t;
  cycles : (key * int option, int) Memo.t;
}

let create ?(exe_capacity = 4096) ?(cycles_capacity = 262144)
    ?(telemetry = Telemetry.global) () =
  let telemetry = (telemetry, "compile-cache") in
  { exes = Memo.create ~telemetry exe_capacity; cycles = Memo.create ~telemetry cycles_capacity }

let global = create ()

let key ~machine ~swp ~factor loop =
  (* Both digests have a fixed width, so the concatenation is unambiguous. *)
  Digest.string (Loop.digest loop ^ Machine.digest machine ^ Printf.sprintf "%d:%b" factor swp)

let find_exe t k = Memo.find t.exes k
let store_exe t k exe = Memo.add t.exes k exe

(* The simulation window changes the extrapolation, so it is part of the
   cycles key. *)
let find_cycles t k ~max_sim_iters = Memo.find t.cycles (k, max_sim_iters)
let store_cycles t k ~max_sim_iters c = Memo.add t.cycles (k, max_sim_iters) c

let hits t = Memo.hits t.exes + Memo.hits t.cycles
let misses t = Memo.misses t.exes + Memo.misses t.cycles

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let clear t =
  Memo.clear t.exes;
  Memo.clear t.cycles
