(* Labeling-sweep benchmark: fast simulator vs the frozen reference.

   Streams the FAST-scale suite one loop at a time: compile the loop's 16
   executables (8 factors x {straight, swp}, no executable cache), check
   both simulators on each, time the part the labelling pipeline actually
   repeats per (loop, factor, swp) — create a state, run the
   warm-up/measure pair — then drop the executables, so memory stays flat
   however large the suite.  The naive side is [Sim_reference] on
   [Cache_reference] — the complete pre-optimisation stack, frozen
   verbatim — so the ratio reflects every layer of the fast path: array
   plans, shift/mask caches, shared CSR graphs, fetch skip, entry skip.
   Both sides produce (cycles, stats) for every executable and the run
   aborts the speedup claim unless they are bit-identical.  Reported
   times are sums of per-loop best-of-4 times.

   Also times Deps.build against warm memoised-CSR lookups, and writes a
   one-line JSON summary to stdout and BENCH_sim.json (a CI artifact next
   to BENCH_ml.json). *)

let machine = Config.fast.Config.machine
let max_sim_iters = Config.fast.Config.max_sim_iters

let stats_tuple (s : Simulator.stats) =
  ( s.Simulator.issue_cycles,
    s.Simulator.data_stall_cycles,
    s.Simulator.fetch_stall_cycles,
    s.Simulator.branch_cycles,
    s.Simulator.entry_overhead_cycles,
    s.Simulator.pipeline_fill_cycles )

let ref_stats_tuple (s : Sim_reference.stats) =
  ( s.Sim_reference.issue_cycles,
    s.Sim_reference.data_stall_cycles,
    s.Sim_reference.fetch_stall_cycles,
    s.Sim_reference.branch_cycles,
    s.Sim_reference.entry_overhead_cycles,
    s.Sim_reference.pipeline_fill_cycles )

(* One labelling measurement, naive and fast: cold state, then the sweep's
   warm-up/measure double run. *)
let naive_pair exe =
  let st = Sim_reference.create_state machine in
  let c1, s1 = Sim_reference.run_profiled ~max_sim_iters st exe in
  let c2, s2 = Sim_reference.run_profiled ~max_sim_iters st exe in
  ((c1, ref_stats_tuple s1), (c2, ref_stats_tuple s2))

let fast_pair exe =
  let st = Simulator.create_state machine in
  let c1, s1 = Simulator.run_profiled ~max_sim_iters st exe in
  let c2, s2 = Simulator.run_profiled ~max_sim_iters st exe in
  ((c1, stats_tuple s1), (c2, stats_tuple s2))

let time f =
  let a = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. a

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    best := Float.min !best (time f)
  done;
  !best

let () =
  let benchmarks = Suite.full ~scale:Config.fast.Config.scale ~seed:Config.fast.Config.seed in
  let loops = Suite.all_loops benchmarks |> List.map snd in
  let cache = Compile_cache.create ~exe_capacity:0 () in
  Printf.printf "streaming %d loops x 8 factors x {straight, swp}...\n%!" (List.length loops);
  let reps = 4 in
  let c name = Telemetry.counter Telemetry.global ~pass:"simulator" name in
  let n_exes = ref 0 and mismatches = ref 0 in
  let t_compile = ref 0.0 and t_naive = ref 0.0 and t_fast = ref 0.0 in
  let iters_sim = ref 0 and entries_sim = ref 0 and entries_skipped = ref 0 in
  List.iter
    (fun loop ->
      let t0 = Unix.gettimeofday () in
      let exes =
        List.concat_map
          (fun swp ->
            List.map (fun u -> Simulator.compile ~cache machine ~swp loop u) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
          [ false; true ]
      in
      t_compile := !t_compile +. (Unix.gettimeofday () -. t0);
      n_exes := !n_exes + List.length exes;
      (* Bit-identity first: cycles and the full stats breakdown, warm runs
         included, for every executable. *)
      List.iter (fun exe -> if naive_pair exe <> fast_pair exe then incr mismatches) exes;
      (* Interleaved best-of-N so drift hits both sides equally; the
         simulator counters cover the timed fast runs only.  Collect the
         compile's garbage first so the timed runs do not pay for it. *)
      Gc.full_major ();
      let run pair () = List.iter (fun e -> ignore (pair e)) exes in
      let best_naive = ref infinity and best_fast = ref infinity in
      let iters0 = c "iters-simulated" in
      let es0 = c "entries-simulated" and sk0 = c "entries-skipped" in
      for _ = 1 to reps do
        best_naive := Float.min !best_naive (time (run naive_pair));
        best_fast := Float.min !best_fast (time (run fast_pair))
      done;
      iters_sim := !iters_sim + c "iters-simulated" - iters0;
      entries_sim := !entries_sim + c "entries-simulated" - es0;
      entries_skipped := !entries_skipped + c "entries-skipped" - sk0;
      t_naive := !t_naive +. !best_naive;
      t_fast := !t_fast +. !best_fast;
      (* The loop's dependence graphs go with its executables. *)
      Deps_memo.clear Deps_memo.global)
    loops;
  let identical = !mismatches = 0 in
  Printf.printf "compiled %d executables in %.1fs\n%!" !n_exes !t_compile;
  Printf.printf "bit-identity: %d mismatches over %d executables\n%!" !mismatches !n_exes;
  let speedup = !t_naive /. Float.max !t_fast 1e-9 in
  Printf.printf "labeling sim sweep (per-loop best of %d): naive %.3fs | fast %.3fs (%.2fx)\n%!"
    reps !t_naive !t_fast speedup;

  (* Dependence graphs: fresh builds vs warm memoised CSR lookups. *)
  let lat = Machine.latency machine in
  let t_build =
    best_of 5 (fun () ->
        List.iter (fun l -> ignore (Deps.to_csr (Deps.build ~latency:lat l))) loops)
  in
  let memo = Deps_memo.create () in
  List.iter (fun l -> ignore (Deps_memo.get ~memo machine l)) loops;
  let t_memo =
    best_of 5 (fun () -> List.iter (fun l -> ignore (Deps_memo.get ~memo machine l)) loops)
  in
  let deps_speedup = t_build /. Float.max t_memo 1e-9 in
  Printf.printf "deps: build+csr %.4fs | memoised %.4fs (%.1fx) over %d loops\n%!" t_build
    t_memo deps_speedup (List.length loops);

  let json =
    Printf.sprintf
      "{\"bench\":\"sim-fast-path\",\"loops\":%d,\"executables\":%d,\
       \"max_sim_iters\":%d,\"compile_s\":%.1f,\"naive_s\":%.3f,\
       \"fast_s\":%.3f,\"speedup\":%.2f,\"identical\":%b,\
       \"iters_simulated\":%d,\
       \"entries_simulated\":%d,\"entries_skipped\":%d,\
       \"deps_build_s\":%.4f,\"deps_memo_s\":%.4f,\"deps_speedup\":%.1f}"
      (List.length loops) !n_exes max_sim_iters !t_compile !t_naive !t_fast speedup identical
      !iters_sim !entries_sim !entries_skipped t_build t_memo deps_speedup
  in
  print_endline json;
  let oc = open_out "BENCH_sim.json" in
  output_string oc (json ^ "\n");
  close_out oc;
  if not identical then exit 1
