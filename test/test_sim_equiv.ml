(* The fast-path contract: [Simulator] with its steady-state skips (fetch
   skip, entry skip), memoised dependence graphs and array kernels must be
   bit-identical — total cycles AND the six-way stats breakdown, on warm
   states as well as cold — to [Sim_reference], the frozen
   pre-optimisation implementation.  See DESIGN.md §9 for the exactness
   arguments these properties back. *)

let machine = Machine.itanium2

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

(* Two consecutive runs on one state, like the sweep's warm-up/measure
   pair: the second run exercises the cross-call entry and plan memos. *)
let fast_pair exe iters =
  let st = Simulator.create_state machine in
  let c1, s1 = Simulator.run_profiled ~max_sim_iters:iters st exe in
  let c2, s2 = Simulator.run_profiled ~max_sim_iters:iters st exe in
  ((c1, stats_tuple s1), (c2, stats_tuple s2))

let naive_pair exe iters =
  let st = Sim_reference.create_state machine in
  let c1, s1 = Sim_reference.run_profiled ~max_sim_iters:iters st exe in
  let c2, s2 = Sim_reference.run_profiled ~max_sim_iters:iters st exe in
  ((c1, ref_stats_tuple s1), (c2, ref_stats_tuple s2))

let gen =
  QCheck.Gen.(
    let* seed = 0 -- 60000 in
    let* f = 1 -- 8 in
    let* swp = bool in
    let* iters = oneofl [ 40; 75; 200 ] in
    let* small_arrays = bool in
    let l = Fuzz.Gen.synth_loop ~prefix:"qe" seed in
    (* Small arrays wrap within the simulated window, so addresses come
       round again inside one entry. *)
    let l = if small_arrays then Fuzz.Gen.with_array_lengths l (3 + (seed mod 13)) else l in
    let l = { l with Loop.trip_actual = 1 + (seed mod 900) } in
    return (l, f, swp, iters))

let prop_fast_equals_reference =
  QCheck.Test.make ~count:300
    ~name:"fast-forwarded Simulator bit-identical to Sim_reference"
    (QCheck.make gen)
    (fun (loop, f, swp, iters) ->
      let exe = Pipeline.compile ~cache:(Compile_cache.create ()) machine ~swp loop f in
      naive_pair exe iters = fast_pair exe iters)

(* --- shared dependence graphs ------------------------------------------ *)

let test_deps_memo_transparent () =
  (* The pipeline builds each graph it schedules with and never reads the
     memo: a compile on a cleared memo equals one on a memo already holding
     every scheduled loop's graph (including each schedule's CSR).
     Features do read the memo, and a hit must equal the miss. *)
  List.iter
    (fun (name, maker) ->
      let loop = maker ~name ~trip:96 in
      List.iter
        (fun swp ->
          let compile () =
            Pipeline_state.executable_exn
              (Pipeline.run (Pipeline_state.init machine ~swp loop 4))
          in
          Deps_memo.clear Deps_memo.global;
          let cold = compile () in
          List.iter
            (fun (s, _, _) -> ignore (Deps_memo.get machine s.Schedule.loop))
            cold.Pipeline_state.schedules;
          let warm = compile () in
          if cold <> warm then Alcotest.failf "%s swp=%b: schedules differ under memo" name swp)
        [ false; true ];
      Deps_memo.clear Deps_memo.global;
      let f_miss = Features.extract machine loop in
      let f_hit = Features.extract machine loop in
      Alcotest.(check (array (float 0.0))) (name ^ " features") f_miss f_hit)
    Kernels.all

(* --- end-to-end labels -------------------------------------------------- *)

let test_labels_unchanged_by_fast_paths () =
  (* The sweep that labels the FAST suite — noise, cycle filters, argmin —
     must produce the same cycles and therefore the same best factor as
     the same sweep measured on [Sim_reference]: warm-up/measure pairs,
     then the same noisy median from the same RNG seed.  Fresh compile
     caches per run so nothing is served from the cycles memo. *)
  let benchmarks =
    Suite.full ~scale:0.04 ~seed:Config.fast.Config.seed
    |> List.filteri (fun i _ -> i < 4)
  in
  let loops = List.concat_map (fun (b : Suite.benchmark) ->
      Array.to_list (Array.map fst b.Suite.loops)) benchmarks
  in
  let noise = 0.015 and runs = 5 and max_sim_iters = 150 in
  let sweep loop =
    let rng = Rng.create 2005 in
    Measure.sweep ~noise ~runs ~max_sim_iters ~cache:(Compile_cache.create ()) ~rng ~machine
      ~swp:false loop
  in
  let reference_sweep loop =
    let rng = Rng.create 2005 in
    let cache = Compile_cache.create () in
    Array.init Unroll.max_factor (fun i ->
        let exe = Pipeline.compile ~cache machine ~swp:false loop (i + 1) in
        let st = Sim_reference.create_state machine in
        ignore (Sim_reference.run ~max_sim_iters st exe);
        let cycles = Sim_reference.run ~max_sim_iters st exe in
        Measure.noisy_median ~rng ~noise ~runs (fun () -> cycles))
  in
  List.iter
    (fun loop ->
      let fast = sweep loop in
      let reference = reference_sweep loop in
      Alcotest.(check (array int)) (loop.Loop.name ^ " cycles") reference fast;
      let argmin a =
        let best = ref 0 in
        Array.iteri (fun i v -> if v < a.(!best) then best := i) a;
        !best + 1
      in
      Alcotest.(check int) (loop.Loop.name ^ " best factor") (argmin reference) (argmin fast))
    loops

(* --- the whole FAST suite ----------------------------------------------- *)

let test_fast_suite_bit_identical () =
  (* Every executable the FAST labelling sweep runs — each suite loop at
     factors 1..8 with SWP off and on — gives the same cycles and stats
     on both simulators, cold and warm.  Loops stream through one at a
     time (their 16 executables are dropped before the next loop), fanned
     out over [Parallel]; the failure names the first differing
     (loop, factor, swp) in suite order. *)
  let config = Config.fast in
  let iters = config.Config.max_sim_iters in
  let loops =
    Suite.all_loops (Suite.full ~scale:config.Config.scale ~seed:config.Config.seed)
    |> List.map snd |> Array.of_list
  in
  let first_mismatch loop =
    List.find_map
      (fun (swp, u) ->
        let exe =
          Pipeline_state.executable_exn
            (Pipeline.run (Pipeline_state.init machine ~swp loop u))
        in
        if naive_pair exe iters = fast_pair exe iters then None else Some (u, swp))
      (List.concat_map (fun swp -> List.init Unroll.max_factor (fun i -> (swp, i + 1))) [ false; true ])
  in
  Alcotest.(check int) "executables" 8304 (Array.length loops * 2 * Unroll.max_factor);
  let mismatches = Parallel.map ~jobs:(Parallel.default_jobs ()) first_mismatch loops in
  Array.iteri
    (fun i m ->
      Option.iter
        (fun (u, swp) ->
          Alcotest.failf "%s u=%d swp=%b: Simulator differs from Sim_reference"
            loops.(i).Loop.name u swp)
        m)
    mismatches

(* --- RecMII upper bound ------------------------------------------------- *)

let test_rec_mii_bracketed_by_graph_bound () =
  (* The binary search's upper bound is the sum of non-serial edge
     latencies; RecMII must land inside [1, ub] for every kernel. *)
  List.iter
    (fun (name, maker) ->
      let loop = maker ~name ~trip:64 in
      let d = Deps_reference.edges_of_csr (Deps_memo.get machine loop) in
      let ub =
        List.fold_left
          (fun acc (e : Deps_reference.edge) ->
            if e.dkind <> Deps.Serial then acc + e.latency else acc)
          1 d
      in
      let r = Modulo_sched.rec_mii machine loop in
      if not (1 <= r && r <= ub) then
        Alcotest.failf "%s: RecMII %d outside [1, %d]" name r ub)
    Kernels.all

let test_rec_mii_long_recurrence () =
  (* A two-op carried recurrence (acc -> t -> acc, distance 1) whose cycle
     latency exceeds any single-op latency: RecMII must be the full cycle
     latency, which only a genuinely graph-derived search bound admits. *)
  let text =
    {|loop chainrec {
  lang fortran
  trip 64
  array x 256 elem=8
  reg f acc
  f xv = load x [1*i+0]
  f t = fadd acc xv
  f acc = fmul t t
  liveout acc
}|}
  in
  match Loop_text.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok loop ->
    Alcotest.(check int) "RecMII = fadd + fmul latency"
      (machine.Machine.lat_fadd + machine.Machine.lat_fmul)
      (Modulo_sched.rec_mii machine loop)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fast_equals_reference;
    ("deps memo transparent to schedules and features", `Quick, test_deps_memo_transparent);
    ("labels unchanged by fast paths", `Slow, test_labels_unchanged_by_fast_paths);
    ("RecMII within graph-derived bound", `Quick, test_rec_mii_bracketed_by_graph_bound);
    ("RecMII of a long carried recurrence", `Quick, test_rec_mii_long_recurrence);
    ("FAST suite bit-identical to Sim_reference", `Slow, test_fast_suite_bit_identical);
  ]
