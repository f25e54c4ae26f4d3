(* Tests for the pass-pipeline compiler core: the pass list preserves loop
   semantics under the reference interpreter, the content-addressed compile
   cache returns bit-identical results warm vs cold, and the parallel
   labelling sweep matches the sequential one exactly. *)

let machine = Machine.itanium2

(* --- semantics property ------------------------------------------------ *)

(* Executable interpretation and spill-modulo equivalence live in
   Fuzz.Oracle, shared with the fuzzer's differential oracles. *)
let run_exe = Fuzz.Oracle.run_exe
let equivalent_modulo_spills = Fuzz.Oracle.equivalent_modulo_spills

let gen =
  QCheck.Gen.(
    let* seed = 0 -- 60000 in
    let* f = 1 -- 8 in
    let* swp = bool in
    (* exit_prob feeds the executable's *expected*-trip arithmetic, which
       is a performance model, not a semantic one; with_exact_trip zeroes
       it so the compiled schedules carry exact trip counts. *)
    let l =
      Fuzz.Gen.with_exact_trip (Fuzz.Gen.synth_loop ~prefix:"qp" seed) (1 + (seed mod 41))
    in
    return (l, f, swp))

let prop_pipeline_semantics =
  QCheck.Test.make ~count:200
    ~name:"pass pipeline observationally equivalent at factors 1..8"
    (QCheck.make gen)
    (fun (loop, f, swp) ->
      let exe =
        Pipeline.compile ~cache:(Compile_cache.create ()) machine ~swp loop f
      in
      let st_orig = Interp.fresh_state () in
      ignore (Interp.run st_orig loop ~trips:loop.Loop.trip_actual ~phase:0);
      let st_new = Interp.fresh_state () in
      run_exe st_new exe;
      equivalent_modulo_spills exe st_orig st_new loop.Loop.live_out)

let test_pipeline_matches_simulator_compile () =
  (* Simulator.compile is a thin delegate; the pipeline must produce the
     same executable for the same inputs. *)
  List.iter
    (fun (name, maker) ->
      let loop = maker ~name ~trip:96 in
      List.iter
        (fun u ->
          let a = Pipeline.compile ~cache:(Compile_cache.create ()) machine ~swp:false loop u in
          let b = Simulator.compile ~cache:(Compile_cache.create ()) machine ~swp:false loop u in
          if a <> b then Alcotest.failf "%s u=%d: pipeline and simulator differ" name u)
        [ 1; 3; 8 ])
    Kernels.all

(* --- telemetry --------------------------------------------------------- *)

let test_telemetry_records_passes () =
  let sink = Telemetry.create () in
  let loop = Kernels.daxpy ~name:"t_daxpy" ~trip:128 in
  ignore (Pipeline.compile ~cache:(Compile_cache.create ()) ~telemetry:sink machine ~swp:false loop 4);
  List.iter
    (fun pass ->
      Alcotest.(check int) (pass ^ " ran once") 1 (Telemetry.calls sink ~pass))
    Pipeline.pass_names;
  let table = Telemetry.to_table sink in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "table renders every pass" true
    (List.for_all (contains table) Pipeline.pass_names)

(* --- compile cache ----------------------------------------------------- *)

let test_cache_warm_equals_cold () =
  let cache = Compile_cache.create () in
  let loop = Kernels.stencil5 ~name:"c_stencil" ~trip:512 in
  let sweep () =
    let rng = Rng.create 7 in
    Measure.sweep ~noise:0.015 ~runs:5 ~max_sim_iters:200 ~cache ~rng ~machine
      ~swp:false loop
  in
  let cold = sweep () in
  let hits_after_cold = Compile_cache.hits cache in
  Alcotest.(check bool) "cold run misses" true (Compile_cache.misses cache > 0);
  let warm = sweep () in
  Alcotest.(check (array int)) "warm sweep identical to cold" cold warm;
  Alcotest.(check bool) "warm run hits" true (Compile_cache.hits cache > hits_after_cold)

let test_cache_key_ignores_name () =
  let a = Kernels.daxpy ~name:"one" ~trip:256 in
  let b = Kernels.daxpy ~name:"two" ~trip:256 in
  Alcotest.(check string) "same content, same key"
    (Compile_cache.key ~machine ~swp:false ~factor:4 a)
    (Compile_cache.key ~machine ~swp:false ~factor:4 b);
  Alcotest.(check bool) "factor participates" true
    (Compile_cache.key ~machine ~swp:false ~factor:4 a
    <> Compile_cache.key ~machine ~swp:false ~factor:5 a);
  Alcotest.(check bool) "swp participates" true
    (Compile_cache.key ~machine ~swp:false ~factor:4 a
    <> Compile_cache.key ~machine ~swp:true ~factor:4 a);
  (* Every table keyed by [Loop.digest] serves the renamed loop from the
     entry the first name filled. *)
  let cache = Compile_cache.create ~telemetry:(Telemetry.create ()) () in
  ignore (Pipeline.compile ~cache machine ~swp:false a 4);
  let hits = Compile_cache.hits cache in
  ignore (Pipeline.compile ~cache machine ~swp:false b 4);
  Alcotest.(check int) "compile cache hit" (hits + 1) (Compile_cache.hits cache);
  let memo = Deps_memo.create ~telemetry:(Telemetry.create ()) () in
  ignore (Deps_memo.get ~memo machine a);
  let hits = Deps_memo.hits memo in
  ignore (Deps_memo.get ~memo machine b);
  Alcotest.(check int) "deps memo hit" (hits + 1) (Deps_memo.hits memo);
  let service =
    let artifact = Test_store.load_artifact_exn (Test_store.fixture "golden_nn.artifact") in
    match Predict_service.create Test_store.fixture_config artifact with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  ignore (Predict_service.predict service a);
  let hits = Predict_service.cache_hits service in
  ignore (Predict_service.predict service b);
  Alcotest.(check int) "feature cache hit" (hits + 1) (Predict_service.cache_hits service)

let test_cache_cycles_keyed_by_window () =
  (* The simulation window changes the extrapolated cycle count, so it must
     partition the cycles cache. *)
  let cache = Compile_cache.create () in
  let loop = Kernels.daxpy ~name:"c_win" ~trip:4096 in
  let sweep iters =
    let rng = Rng.create 11 in
    Measure.sweep ~noise:0.0 ~runs:1 ~max_sim_iters:iters ~cache ~rng ~machine
      ~swp:false loop
  in
  let coarse = sweep 50 in
  let fine = sweep 400 in
  let fine' = sweep 400 in
  Alcotest.(check (array int)) "same window is cached" fine fine';
  Alcotest.(check bool) "windows do not collide" true (coarse <> fine)

let test_cache_capacity_zero_disables () =
  let cache = Compile_cache.create ~exe_capacity:0 ~cycles_capacity:0 () in
  let loop = Kernels.daxpy ~name:"c_off" ~trip:64 in
  ignore (Pipeline.compile ~cache machine ~swp:false loop 2);
  ignore (Pipeline.compile ~cache machine ~swp:false loop 2);
  Alcotest.(check int) "never hits" 0 (Compile_cache.hits cache)

(* --- parallel labelling ------------------------------------------------ *)

let small_config = { Config.fast with Config.scale = 0.04; runs = 3; max_sim_iters = 120 }

let small_benchmarks () =
  Suite.full ~scale:small_config.Config.scale ~seed:small_config.Config.seed
  |> List.filteri (fun i _ -> i < 6)

let check_labels_equal l1 l2 =
  Alcotest.(check int) "same loop count" (Array.length l1) (Array.length l2);
  Array.iter2
    (fun (a : Labeling.labeled) (b : Labeling.labeled) ->
      Alcotest.(check string) "bench order" a.Labeling.bench b.Labeling.bench;
      Alcotest.(check string) "loop order" a.Labeling.loop.Loop.name b.Labeling.loop.Loop.name;
      Alcotest.(check (array int)) "cycles bit-identical" a.Labeling.cycles b.Labeling.cycles)
    l1 l2

let test_parallel_labels_identical () =
  let benchmarks = small_benchmarks () in
  let seq = Labeling.collect ~jobs:1 small_config ~swp:false benchmarks in
  let par = Labeling.collect ~jobs:4 small_config ~swp:false benchmarks in
  check_labels_equal seq par

let test_parallel_loocv_identical () =
  let pairs =
    Array.init 40 (fun i ->
        let x = float_of_int (i mod 7) and y = float_of_int (i mod 3) in
        ([| x; y; x +. y |], i mod 2))
  in
  let train = Knn.train ~radius:0.5 ~n_classes:2 in
  let predict = Knn.predict in
  let seq = Loocv.run ~jobs:1 ~train ~predict pairs in
  let par = Loocv.run ~jobs:4 ~train ~predict pairs in
  Alcotest.(check (array int)) "LOOCV folds identical" seq par

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pipeline_semantics;
    ("pipeline matches Simulator.compile", `Quick, test_pipeline_matches_simulator_compile);
    ("telemetry records passes", `Quick, test_telemetry_records_passes);
    ("warm cache equals cold sweep", `Quick, test_cache_warm_equals_cold);
    ("cache key ignores loop name", `Quick, test_cache_key_ignores_name);
    ("cycles cache keyed by window", `Quick, test_cache_cycles_keyed_by_window);
    ("capacity 0 disables the cache", `Quick, test_cache_capacity_zero_disables);
    ("jobs=4 labels identical to jobs=1", `Slow, test_parallel_labels_identical);
    ("jobs=4 LOOCV identical to jobs=1", `Quick, test_parallel_loocv_identical);
  ]
