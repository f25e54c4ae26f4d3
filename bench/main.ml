(* The reproduction harness.

   Regenerates every table and figure from the paper's evaluation —
   Figures 1–5 and Tables 2–4 — against the simulated testbed, then runs
   Bechamel microbenchmarks for the timing claims the paper makes in §5
   (near-neighbor lookup under 5 ms over 2,500 examples; SVM training about
   30 seconds; classifier training time irrelevant next to compile time).

   Scale: the default configuration matches the paper (72 benchmarks,
   ~2,500 surviving loops).  Set FAST=1 for a reduced run. *)

open Bechamel
open Toolkit

let hr title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* ---------------- experiment reproduction ---------------- *)

let run_experiments env =
  hr "Figure 1 (NN on LDA-projected loops)";
  print_string (Experiments.fig1 env);
  hr "Figure 2 (SVM decision regions)";
  print_string (Experiments.fig2 env);
  hr "Figure 3 (optimal unroll factor histogram)";
  print_string (Experiments.fig3 env);
  hr "Table 2 (prediction accuracy, LOOCV)";
  print_string (Experiments.table2 env);
  hr "Table 3 (mutual information scores)";
  print_string (Experiments.table3 env);
  hr "Table 4 (greedy feature selection)";
  print_string (Experiments.table4 env);
  hr "Figure 4 (speedups, SWP disabled)";
  print_string (Experiments.fig4 env);
  hr "Figure 5 (speedups, SWP enabled)";
  print_string (Experiments.fig5 env);
  hr "Summary (paper vs reproduction)";
  print_string (Experiments.summary env);
  hr "Ablations (design choices beyond the paper's tables)";
  print_string (Experiments.ablations env)

(* ---------------- microbenchmarks ---------------- *)

let microbench_tests env =
  let config = env.Experiments.config in
  let ds = Dataset.select_features env.Experiments.dataset_off env.Experiments.selected in
  let scaler = Scale.fit ds in
  let scaled = Scale.apply scaler ds in
  let pairs = Dataset.points scaled in
  let nn = Knn.train ~radius:config.Config.knn_radius ~n_classes:8 pairs in
  let svm_pairs =
    (* cap the trained model so the prediction benchmark finishes quickly
       even at full scale *)
    Array.sub pairs 0 (min (Array.length pairs) 800)
  in
  let svm =
    Multiclass.train ~n_classes:8 ~kernel:config.Config.svm_kernel
      ~gamma:config.Config.svm_gamma svm_pairs
  in
  let query = fst pairs.(Array.length pairs / 2) in
  let sample_loop = Kernels.stencil5 ~name:"bench_loop" ~trip:128 in
  let machine = config.Config.machine in
  let train_pairs = Array.sub pairs 0 (min (Array.length pairs) 300) in
  [
    (* §5.1: "with over 2,500 examples in our database, the linear-time
       scan takes less than 5 ms". *)
    Test.make
      ~name:(Printf.sprintf "nn-lookup-%d" (Array.length pairs))
      (Staged.stage (fun () -> Knn.predict nn query));
    Test.make
      ~name:(Printf.sprintf "svm-predict-%d" (Array.length svm_pairs))
      (Staged.stage (fun () -> Multiclass.predict svm query));
    (* NN "training" is just populating the database. *)
    Test.make
      ~name:(Printf.sprintf "nn-train-%d" (Array.length pairs))
      (Staged.stage (fun () -> Knn.train ~radius:0.5 ~n_classes:8 pairs));
    (* §5.2: SVM training took ~30 s in Matlab on their 2,500 examples; an
       O(N^3) solve, benchmarked here at N=300. *)
    Test.make
      ~name:(Printf.sprintf "svm-train-%d" (Array.length train_pairs))
      (Staged.stage (fun () ->
           Multiclass.train ~n_classes:8 ~kernel:config.Config.svm_kernel
             ~gamma:config.Config.svm_gamma train_pairs));
    (* The compile-time cost of consulting the learned heuristic is
       dominated by everything else the compiler does per loop: *)
    Test.make ~name:"feature-extraction"
      (Staged.stage (fun () -> Features.extract machine sample_loop));
    Test.make ~name:"compile-u4-list"
      (Staged.stage (fun () -> Simulator.compile machine ~swp:false sample_loop 4));
    Test.make ~name:"compile-u4-swp"
      (Staged.stage (fun () -> Simulator.compile machine ~swp:true sample_loop 4));
    (* Cold vs content-addressed-cache compile: capacity 0 disables the
       store, so every call re-runs the pass pipeline; the warm cache
       should answer in a digest + table lookup. *)
    Test.make ~name:"compile-u4-cold"
      (let cold = Compile_cache.create ~exe_capacity:0 ~cycles_capacity:0 () in
       Staged.stage (fun () -> Pipeline.compile ~cache:cold machine ~swp:false sample_loop 4));
    Test.make ~name:"compile-u4-cached"
      (let warm = Compile_cache.create () in
       ignore (Pipeline.compile ~cache:warm machine ~swp:false sample_loop 4);
       Staged.stage (fun () -> Pipeline.compile ~cache:warm machine ~swp:false sample_loop 4));
  ]

let run_microbenches env =
  hr "Microbenchmarks (Bechamel)";
  let tests = microbench_tests env in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"unroll-ml" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name o acc ->
        match Analyze.OLS.estimates o with
        | Some (est :: _) -> (name, est) :: acc
        | _ -> acc)
      results []
    |> List.sort compare
  in
  let t =
    Table.create ~title:"classifier and compiler timings"
      [ ("operation", Table.Left); ("time per call", Table.Right) ]
  in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Table.add_row t [ name; pretty ])
    rows;
  Table.print t;
  print_endline
    "paper claims: NN lookup < 5 ms over 2,500 examples; SVM training ~30 s\n\
     (Matlab, N=2,500; the O(N^3) solve here is benchmarked at smaller N).";
  rows

(* ---------------- pipeline: parallel sweep + compile cache ---------------- *)

let run_parallel_bench config compile_rows =
  hr "Pass pipeline: sequential vs parallel labelling sweep";
  let benchmarks =
    Suite.full ~scale:(Float.min config.Config.scale 0.15) ~seed:config.Config.seed
    |> List.filteri (fun i _ -> i < 12)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* At least 2 so the domain path is exercised even on a 1-core host
     (where no wall-clock speedup is expected). *)
  let jobs = max 2 (Parallel.default_jobs ()) in
  (* Both runs start from an empty compile cache and dependence-graph memo
     so the comparison is sweep work, not one run replaying the other's
     compiles or graphs. *)
  let clear () =
    Compile_cache.clear Compile_cache.global;
    Deps_memo.clear Deps_memo.global
  in
  clear ();
  let seq, t_seq = time (fun () -> Labeling.collect ~jobs:1 config ~swp:false benchmarks) in
  clear ();
  let par, t_par = time (fun () -> Labeling.collect ~jobs config ~swp:false benchmarks) in
  let identical =
    Array.length seq = Array.length par
    && Array.for_all2
         (fun (a : Labeling.labeled) (b : Labeling.labeled) ->
           a.Labeling.bench = b.Labeling.bench && a.Labeling.cycles = b.Labeling.cycles)
         seq par
  in
  (* A repeat of the sequential sweep on the now-warm cache shows the
     content-addressed hit path. *)
  let hits0 = Compile_cache.hits Compile_cache.global in
  let _, t_warm = time (fun () -> Labeling.collect ~jobs:1 config ~swp:false benchmarks) in
  let warm_hits = Compile_cache.hits Compile_cache.global - hits0 in
  Printf.printf
    "loops=%d  sequential %.2fs | %d jobs %.2fs (%.2fx) | warm-cache rerun %.2fs \
     (%d hits) | identical=%b\n"
    (Array.length seq) t_seq jobs t_par (t_seq /. Float.max t_par 1e-9) t_warm warm_hits
    identical;
  let ns name = try List.assoc name compile_rows with Not_found -> nan in
  Printf.printf
    "{\"bench\":\"pipeline\",\"loops\":%d,\"jobs\":%d,\"seq_s\":%.3f,\"par_s\":%.3f,\
     \"speedup\":%.2f,\"identical\":%b,\"warm_s\":%.3f,\"warm_hits\":%d,\
     \"hit_rate\":%.3f,\"compile_cold_ns\":%.0f,\"compile_cached_ns\":%.0f}\n"
    (Array.length seq) jobs t_seq t_par
    (t_seq /. Float.max t_par 1e-9)
    identical t_warm warm_hits
    (Compile_cache.hit_rate Compile_cache.global)
    (ns "unroll-ml/compile-u4-cold")
    (ns "unroll-ml/compile-u4-cached")

(* ---------------- prediction serving ---------------- *)

(* A reduced pass of the serve load generator (bench/bench_serve.exe runs
   the full ramp), so the aggregate summary lines cover serving alongside
   the ML, simulator and parallel numbers. *)
let run_serve_bench () =
  hr "Prediction server: concurrent load, micro-batching";
  let artifact =
    List.find_opt Sys.file_exists
      [ "test/fixtures/golden_nn.artifact"; "fixtures/golden_nn.artifact" ]
  in
  match artifact with
  | None -> print_endline "skipped: golden artifact fixture not found (run from the repo root)"
  | Some artifact -> (
    let config = { Config.fast with Config.scale = 0.05 } in
    let pool = Serve_bench.loop_pool ~size:256 config in
    match
      Serve_bench.run ~levels:[ 1; 8 ] ~requests_per_level:1500 ~config ~artifact ~pool ()
    with
    | Error e -> Printf.printf "serve bench failed: %s\n" e
    | Ok r -> print_endline r.Serve_bench.json)

(* ---------------- incremental training ---------------- *)

(* A reduced pass of the incremental-training bench (bench/bench_train.exe
   runs the full sizes up to n=8000): one appended point into a standing
   ridge system against a cold retrain, gated on bit-identical alphas. *)
let run_train_bench () =
  hr "Incremental training: rank-1 ridge update vs cold retrain";
  let n = 600 and d = 16 and n_classes = 8 in
  let kernel = Kernel.Rbf 0.05 and gamma = 10.0 in
  let st = Random.State.make [| 42; n |] in
  let labels = Array.init (n + 1) (fun _ -> Random.State.int st n_classes) in
  let points =
    Array.map
      (fun _ -> Array.init d (fun _ -> Random.State.float st 2.0 -. 1.0))
      labels
  in
  let targets =
    Array.init n_classes (fun c ->
        Array.init (n + 1) (fun i -> if labels.(i) = c then 1.0 else -1.0))
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let sys = Lssvm.system_of_points ~kernel ~gamma (Array.sub points 0 n) in
  let inc, t_inc =
    time (fun () ->
        Lssvm.system_append sys points.(n);
        Lssvm.system_train sys targets)
  in
  let full, t_full =
    time (fun () ->
        Lssvm.system_train (Lssvm.system_of_points ~kernel ~gamma points) targets)
  in
  let identical =
    Array.for_all2
      (fun a b ->
        let xa = Lssvm.export a and xb = Lssvm.export b in
        Array.length xa = Array.length xb
        && Array.for_all2
             (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
             xa xb)
      inc full
  in
  Printf.printf
    "n=%d  append+train %.4fs | cold retrain %.3fs (%.1fx) | identical=%b\n" n t_inc
    t_full
    (t_full /. Float.max t_inc 1e-9)
    identical

let () =
  let config = Config.of_env () in
  Printf.printf
    "unroll-ml reproduction harness\n\
     config: scale=%.2f seed=%d machine=%s runs=%d noise=%.3f%s\n%!"
    config.Config.scale config.Config.seed config.Config.machine.Machine.mach_name
    config.Config.runs config.Config.noise
    (if config = Config.fast then " (FAST)" else "");
  let env = Experiments.build_env config in
  run_experiments env;
  let rows = run_microbenches env in
  run_parallel_bench config rows;
  run_serve_bench ();
  run_train_bench ()
