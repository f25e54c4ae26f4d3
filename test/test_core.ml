(* Tests for the core layer: features, labelling, the ORC heuristic,
   predictors, the compiler pipeline and (slow) the experiment drivers. *)

let machine = Machine.itanium2
let config = { Config.fast with Config.scale = 0.06; runs = 3 }

(* --- Features --- *)

let test_features_38 () =
  Alcotest.(check int) "exactly 38 features" 38 Features.count;
  Alcotest.(check int) "names match" 38 (Array.length Features.names);
  Alcotest.(check int) "unique names" 38
    (List.length (List.sort_uniq compare (Array.to_list Features.names)))

let test_features_paper_table1_present () =
  (* Every row of the paper's Table 1 must be a feature. *)
  List.iter
    (fun n ->
      try ignore (Features.index_of n)
      with Not_found -> Alcotest.failf "missing paper feature %s" n)
    [
      "nest_level"; "num_ops"; "num_fp_ops"; "num_branches"; "num_mem_ops";
      "num_operands"; "num_implicit_ops"; "num_unique_predicates";
      "critical_path_latency"; "est_cycle_length"; "is_fortran";
      "num_parallel_computations"; "max_dependence_height"; "max_memory_height";
      "max_control_height"; "avg_dependence_height"; "num_indirect_refs";
      "min_mem_carried_distance"; "num_mem_carried_deps"; "tripcount";
      "num_uses"; "num_defs";
    ]

let test_features_daxpy_values () =
  let l = Kernels.daxpy ~name:"f_daxpy" ~trip:128 in
  let f = Features.extract machine l in
  let get n = f.(Features.index_of n) in
  Alcotest.(check (float 1e-9)) "nest" 1.0 (get "nest_level");
  Alcotest.(check (float 1e-9)) "ops" 7.0 (get "num_ops");
  Alcotest.(check (float 1e-9)) "fp ops" 1.0 (get "num_fp_ops");
  Alcotest.(check (float 1e-9)) "mem ops" 3.0 (get "num_mem_ops");
  Alcotest.(check (float 1e-9)) "fortran" 1.0 (get "is_fortran");
  Alcotest.(check (float 1e-9)) "known trip" 1.0 (get "known_tripcount");
  Alcotest.(check (float 1e-6)) "log trip" (log1p 128.0) (get "tripcount");
  Alcotest.(check (float 1e-9)) "div8" 1.0 (get "trip_div8");
  Alcotest.(check (float 1e-9)) "no indirect" 0.0 (get "num_indirect_refs");
  Alcotest.(check (float 1e-9)) "no alias (fortran)" 0.0 (get "may_alias")

let test_features_unknown_trip () =
  let l = Kernels.daxpy_unknown_trip ~name:"f_unk" ~trip:128 in
  let f = Features.extract machine l in
  Alcotest.(check (float 1e-9)) "trip sentinel" (-1.0) (f.(Features.index_of "tripcount"));
  Alcotest.(check (float 1e-9)) "not known" 0.0 (f.(Features.index_of "known_tripcount"));
  Alcotest.(check (float 1e-9)) "div8 unknown = 0" 0.0 (f.(Features.index_of "trip_div8"))

let test_features_recurrence () =
  let l = Kernels.ddot ~name:"f_ddot" ~trip:128 in
  let f = Features.extract machine l in
  Alcotest.(check (float 1e-9)) "recurrence latency" (float_of_int machine.Machine.lat_fadd)
    (f.(Features.index_of "recurrence_latency"))

let test_features_all_kernels_finite () =
  List.iter
    (fun (name, maker) ->
      let f = Features.extract machine (maker ~name ~trip:64) in
      Array.iteri
        (fun i v ->
          if not (Float.is_finite v) then
            Alcotest.failf "%s feature %s not finite" name Features.names.(i))
        f)
    Kernels.all

(* --- Orc heuristic --- *)

let test_orc_rejects_calls () =
  let l = Kernels.call_in_loop ~name:"o_call" ~trip:64 in
  Alcotest.(check int) "call -> 1" 1 (Orc_heuristic.no_swp machine l);
  Alcotest.(check int) "call swp -> 1" 1 (Orc_heuristic.swp machine l)

let test_orc_small_body_unrolls () =
  let l = Kernels.dscal ~name:"o_small" ~trip:1024 in
  Alcotest.(check bool) "small body unrolls a lot" true (Orc_heuristic.no_swp machine l >= 4)

let test_orc_trip_respected () =
  let l = Kernels.daxpy ~name:"o_trip" ~trip:3 in
  Alcotest.(check bool) "never exceeds trip" true (Orc_heuristic.no_swp machine l <= 3)

let test_orc_power_of_two () =
  List.iter
    (fun (name, maker) ->
      let l = maker ~name ~trip:100 in
      let u = Orc_heuristic.no_swp machine l in
      Alcotest.(check bool)
        (Printf.sprintf "%s picks power of two (%d)" name u)
        true
        (List.mem u [ 1; 2; 4; 8 ]))
    Kernels.all

let test_orc_in_range () =
  List.iter
    (fun (name, maker) ->
      List.iter
        (fun trip ->
          let l = maker ~name ~trip in
          List.iter
            (fun swp ->
              let u = Orc_heuristic.predict machine ~swp l in
              Alcotest.(check bool)
                (Printf.sprintf "%s trip=%d swp=%b in range" name trip swp)
                true (u >= 1 && u <= 8))
            [ true; false ])
        [ 1; 13; 200 ])
    Kernels.all

let test_orc_swp_seeks_fractional_ii () =
  (* daxpy: 3 memory ops -> ResMII 2 for 1 iteration (2.0/iter); unrolling
     by 4 gives ceil(4*1.5+overhead)/4 < 2, so the SWP heuristic unrolls. *)
  let l = Kernels.daxpy ~name:"o_swp" ~trip:1024 in
  Alcotest.(check bool) "swp heuristic unrolls daxpy" true (Orc_heuristic.swp machine l > 1)

(* --- Labeling --- *)

let labeled_cache = lazy (
  let benchmarks = Suite.full ~scale:config.Config.scale ~seed:config.Config.seed in
  Labeling.collect config ~swp:false benchmarks)

let test_labeling_shapes () =
  let labeled = Lazy.force labeled_cache in
  Alcotest.(check bool) "collected something" true (Array.length labeled > 50);
  Array.iter
    (fun (l : Labeling.labeled) ->
      Alcotest.(check int) "8 measurements" 8 (Array.length l.Labeling.cycles);
      let b = Labeling.best_factor l in
      Alcotest.(check bool) "best factor in range" true (b >= 1 && b <= 8);
      Array.iter
        (fun c -> Alcotest.(check bool) "positive cycles" true (c > 0))
        l.Labeling.cycles)
    labeled

let test_labeling_filters () =
  let labeled = Lazy.force labeled_cache in
  let kept = List.filter Labeling.passes_filters (Array.to_list labeled) in
  Alcotest.(check bool) "filters keep a majority" true
    (List.length kept * 2 > Array.length labeled);
  List.iter
    (fun (l : Labeling.labeled) ->
      Alcotest.(check bool) "kept loops are unrollable" true
        (Loop.unrollable l.Labeling.loop))
    kept

let test_labeling_dataset () =
  let labeled = Lazy.force labeled_cache in
  let ds = Labeling.to_dataset config labeled in
  Alcotest.(check int) "feature count" 38 (Array.length ds.Dataset.feature_names);
  Alcotest.(check int) "classes" 8 ds.Dataset.n_classes;
  Alcotest.(check int) "filtered size" (List.length (List.filter Labeling.passes_filters (Array.to_list labeled)))
    (Dataset.size ds)

let test_labeling_deterministic () =
  let benchmarks = Suite.full ~scale:0.03 ~seed:7 in
  let a = Labeling.collect config ~swp:false benchmarks in
  let b = Labeling.collect config ~swp:false benchmarks in
  Alcotest.(check bool) "same labels" true
    (Array.length a = Array.length b
    && Array.for_all2
         (fun (x : Labeling.labeled) y -> x.Labeling.cycles = y.Labeling.cycles)
         a b)

(* --- Predictor / Compiler --- *)

let test_predictor_fixed_clamps () =
  let l = Kernels.daxpy ~name:"p_fix" ~trip:64 in
  Alcotest.(check int) "clamp high" 8 (Predictor.predict (Predictor.Fixed 12) config ~swp:false l);
  Alcotest.(check int) "clamp low" 1 (Predictor.predict (Predictor.Fixed 0) config ~swp:false l)

let test_predictor_oracle () =
  let l = Kernels.daxpy ~name:"p_oracle" ~trip:64 in
  let cycles = [| 50; 40; 90; 10; 60; 70; 80; 95 |] in
  Alcotest.(check int) "oracle picks min" 4
    (Predictor.predict Predictor.Oracle config ~swp:false ~cycles l);
  Alcotest.(check bool) "oracle needs cycles" true
    (try ignore (Predictor.predict Predictor.Oracle config ~swp:false l); false
     with Invalid_argument _ -> true)

let test_predictor_nonunrollable_forced () =
  let l = Kernels.call_in_loop ~name:"p_call" ~trip:64 in
  let cycles = [| 90; 10; 20; 30; 40; 50; 60; 70 |] in
  Alcotest.(check int) "oracle forced to 1" 1
    (Predictor.predict Predictor.Oracle config ~swp:false ~cycles l)

let test_predictor_learned_roundtrip () =
  let labeled = Lazy.force labeled_cache in
  let ds = Labeling.to_dataset config labeled in
  let features = Array.init Features.count (fun i -> i) in
  let nn = Predictor.train_nn config ~features ds in
  let svm = Predictor.train_svm ~cap:150 config ~features ds in
  let l = Kernels.daxpy ~name:"p_learned" ~trip:256 in
  List.iter
    (fun p ->
      let u = Predictor.predict p config ~swp:false l in
      Alcotest.(check bool) (Predictor.name p ^ " in range") true (u >= 1 && u <= 8))
    [ nn; svm ]

let test_compiler_speedup_oracle_dominates () =
  let labeled = Lazy.force labeled_cache in
  let benchmarks = Suite.full ~scale:config.Config.scale ~seed:config.Config.seed in
  List.iteri
    (fun i b ->
      if i < 6 then begin
        let oracle =
          Compiler.benchmark_speedup config ~swp:false Predictor.Oracle
            ~baseline:Predictor.Orc b labeled
        in
        let fixed1 =
          Compiler.benchmark_speedup config ~swp:false (Predictor.Fixed 1)
            ~baseline:Predictor.Orc b labeled
        in
        Alcotest.(check bool)
          (b.Suite.bname ^ " oracle >= never-unroll")
          true (oracle >= fixed1 -. 1e-9);
        Alcotest.(check bool)
          (b.Suite.bname ^ " oracle >= 1 vs orc")
          true (oracle >= 1.0 -. 1e-9)
      end)
    benchmarks

(* --- Experiments (integration, slow) --- *)

let experiments_env = lazy (Experiments.build_env ~progress:false config)

let test_experiments_end_to_end () =
  (* The fixture is `experiment all --fast --scale 0.06 --runs 3` (this
     suite's config) up to its wall-clock timing table: every
     deterministic experiment in paper order, each followed by the blank
     separator line [Experiments.all] puts between them. *)
  let env = Lazy.force experiments_env in
  let expected =
    In_channel.with_open_bin (Test_store.fixture "experiment_all_fast_s006.txt") In_channel.input_all
  in
  let pos =
    List.fold_left
      (fun pos (name, s) ->
        let s = s ^ "\n" in
        let n = min (String.length s) (String.length expected - pos) in
        Alcotest.(check string) (name ^ " matches the fixture") (String.sub expected pos n) s;
        pos + n)
      0
      [
        ("fig1", Experiments.fig1 env);
        ("fig2", Experiments.fig2 env);
        ("fig3", Experiments.fig3 env);
        ("table2", Experiments.table2 env);
        ("table3", Experiments.table3 env);
        ("table4", Experiments.table4 env);
        ("fig4", Experiments.fig4 env);
        ("fig5", Experiments.fig5 env);
        ("joint", Experiments.joint env);
        ("summary", Experiments.summary env);
        ("ablations", Experiments.ablations env);
      ]
  in
  Alcotest.(check int) "fixture fully matched" (String.length expected) pos

let test_experiments_timing_keeps_deps_memo () =
  (* The cold-extraction timing must not touch the global dependence-graph
     memo, or the deps-memo counters of a run would depend on how many
     passes fit in the wall-clock budget. *)
  let env = Lazy.force experiments_env in
  let counters () =
    [
      Deps_memo.hits Deps_memo.global;
      Deps_memo.misses Deps_memo.global;
      Telemetry.counter Telemetry.global ~pass:"deps-memo" "hits";
      Telemetry.counter Telemetry.global ~pass:"deps-memo" "misses";
    ]
  in
  let before = counters () in
  let out = Experiments.timing env in
  Alcotest.(check bool) "timing table rendered" true (String.length out > 40);
  Alcotest.(check (list int)) "global deps-memo hits and misses unchanged" before
    (counters ())

(* --- retargeting sanity: different machines, different labels --- *)

let test_machines_shift_optima () =
  (* On the narrow embedded core, wide unrolling saturates immediately; the
     same loop prefers a lower factor than on the 6-issue machine. *)
  let loop = Kernels.wide_independent ~name:"m_shift" ~trip:256 in
  let best m =
    let rng = Rng.create 3 in
    let cycles = Measure.sweep ~noise:0.0 ~runs:1 ~rng ~machine:m ~swp:false loop in
    1 + Stats.min_index (Array.map float_of_int cycles)
  in
  let b_it = best Machine.itanium2 and b_em = best Machine.embedded2 in
  Alcotest.(check bool)
    (Printf.sprintf "embedded prefers <= factor (it2=%d emb=%d)" b_it b_em)
    true (b_em <= b_it)

let test_features_machine_relative () =
  (* est_cycle_length depends on the machine's unit counts. *)
  let loop = Kernels.fir8 ~name:"m_feat" ~trip:64 in
  let f_it = Features.extract Machine.itanium2 loop in
  let f_em = Features.extract Machine.embedded2 loop in
  let i = Features.index_of "est_cycle_length" in
  Alcotest.(check bool) "narrower machine, longer estimate" true (f_em.(i) > f_it.(i))

let test_orc_differs_by_machine () =
  let loop = Kernels.dscal ~name:"m_orc" ~trip:1024 in
  let u_wide = Orc_heuristic.swp Machine.wide_vliw loop in
  let u_emb = Orc_heuristic.swp Machine.embedded2 loop in
  Alcotest.(check bool) "heuristic adapts to machine" true (u_emb <= u_wide)


let test_predictor_persistence_roundtrip () =
  let labeled = Lazy.force labeled_cache in
  let ds = Labeling.to_dataset config labeled in
  let features = Array.init Features.count (fun i -> i) in
  let queries =
    List.map (fun (n, m) -> m ~name:n ~trip:96)
      [ ("q1", Kernels.daxpy); ("q2", Kernels.stencil3); ("q3", Kernels.int_sum) ]
  in
  let roundtrip p =
    let path = Filename.temp_file "unrollml_model" ".artifact" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let a = Predictor.to_artifact config ~dataset_digest:(Dataset.digest ds) p in
        Model_artifact.save a path;
        let a' =
          match Model_artifact.load path with
          | Ok a' -> a'
          | Error e -> Alcotest.fail ("artifact load: " ^ e)
        in
        let p' =
          match Predictor.of_artifact a' with
          | Ok p' -> p'
          | Error e -> Alcotest.fail ("of_artifact: " ^ e)
        in
        List.iter
          (fun loop ->
            Alcotest.(check int)
              (Predictor.name p ^ " prediction preserved")
              (Predictor.predict p config ~swp:false loop)
              (Predictor.predict p' config ~swp:false loop))
          queries)
  in
  roundtrip (Predictor.train_nn config ~features ds);
  roundtrip (Predictor.train_svm ~cap:120 config ~features ds)

let test_predictor_save_rejects_unlearned () =
  Alcotest.(check bool) "oracle not saveable" true
    (try
       ignore (Predictor.to_artifact config ~dataset_digest:"-" Predictor.Oracle);
       false
     with Invalid_argument _ -> true)

(* --- Joint (factor x SWP) decision space --- *)

let labeled_on_cache = lazy (
  let benchmarks = Suite.full ~scale:config.Config.scale ~seed:config.Config.seed in
  Labeling.collect config ~swp:true benchmarks)

let test_joint_encode_decode_roundtrip () =
  Alcotest.(check int) "16 classes" 16 Labeling.Joint.classes;
  for c = 0 to Labeling.Joint.classes - 1 do
    let factor, swp = Labeling.Joint.decode c in
    Alcotest.(check int) (Printf.sprintf "class %d roundtrips" c) c
      (Labeling.Joint.encode ~factor ~swp);
    Alcotest.(check bool) "factor in range" true (factor >= 1 && factor <= 8)
  done;
  for factor = 1 to 8 do
    List.iter
      (fun swp ->
        let c = Labeling.Joint.encode ~factor ~swp in
        Alcotest.(check (pair int bool))
          (Printf.sprintf "encode %d swp=%b roundtrips" factor swp)
          (factor, swp) (Labeling.Joint.decode c))
      [ false; true ]
  done;
  Alcotest.(check bool) "factor 0 rejected" true
    (try ignore (Labeling.Joint.encode ~factor:0 ~swp:false); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "class 16 rejected" true
    (try ignore (Labeling.Joint.decode 16); false
     with Invalid_argument _ -> true)

let test_joint_merge_layout () =
  let off = Lazy.force labeled_cache and on = Lazy.force labeled_on_cache in
  let merged = Labeling.merge_joint ~off ~on in
  Alcotest.(check int) "one merged row per loop" (Array.length off) (Array.length merged);
  Array.iteri
    (fun i (m : Labeling.labeled) ->
      Alcotest.(check int) "16 costs" 16 (Array.length m.Labeling.cycles);
      Alcotest.(check (array int)) "off half" off.(i).Labeling.cycles
        (Array.sub m.Labeling.cycles 0 8);
      Alcotest.(check (array int)) "on half" on.(i).Labeling.cycles
        (Array.sub m.Labeling.cycles 8 8))
    merged

let test_joint_dataset_labels_are_argmin () =
  let off = Lazy.force labeled_cache and on = Lazy.force labeled_on_cache in
  let ds = Labeling.to_dataset config (Labeling.merge_joint ~off ~on) in
  Alcotest.(check int) "16-way" 16 ds.Dataset.n_classes;
  Array.iter
    (fun (e : Dataset.example) ->
      Alcotest.(check int) "16 costs" 16 (Array.length e.Dataset.costs);
      let best = ref 0 in
      Array.iteri (fun i c -> if c < e.Dataset.costs.(!best) then best := i) e.Dataset.costs;
      Alcotest.(check (float 0.0)) "label is the cheapest class"
        e.Dataset.costs.(!best) e.Dataset.costs.(e.Dataset.label))
    ds.Dataset.examples

let test_joint_folds_match_factor_folds () =
  (* The grouped-LOOCV fold structure — example order, tags, groups — must
     be identical between the 8-way and 16-way heads, so head accuracies
     are comparable example for example. *)
  let off = Lazy.force labeled_cache and on = Lazy.force labeled_on_cache in
  let single = Labeling.to_dataset ~filtered:false config off in
  let joint = Labeling.to_dataset ~filtered:false config (Labeling.merge_joint ~off ~on) in
  Alcotest.(check int) "same size" (Dataset.size single) (Dataset.size joint);
  Array.iteri
    (fun i (e : Dataset.example) ->
      let j = joint.Dataset.examples.(i) in
      Alcotest.(check string) "same tag" e.Dataset.tag j.Dataset.tag;
      Alcotest.(check string) "same group" e.Dataset.group j.Dataset.group;
      Alcotest.(check (array (float 0.0))) "same features" e.Dataset.features
        j.Dataset.features)
    single.Dataset.examples

let test_predict_joint_basics () =
  let l = Kernels.daxpy ~name:"pj" ~trip:64 in
  let cycles = Array.init 16 (fun i -> if i = 11 then 10 else 100 + i) in
  Alcotest.(check (pair int bool)) "oracle decodes joint argmin" (4, true)
    (Predictor.predict_joint Predictor.Oracle config ~cycles l);
  Alcotest.(check (pair int bool)) "fixed pins swp off" (8, false)
    (Predictor.predict_joint (Predictor.Fixed 12) config l);
  let call = Kernels.call_in_loop ~name:"pj_call" ~trip:64 in
  Alcotest.(check (pair int bool)) "non-unrollable forced" (1, false)
    (Predictor.predict_joint Predictor.Oracle config ~cycles call);
  let f, s = Predictor.predict_joint Predictor.Orc config l in
  Alcotest.(check bool) "orc stays in factor space" true (f >= 1 && f <= 8 && not s)

let test_joint_pinned_rows_match_single_space () =
  (* [joint_benchmark_speedup ~space:(Pinned false)] is an independent
     implementation of the single-space engine: driven by the same
     leave-one-benchmark-out rows over the same training dataset and
     merged sweep it must reproduce [benchmark_speedup ~swp:false]
     exactly, learner by learner. *)
  let off = Lazy.force labeled_cache and on = Lazy.force labeled_on_cache in
  let merged = Labeling.merge_joint ~off ~on in
  let dataset = Labeling.to_dataset config off in
  let benchmarks =
    List.filteri (fun i _ -> i < 3)
      (Suite.full ~scale:config.Config.scale ~seed:config.Config.seed)
  in
  let features = Array.init Features.count (fun i -> i) in
  let rows speedup = Compiler.speedup_rows config ~features ~benchmarks ~dataset speedup in
  let single =
    rows (fun p b -> Compiler.benchmark_speedup config ~swp:false p ~baseline:Predictor.Orc b off)
  in
  let pinned =
    rows (fun p b ->
        Compiler.joint_benchmark_speedup config ~space:(Compiler.Pinned false) p
          ~baseline:Predictor.Orc b merged)
  in
  Alcotest.(check int) "same row count" (Array.length single) (Array.length pinned);
  Array.iteri
    (fun i (r : Compiler.row) ->
      let r' = pinned.(i) in
      Alcotest.(check string) "benchmark" r.Compiler.bench r'.Compiler.bench;
      Alcotest.(check bool) "fp flag" r.Compiler.fp r'.Compiler.fp;
      Alcotest.(check (list (pair string (float 0.0))))
        "learner speedups" r.Compiler.learned r'.Compiler.learned;
      Alcotest.(check (float 0.0)) "oracle speedup" r.Compiler.oracle r'.Compiler.oracle)
    single

let test_train_best_choice_ties () =
  (* [Train.best] on exact ties: the SVM (the paper's overall winner)
     wins an NN tie, and the MLP must strictly beat both. *)
  List.iter
    (fun ((nn, svm, mlp), expected) ->
      let by_name = [ ("nn", nn); ("svm", svm); ("mlp", mlp) ] in
      let scores = List.map (fun l -> (l, List.assoc (Learner.name l) by_name)) Learner.all in
      Alcotest.(check string)
        (Printf.sprintf "nn %.1f, svm %.1f, mlp %.1f" nn svm mlp)
        expected
        (Learner.name (Train.best scores)))
    [
      ((0.5, 0.5, 0.5), "svm");
      ((0.6, 0.6, 0.5), "svm");
      ((0.5, 0.6, 0.6), "svm");
      ((0.6, 0.5, 0.6), "nn");
      ((0.6, 0.5, 0.5), "nn");
      ((0.5, 0.6, 0.5), "svm");
      ((0.5, 0.5, 0.6), "mlp");
      ((0.6, 0.5, 0.7), "mlp");
      ((0.5, 0.6, 0.7), "mlp");
      ((0.7, 0.5, 0.6), "nn");
    ]

let test_joint_merge_rejects_misaligned () =
  let off = Lazy.force labeled_cache in
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore (Labeling.merge_joint ~off ~on:(Array.sub off 0 (Array.length off - 1)));
       false
     with Invalid_argument _ -> true)

(* --- Online training = batch training --- *)

let test_online_matches_batch () =
  (* Batch-train with a journal, then replay that journal through the
     online trainer: the final artifact must be bit-identical, regardless
     of intermediate refits along the way. *)
  let cfg = { Config.fast with Config.scale = 0.05; jobs = 2 } in
  let path = Filename.temp_file "unrollml_online" ".journal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Sys.remove path;
      let j =
        match Label_store.open_ path with Ok j -> j | Error e -> Alcotest.fail e
      in
      let batch_artifact, batch_report =
        Train.run ~progress:false ~journal:j cfg ~swp:false ~model:Train.Best
      in
      Label_store.close j;
      let online = Train.Online.create ~progress:false cfg ~swp:false ~model:Train.Best in
      let f =
        match Label_store.follow path with Ok f -> f | Error e -> Alcotest.fail e
      in
      let completed = ref 0 in
      let rec drain () =
        match Label_store.follow_next ~timeout:0.05 f with
        | None -> ()
        | Some (key, factor, cycles) ->
          if Train.Online.ingest online ~key ~factor ~cycles then begin
            incr completed;
            (* an intermediate refit must not disturb the final result *)
            if !completed = 3 then ignore (Train.Online.retrain online)
          end;
          drain ()
      in
      drain ();
      Label_store.close_follower f;
      Alcotest.(check int) "all sweeps complete"
        (Train.Online.total_sweeps online)
        (Train.Online.complete_sweeps online);
      Alcotest.(check int) "no unknown records" 0 (Train.Online.unknown_records online);
      match Train.Online.retrain online with
      | Error e -> Alcotest.fail e
      | Ok (a, report) ->
        Alcotest.(check string) "artifact bit-identical to batch"
          (Model_artifact.to_string batch_artifact)
          (Model_artifact.to_string a);
        Alcotest.(check string) "same dataset digest" batch_report.Train.dataset_digest
          report.Train.dataset_digest)

let suite =
  [
    ("features 38", `Quick, test_features_38);
    ("online train = batch train", `Slow, test_online_matches_batch);
    ("predictor persistence", `Slow, test_predictor_persistence_roundtrip);
    ("predictor save rejects", `Quick, test_predictor_save_rejects_unlearned);
    ("machines shift optima", `Quick, test_machines_shift_optima);
    ("features machine relative", `Quick, test_features_machine_relative);
    ("orc machine adaptive", `Quick, test_orc_differs_by_machine);
    ("features table1", `Quick, test_features_paper_table1_present);
    ("features daxpy", `Quick, test_features_daxpy_values);
    ("features unknown trip", `Quick, test_features_unknown_trip);
    ("features recurrence", `Quick, test_features_recurrence);
    ("features finite", `Quick, test_features_all_kernels_finite);
    ("orc rejects calls", `Quick, test_orc_rejects_calls);
    ("orc small body", `Quick, test_orc_small_body_unrolls);
    ("orc trip respected", `Quick, test_orc_trip_respected);
    ("orc power of two", `Quick, test_orc_power_of_two);
    ("orc in range", `Quick, test_orc_in_range);
    ("orc swp fractional", `Quick, test_orc_swp_seeks_fractional_ii);
    ("labeling shapes", `Slow, test_labeling_shapes);
    ("labeling filters", `Slow, test_labeling_filters);
    ("labeling dataset", `Slow, test_labeling_dataset);
    ("labeling deterministic", `Slow, test_labeling_deterministic);
    ("predictor fixed", `Quick, test_predictor_fixed_clamps);
    ("predictor oracle", `Quick, test_predictor_oracle);
    ("predictor nonunrollable", `Quick, test_predictor_nonunrollable_forced);
    ("predictor learned", `Slow, test_predictor_learned_roundtrip);
    ("compiler oracle dominates", `Slow, test_compiler_speedup_oracle_dominates);
    ("experiments end to end", `Slow, test_experiments_end_to_end);
    ("experiments timing keeps deps memo", `Slow, test_experiments_timing_keeps_deps_memo);
    ("joint encode/decode", `Quick, test_joint_encode_decode_roundtrip);
    ("joint merge layout", `Slow, test_joint_merge_layout);
    ("joint dataset argmin labels", `Slow, test_joint_dataset_labels_are_argmin);
    ("joint folds = factor folds", `Slow, test_joint_folds_match_factor_folds);
    ("predict_joint basics", `Quick, test_predict_joint_basics);
    ("joint pinned rows = single space", `Slow, test_joint_pinned_rows_match_single_space);
    ("joint merge rejects misaligned", `Slow, test_joint_merge_rejects_misaligned);
    ("train best choice ties", `Quick, test_train_best_choice_ties);
  ]
