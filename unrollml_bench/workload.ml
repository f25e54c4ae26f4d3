(* The four workloads.  Each repetition runs in a fresh child process (see
   Runner), so caches and memo tables start cold as they do in a user's
   process.  A repetition sets up its inputs, times the job through the
   library's public entry points, and checks what the job produced.  A
   traced repetition runs a replica of the job built from the same public
   calls in the same order, with spans around each layer, and must produce
   the same output bit for bit. *)

let jobs = 2

(* The workload seed offsets the measurement-noise and MLP streams of
   [Config.fast]; the loop suite stays the paper's fixed suite, so every
   seed compiles and simulates the same programs and run-to-run
   differences in time come from the system, not from a different amount
   of work.  At the default seed the configuration is [Config.fast]. *)
let config ~scale seed =
  let d = seed - Pins.default_seed in
  {
    Config.fast with
    Config.scale;
    jobs;
    noise_seed = Config.fast.Config.noise_seed + d;
    mlp_seed = Config.fast.Config.mlp_seed + d;
  }

(* The configuration the golden fixtures were generated with. *)
let fixture_config = { Config.fast with Config.scale = 0.05; jobs }
let fixture name = Filename.concat "test/fixtures" name

type ctx = {
  seed : int;
  dir : string;  (** scratch directory of this run *)
  rep : int;  (** repetition 0 of a run also checks outputs *)
  trace_out : string option;  (** set for the traced repetition *)
}

type rep = {
  setup_s : float;
  wall_s : float;
  cpu_s : float;
  rss_mb : float;
  ops_ms : float array;  (** latency of each operation a caller waits on *)
  attempted : int;
  failed : int;
  digest : string;  (** identity of the job's output *)
  checks : (string * bool) list;
  layers : (string * float) list;  (** per-layer metrics, traced only *)
}

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* High-water resident set of this process, in MB (Linux's VmHWM). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
               Some (float_of_int kb /. 1024.0))
         else None)
  |> Option.get

let md5 s = Digest.to_hex (Digest.string s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

type timing = { wall : float; cpu_s : float; rss : float }

let timed f =
  let c0 = cpu () and t0 = now () in
  let v = f () in
  let wall = now () -. t0 in
  let cpu_s = cpu () -. c0 in
  (v, { wall; cpu_s; rss = peak_rss_mb () })

let open_journal path =
  match Label_store.open_ path with Ok j -> j | Error e -> failwith e

let fresh_journal path =
  if Sys.file_exists path then Sys.remove path;
  open_journal path

let write_trace ~workload ~origin path =
  let spans = Spans.collect () in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Jsonv.to_string (Spans.to_json ~workload ~origin spans));
      output_char oc '\n');
  spans

let self_of spans =
  let tbl = Spans.self_by_name spans in
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* Self time of every span but the roots, as a share of [busy]. *)
let coverage spans ~busy =
  let layered =
    List.fold_left
      (fun acc (s, self) -> if s.Spans.parent < 0 then acc else acc +. self)
      0.0 (Spans.self_times spans)
  in
  if busy <= 0.0 then 0.0 else layered /. busy

let durations name spans =
  List.filter_map
    (fun s -> if s.Spans.name = name then Some (s.Spans.stop -. s.Spans.start) else None)
    spans
  |> Array.of_list

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

let parallel_layers t =
  [
    ("parallel.cpu_util", t.cpu_s /. (t.wall *. float_of_int jobs));
    ("parallel.steals", float_of_int (Telemetry.counter Telemetry.global ~pass:"parallel" "steals"));
  ]

(* ---- sweeps ---------------------------------------------------------- *)

type sweep = {
  suite : scale:float -> seed:int -> Suite.benchmark list;
  scale : float;
  swps : bool list;
  pinned : string;
  golden : int;
}

let sweep_off =
  {
    suite = Suite.full;
    scale = 0.05;
    swps = [ false ];
    pinned = Pins.sweep_off_labels;
    golden = Pins.sweep_off_golden;
  }

let sweep_joint =
  {
    suite = Suite.spec2000;
    scale = 0.03;
    swps = [ false; true ];
    pinned = Pins.sweep_joint_labels;
    golden = Pins.sweep_joint_golden;
  }

let sfx swp = if swp then "on" else "off"

let labels_digest (labeled : Labeling.labeled array) =
  let b = Buffer.create 8192 in
  Array.iter
    (fun (l : Labeling.labeled) ->
      Printf.bprintf b "%s %s" l.Labeling.bench l.Labeling.loop.Loop.name;
      Array.iter (Printf.bprintf b " %d") l.Labeling.cycles;
      Buffer.add_char b '\n')
    labeled;
  md5 (Buffer.contents b)

(* Per-loop latency seen from outside [Labeling.collect]: each domain
   labels one loop at a time, so the gap between a domain's consecutive
   completions (or from the sweep's start to its first) is the time of the
   loop it just finished. *)
let completion_gaps ~start completions =
  let domains = List.sort_uniq compare (List.map fst completions) in
  List.concat_map
    (fun d ->
      let ts = List.filter_map (fun (d', t) -> if d' = d then Some t else None) completions in
      let _, gaps =
        List.fold_left
          (fun (prev, acc) t -> (t, ((t -. prev) *. 1000.0) :: acc))
          (start, [])
          (List.sort Float.compare ts)
      in
      gaps)
    domains
  |> Array.of_list

let untraced_sweep spec cfg suite journal =
  List.map
    (fun swp ->
      let completions = ref [] in
      (* [collect] serialises progress callbacks, so the list needs no lock. *)
      let progress ~done_:_ ~total:_ =
        completions := ((Domain.self () :> int), now ()) :: !completions
      in
      let start = now () in
      let labeled = Labeling.collect ~progress ~jobs ~journal cfg ~swp suite in
      (swp, labeled, completion_gaps ~start !completions))
    spec.swps

(* The pipeline's passes, each wrapped in a span named after the pass and
   the SWP setting. *)
let traced_passes swp =
  List.map
    (fun (p : Pipeline.pass) ->
      let name = Printf.sprintf "pipeline.%s.%s" p.Pipeline.pass_name (sfx swp) in
      {
        p with
        Pipeline.transform =
          (fun st -> Spans.record (Spans.local ()) name (fun () -> p.Pipeline.transform st));
      })
    Pipeline.default_passes

(* [Labeling.collect] rebuilt from the calls it makes — sweep key and
   journal lookup; per factor the compile-cache lookups, the pass pipeline,
   the warm-up and measured simulator runs, the noisy median; then the
   journal append — fanned out over the same pool. *)
let traced_sweep cfg suite journal ~swp ~key_base =
  let machine = cfg.Config.machine in
  let max_sim_iters = Some cfg.Config.max_sim_iters in
  let cache = Compile_cache.global in
  let passes = traced_passes swp in
  let sim = "simulator.run." ^ sfx swp in
  let measure (ti, (bench, i, loop, weight)) =
    let b = Spans.local () in
    let sp name f = Spans.record b ~key:(key_base + ti) name f in
    sp "loop" (fun () ->
        let key, journalled =
          sp "labeling.resume" (fun () ->
              let key = Labeling.task_key cfg ~swp ~bench ~index:i loop in
              (key, Label_store.find_sweep journal ~key ~n_factors:Unroll.max_factor))
        in
        let cycles =
          match journalled with
          | Some cycles -> cycles
          | None ->
            let rng = Rng.derive cfg.Config.noise_seed bench i in
            let cycles =
              Array.init Unroll.max_factor (fun fi ->
                  let factor = fi + 1 in
                  let ck, memo =
                    sp "compile_cache" (fun () ->
                        let ck = Compile_cache.key ~machine ~swp ~factor loop in
                        (ck, Compile_cache.find_cycles cache ck ~max_sim_iters))
                  in
                  let exact =
                    match memo with
                    | Some c -> c
                    | None ->
                      let exe =
                        match sp "compile_cache" (fun () -> Compile_cache.find_exe cache ck) with
                        | Some exe -> exe
                        | None ->
                          let st =
                            Pipeline.run ~passes (Pipeline_state.init machine ~swp loop factor)
                          in
                          let exe = Pipeline_state.executable_exn st in
                          sp "compile_cache" (fun () -> Compile_cache.store_exe cache ck exe);
                          exe
                      in
                      let c =
                        sp sim (fun () ->
                            let state = Simulator.create_state machine in
                            ignore (Simulator.run ?max_sim_iters state exe);
                            Simulator.run ?max_sim_iters state exe)
                      in
                      sp "compile_cache" (fun () ->
                          Compile_cache.store_cycles cache ck ~max_sim_iters c);
                      c
                  in
                  sp "measure.noise" (fun () ->
                      Measure.noisy_median ~rng ~noise:cfg.Config.noise ~runs:cfg.Config.runs
                        (fun () -> exact)))
            in
            sp "label_store.append" (fun () -> Label_store.append_sweep journal ~key cycles);
            cycles
        in
        { Labeling.bench; loop; weight; cycles })
  in
  Parallel.map ~jobs measure (Array.mapi (fun ti t -> (ti, t)) (Labeling.tasks suite))

(* A seeded sample of loops re-measured through the frozen reference
   simulator: its exact cycles, put through the loop's own noise stream,
   must reproduce the sweep's labels.  64 executables in all. *)
let reference_check cfg ~seed tasks results =
  let machine = cfg.Config.machine and max_sim_iters = cfg.Config.max_sim_iters in
  let per_swp = 64 / (Unroll.max_factor * List.length results) in
  let rng = Rng.derive seed "reference-sample" 0 in
  List.concat_map
    (fun (swp, (labeled : Labeling.labeled array)) ->
      List.init per_swp (fun _ ->
          let ti = Rng.int rng (Array.length tasks) in
          let bench, i, loop, _ = tasks.(ti) in
          let rng = Rng.derive cfg.Config.noise_seed bench i in
          let cycles =
            Array.init Unroll.max_factor (fun fi ->
                let exe = Pipeline.compile machine ~swp loop (fi + 1) in
                let st = Sim_reference.create_state machine in
                ignore (Sim_reference.run ~max_sim_iters st exe);
                let exact = Sim_reference.run ~max_sim_iters st exe in
                Measure.noisy_median ~rng ~noise:cfg.Config.noise ~runs:cfg.Config.runs
                  (fun () -> exact))
          in
          cycles = labeled.(ti).Labeling.cycles))
    results

let sweep_checks spec cfg ctx tasks results digest =
  let default = ctx.seed = Pins.default_seed in
  let golden =
    match Golden.read_journal (fixture "golden.journal") with
    | Error e -> failwith ("golden journal: " ^ e)
    | Ok journal ->
      Golden.check journal
        (List.concat_map
           (fun (swp, (labeled : Labeling.labeled array)) ->
             if swp then []
             else
               Array.to_list
                 (Array.mapi
                    (fun ti (l : Labeling.labeled) ->
                      let bench, i, loop, _ = tasks.(ti) in
                      (Labeling.task_key cfg ~swp ~bench ~index:i loop, l.Labeling.cycles))
                    labeled))
           results)
  in
  let reference = reference_check cfg ~seed:ctx.seed tasks results in
  let ref_failed = List.length (List.filter not reference) in
  ( [
      ( Printf.sprintf "golden-journal (%d sweeps matched, %d differ)" golden.Golden.matched
          (List.length golden.Golden.mismatched),
        golden.Golden.mismatched = [] && ((not default) || golden.Golden.matched = spec.golden) );
      ("pinned-labels", (not default) || digest = spec.pinned);
      ("reference-simulator", ref_failed = 0);
    ],
    List.length golden.Golden.mismatched + ref_failed,
    List.length reference )

let sweep_layers spans t =
  let self = self_of spans in
  let passes =
    List.concat_map
      (fun swp ->
        List.map
          (fun p ->
            let n = Printf.sprintf "pipeline.%s.%s" p (sfx swp) in
            (n ^ "_s", self n))
          Pipeline.pass_names
        @ [ (Printf.sprintf "simulator.run.%s_s" (sfx swp), self ("simulator.run." ^ sfx swp)) ])
      [ false; true ]
  in
  let loops = durations "loop" spans in
  let counter = Telemetry.counter Telemetry.global ~pass:"simulator" in
  let cache_hits = Compile_cache.hits Compile_cache.global
  and cache_misses = Compile_cache.misses Compile_cache.global in
  passes
  @ [
      ( "pipeline.compiles",
        float_of_int
          (Array.length (durations "pipeline.unroll.off" spans)
          + Array.length (durations "pipeline.unroll.on" spans)) );
      ("compile_cache.lookups", float_of_int (cache_hits + cache_misses));
      ("compile_cache.hit_ratio", ratio cache_hits cache_misses);
      ("deps_memo.hit_ratio", ratio (Deps_memo.hits Deps_memo.global) (Deps_memo.misses Deps_memo.global));
      ( "simulator.entries_skipped_ratio",
        ratio (counter "entries-skipped") (counter "entries-simulated") );
      ("simulator.iters_fast_forwarded", float_of_int (counter "iters-fast-forwarded"));
      ("label_store.append_s", self "label_store.append");
      ("labeling.resume_s", self "labeling.resume");
      ("sweep.loop_p50_ms", 1000.0 *. Bstats.percentile loops 0.5);
      ("sweep.loop_max_s", Array.fold_left Float.max 0.0 loops);
      ("trace.coverage", coverage spans ~busy:(t.wall *. float_of_int jobs));
    ]
  @ parallel_layers t

let sweep_rep spec ctx =
  let cfg = config ~scale:spec.scale ctx.seed in
  let path = Filename.concat ctx.dir (Printf.sprintf "sweep-%d.journal" ctx.rep) in
  let t0 = now () in
  let suite = spec.suite ~scale:spec.scale ~seed:cfg.Config.seed in
  let tasks = Labeling.tasks suite in
  let journal = fresh_journal path in
  let setup_s = now () -. t0 in
  let results, ops, layers, t =
    match ctx.trace_out with
    | None ->
      let results, t =
        timed (fun () ->
            let r = untraced_sweep spec cfg suite journal in
            Label_store.close journal;
            r)
      in
      ( List.map (fun (swp, l, _) -> (swp, l)) results,
        Array.concat (List.map (fun (_, _, g) -> g) results),
        [],
        t )
    | Some out ->
      let origin = now () in
      let results, t =
        timed (fun () ->
            let r =
              List.mapi
                (fun k swp ->
                  (swp, traced_sweep cfg suite journal ~swp ~key_base:(k * Array.length tasks)))
                spec.swps
            in
            Label_store.close journal;
            r)
      in
      let spans = write_trace ~workload:"sweep" ~origin out in
      (results, Array.map (fun d -> d *. 1000.0) (durations "loop" spans), sweep_layers spans t, t)
  in
  let digest = String.concat "/" (List.map (fun (_, l) -> labels_digest l) results) in
  let checks, failed, checked =
    if ctx.rep = 0 then sweep_checks spec cfg ctx tasks results digest else ([], 0, 0)
  in
  {
    setup_s;
    wall_s = t.wall;
    cpu_s = t.cpu_s;
    rss_mb = t.rss;
    ops_ms = ops;
    attempted = (Array.length tasks * List.length spec.swps) + checked;
    failed;
    digest;
    checks;
    layers;
  }

(* ---- train ----------------------------------------------------------- *)

(* Training reads the checked-in golden journal, the labels of the fixture
   configuration's 168-loop sweep, which the repository's tests keep in
   step with the labelling code.  Training cost depends on the data — how
   many epochs early stopping runs, which learner wins the
   cross-validation — so every seed trains on these same labels, and runs
   compare code rather than datasets. *)
let train_journal dir rep = Filename.concat dir (Printf.sprintf "train-%d.journal" rep)

(* Set-up of a train repetition: a fresh copy of the golden journal, which
   the job opens (and so recovers) like any journal a sweep left behind. *)
let copy_golden_journal path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (read_file (fixture "golden.journal")))

(* [Train]'s deterministic subsample for the capped LOOCV SVM. *)
let cap_examples (ds : Dataset.t) cap =
  let n = Dataset.size ds in
  if n <= cap then ds
  else begin
    let stride = float_of_int n /. float_of_int cap in
    let keep = List.init cap (fun i -> int_of_float (float_of_int i *. stride)) in
    {
      ds with
      Dataset.examples = Array.of_list (List.map (fun i -> ds.Dataset.examples.(i)) keep);
    }
  end

(* [Train.run ~model:Best] rebuilt from the calls it makes: journal
   resume, featurisation, feature selection (MIS, greedy NN, greedy SVM),
   the three cross-validations, the final fit and the artifact. *)
let traced_train cfg ~journal_path ~out =
  let b = Spans.local () in
  let sp name f = Spans.record b name f in
  sp "train" (fun () ->
      let journal = sp "label_store.open" (fun () -> open_journal journal_path) in
      let benchmarks =
        sp "suite" (fun () -> Suite.full ~scale:cfg.Config.scale ~seed:cfg.Config.seed)
      in
      let labeled =
        sp "labeling.resume" (fun () -> Labeling.collect ~jobs ~journal cfg ~swp:false benchmarks)
      in
      let ds =
        sp "features" (fun () ->
            let keep = List.filter Labeling.passes_filters (Array.to_list labeled) in
            List.map
              (fun (l : Labeling.labeled) ->
                {
                  Dataset.features =
                    sp "features.extract" (fun () ->
                        Features.extract cfg.Config.machine l.Labeling.loop);
                  label = Labeling.best_factor l - 1;
                  tag = l.Labeling.loop.Loop.name;
                  group = l.Labeling.bench;
                  costs = Array.map float_of_int l.Labeling.cycles;
                })
              keep
            |> Dataset.create ~feature_names:Features.names ~n_classes:Unroll.max_factor)
      in
      if Dataset.size ds = 0 then failwith "train: no loops survive the labelling filters";
      let dataset_digest = sp "dataset.digest" (fun () -> Dataset.digest ds) in
      let selected =
        let scaled = sp "scale" (fun () -> Scale.apply (Scale.fit ds) ds) in
        let mis = sp "mis.rank" (fun () -> Array.to_list (Mis.rank ~jobs ds)) in
        let mis_top = List.filteri (fun i _ -> i < cfg.Config.mis_k) mis |> List.map fst in
        let nn =
          sp "greedy_select.nn" (fun () ->
              Greedy_select.nn_run ~jobs ~telemetry:Telemetry.global ~k:cfg.Config.greedy_k
                scaled)
          |> List.map fst
        in
        let svm =
          sp "greedy_select.svm" (fun () ->
              Greedy_select.svm_run ~jobs ~telemetry:Telemetry.global
                ~kernel:cfg.Config.svm_kernel ~gamma:cfg.Config.svm_gamma ~max_examples:300
                ~k:cfg.Config.greedy_k scaled)
          |> List.map fst
        in
        List.fold_left (fun acc f -> if List.mem f acc then acc else acc @ [ f ]) []
          (mis_top @ nn @ svm)
        |> Array.of_list
      in
      let scaled =
        sp "scale" (fun () ->
            let dss = Dataset.select_features ds selected in
            Scale.apply (Scale.fit dss) dss)
      in
      let truth = Dataset.labels scaled in
      let n_classes = scaled.Dataset.n_classes in
      let nn_loocv =
        sp "loocv.nn" (fun () ->
            let m =
              Knn.train ~radius:cfg.Config.knn_radius ~n_classes (Dataset.points scaled)
            in
            Metrics.accuracy ~pred:(Knn.loo_predictions ~jobs m) ~truth)
      in
      let svm_loocv =
        sp "loocv.svm" (fun () ->
            let svm_ds = cap_examples scaled cfg.Config.loocv_svm_cap in
            Metrics.accuracy
              ~pred:
                (Multiclass.loo_predictions ~jobs ~n_classes ~kernel:cfg.Config.svm_kernel
                   ~gamma:cfg.Config.svm_gamma (Dataset.points svm_ds))
              ~truth:(Dataset.labels svm_ds))
      in
      let mlp_loocv =
        sp "loocv.mlp" (fun () ->
            let groups = Array.map (fun e -> e.Dataset.group) scaled.Dataset.examples in
            Metrics.accuracy
              ~pred:
                (Loocv.grouped ~jobs ~groups
                   ~train:(fun p ->
                     if Array.length p = 0 then None
                     else
                       Some
                         (fst
                            (Mlp.train ~seed:cfg.Config.mlp_seed ~hyper:cfg.Config.mlp_hyper
                               ~n_classes p)))
                   ~predict:(fun m x -> match m with None -> 0 | Some m -> Mlp.predict m x)
                   (Dataset.points scaled))
              ~truth)
      in
      let predictor =
        sp "predictor.fit" (fun () ->
            if mlp_loocv > nn_loocv && mlp_loocv > svm_loocv then
              Predictor.train_mlp ~jobs ~telemetry:Telemetry.global cfg ~features:selected ds
            else if nn_loocv > svm_loocv then Predictor.train_nn cfg ~features:selected ds
            else Predictor.train_svm ~cap:cfg.Config.fig4_svm_cap cfg ~features:selected ds)
      in
      let text =
        sp "model_artifact.encode" (fun () ->
            Model_artifact.to_string (Predictor.to_artifact cfg ~dataset_digest predictor))
      in
      sp "artifact.save" (fun () ->
          Out_channel.with_open_bin out (fun oc -> output_string oc text));
      Label_store.close journal)

(* NN, SVM and MLP retrained from the golden journal at the fixture
   configuration must reproduce the golden artifacts byte for byte. *)
let golden_retrain ctx =
  let copy = Filename.concat ctx.dir "golden.journal" in
  copy_golden_journal copy;
  let journal = open_journal copy in
  let same =
    List.map
      (fun (model, file) ->
        let artifact, _ = Train.run ~journal fixture_config ~swp:false ~model in
        Model_artifact.to_string artifact = read_file (fixture file))
      [
        (Train.Nn, "golden_nn.artifact");
        (Train.Svm, "golden_svm.artifact");
        (Train.Mlp, "golden_mlp.artifact");
      ]
  in
  Label_store.close journal;
  same

let train_layers spans t =
  let self = self_of spans in
  let train = Array.fold_left ( +. ) 0.0 (durations "train" spans) in
  [
    ("label_store.open_s", self "label_store.open");
    ("labeling.resume_s", self "labeling.resume");
    ("features.extract_s", self "features.extract" +. self "features");
    ("mis.rank_s", self "mis.rank");
    ("greedy_select.nn_s", self "greedy_select.nn");
    ("greedy_select.svm_s", self "greedy_select.svm");
    ("loocv.nn_s", self "loocv.nn");
    ("loocv.svm_s", self "loocv.svm");
    ("loocv.mlp_s", self "loocv.mlp");
    ("predictor.fit_s", self "predictor.fit");
    ("model_artifact.encode_s", self "model_artifact.encode");
    ("trace.coverage", coverage spans ~busy:train);
  ]
  @ parallel_layers t

let train_rep ctx =
  let cfg = fixture_config in
  let journal_path = train_journal ctx.dir ctx.rep in
  let out = Filename.concat ctx.dir (Printf.sprintf "model-%d.artifact" ctx.rep) in
  let t0 = now () in
  copy_golden_journal journal_path;
  let setup_s = now () -. t0 in
  let layers, t =
    match ctx.trace_out with
    | None ->
      let (), t =
        timed (fun () ->
            let journal = open_journal journal_path in
            let artifact, _ = Train.run ~journal cfg ~swp:false ~model:Train.Best in
            Label_store.close journal;
            Model_artifact.save artifact out)
      in
      ([], t)
    | Some trace ->
      let origin = now () in
      let (), t = timed (fun () -> traced_train cfg ~journal_path ~out) in
      let spans = write_trace ~workload:"train" ~origin trace in
      (train_layers spans t, t)
  in
  let digest = md5 (read_file out) in
  let checks, failed, checked =
    if ctx.rep = 0 then begin
      let golden = golden_retrain ctx in
      let bad = List.length (List.filter not golden) in
      ( [
          ("pinned-artifact", digest = Pins.train_artifact);
          ("golden-artifacts", bad = 0);
        ],
        bad,
        List.length golden )
    end
    else ([], 0, 0)
  in
  {
    setup_s;
    wall_s = t.wall;
    cpu_s = t.cpu_s;
    rss_mb = t.rss;
    ops_ms = [| t.wall *. 1000.0 |];
    attempted = 1 + checked;
    failed;
    digest;
    checks;
    layers;
  }

(* ---- serve ----------------------------------------------------------- *)

(* About half of these are cold, 5,000 distinct unrollable loops: more
   than the server's feature cache holds, so every repetition fills the
   cache and evicts from it.  The cache is half the default
   (Predict_service.default_cache_capacity, 8,192) and so is the stream,
   which keeps the default's proportions in repetitions short enough for a
   run to hold several. *)
let serve_requests = 10_000
let serve_cache = Predict_service.default_cache_capacity / 2
let hot_size = 256
let clients = 2

let kernel_loops () = List.map (fun (name, maker) -> maker ~name ~trip:256) Kernels.all

(* Half the requests repeat a hot set of 256 loops — the kernels and a
   seeded draw of suite loops, as a compiler re-asks for the same
   program's loops — and half are distinct generated loops, so the
   feature cache is hit, missed and overflowed.  Cold loops are drawn
   among the unrollable ones: a compiler asks only about loops it could
   unroll, and the service answers the others without featurising them.
   Returns the requests and the distinct cold loops among them. *)
let request_stream seed =
  let kernels = Array.of_list (kernel_loops ()) in
  let suite =
    Array.of_list (List.map snd (Suite.all_loops (Suite.full ~scale:0.15 ~seed:Pins.default_seed)))
  in
  Rng.shuffle (Rng.derive seed "serve-hot" 0) suite;
  let hot = Array.append kernels (Array.sub suite 0 (hot_size - Array.length kernels)) in
  let rng = Rng.derive seed "serve-requests" 0 in
  let cold = ref [] and n_drawn = ref 0 in
  let rec next_cold () =
    let i = !n_drawn in
    incr n_drawn;
    let loop =
      Fuzz_gen.loop (Rng.derive seed "serve-cold" i) Fuzz_gen.default ~id:i
        ~factor:(1 + (i mod Unroll.max_factor))
        ~name:(Printf.sprintf "cold%d" i)
    in
    if Loop.unrollable loop then loop else next_cold ()
  in
  let reqs =
    Array.init serve_requests (fun _ ->
        if Rng.bool rng then hot.(Rng.int rng hot_size)
        else begin
          let loop = next_cold () in
          cold := loop :: !cold;
          loop
        end)
  in
  (reqs, !cold)

let stats_assoc text =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; v ] -> Option.map (fun n -> (k, n)) (int_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' text)

let stat assoc k = Option.value ~default:0 (List.assoc_opt k assoc)

let connect addr = match Serve_client.connect addr with Ok c -> c | Error e -> failwith e

(* Answers are factors; 0 marks a request that got none. *)
let untraced_clients addr reqs answers lat =
  let n = Array.length reqs in
  let conns = Array.init clients (fun _ -> connect addr) in
  let client k () =
    let c = conns.(k) in
    let i = ref k in
    (try
       while !i < n do
         let t0 = now () in
         (match Serve_client.predict c reqs.(!i) with
         | Ok (Wire.Factor f) -> answers.(!i) <- f
         | Ok _ -> ()
         | Error _ -> raise Exit);
         lat.(!i) <- (now () -. t0) *. 1000.0;
         i := !i + clients
       done
     with Exit -> ())
  in
  (conns, fun () -> List.iter Thread.join (List.init clients (fun k -> Thread.create (client k) ())))

(* [Serve_client.predict] rebuilt over a raw connection, so the request's
   encode, write, wait and decode each get a span. *)
let traced_clients addr reqs answers lat =
  let n = Array.length reqs in
  let frames = Array.make n "" in
  let host, port =
    match String.split_on_char ':' addr with
    | [ h; p ] -> (h, int_of_string p)
    | _ -> invalid_arg "address"
  in
  let conns =
    Array.init clients (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        (fd, Wire.reader fd))
  in
  let client k () =
    let b = Spans.buffer () in
    let fd, rd = conns.(k) in
    let i = ref k in
    (try
       while !i < n do
         let idx = !i in
         let sp name f = Spans.record b ~key:idx name f in
         let t0 = now () in
         sp "request" (fun () ->
             let frame =
               sp "wire.encode" (fun () -> Wire.encode (Wire.request_payload (Wire.Predict reqs.(idx))))
             in
             frames.(idx) <- frame;
             sp "socket.write" (fun () ->
                 let len = String.length frame and off = ref 0 in
                 while !off < len do
                   off := !off + Unix.write_substring fd frame !off (len - !off)
                 done);
             match sp "server.wait" (fun () -> Wire.next rd) with
             | `Payload p -> (
               match sp "wire.decode_response" (fun () -> Wire.parse_response p) with
               | Ok (Wire.Factor f) -> answers.(idx) <- f
               | Ok _ | Error _ -> ())
             | `Eof | `Corrupt _ -> raise Exit);
         lat.(idx) <- (now () -. t0) *. 1000.0;
         i := !i + clients
       done
     with Exit -> ())
  in
  let close () = Array.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) conns in
  (close, frames, fun () -> List.iter Thread.join (List.init clients (fun k -> Thread.create (client k) ())))

let local_service () =
  match
    Result.bind
      (Model_artifact.load ~telemetry:(Telemetry.create ()) (fixture "golden_nn.artifact"))
      (Predict_service.create ~telemetry:(Telemetry.create ()) fixture_config)
  with
  | Ok s -> s
  | Error e -> failwith e

(* Stages the server runs internally, replayed outside it over the same
   requests: frame decode, featurisation of cold loops, and batched
   prediction in the batch size the server reported. *)
let serve_replay reqs cold frames ~mean_batch =
  let n = Array.length reqs in
  let per_request_us f = f () *. 1e6 /. float_of_int n in
  let time f =
    let t0 = now () in
    f ();
    now () -. t0
  in
  let decode_us =
    per_request_us (fun () ->
        time (fun () ->
            Array.iter
              (fun frame ->
                match Wire.decode frame with
                | Wire.Payload (p, _) -> ignore (Wire.parse_request p)
                | Wire.Incomplete | Wire.Corrupt _ -> ())
              frames))
  in
  let service = local_service () in
  let batch = max 1 (int_of_float (Float.round mean_batch)) in
  let batch_us =
    per_request_us (fun () ->
        time (fun () ->
            let i = ref 0 in
            while !i < n do
              let len = min batch (n - !i) in
              ignore (Predict_service.predict_batch ~jobs service (Array.to_list (Array.sub reqs !i len)));
              i := !i + len
            done))
  in
  let extract_us =
    let t = time (fun () -> List.iter (fun l -> ignore (Features.extract fixture_config.Config.machine l)) cold) in
    if cold = [] then 0.0 else t *. 1e6 /. float_of_int (List.length cold)
  in
  (decode_us, batch_us, extract_us)

let golden_kernel_predictions () =
  read_file (fixture "golden_nn_predictions.txt")
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ name; f ] -> Option.map (fun f -> (name, f)) (int_of_string_opt f)
         | _ -> None)

let serve_rep ctx =
  let t0 = now () in
  let reqs, cold = request_stream ctx.seed in
  let opts = { Serve.default_opts with Serve.port = 0; jobs; cache_capacity = serve_cache } in
  let server =
    match Serve.listen ~opts fixture_config ~artifact:(fixture "golden_nn.artifact") with
    | Ok s -> s
    | Error e -> failwith e
  in
  let server_domain = Domain.spawn (fun () -> Serve.run server) in
  let addr = Printf.sprintf "127.0.0.1:%d" (Serve.port server) in
  let n = Array.length reqs in
  let answers = Array.make n 0 and lat = Array.make n Float.nan in
  let close_clients, frames, session =
    match ctx.trace_out with
    | None ->
      let conns, session = untraced_clients addr reqs answers lat in
      ((fun () -> Array.iter Serve_client.close conns), [||], session)
    | Some _ -> traced_clients addr reqs answers lat
  in
  let setup_s = now () -. t0 in
  let origin = now () in
  let (), t = timed session in
  let stats =
    let c = connect addr in
    let s = match Serve_client.control c "stats" with Ok (Wire.Okay text) -> stats_assoc text | _ -> [] in
    ignore (Serve_client.control c "shutdown");
    Serve_client.close c;
    s
  in
  close_clients ();
  Domain.join server_domain;
  let ok_lat = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list lat)) in
  let layers =
    match ctx.trace_out with
    | None -> []
    | Some out ->
      let spans = write_trace ~workload:"serve" ~origin out in
      let self = self_of spans in
      let per_req name = self name *. 1e6 /. float_of_int n in
      let batches = stat stats "batches" in
      let mean_batch =
        if batches = 0 then 0.0 else float_of_int (stat stats "batched-loops") /. float_of_int batches
      in
      let decode_us, batch_us, extract_us = serve_replay reqs cold frames ~mean_batch in
      let p50_us = 1000.0 *. Bstats.percentile ok_lat 0.5 in
      let encode_us = per_req "wire.encode" and response_us = per_req "wire.decode_response" in
      let requests = durations "request" spans in
      [
        ("wire.encode_us", encode_us);
        ("wire.decode_us", decode_us);
        ("predict_service.batch_us", batch_us);
        ("features.extract_us", extract_us);
        ( "predict_service.cache_hit_ratio",
          ratio (stat stats "cache-hits") (stat stats "cache-misses") );
        ("predict_service.cache_evictions", float_of_int (stat stats "cache-evictions"));
        ("serve.mean_batch", mean_batch);
        ("serve.shed", float_of_int (stat stats "shed"));
        ("serve.wait_us", p50_us -. encode_us -. decode_us -. batch_us -. response_us);
        ("serve.p99_us", 1000.0 *. Bstats.percentile ok_lat 0.99);
        ("serve.p999_us", 1000.0 *. Bstats.percentile ok_lat 0.999);
        ("trace.coverage", coverage spans ~busy:(Array.fold_left ( +. ) 0.0 requests));
      ]
      @ parallel_layers t
  in
  let digest = md5 (String.concat "," (Array.to_list (Array.map string_of_int answers))) in
  let expected = Predict_service.predict_batch (local_service ()) (Array.to_list reqs) in
  let mismatched = ref 0 in
  Array.iteri (fun i f -> if f <> expected.(i) then incr mismatched) answers;
  let checks =
    if ctx.rep = 0 then begin
      let kernels = kernel_loops () in
      let local = Predict_service.predict_batch (local_service ()) kernels in
      [
        ( "golden-kernel-predictions",
          List.map2 (fun (l : Loop.t) f -> (l.Loop.name, f)) kernels (Array.to_list local)
          = golden_kernel_predictions () );
      ]
    end
    else []
  in
  {
    setup_s;
    wall_s = t.wall;
    cpu_s = t.cpu_s;
    rss_mb = t.rss;
    ops_ms = ok_lat;
    attempted = n;
    failed = !mismatched;
    digest;
    checks = ("responses-match-local", !mismatched = 0) :: checks;
    layers;
  }

(* ---- registry -------------------------------------------------------- *)

type t = {
  name : string;
  rep : ctx -> rep;
  copies : (string * string) list;
      (** end-to-end metrics that, for this workload, only repeat another
          one: (copy, original) *)
}

let all =
  [
    { name = "sweep_off"; rep = sweep_rep sweep_off; copies = [] };
    { name = "sweep_joint"; rep = sweep_rep sweep_joint; copies = [] };
    {
      name = "train";
      rep = train_rep;
      (* One training is the repetition's only operation. *)
      copies = [ ("op_p50_ms", "wall_s"); ("op_tail_ms", "wall_s") ];
    };
    { name = "serve"; rep = serve_rep; copies = [] };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
