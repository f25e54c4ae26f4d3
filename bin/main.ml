(* unroll-ml: command-line front end for the CGO 2005 reproduction.

   Subcommands mirror the workflow of the paper: generate and label the
   workload ([dataset]), inspect a single loop through the whole pipeline
   ([inspect]), run any table/figure reproduction ([experiment]), and train
   or query predictors ([predict]).  Each one only parses its arguments and
   calls the library; the ones that take a configuration get it, and
   --telemetry, from the shared [configured] term. *)

open Cmdliner

(* Print to stderr and exit with [code]. *)
let die ?(code = 2) fmt = Printf.kfprintf (fun _ -> exit code) stderr fmt

(* The value of [r], or exit with its error printed after [prefix]. *)
let or_die ?code prefix = function Ok x -> x | Error e -> die ?code "%s%s\n" prefix e

(* [-j]: 0 = the default width, absent = [default]. *)
let jobs_of ~default = function
  | Some 0 -> Parallel.default_jobs ()
  | Some j -> max 1 j
  | None -> max 1 default

let config_of ~fast ~scale ~seed ~machine ~runs ~noise ~jobs =
  let base = if fast then Config.fast else Config.default in
  let machine =
    match Machine.by_name machine with
    | Some m -> m
    | None ->
      die "unknown machine '%s'; available:%s\n" machine
        (String.concat "" (List.map (fun m -> " " ^ m.Machine.mach_name) Machine.all))
  in
  {
    base with
    Config.scale = Option.value scale ~default:base.Config.scale;
    seed = Option.value seed ~default:base.Config.seed;
    machine;
    runs = Option.value runs ~default:base.Config.runs;
    noise = Option.value noise ~default:base.Config.noise;
    jobs = jobs_of ~default:base.Config.jobs jobs;
  }

(* Shared flags *)
let fast_flag =
  Arg.(value & flag & info [ "fast" ] ~doc:"Use the reduced configuration (about 15% scale, fewer measurement repeats).")

let scale_opt =
  Arg.(value & opt (some float) None & info [ "scale" ] ~docv:"S" ~doc:"Workload scale multiplier.")

let seed_opt =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"Master workload seed.")

let machine_opt =
  Arg.(value & opt string "itanium2" & info [ "machine" ] ~docv:"NAME" ~doc:"Target machine model.")

let runs_opt =
  Arg.(value & opt (some int) None & info [ "runs" ] ~docv:"N" ~doc:"Measurement repetitions per configuration.")

let noise_opt =
  Arg.(value & opt (some float) None & info [ "noise" ] ~docv:"F" ~doc:"Relative measurement noise.")

let jobs_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for labelling sweeps and cross-validation loops (results \
           are identical for any value; 0 = all cores, or the UNROLLML_JOBS \
           environment variable when set).")

let telemetry_flag =
  Arg.(
    value
    & flag
    & info [ "telemetry" ]
        ~doc:"Print per-pass compile telemetry (wall time, op deltas, cache hits) at exit.")

let config_term =
  Term.(
    const (fun fast scale seed machine runs noise jobs ->
        config_of ~fast ~scale ~seed ~machine ~runs ~noise ~jobs)
    $ fast_flag $ scale_opt $ seed_opt $ machine_opt $ runs_opt $ noise_opt $ jobs_opt)

let swp_flag = Arg.(value & flag & info [ "swp" ] ~doc:"Software pipelining enabled.")

let output_opt default ~doc =
  Arg.(value & opt string default & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* The positional .loop FILE; [presence] is [Arg.required] or [Arg.value]. *)
let loop_file ?(doc = "A .loop file (see `unroll-ml export`).") presence =
  presence Arg.(pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let corpus_opt ~doc = Arg.(value & opt string "corpus" & info [ "corpus" ] ~docv:"DIR" ~doc)

let artifact_opt name presence =
  presence
    Arg.(
      opt (some file) None
      & info [ name ] ~docv:"FILE" ~doc:"Model artifact written by `unroll-ml train`.")

(* Rates derived from the raw counters — the table above only shows the
   absolute counts.  A section is omitted when its denominator is zero
   (e.g. no simulation ran). *)
let rate_summary t =
  let c pass name = Telemetry.counter t ~pass name in
  let buf = Buffer.create 256 in
  let rate label num den =
    if den > 0 then
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %5.1f%%  (%d of %d)\n" label
           (100.0 *. float_of_int num /. float_of_int den)
           num den)
  in
  let hit_rate label pass prefix =
    let h = c pass (prefix ^ "-hits") and m = c pass (prefix ^ "-misses") in
    rate label h (h + m)
  in
  hit_rate "L1d hit rate" "simulator" "l1d";
  hit_rate "L1i hit rate" "simulator" "l1i";
  hit_rate "L2 hit rate" "simulator" "l2";
  let es = c "simulator" "entries-simulated" and sk = c "simulator" "entries-skipped" in
  rate "entries skipped" sk (es + sk);
  let dh = c "deps-memo" "hits" and dm = c "deps-memo" "misses" in
  rate "deps-memo hit rate" dh (dh + dm);
  if Buffer.length buf = 0 then "" else "derived rates\n" ^ Buffer.contents buf

(* [body] followed, under --telemetry, by the pass table and its rates. *)
let telemetry_term body =
  let run f telemetry =
    Fun.protect
      ~finally:(fun () ->
        if telemetry then begin
          print_string (Telemetry.to_table Telemetry.global);
          print_string (rate_summary Telemetry.global)
        end)
      f
  in
  Term.(const run $ body $ telemetry_flag)

(* The term every config-taking command shares: [body] receives the parsed
   Config.t and, unless [~telemetry:false], runs under --telemetry. *)
let configured ?(telemetry = true) body =
  let run = Term.(const (fun config body () -> body config) $ config_term $ body) in
  if telemetry then telemetry_term run else Term.(const (fun run -> run ()) $ run)

(* Every loop in a .loop file; a parse error exits 2. *)
let read_loops path =
  or_die "parse error: " (Loop_text.parse_many (In_channel.with_open_bin path In_channel.input_all))

(* The built-in kernels at trip 256: what [export] writes and
   [predict --kernels] predicts. *)
let kernel_loops () = List.map (fun (name, maker) -> maker ~name ~trip:256) Kernels.all

(* The fuzz reproducer corpus; an unreadable one exits 2. *)
let load_corpus dir = or_die "corpus: " (Fuzz.Driver.load_corpus dir)

(* [Some u] is that factor alone, [None] every factor. *)
let factors = function Some u -> [ u ] | None -> List.init Unroll.max_factor (fun i -> i + 1)

(* [f] over a connection to a running server; an unreachable one exits 2
   with [who] before the error. *)
let with_client who addr f =
  let client = or_die who (Serve_client.connect addr) in
  Fun.protect ~finally:(fun () -> Serve_client.close client) (fun () -> f client)

(* A server response [want] accepts, or exit 1 with every other case
   reported on stderr as "<who>: ...". *)
let expect_response ~who ~busy ~unexpected want (r : Wire.response) =
  match want r with
  | Some v -> v
  | None ->
    die ~code:1 "%s: %s\n" who
      (match r with
      | Wire.Failure e -> e
      | Wire.Busy -> busy
      | Wire.Factor _ | Wire.Okay _ -> Printf.sprintf "unexpected %s response" unexpected)

(* One loop at factor [u] the way its label is measured: compiled, then
   run warm at the config's simulation window. *)
let measure (config : Config.t) ~swp loop u =
  let exe = Pipeline.compile config.Config.machine ~swp loop u in
  let cycles, _ =
    Measure.warm_run ~max_sim_iters:config.Config.max_sim_iters config.Config.machine exe
  in
  (exe, cycles)

(* dataset *)
let dataset_cmd =
  let run output swp config =
    let benchmarks = Suite.full ~scale:config.Config.scale ~seed:config.Config.seed in
    let labeled = Labeling.collect ~jobs:config.Config.jobs config ~swp benchmarks in
    let ds = Labeling.to_dataset config labeled in
    Dataset.to_csv ds output;
    Printf.printf "wrote %d labelled loops (of %d measured) to %s\n" (Dataset.size ds)
      (Array.length labeled) output
  in
  Cmd.v
    (Cmd.info "dataset" ~doc:"Generate the 72-benchmark suite, label every loop, write a CSV.")
    (configured Term.(const run $ output_opt "dataset.csv" ~doc:"Output CSV path." $ swp_flag))

(* experiment *)
let experiment_cmd =
  let experiments =
    Experiments.
      [
        ("fig1", fig1); ("fig2", fig2); ("fig3", fig3); ("table2", table2);
        ("table3", table3); ("table4", table4); ("fig4", fig4); ("fig5", fig5);
        ("joint", joint); ("summary", summary); ("ablations", ablations);
        ("timing", timing); ("all", all);
      ]
  in
  let which =
    let names = List.map fst experiments in
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun s -> (s, s)) names))) None
      & info [] ~docv:"EXPERIMENT" ~doc:("One of " ^ String.concat " " names ^ "."))
  in
  let run which config = print_string (List.assoc which experiments (Experiments.build_env config)) in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce a table or figure from the paper.")
    (configured Term.(const run $ which))

(* inspect *)
let inspect_cmd =
  let kernel =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KERNEL" ~doc:"Kernel name (see `unroll-ml kernels`).")
  in
  let trip =
    Arg.(value & opt int 512 & info [ "trip" ] ~docv:"N" ~doc:"Runtime trip count.")
  in
  let factor =
    Arg.(value & opt (some int) None & info [ "unroll" ] ~docv:"U" ~doc:"Unroll factor to show (default: sweep all).")
  in
  let run kernel trip factor swp config =
    let maker =
      match List.assoc_opt kernel Kernels.all with
      | Some maker -> maker
      | None -> die "unknown kernel '%s'; try `unroll-ml kernels`\n" kernel
    in
    let loop = maker ~name:kernel ~trip in
    Format.printf "%a@." Pretty.pp_loop loop;
    let features = Features.extract config.Config.machine loop in
    Format.printf "features:@.";
    Array.iteri
      (fun i v -> Format.printf "  %-26s %g@." Features.names.(i) v)
      features;
    List.iter
      (fun u ->
        let exe, cycles = measure config ~swp loop u in
        let kind =
          match exe.Simulator.schedules with
          | (s, _, _) :: _ -> begin
            match s.Schedule.kind with
            | Schedule.Straight -> Printf.sprintf "straight len=%d" s.Schedule.length
            | Schedule.Pipelined { ii; stages } -> Printf.sprintf "pipelined II=%d stages=%d" ii stages
          end
          | [] -> "?"
        in
        Format.printf "u=%d: %d cycles (%s, %d spills, %dB code)@." u cycles kind
          exe.Simulator.total_spills exe.Simulator.total_code_bytes)
      (factors factor);
    let orc = Orc_heuristic.predict config.Config.machine ~swp loop in
    Format.printf "ORC heuristic picks u=%d@." orc
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Compile and simulate one kernel across unroll factors.")
    (configured Term.(const run $ kernel $ trip $ factor $ swp_flag))

(* export *)
let export_cmd =
  let what =
    Arg.(
      value
      & opt (enum [ ("suite", `Suite); ("kernels", `Kernels) ]) `Kernels
      & info [ "what" ] ~docv:"WHAT" ~doc:"'kernels' (default) or the full 'suite'.")
  in
  let run output what config =
    let loops =
      match what with
      | `Kernels -> kernel_loops ()
      | `Suite ->
        List.map snd
          (Suite.all_loops (Suite.full ~scale:config.Config.scale ~seed:config.Config.seed))
    in
    Out_channel.with_open_text output (fun oc ->
        List.iter
          (fun l ->
            output_string oc (Loop_text.to_string l);
            output_char oc '\n')
          loops);
    Printf.printf "wrote %d loops to %s\n" (List.length loops) output
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write loops in the textual format (the paper's released raw loop data).")
    (configured ~telemetry:false
       Term.(const run $ output_opt "loops.txt" ~doc:"Output path." $ what))

(* inspect-file *)
let inspect_file_cmd =
  let run file swp config =
    List.iter
      (fun loop ->
        Format.printf "%a@." Pretty.pp_loop loop;
        List.iter
          (fun u -> Format.printf "  u=%d: %d cycles@." u (snd (measure config ~swp loop u)))
          (factors None);
        Format.printf "  ORC heuristic picks u=%d@.@."
          (Orc_heuristic.predict config.Config.machine ~swp loop))
      (read_loops file)
  in
  Cmd.v
    (Cmd.info "inspect-file" ~doc:"Parse loops from the textual format and sweep them.")
    (configured ~telemetry:false Term.(const run $ loop_file Arg.required $ swp_flag))

(* fuzz *)
let fuzz_cmd =
  let budget =
    Arg.(value & opt int 2000 & info [ "budget" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let fuzz_seed =
    Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Campaign seed.  The whole report, shrunk reproducers included, is a pure \
             function of (seed, budget) — identical at any $(b,--jobs) setting.")
  in
  let corpus =
    corpus_opt
      ~doc:
        "Reproducer corpus: every .loop file is replayed before the campaign, and \
         shrunk crashes are serialised back into it."
  in
  let run seed budget corpus jobs () =
    let jobs = jobs_of ~default:1 jobs in
    let replay_violations =
      let entries = load_corpus corpus in
      let violations =
        List.concat_map
          (fun (file, repro) ->
            List.map
              (fun (oracle, detail) ->
                Printf.printf "corpus %s [%s]: %s\n" file oracle detail;
                (file, oracle, detail))
              (Fuzz.Driver.check_repro repro))
          entries
      in
      Printf.printf "corpus replay: %d file(s), %d violation(s)\n" (List.length entries)
        (List.length violations);
      violations
    in
    let report = Fuzz.Driver.run ~jobs ~budget ~seed () in
    List.iter
      (fun (crash : Fuzz.Driver.crash) ->
        let path = Fuzz.Driver.write_crash ~dir:corpus crash in
        Printf.printf "wrote reproducer %s\n" path)
      report.Fuzz.Driver.crashes;
    print_string (Fuzz.Driver.summary report);
    print_string (Fuzz.Driver.coverage_block report);
    if
      replay_violations <> []
      || report.Fuzz.Driver.crashes <> []
      || report.Fuzz.Driver.digest_collisions <> []
    then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate adversarial loops, check every transform and \
          the simulator against the reference interpreter, shrink and serialise any \
          failure.")
    (telemetry_term Term.(const run $ fuzz_seed $ budget $ corpus $ jobs_opt))

(* verify *)
let verify_cmd =
  let corpus =
    corpus_opt
      ~doc:
        "Reproducer corpus to verify (the default mode): every .loop file is \
         checked at its recorded coordinates."
  in
  let file = loop_file ~doc:"Verify loops parsed from a .loop file instead of the corpus." Arg.value in
  let factor =
    Arg.(
      value
      & opt (some int) None
      & info [ "factor" ] ~docv:"U"
          ~doc:"Unroll factor for FILE mode (default: sweep 1..8).")
  in
  let fuzz_n =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            "Verify N freshly generated fuzz cases at their own coordinates; failure \
             reproducers are written to $(b,--out).")
  in
  let fuzz_seed =
    Arg.(
      value & opt int 42
      & info [ "fuzz-seed" ] ~docv:"N" ~doc:"Campaign seed for $(b,--fuzz) mode.")
  in
  let out =
    Arg.(
      value
      & opt string "verify-failures"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory receiving failure reproducers and reports in $(b,--fuzz) mode.")
  in
  let write_failure ~out (c : Fuzz.Gen.case) report =
    if not (Sys.file_exists out) then Unix.mkdir out 0o755;
    let base = Filename.concat out (Printf.sprintf "verify-symbolic-%04d" c.Fuzz.Gen.id) in
    let write path contents =
      Out_channel.with_open_text path (fun oc -> output_string oc contents)
    in
    write (base ^ ".loop") (Fuzz.Driver.repro_to_string c ~oracle:"verify-symbolic");
    write (base ^ ".report.txt") (Verify.Validate.report_to_string report ^ "\n");
    base ^ ".loop"
  in
  (* A fuzz case, checked at its own (SWP, RLE) coordinate and factor. *)
  let verify_case (c : Fuzz.Gen.case) =
    Verify.Validate.verify_case ~telemetry:Telemetry.global
      ~coords:[ (c.Fuzz.Gen.swp, c.Fuzz.Gen.rle) ]
      ~machine:c.Fuzz.Gen.machine c.Fuzz.Gen.loop ~factor:c.Fuzz.Gen.factor
  in
  let run corpus file factor fuzz_n fuzz_seed out config =
    let failures = ref 0 in
    let show ?header report =
      Option.iter print_endline header;
      print_endline (Verify.Validate.report_to_string report);
      if not (Verify.Validate.report_ok report) then incr failures
    in
    (match (fuzz_n, file) with
    | Some n, _ ->
      let jobs = max 1 config.Config.jobs in
      let reports =
        Parallel.tabulate ~jobs n (fun id ->
            let c = Fuzz.Gen.case ~seed:fuzz_seed ~id () in
            (c, verify_case c))
      in
      Array.iter
        (fun (c, r) ->
          if not (Verify.Validate.report_ok r) then begin
            show ~header:(Printf.sprintf "== fuzz case %d" c.Fuzz.Gen.id) r;
            Printf.printf "wrote reproducer %s\n" (write_failure ~out c r)
          end)
        reports;
      Printf.printf "verified %d fuzz case(s) (seed %d): %d failure(s)\n" n fuzz_seed
        !failures
    | None, Some f ->
      List.iter
        (fun loop ->
          List.iter
            (fun u ->
              show
                (Verify.Validate.verify_case ~telemetry:Telemetry.global
                   ~machine:config.Config.machine loop ~factor:u))
            (factors factor))
        (read_loops f)
    | None, None ->
      (* Fuzz treats a missing corpus as empty; here it would prove nothing. *)
      if not (Sys.file_exists corpus && Sys.is_directory corpus) then
        die "verify: corpus directory %s does not exist\n" corpus;
      let entries = load_corpus corpus in
      List.iter
        (fun (fname, (repro : Fuzz.Driver.repro)) ->
          show ~header:("== " ^ fname) (verify_case repro.Fuzz.Driver.rcase))
        entries;
      Printf.printf "corpus verify: %d file(s), %d not proved\n" (List.length entries)
        !failures);
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Bounded translation validation: symbolically prove unroll, RLE and the full \
          pipeline observationally equivalent to the source loop for every trip count \
          up to a bound, over the corpus, a .loop file, or generated fuzz cases.")
    (configured Term.(const run $ corpus $ file $ factor $ fuzz_n $ fuzz_seed $ out))

(* train *)
let train_cmd =
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Crash-safe label journal.  Measurements are appended as they complete; \
             re-running with the same journal resumes the sweep, skipping every \
             loop already journalled.")
  in
  let model =
    Arg.(
      value
      & opt
          (enum Train.model_choices)
          Train.Best
      & info [ "model" ] ~docv:"M"
          ~doc:
            "Which learner to package: 'nn', 'svm', 'mlp', or 'best' (highest \
             cross-validation accuracy; default).")
  in
  let joint =
    Arg.(
      value
      & flag
      & info [ "joint" ]
          ~doc:
            "Train over the joint (unroll factor x SWP) decision space: sweep the \
             suite at both SWP settings and fit a 16-way classifier.  Exclusive \
             with --swp and --follow.")
  in
  let follow =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"FILE"
          ~doc:
            "Online training: tail a label journal another process is writing \
             (see {!--journal}) and refit as sweeps complete, instead of \
             measuring in-process.  Each refit rewrites --output atomically and \
             appends a provenance line to OUTPUT.lineage.")
  in
  let every =
    Arg.(
      value
      & opt int 64
      & info [ "every" ] ~docv:"N"
          ~doc:"With --follow: refit after every N newly completed sweeps (default 64).")
  in
  let idle_exit =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-exit" ] ~docv:"S"
          ~doc:
            "With --follow: once the journal has been quiet for S seconds, emit a \
             final artifact and exit (default: follow forever).")
  in
  (* Online training: tail a journal another process is writing, refit every
     [--every] completed sweeps, and replace the artifact ([Model_artifact.save]
     renames it into place, so a concurrent `ctl reload` can never observe a
     half-written file).  Each emitted version appends a lineage line
     (version, parent digest, own digest, dataset digest) to OUTPUT.lineage —
     the digest chain that ties a served model back through every generation
     to its training data.  The digests live in the sidecar, not the
     artifact, so an online artifact stays bit-identical to the batch
     retrain over the same journal. *)
  let run_follow config ~output ~swp ~model ~path ~every ~idle_exit =
    let fl = or_die "follow: " (Label_store.follow path) in
    let online = Train.Online.create ~progress:false config ~swp ~model in
    let version = ref 0 in
    let parent = ref "-" in
    let pending = ref 0 in
    (* Completed sweeps not yet covered by an emitted artifact. *)
    let emit () =
      match Train.Online.retrain online with
      | Error e ->
        Printf.eprintf "follow: not training yet: %s\n%!" e;
        pending := 0
      | Ok (artifact, report) ->
        incr version;
        let digest = Digest.to_hex (Digest.string (Model_artifact.to_string artifact)) in
        Model_artifact.save artifact output;
        Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 (output ^ ".lineage")
          (fun oc ->
            Printf.fprintf oc "v%d parent %s digest %s dataset %s\n" !version !parent
              digest report.Train.dataset_digest);
        Printf.printf "v%d %s: %s model, %d/%d sweeps complete (%d loops kept)\n%!"
          !version digest report.Train.chosen
          (Train.Online.complete_sweeps online)
          (Train.Online.total_sweeps online)
          report.Train.kept;
        parent := digest;
        pending := 0
    in
    let stop = ref false in
    Fun.protect
      ~finally:(fun () -> Label_store.close_follower fl)
      (fun () ->
        while not !stop do
          match Label_store.follow_next ?timeout:idle_exit fl with
          | Some (key, factor, cycles) ->
            if Train.Online.ingest online ~key ~factor ~cycles then begin
              incr pending;
              if !pending >= every then emit ()
            end
          | None ->
            (* Journal quiet past the idle deadline: flush and exit. *)
            if !pending > 0 || !version = 0 then emit ();
            stop := true
        done);
    if Train.Online.unknown_records online > 0 then
      Printf.eprintf "follow: ignored %d foreign records\n%!"
        (Train.Online.unknown_records online);
    if !version = 0 then
      die ~code:1 "follow: no artifact emitted (%d/%d sweeps complete)\n"
        (Train.Online.complete_sweeps online)
        (Train.Online.total_sweeps online)
  in
  let run_batch config ~output ~swp ~joint ~model journal =
    let journal =
      Option.map
        (fun path ->
          let j = or_die "journal: " (Label_store.open_ path) in
          if Label_store.recovered_records j > 0 then
            Printf.eprintf "journal: resumed %d records from %s (%d torn bytes discarded)\n%!"
              (Label_store.recovered_records j) path (Label_store.truncated_bytes j);
          j)
        journal
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Label_store.close journal)
      (fun () ->
        let artifact, report =
          if joint then Train.run_joint ~progress:true ?journal config ~model
          else Train.run ~progress:true ?journal config ~swp ~model
        in
        Model_artifact.save artifact output;
        Printf.printf "trained %s model (%s space) on %d loops (%d measured), %d features\n"
          report.Train.chosen
          (Model_artifact.label_space_name artifact.Model_artifact.label_space)
          report.Train.kept report.Train.measured
          (Array.length report.Train.features);
        Printf.printf "cross-validation accuracy: %s\n"
          (Train.cv_summary report.Train.cv_scores);
        Printf.printf "dataset digest: %s\n" report.Train.dataset_digest;
        Printf.printf "wrote %s\n" output)
  in
  let run output swp joint journal model follow every idle_exit config =
    match (joint, swp, follow, journal) with
    | true, true, _, _ ->
      (* --joint sweeps both SWP settings itself; a pinned setting
         contradicts it. *)
      die "train: --joint and --swp are exclusive\n"
    | true, _, Some _, _ -> die "train: --joint is not supported with --follow\n"
    | _, _, Some _, Some _ -> die "train: --follow and --journal are exclusive\n"
    | _, _, Some path, None -> (
      try run_follow config ~output ~swp ~model ~path ~every:(max 1 every) ~idle_exit
      with Label_store.Corrupt e -> die ~code:1 "follow: %s\n" e)
    | _, _, None, journal -> run_batch config ~output ~swp ~joint ~model journal
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:
         "Full training pipeline: sweep the suite (journalled, resumable), select \
          features, fit and cross-validate both learners, write a versioned model \
          artifact.  With --follow, tail a live journal instead and refit \
          from scratch as sweeps complete.")
    (configured
       Term.(
         const run $ output_opt "model.artifact" ~doc:"Artifact output path." $ swp_flag
         $ joint $ journal $ model $ follow $ every $ idle_exit))

(* predict *)
let predict_cmd =
  let remote =
    Arg.(
      value
      & opt (some string) None
      & info [ "remote" ] ~docv:"HOST:PORT"
          ~doc:
            "Query a running `unroll-ml serve` instead of loading an artifact \
             locally.  Output is identical to the local path, so the two can be \
             bit-diffed.")
  in
  let kernels =
    Arg.(value & flag & info [ "kernels" ] ~doc:"Predict for the built-in kernel loops.")
  in
  let run artifact remote kernels file output config =
    let loops =
      match (kernels, file) with
      | true, None -> kernel_loops ()
      | false, Some path -> read_loops path
      | _ -> die "predict: give exactly one of --kernels or a .loop FILE\n"
    in
    (* Decisions are [(factor, swp)]; [swps] stays [None] unless a local
       joint-space artifact answered, so factor-space output (local and
       remote) is byte-identical to what it always was. *)
    let factors, swps =
      match (remote, artifact) with
      | Some addr, _ ->
        (* The remote path speaks the same Wire codec as the server and
           the load bench; responses come back in request order. *)
        let responses =
          with_client "remote: " addr (fun client ->
              or_die "remote: " (Serve_client.predict_all client loops))
        in
        let factor = function Wire.Factor f -> Some f | _ -> None in
        ( Array.map
            (expect_response ~who:"remote" ~busy:"server shed the request (busy)"
               ~unexpected:"control" factor)
            responses,
          None )
      | None, Some path -> (
        let service =
          or_die "artifact: " (Predict_service.load ~telemetry:Telemetry.global config path)
        in
        match Predict_service.label_space service with
        | Model_artifact.Factor -> (Predict_service.predict_batch service loops, None)
        | Model_artifact.Joint ->
          let decisions = Predict_service.predict_joint_batch service loops in
          (Array.map fst decisions, Some (Array.map snd decisions)))
      | None, None -> die "predict: give --artifact FILE or --remote HOST:PORT\n"
    in
    let line i loop =
      let swp =
        match swps with None -> "" | Some s -> if s.(i) then " swp=on" else " swp=off"
      in
      Printf.sprintf "%s %d%s\n" loop.Loop.name factors.(i) swp
    in
    let text = String.concat "" (List.mapi line loops) in
    if output = "-" then print_string text
    else begin
      Out_channel.with_open_text output (fun oc -> output_string oc text);
      Printf.printf "wrote %d predictions to %s\n" (List.length loops) output
    end
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Batched prediction from a model artifact (or a running server with \
          --remote): verify provenance against the serving machine, print `name \
          factor` per loop (joint-space artifacts add `swp=on|off`).")
    (configured
       Term.(
         const run $ artifact_opt "artifact" Arg.value $ remote $ kernels
         $ loop_file Arg.value
         $ output_opt "-" ~doc:"Output path ('-' = stdout)."))

(* serve *)
let serve_cmd =
  let port =
    Arg.(value & opt int 7811 & info [ "port" ] ~docv:"P" ~doc:"Listen port (0 = ephemeral).")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let batch_window_us =
    Arg.(
      value
      & opt int 2000
      & info [ "batch-window-us" ] ~docv:"US"
          ~doc:
            "Micro-batching window in microseconds: how long a forming batch waits \
             for more requests before firing (it fires early when the arrival \
             stream pauses or the cap is hit).")
  in
  let batch_cap =
    Arg.(value & opt int 64 & info [ "batch-cap" ] ~docv:"N" ~doc:"Max loops per prediction batch.")
  in
  let queue_cap =
    Arg.(
      value
      & opt int 1024
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Admission-control bound: beyond this queue depth requests are shed (busy).")
  in
  let cache_cap =
    Arg.(
      value
      & opt int Predict_service.default_cache_capacity
      & info [ "cache-cap" ] ~docv:"N"
          ~doc:"Feature-vector cache entries kept (FIFO eviction; 0 disables).")
  in
  let drain_timeout =
    Arg.(
      value
      & opt float 5.0
      & info [ "drain-timeout" ] ~docv:"S"
          ~doc:"Seconds to wait for connections to close during graceful shutdown.")
  in
  let shadow_window =
    Arg.(
      value
      & opt int 0
      & info [ "shadow-window" ] ~docv:"N"
          ~doc:
            "Shadow-evaluate reloaded models: a reloaded candidate predicts N loops \
             alongside the live model (its answers are never sent) before being \
             promoted or rejected on its disagreement rate.  0 (default) swaps \
             immediately.")
  in
  let shadow_threshold =
    Arg.(
      value
      & opt float 0.0
      & info [ "shadow-threshold" ] ~docv:"F"
          ~doc:
            "Max disagreement rate (fraction of shadowed loops) at which a shadow \
             candidate is still promoted (default 0: require exact agreement).")
  in
  let run model port host batch_window_us batch_cap queue_cap cache_cap drain_timeout
      shadow_window shadow_threshold config =
    let opts =
      {
        Serve.host;
        port;
        jobs = config.Config.jobs;
        batch_window = float_of_int (max 0 batch_window_us) /. 1e6;
        batch_cap = max 1 batch_cap;
        queue_cap = max 1 queue_cap;
        cache_capacity = max 0 cache_cap;
        drain_timeout = Float.max 0. drain_timeout;
        shadow_window = max 0 shadow_window;
        shadow_threshold = Float.max 0. shadow_threshold;
      }
    in
    let server = or_die "" (Serve.listen ~opts config ~artifact:model) in
    (* SIGINT/SIGTERM drain gracefully; SIGHUP hot-reloads the model path in
       place.  Handlers only flip atomic flags the accept loop polls —
       nothing signal-unsafe runs here. *)
    let stop _ = Serve.stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> Serve.request_reload server model));
    Printf.printf
      "unroll-ml serve: listening on %s:%d (model %s, batch window %dus cap %d, queue \
       %d, jobs %d)\n%!"
      host (Serve.port server) model batch_window_us opts.Serve.batch_cap
      opts.Serve.queue_cap opts.Serve.jobs;
    Serve.run server;
    print_string (Serve.stats_text server)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve predictions over TCP: connections are multiplexed into adaptive \
          micro-batches with admission control and backpressure; SIGHUP (or the \
          `reload` control frame) hot-swaps the model without dropping requests.")
    (configured
       Term.(
         const run $ artifact_opt "model" Arg.required $ port $ host $ batch_window_us
         $ batch_cap $ queue_cap $ cache_cap $ drain_timeout $ shadow_window
         $ shadow_threshold))

(* ctl *)
let ctl_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HOST:PORT" ~doc:"A running `unroll-ml serve`.")
  in
  let command =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"CMD"
          ~doc:"Control command: ping | stats | reload PATH | shutdown.")
  in
  let run addr command =
    with_client "ctl: " addr (fun client ->
        let r = or_die ~code:1 "ctl: " (Serve_client.control client (String.concat " " command)) in
        let text =
          expect_response ~who:"ctl" ~busy:"server busy" ~unexpected:"prediction"
            (function Wire.Okay text -> Some text | _ -> None)
            r
        in
        print_string text;
        if text = "" || text.[String.length text - 1] <> '\n' then print_newline ())
  in
  Cmd.v
    (Cmd.info "ctl"
       ~doc:
         "Send a control frame to a running server: ping, stats, hot reload, or \
          graceful shutdown.")
    Term.(const run $ addr $ command)

(* kernels *)
let kernels_cmd =
  let run () =
    List.iter (fun (name, _) -> print_endline name) Kernels.all
  in
  Cmd.v (Cmd.info "kernels" ~doc:"List the built-in kernel loops.") Term.(const run $ const ())

(* machines *)
let machines_cmd =
  let run () =
    List.iter
      (fun m ->
        Printf.printf "%-10s %d-issue M%d I%d F%d B%d, %d/%d regs, L1D %dKB\n"
          m.Machine.mach_name m.Machine.issue_width m.Machine.m_units m.Machine.i_units
          m.Machine.f_units m.Machine.b_units m.Machine.int_regs m.Machine.fp_regs
          (m.Machine.l1d.Machine.size_bytes / 1024))
      Machine.all
  in
  Cmd.v (Cmd.info "machines" ~doc:"List the machine models.") Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "unroll-ml" ~version:"1.0.0"
       ~doc:"Predicting unroll factors using supervised classification (CGO 2005 reproduction).")
    [
      dataset_cmd; experiment_cmd; inspect_cmd; inspect_file_cmd; export_cmd;
      train_cmd; predict_cmd; serve_cmd; ctl_cmd; fuzz_cmd; verify_cmd; kernels_cmd;
      machines_cmd;
    ]

let () = exit (Cmd.eval main)
