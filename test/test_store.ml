(* lib/store: versioned model artifacts, the crash-safe label journal, and
   the predict service — round-trip properties, fault injection, and golden
   fixtures (test/fixtures/, regenerated by tools/gen_fixtures.exe). *)

let config = Config.fast

(* Must mirror tools/gen_fixtures.ml (and the CI train-predict job): the
   golden tests retrain from the checked-in journal and demand bit-equality
   with the checked-in artifacts. *)
let fixture_config = { Config.fast with Config.scale = 0.05; jobs = 2 }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let temp_path () =
  let path = Filename.temp_file "unrollml_store" ".tmp" in
  Sys.remove path;
  path

let with_temp f =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let open_exn path =
  match Label_store.open_ path with Ok j -> j | Error e -> Alcotest.fail e

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* `dune runtest` runs from _build/default/test (where the (deps) clause
   materialises fixtures/); `dune exec test/test_main.exe` runs from the
   project root. *)
let fixture name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local else Filename.concat "test/fixtures" name

(* --- artifact round-trip (property) ------------------------------------- *)

let random_dataset rng =
  let n = 12 + Rng.int rng 20 in
  let n_classes = Unroll.max_factor in
  let examples =
    List.init n (fun i ->
        {
          Dataset.features = Array.init Features.count (fun _ -> Rng.float rng 10.0 -. 5.0);
          label = Rng.int rng n_classes;
          tag = Printf.sprintf "x%d" i;
          group = "g";
          costs = Array.make n_classes 0.;
        })
  in
  Dataset.create ~feature_names:Features.names ~n_classes examples

let random_subset rng =
  let idx = Array.init Features.count Fun.id in
  Rng.shuffle rng idx;
  Array.sub idx 0 (3 + Rng.int rng 10)

let roundtrip_artifact_prop salt learner =
  QCheck.Test.make ~count:15
    ~name:(Learner.name learner ^ " artifact roundtrips bit-identically")
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create ((seed * 7919) + salt) in
      let ds = random_dataset rng in
      let features = random_subset rng in
      let p = Predictor.fit learner config ~features ds in
      let a = Predictor.to_artifact config ~dataset_digest:(Dataset.digest ds) p in
      let text = Model_artifact.to_string a in
      match Model_artifact.of_string text with
      | Error e -> QCheck.Test.fail_report ("reload: " ^ e)
      | Ok a' ->
        if Model_artifact.to_string a' <> text then
          QCheck.Test.fail_report "artifact text is not a print fixed point"
        else begin
          match Predictor.of_artifact a' with
          | Error e -> QCheck.Test.fail_report ("of_artifact: " ^ e)
          | Ok p' ->
            (* Bit-identical predictions on fresh query points: any lost
               mantissa bit in the stored floats shows up here. *)
            let k = Array.length features in
            List.for_all
              (fun _ ->
                let x = Array.init k (fun _ -> Rng.float rng 6.0 -. 3.0) in
                Predictor.predict_scaled p x = Predictor.predict_scaled p' x)
              (List.init 16 Fun.id)
        end)

let prop_roundtrips = List.mapi (fun i l -> roundtrip_artifact_prop (i + 1) l) Learner.all

let test_joint_artifact_roundtrip () =
  (* A joint-space MLP: 16 classes, label-space stamped Joint.  The space
     must survive serialisation — a joint model silently reloaded as
     factor-space would misdecode every class above 7. *)
  let rng = Rng.create 29 in
  let n_classes = Labeling.Joint.classes in
  let examples =
    List.init 24 (fun i ->
        {
          Dataset.features = Array.init Features.count (fun _ -> Rng.float rng 10.0 -. 5.0);
          label = Rng.int rng n_classes;
          tag = Printf.sprintf "j%d" i;
          group = "g";
          costs = Array.make n_classes 0.;
        })
  in
  let ds = Dataset.create ~feature_names:Features.names ~n_classes examples in
  let features = random_subset rng in
  let p = Predictor.train_mlp config ~features ds in
  let a =
    Predictor.to_artifact ~label_space:Model_artifact.Joint config
      ~dataset_digest:(Dataset.digest ds) p
  in
  Alcotest.(check string) "stamped joint" "joint"
    (Model_artifact.label_space_name a.Model_artifact.label_space);
  let text = Model_artifact.to_string a in
  Alcotest.(check bool) "label-space line present" true
    (contains ~sub:"label-space joint" text);
  match Model_artifact.of_string text with
  | Error e -> Alcotest.fail ("reload: " ^ e)
  | Ok a' ->
    Alcotest.(check string) "space survives round-trip" "joint"
      (Model_artifact.label_space_name a'.Model_artifact.label_space);
    Alcotest.(check string) "print fixed point" text (Model_artifact.to_string a');
    let p' = match Predictor.of_artifact a' with Ok p -> p | Error e -> Alcotest.fail e in
    let k = Array.length features in
    for _ = 1 to 16 do
      let x = Array.init k (fun _ -> Rng.float rng 6.0 -. 3.0) in
      Alcotest.(check int) "joint class bit-identical"
        (Predictor.classify_scaled p x)
        (Predictor.classify_scaled p' x)
    done

let test_artifact_corruption_rejected () =
  let rng = Rng.create 11 in
  let ds = random_dataset rng in
  let p = Predictor.train_nn config ~features:[| 0; 5; 20 |] ds in
  let a = Predictor.to_artifact config ~dataset_digest:(Dataset.digest ds) p in
  let text = Model_artifact.to_string a in
  let flipped =
    let b = Bytes.of_string text in
    let i = String.length text / 2 in
    Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
    Bytes.to_string b
  in
  match Model_artifact.of_string flipped with
  | Ok _ -> Alcotest.fail "corrupted artifact loaded"
  | Error e ->
    Alcotest.(check bool) ("mentions checksum: " ^ e) true
      (contains ~sub:"checksum" e)

(* --- journal recovery (property) ---------------------------------------- *)

let journal_header = "unrollml-journal v1\n"

let fill_journal rng path sweeps =
  let j = open_exn path in
  for s = 0 to sweeps - 1 do
    let key = Digest.to_hex (Digest.string (Printf.sprintf "sweep-%d" s)) in
    Label_store.append_sweep j ~key (Array.init 8 (fun _ -> 1 + Rng.int rng 1_000_000))
  done;
  Label_store.close j

let prop_journal_truncation =
  QCheck.Test.make ~count:30 ~name:"journal recovers from any truncation point"
    QCheck.(pair small_int (int_bound 100_000))
    (fun (seed, pick) ->
      with_temp (fun path ->
          let rng = Rng.create (seed + 17) in
          fill_journal rng path (1 + Rng.int rng 5);
          let contents = read_file path in
          let hlen = String.length journal_header in
          let cut = hlen + (pick mod (String.length contents - hlen + 1)) in
          let body = String.sub contents hlen (cut - hlen) in
          (* Every line is a valid record, so recovery must keep exactly the
             complete lines below the cut and discard the torn remainder. *)
          let expected = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 body in
          let keep =
            match String.rindex_opt body '\n' with Some i -> hlen + i + 1 | None -> hlen
          in
          write_file path (String.sub contents 0 cut);
          let j = open_exn path in
          let ok =
            Label_store.recovered_records j = expected
            && Label_store.size j = expected
            && Label_store.truncated_bytes j = cut - keep
          in
          Label_store.close j;
          (* The torn tail must be gone from disk, and a second recovery
             must be clean. *)
          let ok = ok && String.length (read_file path) = keep in
          let j = open_exn path in
          let ok =
            ok
            && Label_store.recovered_records j = expected
            && Label_store.truncated_bytes j = 0
          in
          Label_store.close j;
          ok))

let test_journal_interior_corruption () =
  with_temp (fun path ->
      let rng = Rng.create 3 in
      fill_journal rng path 3;
      let contents = read_file path in
      (* Flip one digest hex digit inside the second record: the damage now
         sits between valid records, which crash-only writes cannot
         produce. *)
      let line1_end = String.index_from contents (String.length journal_header) '\n' in
      let b = Bytes.of_string contents in
      let i = line1_end + 4 in
      Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
      write_file path (Bytes.to_string b);
      match Label_store.open_ path with
      | Ok _ -> Alcotest.fail "interior corruption accepted"
      | Error e ->
        Alcotest.(check bool) ("names interior corruption: " ^ e) true
          (contains ~sub:"interior corruption" e))

let test_journal_foreign_file () =
  with_temp (fun path ->
      write_file path "definitely not a journal\n";
      match Label_store.open_ path with
      | Ok _ -> Alcotest.fail "foreign file accepted"
      | Error e ->
        Alcotest.(check bool) ("names bad header: " ^ e) true
          (contains ~sub:"header" e))

let test_journal_find_and_duplicates () =
  with_temp (fun path ->
      let j = open_exn path in
      let key = "k" in
      Label_store.append_sweep j ~key (Array.init 8 (fun i -> 100 + i));
      (* Duplicate sweep: last write wins on recovery. *)
      Label_store.append_sweep j ~key (Array.init 8 (fun i -> 200 + i));
      Alcotest.(check (option int)) "find" (Some 203) (Label_store.find j ~key ~factor:4);
      Alcotest.(check (option int)) "missing" None (Label_store.find j ~key:"other" ~factor:1);
      Label_store.close j;
      let j = open_exn path in
      Alcotest.(check int) "recovered" 16 (Label_store.recovered_records j);
      Alcotest.(check (option (array int)))
        "sweep survives with last write"
        (Some (Array.init 8 (fun i -> 200 + i)))
        (Label_store.find_sweep j ~key ~n_factors:8);
      Label_store.close j)

(* --- journal tail-following ---------------------------------------------- *)

let follow_exn path =
  match Label_store.follow path with Ok f -> f | Error e -> Alcotest.fail e

let drain_one f =
  match Label_store.follow_next ~timeout:10.0 f with
  | Some r -> r
  | None -> Alcotest.fail "follower timed out mid-stream"

let test_follower_exactly_once_concurrent () =
  with_temp (fun path ->
      let sweeps = 12 and n_factors = 8 in
      let key s = Digest.to_hex (Digest.string (Printf.sprintf "follow-%d" s)) in
      let cycles s = Array.init n_factors (fun i -> 1 + (s * 1000) + i) in
      let j = open_exn path in
      (* Writer thread: one fsync'd sweep at a time, with gaps, so the
         follower races against a genuinely live file. *)
      let writer =
        Thread.create
          (fun () ->
            for s = 0 to sweeps - 1 do
              Label_store.append_sweep j ~key:(key s) (cycles s);
              Thread.delay 0.002
            done)
          ()
      in
      let f = follow_exn path in
      let got = Array.init (sweeps * n_factors) (fun _ -> drain_one f) in
      Thread.join writer;
      (* exactly once: nothing further, and every record in write order *)
      Alcotest.(check bool) "stream drained" true
        (Label_store.follow_next ~timeout:0.05 f = None);
      Array.iteri
        (fun i (k, factor, c) ->
          let s = i / n_factors and fi = i mod n_factors in
          if not (k = key s && factor = fi + 1 && c = (cycles s).(fi)) then
            Alcotest.failf "record %d: got (%s, %d, %d)" i k factor c)
        got;
      Alcotest.(check int) "consumed the whole file"
        (String.length (read_file path))
        (Label_store.follower_pos f);
      Label_store.close_follower f;
      Label_store.close j)

let test_follower_torn_tail_then_continue () =
  with_temp (fun path ->
      let rng = Rng.create 11 in
      fill_journal rng path 2;
      let f = follow_exn path in
      for _ = 1 to 16 do
        ignore (drain_one f)
      done;
      (* A crash mid-write leaves a torn tail: one whole sweep lands, then a
         torn prefix of the next sweep's first record. *)
      let j = open_exn path in
      Label_store.inject_crash_after j 8;
      Label_store.append_sweep j ~key:"a1" (Array.init 8 (fun i -> 10 + i));
      (try Label_store.append_sweep j ~key:"a2" (Array.init 8 (fun i -> 20 + i))
       with Label_store.Injected_crash -> ());
      Label_store.close j;
      for i = 0 to 7 do
        let k, factor, c = drain_one f in
        if not (k = "a1" && factor = i + 1 && c = 10 + i) then
          Alcotest.failf "post-crash record %d: got (%s, %d, %d)" i k factor c
      done;
      (* The torn bytes are a tail, not corruption: simply not consumed. *)
      Alcotest.(check bool) "torn tail not consumed" true
        (Label_store.follow_next ~timeout:0.05 f = None);
      let pos = Label_store.follower_pos f in
      (* A recovering writer truncates the torn bytes and appends; the
         follower absorbs the truncation and keeps delivering. *)
      let j = open_exn path in
      Alcotest.(check bool) "recovery truncated" true (Label_store.truncated_bytes j > 0);
      Label_store.append_sweep j ~key:"a3" (Array.init 8 (fun i -> 30 + i));
      Label_store.close j;
      for i = 0 to 7 do
        let k, factor, c = drain_one f in
        if not (k = "a3" && factor = i + 1 && c = 30 + i) then
          Alcotest.failf "post-recovery record %d: got (%s, %d, %d)" i k factor c
      done;
      Alcotest.(check bool) "cursor advanced past recovery point" true
        (Label_store.follower_pos f > pos);
      Label_store.close_follower f)

let test_follower_interior_corruption () =
  with_temp (fun path ->
      let rng = Rng.create 13 in
      fill_journal rng path 2;
      let contents = read_file path in
      (* Flip a digest hex digit in record 2: damage between valid records. *)
      let line1_end = String.index_from contents (String.length journal_header) '\n' in
      let b = Bytes.of_string contents in
      let i = line1_end + 4 in
      Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
      write_file path (Bytes.to_string b);
      let f = follow_exn path in
      (* The scan classifies damage as soon as a valid record is visible
         beyond it — the first poll already raises. *)
      (match Label_store.follow_next ~timeout:1.0 f with
      | exception Label_store.Corrupt msg ->
        Alcotest.(check bool) ("names interior corruption: " ^ msg) true
          (contains ~sub:"interior corruption" msg)
      | _ -> Alcotest.fail "interior corruption not raised");
      Label_store.close_follower f)

(* --- crash injection + resume ------------------------------------------- *)

let crash_benchmarks =
  lazy
    (let all = Suite.full ~scale:fixture_config.Config.scale ~seed:fixture_config.Config.seed in
     List.filteri (fun i _ -> i < 3) all)

let test_crash_resume_bitidentical () =
  let benchmarks = Lazy.force crash_benchmarks in
  let baseline = Labeling.collect ~jobs:1 fixture_config ~swp:false benchmarks in
  let run_with_crashes jobs =
    with_temp (fun path ->
        (* Kill the sweep three times at injected points, resuming from the
           journal each time, then let the final resume run to completion. *)
        List.iter
          (fun n ->
            let j = open_exn path in
            Label_store.inject_crash_after j n;
            (try ignore (Labeling.collect ~jobs ~journal:j fixture_config ~swp:false benchmarks)
             with Label_store.Injected_crash -> ());
            Label_store.close j)
          [ 2; 11; 29 ];
        let j = open_exn path in
        let out = Labeling.collect ~jobs ~journal:j fixture_config ~swp:false benchmarks in
        Label_store.close j;
        out)
  in
  Alcotest.(check bool) "resumed -j1 equals uninterrupted" true (run_with_crashes 1 = baseline);
  Alcotest.(check bool) "resumed -j4 equals uninterrupted" true (run_with_crashes 4 = baseline)

(* --- golden fixtures ----------------------------------------------------- *)

let load_artifact_exn path =
  match Model_artifact.load path with Ok a -> a | Error e -> Alcotest.fail (path ^ ": " ^ e)

let predictions_of_artifact a =
  let service =
    match Predict_service.create fixture_config a with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let loops = List.map (fun (name, maker) -> maker ~name ~trip:256) Kernels.all in
  let factors = Predict_service.predict_batch service loops in
  String.concat ""
    (List.mapi (fun i (l : Loop.t) -> Printf.sprintf "%s %d\n" l.Loop.name factors.(i)) loops)

let test_golden_predictions () =
  List.iter
    (fun (artifact, predictions) ->
      Alcotest.(check string)
        (artifact ^ " reproduces " ^ predictions)
        (read_file (fixture predictions))
        (predictions_of_artifact (load_artifact_exn (fixture artifact))))
    [
      ("golden_nn.artifact", "golden_nn_predictions.txt");
      ("golden_svm.artifact", "golden_svm_predictions.txt");
      ("golden_mlp.artifact", "golden_mlp_predictions.txt");
    ]

let test_golden_v1_still_loads () =
  (* Frozen v1 artifact (pre-label-space format), never regenerated: the
     reader must keep accepting it and default the space to Factor.  It is
     byte-for-byte the old golden_nn.artifact body, so it must predict
     exactly what today's NN fixture predicts. *)
  let a = load_artifact_exn (fixture "golden_v1_nn.artifact") in
  Alcotest.(check string) "v1 defaults to factor space" "factor"
    (Model_artifact.label_space_name a.Model_artifact.label_space);
  Alcotest.(check string) "v1 artifact predicts like the current NN fixture"
    (read_file (fixture "golden_nn_predictions.txt"))
    (predictions_of_artifact a)

(* Rewrite a fixture artifact's lines (checksum line excluded) and re-stamp
   the checksum, so the check under test — not the integrity check — is
   what must trip. *)
let resealed name edit =
  let text = read_file (fixture name) in
  let check_start = String.rindex_from text (String.length text - 2) '\n' + 1 in
  let lines =
    String.split_on_char '\n' (String.sub text 0 check_start) |> List.filter (fun l -> l <> "")
  in
  let body = String.concat "" (List.map (fun l -> l ^ "\n") (edit lines)) in
  body ^ Printf.sprintf "checksum %s\n" (Digest.to_hex (Digest.string body))

(* Apply [f] to the words of the first line whose first word is [key]. *)
let edit_first key f lines =
  let rec go = function
    | [] -> []
    | l :: rest -> (
      match String.split_on_char ' ' l with
      | w :: _ as words when w = key -> String.concat " " (f words) :: rest
      | _ -> l :: go rest)
  in
  go lines

let drop_last words = List.filteri (fun i _ -> i < List.length words - 1) words

let test_golden_version_rejected () =
  let bumped =
    resealed "golden_nn.artifact" (function
      | _ :: rest -> "unrollml-artifact v99" :: rest
      | [] -> [])
  in
  match Model_artifact.of_string bumped with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error e ->
    Alcotest.(check bool) ("names version: " ^ e) true
      (contains ~sub:"unsupported artifact version v99" e)

(* Checksum-valid artifacts whose payload does not fit the header: each
   must fail to load with a typed error, never raise at load or predict
   time. *)
let test_malformed_payloads_rejected () =
  List.iter
    (fun (what, text) ->
      match Model_artifact.of_string text with
      | Ok _ -> Alcotest.failf "%s: malformed artifact loaded" what
      | Error e ->
        Alcotest.(check bool) (what ^ " rejected by its payload check: " ^ e) false
          (contains ~sub:"checksum" e))
    [
      ( "nn without points",
        resealed "golden_nn.artifact"
          (List.filter (fun l -> not (String.starts_with ~prefix:"point " l))) );
      ("nn point missing a float", resealed "golden_nn.artifact" (edit_first "point" drop_last));
      ( "nn label 9",
        resealed "golden_nn.artifact"
          (edit_first "point" (function k :: _ :: xs -> k :: "9" :: xs | ws -> ws)) );
      ("short svm alphas row", resealed "golden_svm.artifact" (edit_first "alphas" drop_last));
      ("short svm point", resealed "golden_svm.artifact" (edit_first "point" drop_last));
      ("short svm codeword", resealed "golden_svm.artifact" (edit_first "codeword" drop_last));
    ]

let test_golden_provenance_mismatches () =
  let a = load_artifact_exn (fixture "golden_nn.artifact") in
  (match Model_artifact.verify_machine a Machine.embedded2 with
  | Ok () -> Alcotest.fail "foreign machine accepted"
  | Error e ->
    Alcotest.(check bool) ("names machines: " ^ e) true
      (contains ~sub:"machine mismatch" e));
  (match Model_artifact.verify_machine a fixture_config.Config.machine with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("training machine rejected: " ^ e));
  match Model_artifact.verify_dataset a ~digest:"0000" with
  | Ok () -> Alcotest.fail "foreign dataset accepted"
  | Error e ->
    Alcotest.(check bool) ("names dataset: " ^ e) true
      (contains ~sub:"dataset mismatch" e)

let test_golden_train_reproduces_artifacts () =
  (* Retrain from the checked-in journal (copied aside — the fixture itself
     must stay untouched): the sweep is fully journalled, so this exercises
     resume, feature selection, LOOCV and artifact serialisation, and must
     land bit-for-bit on the checked-in artifacts. *)
  with_temp (fun path ->
      write_file path (read_file (fixture "golden.journal"));
      let train model =
        let j = open_exn path in
        Alcotest.(check int) "no torn bytes in fixture" 0 (Label_store.truncated_bytes j);
        Alcotest.(check bool) "fixture journal non-empty" true
          (Label_store.recovered_records j > 0);
        let artifact, _report =
          Train.run ~progress:false ~journal:j fixture_config ~swp:false ~model
        in
        Label_store.close j;
        Model_artifact.to_string artifact
      in
      Alcotest.(check string) "NN training reproduces golden_nn.artifact"
        (read_file (fixture "golden_nn.artifact"))
        (train Train.Nn);
      Alcotest.(check string) "SVM training reproduces golden_svm.artifact"
        (read_file (fixture "golden_svm.artifact"))
        (train Train.Svm);
      Alcotest.(check string) "MLP training reproduces golden_mlp.artifact"
        (read_file (fixture "golden_mlp.artifact"))
        (train Train.Mlp))

(* --- predict service ------------------------------------------------------ *)

let test_service_matches_predictor_and_caches () =
  let a = load_artifact_exn (fixture "golden_svm.artifact") in
  let p = match Predictor.of_artifact a with Ok p -> p | Error e -> Alcotest.fail e in
  let service =
    match Predict_service.create fixture_config a with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let loops = List.map (fun (name, maker) -> maker ~name ~trip:256) Kernels.all in
  let batch = Predict_service.predict_batch service (loops @ loops) in
  List.iteri
    (fun i loop ->
      let direct = Predictor.predict p fixture_config ~swp:false loop in
      Alcotest.(check int) (Printf.sprintf "loop %d batch = direct" i) direct batch.(i);
      Alcotest.(check int)
        (Printf.sprintf "loop %d repeat = direct" i)
        direct
        batch.(i + List.length loops))
    loops;
  Alcotest.(check bool) "repeated loops hit the vector cache" true
    (Predict_service.cache_hits service >= List.length (List.filter Loop.unrollable loops))

let test_service_cache_bounded () =
  let a = load_artifact_exn (fixture "golden_nn.artifact") in
  let unbounded =
    match Predict_service.create fixture_config a with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let capacity = 4 in
  let service =
    match Predict_service.create ~cache_capacity:capacity fixture_config a with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let loops =
    List.map (fun (name, maker) -> maker ~name ~trip:256) Kernels.all
    |> List.filter Loop.unrollable
  in
  Alcotest.(check bool) "enough distinct loops to overflow the cache" true
    (List.length loops > capacity);
  let expected = Predict_service.predict_batch unbounded loops in
  (* Two passes: the second re-featurises whatever FIFO eviction expelled,
     but predictions must not change. *)
  let first = Predict_service.predict_batch service loops in
  let second = Predict_service.predict_batch service loops in
  Alcotest.(check (array int)) "bounded cache, pass 1" expected first;
  Alcotest.(check (array int)) "bounded cache, pass 2" expected second;
  Alcotest.(check bool)
    (Printf.sprintf "cache size %d stays within capacity"
       (Predict_service.cache_size service))
    true
    (Predict_service.cache_size service <= capacity);
  let evicted = List.length loops - capacity in
  Alcotest.(check bool) "evictions counted" true
    (Predict_service.cache_evictions service >= evicted);
  Alcotest.(check bool) "misses counted" true
    (Predict_service.cache_misses service >= List.length loops);
  (* Capacity 0 disables caching without breaking predictions. *)
  let uncached =
    match Predict_service.create ~cache_capacity:0 fixture_config a with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (array int)) "capacity 0 still predicts" expected
    (Predict_service.predict_batch uncached loops);
  Alcotest.(check int) "capacity 0 holds nothing" 0
    (Predict_service.cache_size uncached)

let test_service_rejects_foreign_machine () =
  let a = load_artifact_exn (fixture "golden_nn.artifact") in
  match
    Predict_service.create { fixture_config with Config.machine = Machine.embedded2 } a
  with
  | Ok _ -> Alcotest.fail "service accepted a foreign machine"
  | Error e ->
    Alcotest.(check bool) ("names machines: " ^ e) true
      (contains ~sub:"machine mismatch" e)

let suite =
  List.map QCheck_alcotest.to_alcotest prop_roundtrips
  @ [
    ("joint artifact roundtrip", `Quick, test_joint_artifact_roundtrip);
    ("artifact corruption rejected", `Quick, test_artifact_corruption_rejected);
    ("malformed payloads rejected", `Quick, test_malformed_payloads_rejected);
    QCheck_alcotest.to_alcotest prop_journal_truncation;
    ("journal interior corruption", `Quick, test_journal_interior_corruption);
    ("journal foreign file", `Quick, test_journal_foreign_file);
    ("journal find/duplicates", `Quick, test_journal_find_and_duplicates);
    ("follower exactly-once vs live writer", `Quick, test_follower_exactly_once_concurrent);
    ("follower torn tail then continue", `Quick, test_follower_torn_tail_then_continue);
    ("follower interior corruption", `Quick, test_follower_interior_corruption);
    ("crash resume bit-identical", `Slow, test_crash_resume_bitidentical);
    ("golden predictions", `Slow, test_golden_predictions);
    ("golden v1 artifact still loads", `Slow, test_golden_v1_still_loads);
    ("golden version rejected", `Quick, test_golden_version_rejected);
    ("golden provenance mismatches", `Quick, test_golden_provenance_mismatches);
    ("golden train reproduces artifacts", `Slow, test_golden_train_reproduces_artifacts);
    ("service matches predictor", `Slow, test_service_matches_predictor_and_caches);
    ("service cache bounded", `Slow, test_service_cache_bounded);
    ("service rejects foreign machine", `Quick, test_service_rejects_foreign_machine);
  ]
