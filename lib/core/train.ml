type model_choice = Nn | Svm | Mlp | Best

(* The one mapping from the CLI's model choice onto the learner registry. *)
let learner_of = function
  | Nn -> Some Learner.nn
  | Svm -> Some Learner.svm
  | Mlp -> Some Learner.mlp
  | Best -> None

let model_choices =
  List.map
    (fun c -> ((match learner_of c with Some l -> Learner.name l | None -> "best"), c))
    [ Nn; Svm; Mlp; Best ]

type report = {
  measured : int;
  kept : int;
  features : int array;
  cv_scores : (string * float) list;
  chosen : string;
  dataset_digest : string;
}

let info = Experiments.info

let cv_summary scores =
  String.concat ", " (List.map (fun (name, s) -> Printf.sprintf "%s %.3f" name s) scores)

(* Score every learner by its own cross-validation on the committed
   subset — the same protocol as Table 2 — to pick the artifact that
   would have won in-process. *)
let cv_scores ~jobs config ds selected =
  List.map
    (fun (l, cv) ->
      let sub, pred = Lazy.force cv in
      (l, Metrics.accuracy ~pred ~truth:(Dataset.labels sub)))
    (Experiments.cross_validations ~jobs config ~selected ds)

(* Ties preserve the pre-MLP precedence: the SVM (the paper's overall
   winner) holds the choice unless another learner strictly beats the
   best so far, so it wins an exact NN tie and the MLP must strictly beat
   both. *)
let best scores =
  let is_svm (l, _) = Learner.name l = Learner.name Learner.svm in
  fst
    (List.fold_left
       (fun (bl, bs) (l, s) -> if s > bs then (l, s) else (bl, bs))
       (List.find is_svm scores) scores)

(* Fit the chosen learner and stamp the artifact — the tail end of the
   pipeline, shared verbatim by the batch and online paths so a followed
   journal can never produce different bits than a batch retrain. *)
let fit ?(progress = false) ?(label_space = Model_artifact.Factor) ~loocv
    (config : Config.t) ~model ~measured ds =
  let jobs = config.Config.jobs in
  if Dataset.size ds = 0 then
    failwith "Train.run: no loops survive the labelling filters at this scale";
  let dataset_digest = Dataset.digest ds in
  info progress "train: %d/%d loops survive filters (digest %s)" (Dataset.size ds)
    measured dataset_digest;
  let selected = (Experiments.select_feature_subset ~progress config ds).selected in
  info progress "train: %d features committed" (Array.length selected);
  let scores =
    (* A forced model choice does not need the comparison to pick a
       learner; the online path skips it (retraining runs on every batch
       of arriving labels, and the artifact is unaffected), while the
       batch path always scores every learner — the report is its point. *)
    if loocv || model = Best then cv_scores ~jobs config ds selected
    else List.map (fun l -> (l, Float.nan)) Learner.all
  in
  let named = List.map (fun (l, s) -> (Learner.name l, s)) scores in
  if loocv || model = Best then info progress "train: LOOCV %s" (cv_summary named);
  let learner = match learner_of model with Some l -> l | None -> best scores in
  let predictor =
    Predictor.fit ~telemetry:Telemetry.global learner config ~features:selected ds
  in
  let artifact = Predictor.to_artifact ~label_space config ~dataset_digest predictor in
  ( artifact,
    {
      measured;
      kept = Dataset.size ds;
      features = selected;
      cv_scores = named;
      chosen = Predictor.name predictor;
      dataset_digest;
    } )

(* Generate the suite and return its sweeper: one labelled sweep per SWP
   setting, printing progress under [label]. *)
let suite_sweep ~progress ?journal (config : Config.t) =
  info progress "train: generating suite (scale %.2f)" config.Config.scale;
  let benchmarks = Suite.full ~scale:config.Config.scale ~seed:config.Config.seed in
  fun label ~swp ->
    let tick ~done_ ~total =
      if progress && (done_ mod (max 1 (total / 10)) = 0 || done_ = total) then
        Printf.eprintf "  %s: %d/%d\n%!" label done_ total
    in
    Labeling.collect ~progress:tick ~jobs:config.Config.jobs ?journal config ~swp benchmarks

let run ?(progress = false) ?journal (config : Config.t) ~swp ~model =
  let labeled = suite_sweep ~progress ?journal config "sweep" ~swp in
  let ds = Labeling.to_dataset config labeled in
  fit ~progress ~loocv:true config ~model ~measured:(Array.length labeled) ds

let run_joint ?(progress = false) ?journal (config : Config.t) ~model =
  (* Both SWP coordinates of every loop; one journal holds both sweeps
     (their keys differ in the swp field). *)
  let sweep = suite_sweep ~progress ?journal config in
  let off = sweep "sweep swp-off" ~swp:false in
  let on = sweep "sweep swp-on" ~swp:true in
  let ds = Labeling.to_dataset config (Labeling.merge_joint ~off ~on) in
  fit ~progress ~label_space:Model_artifact.Joint ~loocv:true config ~model
    ~measured:(Array.length off) ds

(* --- online training ---------------------------------------------------- *)

module Online = struct
  type t = {
    o_config : Config.t;
    o_model : model_choice;
    o_progress : bool;
    o_tasks : (string * int * Loop.t * float) array; (* suite order *)
    o_index : (string, int) Hashtbl.t; (* sweep key -> task index *)
    o_cycles : int array array; (* per task, index 0 = factor 1 *)
    o_seen : bool array array;
    o_have : int array; (* distinct factors seen per task *)
    mutable o_complete : int;
    mutable o_ingested : int;
    mutable o_unknown : int;
  }

  let create ?(progress = false) (config : Config.t) ~swp ~model =
    let benchmarks = Suite.full ~scale:config.Config.scale ~seed:config.Config.seed in
    let tasks = Labeling.tasks benchmarks in
    let index = Hashtbl.create (2 * Array.length tasks) in
    Array.iteri
      (fun ti (bench, i, loop, _) ->
        Hashtbl.replace index (Labeling.task_key config ~swp ~bench ~index:i loop) ti)
      tasks;
    {
      o_config = config;
      o_model = model;
      o_progress = progress;
      o_tasks = tasks;
      o_index = index;
      o_cycles = Array.init (Array.length tasks) (fun _ -> Array.make Unroll.max_factor 0);
      o_seen = Array.init (Array.length tasks) (fun _ -> Array.make Unroll.max_factor false);
      o_have = Array.make (Array.length tasks) 0;
      o_complete = 0;
      o_ingested = 0;
      o_unknown = 0;
    }

  let total_sweeps t = Array.length t.o_tasks
  let complete_sweeps t = t.o_complete
  let ingested t = t.o_ingested
  let unknown_records t = t.o_unknown

  let ingest t ~key ~factor ~cycles =
    t.o_ingested <- t.o_ingested + 1;
    match Hashtbl.find_opt t.o_index key with
    | None ->
      (* A journal can legitimately hold sweeps from other configs or
         suite scales; they are simply not part of this trainer's suite. *)
      t.o_unknown <- t.o_unknown + 1;
      false
    | Some ti ->
      if factor < 1 || factor > Unroll.max_factor then begin
        t.o_unknown <- t.o_unknown + 1;
        false
      end
      else begin
        let fi = factor - 1 in
        t.o_cycles.(ti).(fi) <- cycles;
        if not t.o_seen.(ti).(fi) then begin
          t.o_seen.(ti).(fi) <- true;
          t.o_have.(ti) <- t.o_have.(ti) + 1;
          if t.o_have.(ti) = Unroll.max_factor then begin
            t.o_complete <- t.o_complete + 1;
            true
          end
          else false
        end
        else false
      end

  (* Labeled rows for every journal-complete sweep, in suite order — so
     the training set is a function of *which* sweeps are complete, never
     of the order records arrived in.  With every sweep complete this is
     exactly what [Labeling.collect] returns, cycles included, so the
     emitted artifact is bit-identical to a batch [run] over the same
     journal. *)
  let labeled t =
    let out = ref [] in
    for ti = Array.length t.o_tasks - 1 downto 0 do
      if t.o_have.(ti) = Unroll.max_factor then begin
        let bench, _, loop, weight = t.o_tasks.(ti) in
        out :=
          { Labeling.bench; loop; weight; cycles = Array.copy t.o_cycles.(ti) }
          :: !out
      end
    done;
    Array.of_list !out

  let retrain t =
    let rows = labeled t in
    let ds = Labeling.to_dataset t.o_config rows in
    if Dataset.size ds = 0 then
      Error
        (Printf.sprintf
           "online train: no loops survive the labelling filters yet (%d/%d sweeps)"
           t.o_complete (total_sweeps t))
    else
      Ok
        (fit ~progress:t.o_progress ~loocv:false t.o_config
           ~model:t.o_model ~measured:(Array.length rows) ds)
end
