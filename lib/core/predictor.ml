type t =
  | Fixed of int
  | Orc
  | Oracle
  | Learned of { model : Learner.trained; scaler : Scale.t; features : int array }

let name = function
  | Fixed k -> Printf.sprintf "fixed-%d" k
  | Orc -> "orc"
  | Oracle -> "oracle"
  | Learned { model; _ } -> Learner.name (Learner.learner model)

let fit ?telemetry learner config ~features ds =
  let scaler, model = Learner.fit ?telemetry learner config ~features ds in
  Learned { model; scaler; features }

let train_nn config ~features ds = fit Learner.nn config ~features ds

let train_svm ?(cap = max_int) (config : Config.t) ~features ds =
  fit Learner.svm { config with Config.fig4_svm_cap = cap } ~features ds

let train_mlp ?jobs:_ ?telemetry config ~features ds =
  fit ?telemetry Learner.mlp config ~features ds

let project features x = Array.map (fun j -> x.(j)) features

(* --- versioned artifacts ------------------------------------------------

   The deployment format (Model_artifact): provenance-stamped, checksummed,
   bit-exact.  [to_artifact]/[of_artifact] are the single conversion the
   CLI trainer, the predict service, and the in-compiler load path all
   share, so a shipped model cannot diverge from the in-process one. *)

let to_artifact ?(label_space = Model_artifact.Factor) (config : Config.t) ~dataset_digest t =
  match t with
  | Learned { model; scaler; features } ->
    let mean, std = Scale.export scaler in
    {
      Model_artifact.provenance =
        {
          Model_artifact.dataset_digest;
          machine_name = config.Config.machine.Machine.mach_name;
          machine_digest = Digest.to_hex (Machine.digest config.Config.machine);
          code_version = Model_artifact.code_version;
        };
      label_space;
      features;
      feature_names = Array.map (fun j -> Features.names.(j)) features;
      mean;
      std;
      model;
    }
  | Fixed _ | Orc | Oracle ->
    invalid_arg "Predictor.to_artifact: only learned predictors persist"

let of_artifact (a : Model_artifact.t) =
  (* The artifact names the features it was trained on; a mismatch with
     this build's feature table means the indices would silently select
     different loop properties — reject instead. *)
  let drift =
    Array.to_list
      (Array.map2
         (fun j name ->
           if j < 0 || j >= Features.count then Some (Printf.sprintf "index %d out of range" j)
           else if Features.names.(j) <> name then
             Some (Printf.sprintf "feature %d is %s here, %s in the artifact" j Features.names.(j) name)
           else None)
         a.Model_artifact.features a.Model_artifact.feature_names)
    |> List.filter_map Fun.id
  in
  match drift with
  | d :: _ -> Error ("Predictor.of_artifact: feature drift — " ^ d)
  | [] ->
    Ok
      (Learned
         {
           model = a.Model_artifact.model;
           scaler = Scale.import ~mean:a.Model_artifact.mean ~std:a.Model_artifact.std;
           features = a.Model_artifact.features;
         })

let featurize_raw t x =
  match t with
  | Learned { scaler; features; _ } -> Scale.transform scaler (project features x)
  | Fixed _ | Orc | Oracle ->
    invalid_arg "Predictor.featurize: only learned predictors have a feature space"

let featurize t (config : Config.t) loop =
  featurize_raw t (Features.extract config.Config.machine loop)

let classify_scaled t x =
  match t with
  | Learned { model; _ } -> Learner.classify model x
  | Fixed _ | Orc | Oracle ->
    invalid_arg "Predictor.classify_scaled: only learned predictors take feature vectors"

let predict_scaled t x = 1 + classify_scaled t x

let predict t (config : Config.t) ~swp ?cycles loop =
  (* Like ORC, the compiler leaves loops with calls or early exits rolled,
     whatever the predictor would say. *)
  if not (Loop.unrollable loop) then 1
  else
  match t with
  | Fixed k -> max 1 (min Unroll.max_factor k)
  | Orc -> Orc_heuristic.predict config.Config.machine ~swp loop
  | Oracle -> begin
    match cycles with
    | Some cs -> 1 + Stats.min_index (Array.map float_of_int cs)
    | None -> invalid_arg "Predictor.predict: Oracle needs measured cycles"
  end
  | Learned _ -> predict_scaled t (featurize t config loop)

(* --- joint (factor × SWP) decisions -------------------------------------- *)

let predict_joint t (config : Config.t) ?cycles loop =
  if not (Loop.unrollable loop) then (1, false)
  else
  match t with
  | Fixed k -> (max 1 (min Unroll.max_factor k), false)
  (* The hand heuristic never turns SWP on by itself — it picks a factor
     for whatever pipeline setting it is given.  As a joint baseline it
     is ORC at SWP off, mirroring the single-decision experiments. *)
  | Orc -> (Orc_heuristic.predict config.Config.machine ~swp:false loop, false)
  | Oracle -> begin
    match cycles with
    | Some cs ->
      if Array.length cs <> Labeling.Joint.classes then
        invalid_arg "Predictor.predict_joint: Oracle needs the 16 merged cycle counts";
      Labeling.Joint.decode (Stats.min_index (Array.map float_of_int cs))
    | None -> invalid_arg "Predictor.predict_joint: Oracle needs measured cycles"
  end
  | Learned _ ->
    Labeling.Joint.decode (classify_scaled t (featurize t config loop))
