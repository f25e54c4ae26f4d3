type t =
  | Fixed of int
  | Orc
  | Oracle
  | Nn of learned_nn
  | Svm of learned_svm
  | Mlp of learned_mlp

and learned_nn = { nn_model : Knn.t; nn_scaler : Scale.t; nn_features : int array }

and learned_svm = {
  svm_model : Multiclass.t;
  svm_scaler : Scale.t;
  svm_features : int array;
}

and learned_mlp = { mlp_model : Mlp.t; mlp_scaler : Scale.t; mlp_features : int array }

let name = function
  | Fixed k -> Printf.sprintf "fixed-%d" k
  | Orc -> "orc"
  | Oracle -> "oracle"
  | Nn _ -> "nn"
  | Svm _ -> "svm"
  | Mlp _ -> "mlp"

let prepare ~features ds =
  let ds = Dataset.select_features ds features in
  let scaler = Scale.fit ds in
  (Scale.apply scaler ds, scaler)

let train_nn (config : Config.t) ~features ds =
  let scaled, scaler = prepare ~features ds in
  let model =
    Knn.train ~radius:config.Config.knn_radius ~n_classes:ds.Dataset.n_classes
      (Dataset.points scaled)
  in
  Nn { nn_model = model; nn_scaler = scaler; nn_features = features }

let subsample_cap ds cap =
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

let train_svm ?cap (config : Config.t) ~features ds =
  let ds = match cap with Some c -> subsample_cap ds c | None -> ds in
  let scaled, scaler = prepare ~features ds in
  let model =
    Multiclass.train ~n_classes:ds.Dataset.n_classes ~kernel:config.Config.svm_kernel
      ~gamma:config.Config.svm_gamma (Dataset.points scaled)
  in
  Svm { svm_model = model; svm_scaler = scaler; svm_features = features }

let train_mlp ?jobs ?telemetry (config : Config.t) ~features ds =
  let scaled, scaler = prepare ~features ds in
  let model, _stats =
    Mlp.train ?jobs ?telemetry ~seed:config.Config.mlp_seed ~hyper:config.Config.mlp_hyper
      ~n_classes:ds.Dataset.n_classes (Dataset.points scaled)
  in
  Mlp { mlp_model = model; mlp_scaler = scaler; mlp_features = features }

let project features x = Array.map (fun j -> x.(j)) features

(* --- versioned artifacts ------------------------------------------------

   The deployment format (lib/store): provenance-stamped, checksummed,
   bit-exact.  [to_artifact]/[of_artifact] are the single conversion the
   CLI trainer, the predict service, and the in-compiler load path all
   share, so a shipped model cannot diverge from the in-process one. *)

let to_artifact ?(label_space = Model_artifact.Factor) (config : Config.t) ~dataset_digest t =
  let provenance =
    {
      Model_artifact.dataset_digest;
      machine_name = config.Config.machine.Machine.mach_name;
      machine_digest = Model_artifact.machine_digest config.Config.machine;
      code_version = Model_artifact.code_version;
    }
  in
  let names features = Array.map (fun j -> Features.names.(j)) features in
  match t with
  | Nn { nn_model; nn_scaler; nn_features } ->
    let radius, n_classes, db = Knn.export nn_model in
    let mean, std = Scale.export nn_scaler in
    {
      Model_artifact.provenance;
      label_space;
      features = nn_features;
      feature_names = names nn_features;
      mean;
      std;
      payload = Model_artifact.Nn { radius; n_classes; db };
    }
  | Svm { svm_model; svm_scaler; svm_features } ->
    let codewords, machines = Multiclass.export svm_model in
    if Array.length machines = 0 then invalid_arg "Predictor.to_artifact: empty SVM";
    let mean, std = Scale.export svm_scaler in
    {
      Model_artifact.provenance;
      label_space;
      features = svm_features;
      feature_names = names svm_features;
      mean;
      std;
      payload =
        Model_artifact.Svm
          {
            kernel = Lssvm.kernel_of machines.(0);
            codewords;
            alphas = Array.map Lssvm.export machines;
            points = Lssvm.training_points machines.(0);
          };
    }
  | Mlp { mlp_model; mlp_scaler; mlp_features } ->
    let dims, weights, biases = Mlp.export mlp_model in
    let mean, std = Scale.export mlp_scaler in
    {
      Model_artifact.provenance;
      label_space;
      features = mlp_features;
      feature_names = names mlp_features;
      mean;
      std;
      payload = Model_artifact.Mlp { dims; weights; biases };
    }
  | Fixed _ | Orc | Oracle ->
    invalid_arg "Predictor.to_artifact: only learned NN/SVM/MLP predictors persist"

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
  | [] -> (
    let scaler = Scale.import ~mean:a.Model_artifact.mean ~std:a.Model_artifact.std in
    match a.Model_artifact.payload with
    | Model_artifact.Nn { radius; n_classes; db } ->
      Ok
        (Nn
           {
             nn_model = Knn.train ~radius ~n_classes db;
             nn_scaler = scaler;
             nn_features = a.Model_artifact.features;
           })
    | Model_artifact.Svm { kernel; codewords; alphas; points } ->
      let machines = Array.map (fun al -> Lssvm.import ~kernel ~points ~alphas:al) alphas in
      Ok
        (Svm
           {
             svm_model = Multiclass.import ~codewords ~machines;
             svm_scaler = scaler;
             svm_features = a.Model_artifact.features;
           })
    | Model_artifact.Mlp { dims; weights; biases } ->
      Ok
        (Mlp
           {
             mlp_model = Mlp.import ~dims ~weights ~biases;
             mlp_scaler = scaler;
             mlp_features = a.Model_artifact.features;
           }))

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
  | Nn { nn_model; nn_scaler; nn_features } ->
    let x = project nn_features (Features.extract config.Config.machine loop) in
    1 + Knn.predict nn_model (Scale.transform nn_scaler x)
  | Svm { svm_model; svm_scaler; svm_features } ->
    let x = project svm_features (Features.extract config.Config.machine loop) in
    1 + Multiclass.predict svm_model (Scale.transform svm_scaler x)
  | Mlp { mlp_model; mlp_scaler; mlp_features } ->
    let x = project mlp_features (Features.extract config.Config.machine loop) in
    1 + Mlp.predict mlp_model (Scale.transform mlp_scaler x)

let featurize t (config : Config.t) loop =
  let go features scaler =
    Scale.transform scaler (project features (Features.extract config.Config.machine loop))
  in
  match t with
  | Nn { nn_scaler; nn_features; _ } -> go nn_features nn_scaler
  | Svm { svm_scaler; svm_features; _ } -> go svm_features svm_scaler
  | Mlp { mlp_scaler; mlp_features; _ } -> go mlp_features mlp_scaler
  | Fixed _ | Orc | Oracle ->
    invalid_arg "Predictor.featurize: only learned predictors have a feature space"

let classify_scaled t x =
  match t with
  | Nn { nn_model; _ } -> Knn.predict nn_model x
  | Svm { svm_model; _ } -> Multiclass.predict svm_model x
  | Mlp { mlp_model; _ } -> Mlp.predict mlp_model x
  | Fixed _ | Orc | Oracle ->
    invalid_arg "Predictor.classify_scaled: only learned predictors take feature vectors"

let predict_scaled t x = 1 + classify_scaled t x

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
  | Nn _ | Svm _ | Mlp _ ->
    Labeling.Joint.decode (classify_scaled t (featurize t config loop))
