exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* --- payload text ---------------------------------------------------------

   Floats are written as C99 hexadecimal literals: every bit of the
   mantissa survives the round trip, so a loaded model predicts exactly
   what the in-process model predicted.  [%h] prints nan/infinity in a
   form [float_of_string] reads back. *)

let hex f = Printf.sprintf "%h" f
let floats xs = String.concat " " (List.map hex (Array.to_list xs))
let ints xs = String.concat " " (List.map string_of_int (Array.to_list xs))

let float_field ~ctx s =
  match float_of_string_opt s with Some f -> f | None -> malformed "%s: bad float %S" ctx s

let int_field ~ctx s =
  match int_of_string_opt s with Some i -> i | None -> malformed "%s: bad integer %S" ctx s

let float_fields ~ctx rest = Array.of_list (List.map (float_field ~ctx) rest)
let int_fields ~ctx rest = Array.of_list (List.map (int_field ~ctx) rest)

let expect what ~got ~want = if got <> want then malformed "%s is %d, expected %d" what got want

let expect_rows what ~want =
  Array.iteri (fun i r -> expect (Printf.sprintf "%s %d length" what i) ~got:(Array.length r) ~want)

let unrecognised = function
  | w :: _ -> malformed "unrecognised artifact line %S" w
  | [] -> ()

(* --- the signature -------------------------------------------------------- *)

module type LEARNER = sig
  type model

  val name : string
  val fit_cap : Config.t -> int option

  val train :
    ?telemetry:Telemetry.t -> Config.t -> n_classes:int -> (float array * int) array -> model

  val classify : model -> float array -> int
  val cv_cap : Config.t -> int option

  val loo :
    (jobs:int -> Config.t -> n_classes:int -> (float array * int) array -> int array) option

  val write : model -> string list
  val read : d:int -> n_classes:int -> string list list -> model
end

type t = (module LEARNER)
type trained = Trained : (module LEARNER with type model = 'm) * 'm -> trained

(* --- near neighbour (§5.1) ----------------------------------------------- *)

module Nn_learner = struct
  type model = Knn.t

  let name = "nn"
  let fit_cap _ = None

  let train ?telemetry:_ (config : Config.t) ~n_classes points =
    Knn.train ~radius:config.Config.knn_radius ~n_classes points

  let classify = Knn.predict
  let cv_cap _ = None

  let loo =
    Some
      (fun ~jobs config ~n_classes points ->
        Knn.loo_predictions ~jobs (train config ~n_classes points))

  let write m =
    let radius, n_classes, db = Knn.export m in
    Printf.sprintf "nn-radius %s" (hex radius)
    :: Printf.sprintf "nn-classes %d" n_classes
    :: Array.to_list (Array.map (fun (x, y) -> Printf.sprintf "point %d %s" y (floats x)) db)

  let read ~d ~n_classes:_ lines =
    let radius = ref nan and classes = ref 0 and db = ref [] in
    List.iter
      (function
        | [ "nn-radius"; r ] -> radius := float_field ~ctx:"nn-radius" r
        | [ "nn-classes"; c ] -> classes := int_field ~ctx:"nn-classes" c
        | "point" :: y :: xs -> db := (float_fields ~ctx:"point" xs, int_field ~ctx:"point" y) :: !db
        | [ "point" ] -> malformed "nn point: missing label"
        | words -> unrecognised words)
      lines;
    if Float.is_nan !radius then malformed "nn artifact missing nn-radius";
    if !classes <= 0 then malformed "nn artifact missing nn-classes";
    let db = Array.of_list (List.rev !db) in
    if Array.length db = 0 then malformed "nn artifact has no points";
    expect_rows "nn point" ~want:d (Array.map fst db);
    Array.iteri
      (fun i (_, y) ->
        if y < 0 || y >= !classes then malformed "nn point %d: label %d outside [0, %d)" i y !classes)
      db;
    Knn.train ~radius:!radius ~n_classes:!classes db
end

(* --- LS-SVM, one-vs-rest (§5.2) ------------------------------------------ *)

module Svm_learner = struct
  type model = Multiclass.t

  let name = "svm"
  let fit_cap (config : Config.t) = Some config.Config.fig4_svm_cap

  let train ?telemetry:_ (config : Config.t) ~n_classes points =
    Multiclass.train ~n_classes ~kernel:config.Config.svm_kernel
      ~gamma:config.Config.svm_gamma points

  let classify = Multiclass.predict
  let cv_cap (config : Config.t) = Some config.Config.loocv_svm_cap

  let loo =
    Some
      (fun ~jobs (config : Config.t) ~n_classes points ->
        Multiclass.loo_predictions ~jobs ~n_classes ~kernel:config.Config.svm_kernel
          ~gamma:config.Config.svm_gamma points)

  let kernel_fields = function
    | Kernel.Linear -> [ "linear" ]
    | Kernel.Rbf g -> [ "rbf"; hex g ]
    | Kernel.Poly { degree; bias } -> [ "poly"; string_of_int degree; hex bias ]

  let kernel_of_fields = function
    | [ "linear" ] -> Kernel.Linear
    | [ "rbf"; g ] -> Kernel.Rbf (float_field ~ctx:"kernel" g)
    | [ "poly"; d; b ] ->
      Kernel.Poly { degree = int_field ~ctx:"kernel" d; bias = float_field ~ctx:"kernel" b }
    | fields -> malformed "kernel: unknown form %S" (String.concat " " fields)

  let write m =
    let codewords, machines = Multiclass.export m in
    if Array.length machines = 0 then invalid_arg "Learner.svm: empty SVM";
    let rows key fmt xs = Array.to_list (Array.map (fun x -> key ^ " " ^ fmt x) xs) in
    (("kernel " ^ String.concat " " (kernel_fields (Lssvm.kernel_of machines.(0))))
     :: rows "codeword" ints codewords)
    @ rows "alphas" floats (Array.map Lssvm.export machines)
    @ rows "point" floats (Lssvm.training_points machines.(0))

  let read ~d ~n_classes lines =
    let kernel = ref None and codewords = ref [] and alphas = ref [] and points = ref [] in
    List.iter
      (function
        | "kernel" :: rest -> kernel := Some (kernel_of_fields rest)
        | "codeword" :: rest -> codewords := int_fields ~ctx:"codeword" rest :: !codewords
        | "alphas" :: rest -> alphas := float_fields ~ctx:"alphas" rest :: !alphas
        | "point" :: rest -> points := float_fields ~ctx:"point" rest :: !points
        | words -> unrecognised words)
      lines;
    let kernel = match !kernel with Some k -> k | None -> malformed "svm artifact missing kernel" in
    let codewords = Array.of_list (List.rev !codewords) in
    let alphas = Array.of_list (List.rev !alphas) in
    let points = Array.of_list (List.rev !points) in
    expect "svm codeword count" ~got:(Array.length codewords) ~want:n_classes;
    if Array.length alphas = 0 then malformed "svm artifact has no machines";
    expect_rows "svm codeword" ~want:(Array.length alphas) codewords;
    expect_rows "svm alphas row" ~want:(Array.length points) alphas;
    expect_rows "svm point" ~want:d points;
    Multiclass.import ~codewords
      ~machines:(Array.map (fun a -> Lssvm.import ~kernel ~points ~alphas:a) alphas)
end

(* --- multi-layer perceptron ---------------------------------------------- *)

module Mlp_learner = struct
  type model = Mlp.t

  let name = "mlp"
  let fit_cap _ = None

  let train ?telemetry (config : Config.t) ~n_classes points =
    fst
      (Mlp.train ?telemetry ~seed:config.Config.mlp_seed
         ~hyper:config.Config.mlp_hyper ~n_classes points)

  let classify = Mlp.predict
  let cv_cap _ = None

  (* No closed-form LOO shortcut exists for SGD; per-example retraining
     would be O(N × SGD), so the MLP is scored leave-one-benchmark-out. *)
  let loo = None

  let write m =
    let dims, weights, biases = Mlp.export m in
    let rows key xs = Array.to_list (Array.map (fun x -> key ^ " " ^ floats x) xs) in
    (("mlp-dims " ^ ints dims) :: rows "mlp-weights" weights) @ rows "mlp-bias" biases

  let read ~d ~n_classes:_ lines =
    let dims = ref [||] and weights = ref [] and biases = ref [] in
    List.iter
      (function
        | "mlp-dims" :: rest -> dims := int_fields ~ctx:"mlp-dims" rest
        | "mlp-weights" :: rest -> weights := float_fields ~ctx:"mlp-weights" rest :: !weights
        | "mlp-bias" :: rest -> biases := float_fields ~ctx:"mlp-bias" rest :: !biases
        | words -> unrecognised words)
      lines;
    let dims = !dims in
    if Array.length dims < 2 then malformed "mlp artifact missing mlp-dims";
    if Array.exists (fun w -> w < 1) dims then malformed "mlp-dims: layer widths must be positive";
    expect "mlp input width" ~got:dims.(0) ~want:d;
    let n_layers = Array.length dims - 1 in
    let weights = Array.of_list (List.rev !weights) in
    let biases = Array.of_list (List.rev !biases) in
    expect "mlp weight block count" ~got:(Array.length weights) ~want:n_layers;
    expect "mlp bias block count" ~got:(Array.length biases) ~want:n_layers;
    for l = 0 to n_layers - 1 do
      expect (Printf.sprintf "mlp layer %d weight block" l) ~got:(Array.length weights.(l))
        ~want:(dims.(l + 1) * dims.(l));
      expect (Printf.sprintf "mlp layer %d bias block" l) ~got:(Array.length biases.(l))
        ~want:dims.(l + 1)
    done;
    Mlp.import ~dims ~weights ~biases
end

(* --- the registry --------------------------------------------------------- *)

let nn : t = (module Nn_learner)
let svm : t = (module Svm_learner)
let mlp : t = (module Mlp_learner)
let all = [ nn; svm; mlp ]

let name (module L : LEARNER) = L.name
let find n = List.find_opt (fun l -> name l = n) all
let cv_cap (module L : LEARNER) config = L.cv_cap config
let learner (Trained ((module L), _)) : t = (module L)
let classify (Trained ((module L), m)) x = L.classify m x
let write (Trained ((module L), m)) = L.write m
let read (module L : LEARNER) ~d ~n_classes lines = Trained ((module L), L.read ~d ~n_classes lines)
let cap limit ds = match limit with Some cap -> Dataset.subsample ~cap ds | None -> ds

let fit ?telemetry (module L : LEARNER) config ~features ds =
  let ds = Dataset.select_features (cap (L.fit_cap config) ds) features in
  let scaler = Scale.fit ds in
  let points = Dataset.points (Scale.apply scaler ds) in
  (scaler, Trained ((module L), L.train ?telemetry config ~n_classes:ds.Dataset.n_classes points))

let lobo ~jobs (module L : LEARNER) config (ds : Dataset.t) =
  Loocv.grouped ~jobs
    ~groups:(Array.map (fun e -> e.Dataset.group) ds.Dataset.examples)
    ~train:(fun p ->
      (* A dataset with a single group leaves an empty training fold:
         nothing to learn, fall back to the neutral class (factor 1) so
         tiny online-training prefixes still score. *)
      if Array.length p = 0 then None else Some (L.train config ~n_classes:ds.Dataset.n_classes p))
    ~predict:(fun m x -> match m with None -> 0 | Some m -> L.classify m x)
    (Dataset.points ds)

let cross_validate ~jobs (module L : LEARNER) config ds =
  let ds = cap (L.cv_cap config) ds in
  match L.loo with
  | Some loo -> (ds, loo ~jobs config ~n_classes:ds.Dataset.n_classes (Dataset.points ds))
  | None -> (ds, lobo ~jobs (module L) config ds)
