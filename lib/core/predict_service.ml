type t = {
  config : Config.t;
  predictor : Predictor.t;
  (* Identity of the loaded artifact.  Counters below belong to this
     service instance, so tagging the instance with the artifact digest
     makes every stat unambiguously since-load: a hot reload builds a new
     service, and stats reported next to this digest can never silently
     mix models. *)
  model_kind : string;
  model_digest : string;
  label_space : Model_artifact.label_space;
  telemetry : Telemetry.t option;
  (* Feature vectors keyed by [Loop.digest]: the scaled, projected vector
     [Predictor.featurize] would recompute.  Returning the stored vector
     verbatim keeps batch predictions bit-identical to the uncached path.
     The [Memo] is bounded, so a long-lived server's cache stays flat as
     distinct loops stream past, and locked, so concurrent [predict_batch]
     calls (the serve path swaps services under load) stay safe. *)
  cache : (Digest.t, float array) Memo.t;
}

let default_cache_capacity = 8192

let create ?telemetry ?(cache_capacity = default_cache_capacity) (config : Config.t)
    artifact =
  match Model_artifact.verify_machine artifact config.Config.machine with
  | Error _ as e -> e
  | Ok () -> (
    match Predictor.of_artifact artifact with
    | Error _ as e -> e
    | Ok predictor ->
      Ok
        {
          config;
          predictor;
          model_kind = Model_artifact.kind artifact;
          model_digest =
            Digest.to_hex (Digest.string (Model_artifact.to_string artifact));
          label_space = artifact.Model_artifact.label_space;
          telemetry;
          cache = Memo.create cache_capacity;
        })

let load ?telemetry ?cache_capacity config path =
  Result.bind (Model_artifact.load ?telemetry path) (create ?telemetry ?cache_capacity config)

let predictor t = t.predictor

let featurize t loop =
  let key = Loop.digest loop in
  match Memo.find t.cache key with
  | Some x -> x
  | None ->
    let x = Predictor.featurize t.predictor t.config loop in
    Memo.add t.cache key x;
    x

let cache_hits t = Memo.hits t.cache
let cache_misses t = Memo.misses t.cache
let cache_evictions t = Memo.evictions t.cache
let cache_size t = Memo.length t.cache

let record t field n =
  match t.telemetry with
  | None -> ()
  | Some tel -> Telemetry.incr tel ~pass:"predict-service" field n

(* Raw 0-based classes in the artifact's label space.  Class 0 decodes to
   (factor 1, SWP off) in both spaces, so it is the right answer for
   non-unrollable loops — the same gate [Predictor.predict] applies. *)
let classify_batch ?(jobs = 1) t loops =
  let loops = Array.of_list loops in
  let n = Array.length loops in
  let out = Array.make n 0 in
  let idx = ref [] in
  for i = n - 1 downto 0 do
    if Loop.unrollable loops.(i) then idx := i :: !idx
  done;
  let idx = Array.of_list !idx in
  let hits0 = cache_hits t and misses0 = cache_misses t and evict0 = cache_evictions t in
  (* Featurisation stays sequential so cache insertion order — and with it
     FIFO eviction — is deterministic in the request order. *)
  let vectors = Array.map (fun i -> featurize t loops.(i)) idx in
  (* Row classifications are independent and land at their input index, so
     fanning them over the domain pool is bit-identical at any [jobs]. *)
  Parallel.iter ~jobs (Array.length idx) (fun k ->
      out.(idx.(k)) <- Predictor.classify_scaled t.predictor vectors.(k));
  record t "loops" n;
  record t "vector-cache-hits" (cache_hits t - hits0);
  record t "vector-cache-misses" (cache_misses t - misses0);
  record t "vector-cache-evictions" (cache_evictions t - evict0);
  out

let predict_batch ?jobs t loops =
  let classes = classify_batch ?jobs t loops in
  match t.label_space with
  | Model_artifact.Factor -> Array.map (fun c -> c + 1) classes
  | Model_artifact.Joint ->
    Array.map (fun c -> fst (Labeling.Joint.decode c)) classes

let predict_joint_batch ?jobs t loops =
  let classes = classify_batch ?jobs t loops in
  match t.label_space with
  | Model_artifact.Factor -> Array.map (fun c -> (c + 1, false)) classes
  | Model_artifact.Joint -> Array.map Labeling.Joint.decode classes

let predict t loop = (predict_batch t [ loop ]).(0)
let model_kind t = t.model_kind
let model_digest t = t.model_digest
let label_space t = t.label_space
