type t = {
  config : Config.t;
  predictor : Predictor.t;
  feature_names : string array;
  (* Identity of the loaded artifact.  Counters below belong to this
     service instance, so tagging the instance with the artifact digest
     makes every stat unambiguously since-load: a hot reload builds a new
     service, and stats reported next to this digest can never silently
     mix models. *)
  model_kind : string;
  model_digest : string;
  label_space : Model_artifact.label_space;
  telemetry : Telemetry.t option;
  (* Feature vectors keyed by loop content (name blanked): the scaled,
     projected vector [Predictor.featurize] would recompute.  Returning the
     stored vector verbatim keeps batch predictions bit-identical to the
     uncached path.

     The cache is bounded: a long-lived server would otherwise grow it
     without limit as distinct loops stream past.  Eviction is FIFO over
     insertion order — deterministic given the request order, and exact
     because entries are never re-inserted while present.  All cache state
     is guarded by [lock] so concurrent [predict_batch] calls (the serve
     path swaps services under load) stay safe. *)
  cache : (string, float array) Hashtbl.t;
  order : string Queue.t;
  capacity : int;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
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
          feature_names = artifact.Model_artifact.feature_names;
          model_kind = Model_artifact.kind artifact;
          model_digest =
            Digest.to_hex (Digest.string (Model_artifact.to_string artifact));
          label_space = artifact.Model_artifact.label_space;
          telemetry;
          cache = Hashtbl.create (min 256 (max 16 cache_capacity));
          order = Queue.create ();
          capacity = max 0 cache_capacity;
          lock = Mutex.create ();
          hits = 0;
          misses = 0;
          evictions = 0;
        })

let predictor t = t.predictor

let loop_key (loop : Loop.t) =
  Digest.string (Marshal.to_string { loop with Loop.name = "" } [])

let featurize t loop =
  if t.capacity = 0 then begin
    (* Caching disabled: every lookup is a miss and nothing is stored. *)
    Mutex.lock t.lock;
    t.misses <- t.misses + 1;
    Mutex.unlock t.lock;
    Predictor.featurize t.predictor t.config loop
  end
  else begin
    let key = loop_key loop in
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.cache key with
    | Some x ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.lock;
      x
    | None ->
      t.misses <- t.misses + 1;
      Mutex.unlock t.lock;
      let x = Predictor.featurize t.predictor t.config loop in
      Mutex.lock t.lock;
      (* Another batch may have raced the same key in; keep the incumbent so
         the FIFO order stays one entry per key. *)
      if not (Hashtbl.mem t.cache key) then begin
        Hashtbl.replace t.cache key x;
        Queue.push key t.order;
        while Hashtbl.length t.cache > t.capacity do
          let oldest = Queue.pop t.order in
          Hashtbl.remove t.cache oldest;
          t.evictions <- t.evictions + 1
        done
      end;
      Mutex.unlock t.lock;
      x
  end

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
  let hits0 = t.hits and misses0 = t.misses and evict0 = t.evictions in
  (* Featurisation stays sequential so cache insertion order — and with it
     FIFO eviction — is deterministic in the request order. *)
  let vectors = Array.map (fun i -> featurize t loops.(i)) idx in
  if Array.length idx > 0 then begin
    (* Assemble the batch as one flat matrix via the same path the training
       datasets take.  The rows come back out bit-identical, so this is a
       pure layout step, but it keeps the service on the flat row-major
       allocation pattern the numeric kernels expect and exercises
       [points_matrix] from the serving side. *)
    let n_classes = Model_artifact.n_classes t.label_space in
    let examples =
      Array.to_list
        (Array.mapi
           (fun k x ->
             {
               Dataset.features = x;
               label = 0;
               tag = loops.(idx.(k)).Loop.name;
               group = "predict";
               costs = Array.make n_classes 0.;
             })
           vectors)
    in
    let ds = Dataset.create ~feature_names:t.feature_names ~n_classes examples in
    let m, _labels = Dataset.points_matrix ds in
    (* Row classifications are independent and land at their input index, so
       fanning them over the domain pool is bit-identical at any [jobs]. *)
    Parallel.iter ~jobs (Array.length idx) (fun k ->
        out.(idx.(k)) <- Predictor.classify_scaled t.predictor (Mat.row m k))
  end;
  record t "loops" n;
  record t "vector-cache-hits" (t.hits - hits0);
  record t "vector-cache-misses" (t.misses - misses0);
  record t "vector-cache-evictions" (t.evictions - evict0);
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
let cache_hits t = t.hits
let cache_misses t = t.misses
let cache_evictions t = t.evictions
let cache_size t = Hashtbl.length t.cache
