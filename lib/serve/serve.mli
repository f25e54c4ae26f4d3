(** [unroll-ml serve]: the concurrent prediction server.

    A server binds one TCP listener over one {!Predict_service}.  Each
    accepted connection gets a reader thread speaking the {!Wire} codec; a
    torn or corrupt frame kills that connection, never the server.
    Requests are not predicted one at a time: readers push them through
    admission control into a bounded queue, and a dedicated batcher
    domain coalesces whatever arrives within a bounded window (capped at
    [batch_cap]) into a single {!Predict_service.predict_batch} call —
    concurrent load therefore hits the blocked matrix kernels, fanned over
    the {!Parallel} domain pool, instead of the scalar path.  The
    batching is adaptive: a full queue fires immediately, a lone request
    fires as soon as the arrival stream pauses, so light load pays
    microseconds of window, not the whole thing.

    Responses return to each connection strictly in request order (a
    per-connection reorder buffer sequences batch results), so clients may
    pipeline.  When the queue is full the reader answers {!Wire.Busy}
    immediately — explicit backpressure, counted as a shed.

    {!listen} and every hot reload build their service with
    {!Predict_service.load}, the same loader as the CLI's local
    [predict], so the server accepts and rejects exactly the artifacts
    the local path does.

    Hot reload: a ["reload PATH"] control frame (or {!request_reload},
    wired to [SIGHUP] by the CLI) loads and verifies a new
    {!Model_artifact} and swaps it in between batches, so in-flight
    requests are never dropped; a bad artifact is rejected — counted and
    reported to the requester — while the old model keeps serving.

    Shadow evaluation ([shadow_window > 0]): instead of swapping
    immediately, a reloaded candidate predicts every batch {e alongside}
    the live model (its answers are never sent) until it has seen
    [shadow_window] loops; it is then promoted — swapped in between
    batches exactly like an immediate reload — if its disagreement rate
    against the live model is at most [shadow_threshold], and discarded
    otherwise.  Online training feeds this: [train --follow] emits
    artifacts whose predictions should match the eventual batch retrain,
    so a candidate that disagrees with serving traffic beyond the
    threshold is evidence of a divergent (partial or corrupt) artifact
    and is auto-rejected while the old model keeps serving.  A second
    reload during a shadow window replaces the candidate and restarts
    the window; [shadow_window = 0] (the default) keeps the immediate
    swap.

    Shutdown ({!stop}, a ["shutdown"] control frame, or [SIGINT]/[SIGTERM]
    in the CLI) is a graceful drain: the listener stops accepting, every
    queued request is still answered, and connections get up to
    [drain_timeout] seconds to close before being forced.

    Telemetry accumulates under the ["serve"] pass: [accepted], [requests],
    [shed], [batches], [batched-loops], [reloads], [reload-rejected],
    [shadow-started], [shadow-disagreements], [shadow-promoted],
    [shadow-rejected], [frames-corrupt], [responses-dropped] — alongside
    the ["parallel"] and ["predict-service"] counters the batch path
    already feeds.  The ["stats"] control frame renders a live snapshot
    (queue depth, active connections, batch-size histogram, shadow state,
    and a per-model block — [model-kind], [model-digest] and the cache
    counters, which belong to the loaded service instance and are
    therefore since-load) as [key value] lines. *)

type opts = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  jobs : int;  (** domain-pool width for batch classification *)
  batch_window : float;  (** seconds a forming batch waits for company *)
  batch_cap : int;  (** max loops per predict batch *)
  queue_cap : int;  (** admission-control bound; beyond it requests shed *)
  cache_capacity : int;  (** {!Predict_service} feature-vector cache bound *)
  drain_timeout : float;  (** seconds to wait for connections on shutdown *)
  shadow_window : int;
      (** loops a reloaded candidate shadow-predicts before promotion;
          0 swaps immediately *)
  shadow_threshold : float;
      (** max disagreement rate (fraction of shadowed loops) for
          promotion *)
}

val default_opts : opts
(** [127.0.0.1:7811], jobs 1, a 2 ms window, batches of 64, a 1024-deep
    queue, the default cache bound, a 5 s drain, shadowing off. *)

type t

val listen :
  ?opts:opts -> ?telemetry:Telemetry.t -> Config.t -> artifact:string ->
  (t, string) result
(** Load and verify the artifact through {!Predict_service.load}
    (provenance gates as in {!Predict_service.create}), bind and listen.  No traffic is served
    until {!run}. *)

val port : t -> int
(** The bound port (useful with [opts.port = 0]). *)

val run : t -> unit
(** Serve until shutdown is requested, then drain gracefully and release
    every descriptor.  Blocks; call from the main thread (tests run it in
    a background thread and drive it with control frames). *)

val stop : t -> unit
(** Request graceful shutdown.  Async-signal-safe: sets a flag the accept
    loop polls. *)

val request_reload : t -> string -> unit
(** Request a hot reload from [path] before the next batch.  Used by the
    CLI's [SIGHUP] handler; remote clients use the ["reload"] control
    frame instead (which also carries the verdict back). *)

val stats_text : t -> string
(** The ["stats"] snapshot: [key value] lines. *)
