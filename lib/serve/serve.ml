type opts = {
  host : string;
  port : int;
  jobs : int;
  batch_window : float;
  batch_cap : int;
  queue_cap : int;
  cache_capacity : int;
  drain_timeout : float;
  shadow_window : int;
  shadow_threshold : float;
}

let default_opts =
  {
    host = "127.0.0.1";
    port = 7811;
    jobs = 1;
    batch_window = 0.002;
    batch_cap = 64;
    queue_cap = 1024;
    cache_capacity = Predict_service.default_cache_capacity;
    drain_timeout = 5.0;
    shadow_window = 0;
    shadow_threshold = 0.0;
  }

(* A connection: one reader thread, and a reorder buffer that sequences
   responses back out in request order.  [next_seq] is touched only by the
   reader thread; [out_buf]/[next_out]/[alive] live under [out_lock]. *)
type conn = {
  c_id : int;
  fd : Unix.file_descr;
  out_lock : Mutex.t;
  out_buf : (int, Wire.response) Hashtbl.t;
  mutable next_out : int;
  mutable next_seq : int;
  mutable alive : bool;
}

type item =
  | Predict_item of conn * int * Loop.t
  | Reload_item of (conn * int) option * string
      (** [None] when the reload came from a signal, not a connection *)

(* Batch-size histogram: bucket [k] counts batches of size in
   (2^(k-1), 2^k]; the last bucket absorbs anything larger. *)
let hist_buckets = 8

(* A reloaded candidate under shadow evaluation: it predicts every batch
   alongside the live model (its answers are never sent) until [sh_seen]
   reaches the warmup window, then is promoted or rejected on its
   disagreement rate.  Touched only by the batcher domain. *)
type shadow = {
  sh_service : Predict_service.t;
  mutable sh_seen : int;
  mutable sh_disagreements : int;
}

type t = {
  opts : opts;
  config : Config.t;
  telemetry : Telemetry.t;
  listener : Unix.file_descr;
  lport : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  q : item Queue.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn_id : int;
  mutable stopping : bool;
  stop_flag : bool Atomic.t;
  reload_flag : string option Atomic.t;
  mutable service : Predict_service.t;
  mutable shadow : shadow option;
  mutable batcher : unit Domain.t option;
  hist : int array;
  mutable max_batch : int;
  mutable accepted : int;
  mutable requests : int;
  mutable shed : int;
  mutable batches : int;
  mutable batched_loops : int;
  mutable reloads : int;
  mutable reload_rejected : int;
  mutable shadow_promoted : int;
  mutable shadow_rejected : int;
  mutable shadow_seen_total : int;
  mutable shadow_disagreements_total : int;
  mutable frames_corrupt : int;
  mutable responses_dropped : int;
}

let tel t name n = Telemetry.incr t.telemetry ~pass:"serve" name n
let port t = t.lport

(* --- listen -------------------------------------------------------------- *)

let listen ?(opts = default_opts) ?(telemetry = Telemetry.global) config ~artifact =
  (* A client vanishing mid-write must surface as EPIPE on that write, not
     kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    Predict_service.load ~telemetry ~cache_capacity:opts.cache_capacity config artifact
  with
  | Error e -> Error ("serve: " ^ e)
  | Ok service -> (
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    try
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string opts.host, opts.port));
      Unix.listen sock 128;
      let lport =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> opts.port
      in
      Ok
        {
          opts;
          config;
          telemetry;
          listener = sock;
          lport;
          lock = Mutex.create ();
          nonempty = Condition.create ();
          q = Queue.create ();
          conns = Hashtbl.create 64;
          next_conn_id = 0;
          stopping = false;
          stop_flag = Atomic.make false;
          reload_flag = Atomic.make None;
          service;
          shadow = None;
          batcher = None;
          hist = Array.make hist_buckets 0;
          max_batch = 0;
          accepted = 0;
          requests = 0;
          shed = 0;
          batches = 0;
          batched_loops = 0;
          reloads = 0;
          reload_rejected = 0;
          shadow_promoted = 0;
          shadow_rejected = 0;
          shadow_seen_total = 0;
          shadow_disagreements_total = 0;
          frames_corrupt = 0;
          responses_dropped = 0;
        }
    with Unix.Unix_error (e, fn, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "serve: %s: %s" fn (Unix.error_message e)))

let stop t = Atomic.set t.stop_flag true
let request_reload t path = Atomic.set t.reload_flag (Some path)

(* --- responses ----------------------------------------------------------- *)

(* Park [resp] at [seq] in the reorder buffer and flush the contiguous run
   starting at [next_out] — responses leave each connection strictly in
   request order no matter how batches complete. *)
let deliver t conn seq resp =
  Mutex.protect conn.out_lock (fun () ->
      Hashtbl.replace conn.out_buf seq resp;
      let buf = Buffer.create 64 in
      let flushed = ref 0 in
      let rec flush () =
        match Hashtbl.find_opt conn.out_buf conn.next_out with
        | Some r ->
          Hashtbl.remove conn.out_buf conn.next_out;
          conn.next_out <- conn.next_out + 1;
          Buffer.add_string buf (Wire.encode (Wire.response_payload r));
          incr flushed;
          flush ()
        | None -> ()
      in
      flush ();
      if !flushed > 0 then begin
        if conn.alive then begin
          try Wire.write_all conn.fd (Buffer.contents buf)
          with Unix.Unix_error _ ->
            conn.alive <- false;
            t.responses_dropped <- t.responses_dropped + !flushed;
            tel t "responses-dropped" !flushed
        end
        else begin
          t.responses_dropped <- t.responses_dropped + !flushed;
          tel t "responses-dropped" !flushed
        end
      end)

(* --- stats ---------------------------------------------------------------- *)

let stats_text t =
  let svc = t.service in
  let shadow = t.shadow in
  let ints kvs = List.map (fun (k, v) -> (k, string_of_int v)) kvs in
  let snapshot =
    Mutex.protect t.lock (fun () ->
        ints
          ([
             ("accepted", t.accepted);
             ("active", Hashtbl.length t.conns);
             ("queue-depth", Queue.length t.q);
             ("queue-cap", t.opts.queue_cap);
             ("requests", t.requests);
             ("shed", t.shed);
             ("batches", t.batches);
             ("batched-loops", t.batched_loops);
             ("max-batch", t.max_batch);
             ("batch-cap", t.opts.batch_cap);
             ("batch-window-us", int_of_float (t.opts.batch_window *. 1e6));
             ("reloads", t.reloads);
             ("reload-rejected", t.reload_rejected);
             ("shadow-window", t.opts.shadow_window);
             ("shadow-active", if shadow = None then 0 else 1);
             ("shadow-promoted", t.shadow_promoted);
             ("shadow-rejected", t.shadow_rejected);
             ("shadow-seen", t.shadow_seen_total);
             ("shadow-disagreements", t.shadow_disagreements_total);
             ("frames-corrupt", t.frames_corrupt);
             ("responses-dropped", t.responses_dropped);
           ]
          @ List.init hist_buckets (fun k ->
                (Printf.sprintf "batch-le-%d" (1 lsl k), t.hist.(k)))))
  in
  (* Per-model block: the counters below belong to the service instance,
     which is rebuilt on every (promoted) reload — tagging them with the
     artifact digest makes them unambiguously since-load. *)
  let model =
    [
      ("model-kind", Predict_service.model_kind svc);
      ("model-digest", Predict_service.model_digest svc);
      ( "model-label-space",
        Model_artifact.label_space_name (Predict_service.label_space svc) );
    ]
    @ ints
        [
          ("cache-hits", Predict_service.cache_hits svc);
          ("cache-misses", Predict_service.cache_misses svc);
          ("cache-evictions", Predict_service.cache_evictions svc);
          ("cache-size", Predict_service.cache_size svc);
        ]
  in
  let shadow_model =
    match shadow with
    | None -> []
    | Some sh ->
      [
        ("shadow-model-kind", Predict_service.model_kind sh.sh_service);
        ("shadow-model-digest", Predict_service.model_digest sh.sh_service);
      ]
      @ ints
          [
            ("shadow-window-seen", sh.sh_seen);
            ("shadow-window-disagreements", sh.sh_disagreements);
          ]
  in
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s %s\n" k v) (snapshot @ model @ shadow_model))

(* --- the batcher ---------------------------------------------------------- *)

let bucket_of n =
  let rec go k = if k >= hist_buckets - 1 || n <= 1 lsl k then k else go (k + 1) in
  go 0

let do_reload t replier path =
  let reject e =
    Mutex.protect t.lock (fun () -> t.reload_rejected <- t.reload_rejected + 1);
    tel t "reload-rejected" 1;
    match replier with
    | Some (conn, seq) -> deliver t conn seq (Wire.Failure ("reload rejected: " ^ e))
    | None -> ()
  in
  match
    Predict_service.load ~telemetry:t.telemetry ~cache_capacity:t.opts.cache_capacity
      t.config path
  with
  | Error e -> reject e
  | Ok svc ->
    if t.opts.shadow_window > 0 then begin
      (* Shadow evaluation: the candidate predicts alongside the live
         model for [shadow_window] loops before it may take over.  A
         second reload while one is shadowing replaces the candidate
         (latest wins) and restarts the window. *)
      t.shadow <- Some { sh_service = svc; sh_seen = 0; sh_disagreements = 0 };
      tel t "shadow-started" 1;
      match replier with
      | Some (conn, seq) ->
        deliver t conn seq
          (Wire.Okay
             (Printf.sprintf "shadowing %s (window %d)" (Predict_service.model_kind svc)
                t.opts.shadow_window))
      | None -> ()
    end
    else begin
      (* The swap happens between batches, on the only domain that predicts,
         so no in-flight request ever sees a half-installed model. *)
      t.service <- svc;
      Mutex.protect t.lock (fun () -> t.reloads <- t.reloads + 1);
      tel t "reloads" 1;
      match replier with
      | Some (conn, seq) ->
        deliver t conn seq (Wire.Okay ("reloaded " ^ Predict_service.model_kind svc))
      | None -> ()
    end

(* Pop ready predict items (up to the cap), stopping at a reload boundary so
   reloads stay ordered with the traffic around them.  Lock held. *)
let take_available t acc n blocked =
  let continue = ref true in
  while !continue && !n < t.opts.batch_cap && not (Queue.is_empty t.q) do
    match Queue.peek t.q with
    | Predict_item (c, s, l) ->
      ignore (Queue.pop t.q);
      acc := (c, s, l) :: !acc;
      incr n
    | Reload_item _ ->
      blocked := true;
      continue := false
  done

(* Adaptive micro-batching: the first request opens a bounded window
   ([batch_window]); the batch tops up in small slices while the arrival
   stream keeps flowing, and fires early the moment it pauses (or the cap
   or a reload boundary is hit).  A lone request therefore pays one slice,
   not the whole window; a saturated queue pays nothing. *)
let collect t =
  let acc = ref [] and n = ref 0 and blocked = ref false in
  take_available t acc n blocked;
  Mutex.unlock t.lock;
  if (not !blocked) && !n < t.opts.batch_cap then begin
    let deadline = Unix.gettimeofday () +. t.opts.batch_window in
    let slice = Float.max 1e-5 (t.opts.batch_window /. 8.) in
    let rec top_up () =
      if (not !blocked) && !n < t.opts.batch_cap && Unix.gettimeofday () < deadline
      then begin
        let before = !n in
        Unix.sleepf slice;
        Mutex.protect t.lock (fun () -> take_available t acc n blocked);
        if !n > before then top_up ()
      end
    in
    top_up ()
  end;
  List.rev !acc

(* Shadow-predict the same batch and promote or reject the candidate once
   its warmup window fills.  Runs on the batcher domain, after the live
   answers are known; the candidate's answers are never sent to clients. *)
let run_shadow t sh loops nb (factors : (int array, string) result) =
  match factors with
  | Error _ -> () (* the live model failed; there is nothing to compare against *)
  | Ok fs ->
  let disagreements =
    match
      try Ok (Predict_service.predict_batch ~jobs:t.opts.jobs sh.sh_service loops)
      with e -> Error (Printexc.to_string e)
    with
    | Ok cand ->
      let d = ref 0 in
      Array.iteri (fun i f -> if f <> cand.(i) then incr d) fs;
      !d
    | Error _ -> nb (* a crashing candidate must never be promoted *)
  in
  sh.sh_seen <- sh.sh_seen + nb;
  sh.sh_disagreements <- sh.sh_disagreements + disagreements;
  Mutex.protect t.lock (fun () ->
      t.shadow_seen_total <- t.shadow_seen_total + nb;
      t.shadow_disagreements_total <- t.shadow_disagreements_total + disagreements);
  if disagreements > 0 then tel t "shadow-disagreements" disagreements;
  if sh.sh_seen >= t.opts.shadow_window then begin
    let rate = float_of_int sh.sh_disagreements /. float_of_int (max 1 sh.sh_seen) in
    t.shadow <- None;
    if rate <= t.opts.shadow_threshold then begin
      t.service <- sh.sh_service;
      Mutex.protect t.lock (fun () ->
          t.shadow_promoted <- t.shadow_promoted + 1;
          t.reloads <- t.reloads + 1);
      tel t "shadow-promoted" 1;
      tel t "reloads" 1
    end
    else begin
      Mutex.protect t.lock (fun () -> t.shadow_rejected <- t.shadow_rejected + 1);
      tel t "shadow-rejected" 1
    end
  end

let run_batch t batch =
  let loops = List.map (fun (_, _, l) -> l) batch in
  let nb = List.length batch in
  let factors =
    try Ok (Predict_service.predict_batch ~jobs:t.opts.jobs t.service loops)
    with e -> Error (Printexc.to_string e)
  in
  (match t.shadow with
  | Some sh when nb > 0 -> run_shadow t sh loops nb factors
  | Some _ | None -> ());
  Mutex.protect t.lock (fun () ->
      t.batches <- t.batches + 1;
      t.batched_loops <- t.batched_loops + nb;
      t.hist.(bucket_of nb) <- t.hist.(bucket_of nb) + 1;
      if nb > t.max_batch then t.max_batch <- nb);
  tel t "batches" 1;
  tel t "batched-loops" nb;
  match factors with
  | Ok fs -> List.iteri (fun i (c, s, _) -> deliver t c s (Wire.Factor fs.(i))) batch
  | Error msg -> List.iter (fun (c, s, _) -> deliver t c s (Wire.Failure msg)) batch

let batcher_loop t =
  let rec main () =
    Mutex.lock t.lock;
    while Queue.is_empty t.q && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.q then Mutex.unlock t.lock (* stopping && drained: exit *)
    else begin
      match Queue.peek t.q with
      | Reload_item (replier, path) ->
        ignore (Queue.pop t.q);
        Mutex.unlock t.lock;
        do_reload t replier path;
        main ()
      | Predict_item _ ->
        let batch = collect t in
        (* collect released the lock *)
        run_batch t batch;
        main ()
    end
  in
  main ()

(* --- connections ---------------------------------------------------------- *)

let close_conn t conn =
  Mutex.protect conn.out_lock (fun () -> conn.alive <- false);
  Mutex.protect t.lock (fun () -> Hashtbl.remove t.conns conn.c_id);
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let handle_request t conn seq = function
  | Wire.Predict loop ->
    let verdict =
      Mutex.protect t.lock (fun () ->
          if t.stopping then `Draining
          else if Queue.length t.q >= t.opts.queue_cap then begin
            t.shed <- t.shed + 1;
            `Shed
          end
          else begin
            Queue.push (Predict_item (conn, seq, loop)) t.q;
            t.requests <- t.requests + 1;
            Condition.signal t.nonempty;
            `Queued
          end)
    in
    (match verdict with
    | `Queued -> tel t "requests" 1
    | `Shed ->
      tel t "shed" 1;
      deliver t conn seq Wire.Busy
    | `Draining -> deliver t conn seq (Wire.Failure "server draining"))
  | Wire.Control cmd -> (
    match String.split_on_char ' ' (String.trim cmd) with
    | [ "ping" ] -> deliver t conn seq (Wire.Okay "pong")
    | [ "stats" ] -> deliver t conn seq (Wire.Okay (stats_text t))
    | [ "shutdown" ] ->
      deliver t conn seq (Wire.Okay "draining");
      stop t
    | "reload" :: (_ :: _ as rest) ->
      let path = String.concat " " rest in
      let queued =
        Mutex.protect t.lock (fun () ->
            if t.stopping then false
            else begin
              Queue.push (Reload_item (Some (conn, seq), path)) t.q;
              Condition.signal t.nonempty;
              true
            end)
      in
      if not queued then deliver t conn seq (Wire.Failure "server draining")
    | _ -> deliver t conn seq (Wire.Failure ("unknown control command: " ^ cmd)))

let reader_thread t conn =
  let rd = Wire.reader conn.fd in
  let corrupt () =
    Mutex.protect t.lock (fun () -> t.frames_corrupt <- t.frames_corrupt + 1);
    tel t "frames-corrupt" 1
  in
  let rec loop () =
    match Wire.next rd with
    | `Eof -> ()
    | `Corrupt _ -> corrupt ()
    | `Payload p -> (
      match Wire.parse_request p with
      | Error _ -> corrupt ()
      | Ok req ->
        let seq = conn.next_seq in
        conn.next_seq <- seq + 1;
        handle_request t conn seq req;
        loop ())
  in
  loop ();
  close_conn t conn

(* --- the accept loop and graceful drain ----------------------------------- *)

let accept_one t =
  match Unix.accept t.listener with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
  | fd, _ ->
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let conn =
      Mutex.protect t.lock (fun () ->
          let id = t.next_conn_id in
          t.next_conn_id <- id + 1;
          t.accepted <- t.accepted + 1;
          let conn =
            {
              c_id = id;
              fd;
              out_lock = Mutex.create ();
              out_buf = Hashtbl.create 8;
              next_out = 0;
              next_seq = 0;
              alive = true;
            }
          in
          Hashtbl.replace t.conns id conn;
          conn)
    in
    tel t "accepted" 1;
    ignore (Thread.create (fun () -> reader_thread t conn) ())

let run t =
  t.batcher <- Some (Domain.spawn (fun () -> batcher_loop t));
  let rec accept_loop () =
    (match Atomic.exchange t.reload_flag None with
    | Some path ->
      Mutex.protect t.lock (fun () ->
          Queue.push (Reload_item (None, path)) t.q;
          Condition.signal t.nonempty)
    | None -> ());
    if Atomic.get t.stop_flag then
      Mutex.protect t.lock (fun () ->
          t.stopping <- true;
          Condition.broadcast t.nonempty)
    else begin
      (match Unix.select [ t.listener ] [] [] 0.1 with
      | [ _ ], _, _ -> accept_one t
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Drain: the batcher empties the queue (readers now refuse new work),
     then connections get [drain_timeout] to close on their own before
     being forced.  Every queued request has been answered by the time the
     batcher joins. *)
  (match t.batcher with
  | Some d ->
    Domain.join d;
    t.batcher <- None
  | None -> ());
  let deadline = Unix.gettimeofday () +. t.opts.drain_timeout in
  let active () = Mutex.protect t.lock (fun () -> Hashtbl.length t.conns) in
  while active () > 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  if active () > 0 then begin
    (* Readers own their fds; shutdown wakes their blocking reads and each
       cleans itself up. *)
    Mutex.protect t.lock (fun () ->
        Hashtbl.iter
          (fun _ c ->
            try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          t.conns);
    let force_deadline = Unix.gettimeofday () +. 1.0 in
    while active () > 0 && Unix.gettimeofday () < force_deadline do
      Unix.sleepf 0.01
    done
  end;
  try Unix.close t.listener with Unix.Unix_error _ -> ()
