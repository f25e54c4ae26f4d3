(* lib/serve: wire-codec round-trip and damage properties, and the
   concurrent prediction server — multi-client bit-identity, explicit
   backpressure, hot reload under load (including a corrupt artifact), and
   graceful drain with zero dropped responses. *)

let fixture_config = { Config.fast with Config.scale = 0.05; jobs = 2 }

(* `dune runtest` runs from _build/default/test; `dune exec test/test_main.exe`
   from the project root. *)
let fixture name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local else Filename.concat "test/fixtures" name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- wire codec properties ------------------------------------------------ *)

let gen_request seed =
  if seed mod 4 = 0 then
    Wire.Control
      (match seed mod 3 with
      | 0 -> "ping"
      | 1 -> "reload some path with spaces"
      | _ -> "stats")
  else Wire.Predict (Fuzz_gen.synth_loop seed)

let gen_response seed =
  match seed mod 4 with
  | 0 -> Wire.Factor (1 + (seed mod Unroll.max_factor))
  | 1 -> Wire.Busy
  | 2 -> Wire.Okay (String.concat "\n" [ "stats"; string_of_int seed; "" ])
  | _ -> Wire.Failure (Printf.sprintf "error %d" seed)

let prop_request_roundtrip =
  QCheck.Test.make ~count:40 ~name:"wire request roundtrips through a frame"
    QCheck.small_int (fun seed ->
      let r = gen_request seed in
      let payload = Wire.request_payload r in
      let frame = Wire.encode payload in
      match Wire.decode frame with
      | Wire.Payload (p, consumed) ->
        consumed = String.length frame
        && p = payload
        && Wire.parse_request p = Ok r
      | _ -> false)

let prop_response_roundtrip =
  QCheck.Test.make ~count:40 ~name:"wire response roundtrips through a frame"
    QCheck.small_int (fun seed ->
      let r = gen_response seed in
      let frame = Wire.encode (Wire.response_payload r) in
      match Wire.decode frame with
      | Wire.Payload (p, _) -> Wire.parse_response p = Ok r
      | _ -> false)

let prop_torn_frame_incomplete =
  QCheck.Test.make ~count:25 ~name:"every proper frame prefix decodes Incomplete"
    QCheck.small_int (fun seed ->
      let frame = Wire.encode (Wire.request_payload (gen_request seed)) in
      let n = String.length frame in
      (* The interesting cut points: inside the length prefix, inside the
         digest, and a few spots inside the payload. *)
      let cuts = [ 0; 1; 3; 4; 12; 19; 20; n / 2; n - 1 ] in
      List.for_all
        (fun k ->
          k >= n
          || Wire.decode (String.sub frame 0 k) = Wire.Incomplete)
        cuts)

let prop_interior_corruption_rejected =
  QCheck.Test.make ~count:25
    ~name:"flipping any byte after the length prefix is Corrupt"
    QCheck.(pair small_int small_int)
    (fun (seed, at) ->
      let frame = Wire.encode (Wire.request_payload (gen_request seed)) in
      let n = String.length frame in
      (* Positions 0..3 are the length prefix (a flip there may just look
         Incomplete); everything after is covered by the digest. *)
      let pos = 4 + (at mod (n - 4)) in
      let b = Bytes.of_string frame in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x41));
      match Wire.decode (Bytes.to_string b) with
      | Wire.Corrupt _ -> true
      | Wire.Payload _ | Wire.Incomplete -> false)

let test_frame_stream () =
  let r1 = gen_request 1 and r2 = gen_request 2 in
  let buf = Wire.encode (Wire.request_payload r1) ^ Wire.encode (Wire.request_payload r2) in
  match Wire.decode buf with
  | Wire.Payload (p1, c1) -> (
    Alcotest.(check bool) "first frame parses" true (Wire.parse_request p1 = Ok r1);
    match Wire.decode ~pos:c1 buf with
    | Wire.Payload (p2, c2) ->
      Alcotest.(check bool) "second frame parses" true (Wire.parse_request p2 = Ok r2);
      Alcotest.(check int) "stream fully consumed" (String.length buf) (c1 + c2)
    | _ -> Alcotest.fail "second frame did not decode")
  | _ -> Alcotest.fail "first frame did not decode"

let test_oversized_length_rejected () =
  let b = Bytes.make 24 '\x00' in
  Bytes.set b 0 '\x7f';
  match Wire.decode (Bytes.to_string b) with
  | Wire.Corrupt msg ->
    Alcotest.(check bool) ("names the cap: " ^ msg) true (contains ~sub:"cap" msg)
  | _ -> Alcotest.fail "absurd length prefix accepted"

let test_reader_over_socketpair () =
  (* [Wire.next] over a real socket: reads arrive in arbitrary pieces.  The
     receive timeout turns a reader that waits for bytes never sent into a
     failure instead of a hang. *)
  let with_pair f =
    let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.setsockopt_float r Unix.SO_RCVTIMEO 10.0;
    Fun.protect
      ~finally:(fun () ->
        Unix.close w;
        Unix.close r)
      (fun () -> f w (Wire.reader r))
  in
  let write_all fd s =
    let off = ref 0 in
    while !off < String.length s do
      off := !off + Unix.write_substring fd s !off (String.length s - !off)
    done
  in
  (* A frame at the payload cap, trickled in 1,500-byte writes. *)
  with_pair (fun w rd ->
      let payload = String.init Wire.max_payload (fun i -> Char.chr ((i * 31) land 0xff)) in
      let frame = Wire.encode payload in
      let writer =
        Thread.create
          (fun () ->
            let off = ref 0 in
            while !off < String.length frame do
              let n = min 1500 (String.length frame - !off) in
              write_all w (String.sub frame !off n);
              off := !off + n
            done)
          ()
      in
      let got = Wire.next rd in
      Thread.join writer;
      match got with
      | `Payload p -> Alcotest.(check bool) "cap-sized payload intact" true (p = payload)
      | `Corrupt msg -> Alcotest.fail ("cap-sized frame: " ^ msg)
      | `Eof -> Alcotest.fail "cap-sized frame: eof");
  (* Two frames in one write come out as two payloads, then end of stream. *)
  with_pair (fun w rd ->
      write_all w (Wire.encode "first" ^ Wire.encode "second");
      Unix.shutdown w Unix.SHUTDOWN_SEND;
      let show = function
        | `Payload p -> "payload " ^ p
        | `Corrupt msg -> "corrupt " ^ msg
        | `Eof -> "eof"
      in
      List.iter
        (fun want -> Alcotest.(check string) "frame sequence" want (show (Wire.next rd)))
        [ "payload first"; "payload second"; "eof" ]);
  (* A length past the cap is refused from the prefix alone: no body is
     ever sent, so a reader that waited for one would time out. *)
  with_pair (fun w rd ->
      let prefix = Bytes.create 4 in
      Bytes.set_int32_be prefix 0 (Int32.of_int (Wire.max_payload + 1));
      write_all w (Bytes.to_string prefix);
      match Wire.next rd with
      | `Corrupt msg -> Alcotest.(check bool) ("names the cap: " ^ msg) true (contains ~sub:"cap" msg)
      | `Payload _ | `Eof -> Alcotest.fail "oversized length prefix accepted")

(* --- server harness ------------------------------------------------------- *)

let default_test_opts =
  {
    Serve.default_opts with
    Serve.port = 0;
    jobs = 2;
    batch_window = 0.001;
    batch_cap = 16;
    queue_cap = 256;
    drain_timeout = 10.0;
  }

let start_server ?(opts = default_test_opts) ?(artifact = "golden_nn.artifact") () =
  match
    Serve.listen ~opts ~telemetry:(Telemetry.create ()) fixture_config
      ~artifact:(fixture artifact)
  with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let th = Thread.create Serve.run t in
    (t, th, Printf.sprintf "127.0.0.1:%d" (Serve.port t))

let shutdown_server th addr =
  (match Serve_client.connect addr with
  | Ok c ->
    (match Serve_client.control c "shutdown" with
    | Ok (Wire.Okay _) -> ()
    | Ok r -> Alcotest.fail ("shutdown response: " ^ Wire.response_payload r)
    | Error e -> Alcotest.fail ("shutdown: " ^ e));
    Serve_client.close c
  | Error e -> Alcotest.fail ("shutdown connect: " ^ e));
  Thread.join th

let connect_exn addr =
  match Serve_client.connect addr with Ok c -> c | Error e -> Alcotest.fail e

let stats_exn addr =
  let c = connect_exn addr in
  Fun.protect
    ~finally:(fun () -> Serve_client.close c)
    (fun () ->
      match Serve_client.control c "stats" with
      | Ok (Wire.Okay text) ->
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ k; v ] -> Option.map (fun n -> (k, n)) (int_of_string_opt v)
            | _ -> None)
          (String.split_on_char '\n' text)
      | Ok r -> Alcotest.fail ("stats response: " ^ Wire.response_payload r)
      | Error e -> Alcotest.fail ("stats: " ^ e))

let stat assoc key = Option.value ~default:0 (List.assoc_opt key assoc)

let local_expected artifact loops =
  let a =
    match Model_artifact.load (fixture artifact) with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let s =
    match Predict_service.create fixture_config a with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Predict_service.predict_batch s loops

let kernel_loops () = List.map (fun (name, maker) -> maker ~name ~trip:256) Kernels.all

(* --- multi-client bit-identity -------------------------------------------- *)

let test_multi_client_bit_identical () =
  (* Kernels plus structured adversarial loops: remainder-edge trips,
     recurrences, alias traffic, indirect references. *)
  let loops =
    kernel_loops ()
    @ List.init 64 (fun i ->
          Fuzz_gen.loop (Rng.derive 2005 "serve" i) Fuzz_gen.default ~id:i
            ~factor:(1 + (i mod Unroll.max_factor))
            ~name:(Printf.sprintf "fz%d" i))
  in
  let expected = local_expected "golden_nn.artifact" loops in
  let _t, th, addr = start_server () in
  let n_clients = 6 in
  let failures = Array.make n_clients "" in
  let threads =
    List.init n_clients (fun k ->
        Thread.create
          (fun () ->
            match Serve_client.connect addr with
            | Error e -> failures.(k) <- e
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Serve_client.close c)
                (fun () ->
                  (* Pipelined: responses must come back in request order. *)
                  match Serve_client.predict_all ~depth:8 c loops with
                  | Error e -> failures.(k) <- e
                  | Ok responses ->
                    Array.iteri
                      (fun i r ->
                        if r <> Wire.Factor expected.(i) && failures.(k) = "" then
                          failures.(k) <-
                            Printf.sprintf "client %d: loop %d mismatched" k i)
                      responses))
          ())
  in
  List.iter Thread.join threads;
  Array.iter (fun f -> if f <> "" then Alcotest.fail f) failures;
  let stats = stats_exn addr in
  Alcotest.(check int)
    "every request was answered from a batch"
    (n_clients * List.length loops)
    (stat stats "batched-loops");
  Alcotest.(check bool) "nothing was shed" true (stat stats "shed" = 0);
  Alcotest.(check bool) "no responses were dropped" true
    (stat stats "responses-dropped" = 0);
  shutdown_server th addr

(* --- backpressure ---------------------------------------------------------- *)

let test_backpressure_sheds_explicitly () =
  (* A deliberately slow, tiny server: batches of 1 with a long window and a
     2-deep queue, hammered with a deep pipeline — admission control must
     answer Busy, never hang or drop. *)
  let opts =
    {
      default_test_opts with
      Serve.batch_cap = 1;
      batch_window = 0.01;
      queue_cap = 2;
    }
  in
  let loops = kernel_loops () in
  let expected = local_expected "golden_nn.artifact" loops in
  let _t, th, addr = start_server ~opts () in
  let n = 60 in
  let c = connect_exn addr in
  let responses =
    Fun.protect
      ~finally:(fun () -> Serve_client.close c)
      (fun () ->
        match
          Serve_client.predict_all ~depth:n c
            (List.init n (fun i -> List.nth loops (i mod List.length loops)))
        with
        | Ok rs -> rs
        | Error e -> Alcotest.fail e)
  in
  Alcotest.(check int) "every request got a response" n (Array.length responses);
  let factors = ref 0 and busy = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Wire.Factor f ->
        incr factors;
        Alcotest.(check int)
          (Printf.sprintf "response %d bit-identical" i)
          expected.(i mod List.length loops)
          f
      | Wire.Busy -> incr busy
      | r -> Alcotest.fail ("unexpected response: " ^ Wire.response_payload r))
    responses;
  Alcotest.(check bool) "some requests were shed" true (!busy > 0);
  Alcotest.(check bool) "some requests were served" true (!factors > 0);
  let stats = stats_exn addr in
  Alcotest.(check int) "server counted the sheds" !busy (stat stats "shed");
  shutdown_server th addr

(* --- hot reload under load ------------------------------------------------- *)

let test_hot_reload_under_load () =
  let loops = Array.of_list (kernel_loops ()) in
  let expected_nn = local_expected "golden_nn.artifact" (Array.to_list loops) in
  let expected_svm = local_expected "golden_svm.artifact" (Array.to_list loops) in
  let _t, th, addr = start_server ~artifact:"golden_nn.artifact" () in
  let n_clients = 4 and rounds = 12 in
  let failures = Array.make n_clients "" in
  let answered = Array.make n_clients 0 in
  let threads =
    List.init n_clients (fun k ->
        Thread.create
          (fun () ->
            match Serve_client.connect addr with
            | Error e -> failures.(k) <- e
            | Ok c ->
              Fun.protect
                ~finally:(fun () -> Serve_client.close c)
                (fun () ->
                  try
                    for r = 0 to rounds - 1 do
                      Array.iteri
                        (fun i loop ->
                          match Serve_client.predict c loop with
                          | Ok (Wire.Factor f) ->
                            answered.(k) <- answered.(k) + 1;
                            (* During the swap either model may answer, but
                               never anything else. *)
                            if f <> expected_nn.(i) && f <> expected_svm.(i) then begin
                              failures.(k) <-
                                Printf.sprintf "round %d loop %d: factor %d from \
                                                neither model" r i f;
                              raise Exit
                            end
                          | Ok resp ->
                            failures.(k) <-
                              "unexpected response: " ^ Wire.response_payload resp;
                            raise Exit
                          | Error e ->
                            failures.(k) <- e;
                            raise Exit)
                        loops
                    done
                  with Exit -> ()))
          ())
  in
  (* Mid-load: swap to the SVM artifact, then try to swap to a corrupt one
     (which must be rejected while the SVM keeps serving). *)
  Thread.delay 0.05;
  let ctl = connect_exn addr in
  (match Serve_client.control ctl ("reload " ^ fixture "golden_svm.artifact") with
  | Ok (Wire.Okay msg) ->
    Alcotest.(check bool) ("reload names the model: " ^ msg) true (contains ~sub:"svm" msg)
  | Ok r -> Alcotest.fail ("reload response: " ^ Wire.response_payload r)
  | Error e -> Alcotest.fail ("reload: " ^ e));
  let corrupt_path = Filename.temp_file "unrollml_serve" ".artifact" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists corrupt_path then Sys.remove corrupt_path)
    (fun () ->
      let text = read_file (fixture "golden_nn.artifact") in
      write_file corrupt_path (String.sub text 0 (String.length text / 2));
      (match Serve_client.control ctl ("reload " ^ corrupt_path) with
      | Ok (Wire.Failure msg) ->
        Alcotest.(check bool)
          ("rejection names the reload: " ^ msg)
          true
          (contains ~sub:"reload rejected" msg)
      | Ok r -> Alcotest.fail ("corrupt reload accepted: " ^ Wire.response_payload r)
      | Error e -> Alcotest.fail ("corrupt reload: " ^ e));
      List.iter Thread.join threads;
      Array.iter (fun f -> if f <> "" then Alcotest.fail f) failures;
      (* Zero dropped: every synchronous request of every client came back. *)
      Array.iteri
        (fun k n ->
          Alcotest.(check int)
            (Printf.sprintf "client %d got every response" k)
            (rounds * Array.length loops)
            n)
        answered;
      (* Steady state after the swap: the SVM answers, bit-identically. *)
      Array.iteri
        (fun i loop ->
          match Serve_client.predict ctl loop with
          | Ok (Wire.Factor f) ->
            Alcotest.(check int) (Printf.sprintf "post-reload loop %d" i) expected_svm.(i) f
          | Ok r -> Alcotest.fail ("post-reload: " ^ Wire.response_payload r)
          | Error e -> Alcotest.fail ("post-reload: " ^ e))
        loops;
      let stats = stats_exn addr in
      Alcotest.(check int) "one reload landed" 1 (stat stats "reloads");
      Alcotest.(check int) "one reload was rejected" 1 (stat stats "reload-rejected");
      Alcotest.(check int) "no responses dropped across the swap" 0
        (stat stats "responses-dropped"));
  Serve_client.close ctl;
  shutdown_server th addr

(* --- shadow evaluation ------------------------------------------------------ *)

let stats_raw_exn addr =
  let c = connect_exn addr in
  Fun.protect
    ~finally:(fun () -> Serve_client.close c)
    (fun () ->
      match Serve_client.control c "stats" with
      | Ok (Wire.Okay text) -> text
      | Ok r -> Alcotest.fail ("stats response: " ^ Wire.response_payload r)
      | Error e -> Alcotest.fail ("stats: " ^ e))

let reload_expect_shadow c path =
  match Serve_client.control c ("reload " ^ path) with
  | Ok (Wire.Okay msg) ->
    Alcotest.(check bool) ("reload enters shadow: " ^ msg) true (contains ~sub:"shadowing" msg)
  | Ok r -> Alcotest.fail ("reload response: " ^ Wire.response_payload r)
  | Error e -> Alcotest.fail ("reload: " ^ e)

let drive_round c loops expected =
  List.iteri
    (fun i loop ->
      match Serve_client.predict c loop with
      | Ok (Wire.Factor f) ->
        Alcotest.(check int) (Printf.sprintf "loop %d served by live model" i) expected.(i) f
      | Ok r -> Alcotest.fail ("predict: " ^ Wire.response_payload r)
      | Error e -> Alcotest.fail ("predict: " ^ e))
    loops

(* Pump prediction traffic until the shadow window resolves one way or the
   other; every answer along the way must come from the live model. *)
let pump_until_resolved c addr loops expected =
  let rec go n =
    if n = 0 then Alcotest.fail "shadow window never resolved";
    drive_round c loops expected;
    let st = stats_exn addr in
    if stat st "shadow-promoted" + stat st "shadow-rejected" = 0 then go (n - 1)
  in
  go 30

let test_shadow_promotes_matching_candidate () =
  Alcotest.(check int) "shadowing is off by default" 0 Serve.default_opts.Serve.shadow_window;
  let loops = kernel_loops () in
  let expected = local_expected "golden_nn.artifact" loops in
  let opts = { default_test_opts with Serve.shadow_window = 8; shadow_threshold = 0.0 } in
  let _t, th, addr = start_server ~opts ~artifact:"golden_nn.artifact" () in
  let c = connect_exn addr in
  (* A candidate with identical predictions (the same artifact) must ride
     out the window without a single disagreement and be promoted. *)
  reload_expect_shadow c (fixture "golden_nn.artifact");
  Alcotest.(check int) "shadow started" 1 (stat (stats_exn addr) "shadow-active");
  pump_until_resolved c addr loops expected;
  let st = stats_exn addr in
  Alcotest.(check int) "promoted" 1 (stat st "shadow-promoted");
  Alcotest.(check int) "not rejected" 0 (stat st "shadow-rejected");
  Alcotest.(check int) "zero disagreements" 0 (stat st "shadow-disagreements");
  Alcotest.(check int) "promotion counts as a reload" 1 (stat st "reloads");
  Alcotest.(check int) "shadow cleared" 0 (stat st "shadow-active");
  drive_round c loops expected;
  Serve_client.close c;
  shutdown_server th addr

let test_shadow_rejects_divergent_candidate () =
  let loops = kernel_loops () in
  let expected_nn = local_expected "golden_nn.artifact" loops in
  let expected_svm = local_expected "golden_svm.artifact" loops in
  (* The rejection path is only exercised if the fixtures actually
     disagree somewhere — fail loudly if they ever converge. *)
  Alcotest.(check bool) "fixtures disagree somewhere" true (expected_nn <> expected_svm);
  let opts = { default_test_opts with Serve.shadow_window = 8; shadow_threshold = 0.0 } in
  let _t, th, addr = start_server ~opts ~artifact:"golden_nn.artifact" () in
  let c = connect_exn addr in
  reload_expect_shadow c (fixture "golden_svm.artifact");
  (* While the SVM shadows, and after it is rejected, every answer is the
     live NN's — the candidate's answers are never sent. *)
  pump_until_resolved c addr loops expected_nn;
  let st = stats_exn addr in
  Alcotest.(check int) "rejected" 1 (stat st "shadow-rejected");
  Alcotest.(check int) "not promoted" 0 (stat st "shadow-promoted");
  Alcotest.(check bool) "disagreements counted" true (stat st "shadow-disagreements" > 0);
  Alcotest.(check int) "no reload landed" 0 (stat st "reloads");
  Alcotest.(check bool) "live model still the NN" true
    (contains ~sub:"model-kind nn" (stats_raw_exn addr));
  drive_round c loops expected_nn;
  Serve_client.close c;
  shutdown_server th addr

(* --- a malformed artifact is rejected, not served -------------------------- *)

let test_malformed_reload_rejected () =
  (* Checksum-valid but with an empty NN database: the reload must be
     rejected with a typed error, and the live model must keep answering
     on a fresh connection. *)
  let loops = kernel_loops () in
  let expected = local_expected "golden_nn.artifact" loops in
  let _t, th, addr = start_server ~artifact:"golden_nn.artifact" () in
  let path = Filename.temp_file "unrollml_serve" ".artifact" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      write_file path
        (Test_store.resealed "golden_nn.artifact"
           (List.filter (fun l -> not (String.starts_with ~prefix:"point " l))));
      let ctl = connect_exn addr in
      (match Serve_client.control ctl ("reload " ^ path) with
      | Ok (Wire.Failure msg) ->
        Alcotest.(check bool) ("rejection names the reload: " ^ msg) true
          (contains ~sub:"reload rejected" msg)
      | Ok r -> Alcotest.fail ("malformed reload accepted: " ^ Wire.response_payload r)
      | Error e -> Alcotest.fail ("malformed reload: " ^ e));
      Serve_client.close ctl;
      let c = connect_exn addr in
      drive_round c loops expected;
      Serve_client.close c;
      Alcotest.(check int) "reload counted as rejected" 1
        (stat (stats_exn addr) "reload-rejected"));
  shutdown_server th addr

(* --- corrupt frames kill the connection, not the server -------------------- *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let test_corrupt_frame_kills_connection_only () =
  let loops = kernel_loops () in
  let expected = local_expected "golden_nn.artifact" loops in
  let t, th, addr = start_server () in
  (* A healthy connection, exercised before and after the damage. *)
  let a = connect_exn addr in
  (match Serve_client.predict a (List.hd loops) with
  | Ok (Wire.Factor f) -> Alcotest.(check int) "A predicts before damage" expected.(0) f
  | _ -> Alcotest.fail "A's first predict failed");
  (* A raw connection pushing a digest-corrupt frame: the server must close
     it without answering. *)
  let fd = raw_connect (Serve.port t) in
  let frame =
    Bytes.of_string (Wire.encode (Wire.request_payload (Wire.Control "ping")))
  in
  let last = Bytes.length frame - 1 in
  Bytes.set frame last (Char.chr (Char.code (Bytes.get frame last) lxor 0xff));
  let written = Unix.write fd frame 0 (Bytes.length frame) in
  Alcotest.(check int) "corrupt frame fully written" (Bytes.length frame) written;
  let got =
    try Unix.read fd (Bytes.create 64) 0 64
    with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  Alcotest.(check int) "server closed the damaged connection" 0 got;
  Unix.close fd;
  (* A torn frame — half a frame then EOF — is damage on that connection
     too, and must not take the server with it. *)
  let fd2 = raw_connect (Serve.port t) in
  let half = Bytes.length frame / 2 in
  ignore (Unix.write fd2 frame 0 half);
  Unix.close fd2;
  (* ...while connection A and the server itself keep working. *)
  (match Serve_client.control a "ping" with
  | Ok (Wire.Okay _) -> ()
  | _ -> Alcotest.fail "A's ping after damage failed");
  (match Serve_client.predict a (List.hd loops) with
  | Ok (Wire.Factor f) -> Alcotest.(check int) "A predicts after damage" expected.(0) f
  | _ -> Alcotest.fail "A's predict after damage failed");
  Serve_client.close a;
  let stats = stats_exn addr in
  Alcotest.(check bool) "the damage was counted" true (stat stats "frames-corrupt" >= 1);
  shutdown_server th addr

(* --- graceful drain --------------------------------------------------------- *)

let test_graceful_drain_answers_everything () =
  let loops = kernel_loops () in
  let expected = local_expected "golden_nn.artifact" loops in
  let _t, th, addr = start_server () in
  let c = connect_exn addr in
  let n = 120 in
  (* Pipeline a deep burst, then ask for shutdown on the same connection —
     every queued request must still be answered, in order, before the
     drain acknowledgement. *)
  for i = 0 to n - 1 do
    match Serve_client.send c (Wire.Predict (List.nth loops (i mod List.length loops))) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  (match Serve_client.send c (Wire.Control "shutdown") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  for i = 0 to n - 1 do
    match Serve_client.recv c with
    | Ok (Wire.Factor f) ->
      Alcotest.(check int)
        (Printf.sprintf "drained response %d" i)
        expected.(i mod List.length loops)
        f
    | Ok Wire.Busy -> () (* admission control may shed under the burst *)
    | Ok r -> Alcotest.fail ("drain response: " ^ Wire.response_payload r)
    | Error e -> Alcotest.fail ("drain: " ^ e)
  done;
  (match Serve_client.recv c with
  | Ok (Wire.Okay msg) ->
    Alcotest.(check bool) ("drain ack last: " ^ msg) true (contains ~sub:"drain" msg)
  | Ok r -> Alcotest.fail ("expected drain ack, got " ^ Wire.response_payload r)
  | Error e -> Alcotest.fail ("drain ack: " ^ e));
  Serve_client.close c;
  Thread.join th

let suite =
  [
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_torn_frame_incomplete;
    QCheck_alcotest.to_alcotest prop_interior_corruption_rejected;
    ("frame stream decodes in sequence", `Quick, test_frame_stream);
    ("oversized length prefix rejected", `Quick, test_oversized_length_rejected);
    ("reader reassembles frames from a socket", `Quick, test_reader_over_socketpair);
    ("multi-client bit-identical", `Slow, test_multi_client_bit_identical);
    ("backpressure sheds explicitly", `Slow, test_backpressure_sheds_explicitly);
    ("hot reload under load", `Slow, test_hot_reload_under_load);
    ("shadow promotes matching candidate", `Slow, test_shadow_promotes_matching_candidate);
    ("shadow rejects divergent candidate", `Slow, test_shadow_rejects_divergent_candidate);
    ("malformed reload rejected", `Slow, test_malformed_reload_rejected);
    ("corrupt frame kills only its connection", `Slow, test_corrupt_frame_kills_connection_only);
    ("graceful drain answers everything", `Slow, test_graceful_drain_answers_everything);
  ]
