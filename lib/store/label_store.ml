exception Injected_crash

let header = "unrollml-journal v1\n"

type t = {
  path : string;
  mutex : Mutex.t;
  mutable fd : Unix.file_descr option;
  entries : (string * int, int) Hashtbl.t;  (* (key, factor) -> cycles *)
  telemetry : Telemetry.t;
  recovered : int;
  truncated : int;
  mutable crash_in : int;  (* records until injected crash; -1 = disabled *)
  mutable crashed : bool;  (* injected crash fired: no further writes land *)
}

(* --- record framing -----------------------------------------------------

   One record per line:  R <digest> <key> <factor> <cycles>
   where <digest> is the hex MD5 of "<key> <factor> <cycles>".  A record
   is valid iff the line parses and the digest matches; anything else is
   damage.  Appends write whole lines and fsync, so a crash can only tear
   the final line. *)

let payload ~key ~factor ~cycles = Printf.sprintf "%s %d %d" key factor cycles

let record_line ~key ~factor ~cycles =
  let p = payload ~key ~factor ~cycles in
  Printf.sprintf "R %s %s\n" (Digest.to_hex (Digest.string p)) p

let parse_record line =
  match String.split_on_char ' ' line with
  | [ "R"; digest; key; factor; cycles ] -> (
    match (int_of_string_opt factor, int_of_string_opt cycles) with
    | Some f, Some c ->
      if Digest.to_hex (Digest.string (payload ~key ~factor:f ~cycles:c)) = digest then
        Some (key, f, c)
      else None
    | _ -> None)
  | _ -> None

(* --- recovery ----------------------------------------------------------- *)

type recovery = {
  r_entries : (string * int * int) list;  (* reverse order *)
  r_count : int;
  r_keep : int;        (* byte offset of the end of the last valid record *)
  r_torn : int;        (* bytes after [r_keep] (the torn tail) *)
}

exception Corrupt of string

(* Scan the journal body line by line.  Valid records accumulate; the
   first invalid chunk is tolerated only if nothing valid follows it (a
   torn tail).  An invalid chunk with valid records after it is interior
   corruption — impossible under crash-only damage — and rejects the
   whole journal. *)
let scan body start =
  let n = String.length body in
  let acc = ref [] and count = ref 0 in
  let keep = ref start and pos = ref start in
  let bad_at = ref None in
  while !pos < n do
    let line_end = try String.index_from body !pos '\n' with Not_found -> n in
    let complete = line_end < n in
    let line = String.sub body !pos (line_end - !pos) in
    (match (parse_record line, complete) with
    | Some (key, f, c), true -> (
      match !bad_at with
      | None ->
        acc := (key, f, c) :: !acc;
        incr count;
        keep := line_end + 1
      | Some off ->
        raise
          (Corrupt
             (Printf.sprintf "interior corruption at byte %d (valid record follows at byte %d)"
                off !pos)))
    | Some _, false | None, _ ->
      (* Incomplete final line, or an unparseable chunk: record where the
         damage starts; only fatal if another valid record follows. *)
      if !bad_at = None then bad_at := Some !pos);
    pos := line_end + 1
  done;
  { r_entries = !acc; r_count = !count; r_keep = !keep; r_torn = n - !keep }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let open_ ?(telemetry = Telemetry.global) path =
  try
    let existing = Sys.file_exists path in
    let contents = if existing then read_file path else "" in
    let recovery =
      if contents = "" then { r_entries = []; r_count = 0; r_keep = String.length header; r_torn = 0 }
      else begin
        let hlen = String.length header in
        if String.length contents < hlen || String.sub contents 0 hlen <> header then
          raise (Corrupt "not a label journal (bad header)");
        scan contents hlen
      end
    in
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
    (* Truncate the torn tail (or stamp the header into a fresh file),
       leaving the file at exactly the last valid record. *)
    if contents = "" then begin
      ignore (Unix.write_substring fd header 0 (String.length header));
      Unix.fsync fd
    end
    else if recovery.r_torn > 0 then begin
      Unix.ftruncate fd recovery.r_keep;
      Unix.fsync fd
    end;
    ignore (Unix.lseek fd 0 Unix.SEEK_END);
    let entries = Hashtbl.create 1024 in
    (* r_entries is newest-first; [replace] walking oldest-first keeps the
       last write for duplicate (key, factor) records. *)
    List.iter (fun (k, f, c) -> Hashtbl.replace entries (k, f) c) (List.rev recovery.r_entries);
    Telemetry.incr telemetry ~pass:"label-store" "records-recovered" recovery.r_count;
    Telemetry.incr telemetry ~pass:"label-store" "truncated-bytes" recovery.r_torn;
    Ok
      {
        path;
        mutex = Mutex.create ();
        fd = Some fd;
        entries;
        telemetry;
        recovered = recovery.r_count;
        truncated = recovery.r_torn;
        crash_in = -1;
        crashed = false;
      }
  with
  | Corrupt msg -> Error (Printf.sprintf "Label_store: %s: %s" path msg)
  | Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "Label_store: %s: %s" path (Unix.error_message e))
  | Sys_error msg -> Error ("Label_store: " ^ msg)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let close t =
  locked t (fun () ->
      match t.fd with
      | Some fd ->
        Unix.close fd;
        t.fd <- None
      | None -> ())

let path t = t.path

(* Not built from [Loop.digest]/[Machine.digest] like the in-memory cache
   keys: these bytes are persisted in every journal (the golden fixture
   journal and the benchmark's train workload pin them), so the tuple
   marshalled here must not change. *)
let sweep_key ~machine ~swp ~noise ~noise_seed ~runs ~max_sim_iters ~bench ~index
    (loop : Loop.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( { loop with Loop.name = "" },
            machine,
            swp,
            noise,
            noise_seed,
            runs,
            max_sim_iters,
            bench,
            index )
          []))

let find t ~key ~factor = locked t (fun () -> Hashtbl.find_opt t.entries (key, factor))

let find_sweep t ~key ~n_factors =
  locked t (fun () ->
      let out = Array.make n_factors 0 in
      let complete = ref true in
      for f = 1 to n_factors do
        match Hashtbl.find_opt t.entries (key, f) with
        | Some c -> out.(f - 1) <- c
        | None -> complete := false
      done;
      if !complete then Some out else None)

let fd_exn t = match t.fd with Some fd -> fd | None -> invalid_arg "Label_store: closed"

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let append_sweep t ~key cycles =
  locked t (fun () ->
      (* Once the injected crash has fired, the store is as dead as the
         process it simulates: a real SIGKILL stops every writer at once,
         so later appends from still-running workers must not land after
         the torn record (they would turn tail damage into interior
         corruption, which recovery rightly rejects). *)
      if t.crashed then raise Injected_crash;
      let fd = fd_exn t in
      let buf = Buffer.create 512 in
      let crashed = ref false in
      Array.iteri
        (fun i c ->
          if not !crashed then begin
            let line = record_line ~key ~factor:(i + 1) ~cycles:c in
            if t.crash_in = 0 then begin
              (* Fault injection: tear this record in half and die, like a
                 SIGKILL landing between write and fsync. *)
              Buffer.add_string buf (String.sub line 0 (String.length line / 2));
              t.crash_in <- -1;
              t.crashed <- true;
              crashed := true
            end
            else begin
              if t.crash_in > 0 then t.crash_in <- t.crash_in - 1;
              Buffer.add_string buf line;
              Hashtbl.replace t.entries (key, i + 1) c
            end
          end)
        cycles;
      write_all fd (Buffer.contents buf);
      if !crashed then raise Injected_crash;
      Unix.fsync fd;
      Telemetry.incr t.telemetry ~pass:"label-store" "records-appended" (Array.length cycles))

let size t = locked t (fun () -> Hashtbl.length t.entries)
let recovered_records t = t.recovered
let truncated_bytes t = t.truncated
let inject_crash_after t n = locked t (fun () -> t.crash_in <- n)

(* --- tail following ------------------------------------------------------

   A follower is a read-only cursor over someone else's live journal: it
   delivers every valid record exactly once, in file order, blocking (by
   polling) until the writer fsyncs more.  Position tracking gives the
   exactly-once guarantee — [f_pos] only ever advances past records that
   have been handed to the caller or buffered for it.

   Each poll re-reads [f_pos, EOF) and applies the same classification as
   {!scan}: the valid prefix is buffered and [f_pos] advances past it; an
   invalid chunk with a valid record after it raises {!Corrupt} exactly
   like recovery; an invalid or incomplete *tail* is simply not consumed
   yet — the next poll re-reads it from scratch, which also absorbs the
   case where a recovering writer truncates a torn tail and appends fresh
   records over those bytes (recovery never truncates below the last
   valid record, and [f_pos] never passes an invalid one, so [f_pos]
   always stays within the stable prefix). *)

type follower = {
  fl_path : string;
  mutable fl_fd : Unix.file_descr option;
  mutable fl_pos : int; (* byte offset of the end of the last consumed record *)
  mutable fl_header_ok : bool;
  mutable fl_queue : (string * int * int) list; (* parsed, undelivered (in order) *)
}

let follow path =
  try
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Ok { fl_path = path; fl_fd = Some fd; fl_pos = 0; fl_header_ok = false; fl_queue = [] }
  with Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "Label_store: %s: %s" path (Unix.error_message e))

let follower_fd_exn f =
  match f.fl_fd with Some fd -> fd | None -> invalid_arg "Label_store: follower closed"

let read_tail fd pos =
  let len = (Unix.fstat fd).Unix.st_size - pos in
  if len <= 0 then ""
  else begin
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    let buf = Bytes.create len in
    let got = ref 0 in
    (try
       while !got < len do
         let r = Unix.read fd buf !got (len - !got) in
         if r = 0 then raise Exit;
         got := !got + r
       done
     with Exit -> ());
    (* a concurrent truncate can shorten the file mid-read; deliver what
       arrived — the next poll re-reads from a consistent offset *)
    Bytes.sub_string buf 0 !got
  end

(* One non-blocking poll: refill the queue from newly stable bytes. *)
let poll_once f =
  let fd = follower_fd_exn f in
  if not f.fl_header_ok then begin
    let hlen = String.length header in
    let h = read_tail fd 0 in
    if String.length h >= hlen then begin
      if String.sub h 0 hlen <> header then
        raise (Corrupt "not a label journal (bad header)");
      f.fl_header_ok <- true;
      f.fl_pos <- hlen
    end
  end;
  if f.fl_header_ok then begin
    let tail = read_tail fd f.fl_pos in
    if tail <> "" then begin
      let r = scan tail 0 in
      if r.r_keep > 0 then begin
        f.fl_queue <- f.fl_queue @ List.rev r.r_entries;
        f.fl_pos <- f.fl_pos + r.r_keep
      end
    end
  end

let follow_next ?timeout ?(poll = 0.02) f =
  let deadline =
    match timeout with None -> None | Some s -> Some (Unix.gettimeofday () +. s)
  in
  let rec loop () =
    match f.fl_queue with
    | r :: rest ->
      f.fl_queue <- rest;
      Some r
    | [] ->
      poll_once f;
      if f.fl_queue <> [] then loop ()
      else begin
        let expired =
          match deadline with None -> false | Some d -> Unix.gettimeofday () >= d
        in
        if expired then None
        else begin
          Unix.sleepf poll;
          loop ()
        end
      end
  in
  loop ()

let follower_pos f = f.fl_pos

let close_follower f =
  match f.fl_fd with
  | Some fd ->
    Unix.close fd;
    f.fl_fd <- None
  | None -> ()
