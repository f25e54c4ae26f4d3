let max_payload = 1 lsl 20
let digest_len = 16
let header_len = 4 + digest_len

(* --- frame layer -------------------------------------------------------- *)

type decoded =
  | Payload of string * int
  | Incomplete
  | Corrupt of string

let encode payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Wire.encode: payload too large";
  let b = Bytes.create (header_len + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string (Digest.string payload) 0 b 4 digest_len;
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

(* The payload length announced by the 4-byte prefix; [byte i] reads the
   prefix's [i]th byte. *)
let length_prefix byte = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
let oversized n = Printf.sprintf "frame length %d exceeds the %d-byte cap" n max_payload

let digest_mismatch = "frame digest mismatch"

let decode ?(pos = 0) buf =
  let avail = String.length buf - pos in
  if avail < 4 then Incomplete
  else begin
    let n = length_prefix (fun i -> Char.code buf.[pos + i]) in
    if n > max_payload then Corrupt (oversized n)
    else if avail < header_len + n then Incomplete
    else begin
      let digest = String.sub buf (pos + 4) digest_len in
      let payload = String.sub buf (pos + header_len) n in
      if Digest.string payload <> digest then Corrupt digest_mismatch
      else Payload (payload, header_len + n)
    end
  end

(* --- messages ------------------------------------------------------------ *)

type request =
  | Predict of Loop.t
  | Control of string

type response =
  | Factor of int
  | Busy
  | Okay of string
  | Failure of string

let request_payload = function
  | Predict loop -> "P" ^ Marshal.to_string (loop : Loop.t) []
  | Control cmd -> "C" ^ cmd

let parse_request p =
  if String.length p = 0 then Error "empty request payload"
  else
    match p.[0] with
    | 'P' -> (
      (* The digest framing already vouches for the bytes; this guard turns
         a malformed-but-well-digested payload into a connection error
         instead of an exception. *)
      try Ok (Predict (Marshal.from_string p 1 : Loop.t))
      with _ -> Error "undecodable loop in predict request")
    | 'C' -> Ok (Control (String.sub p 1 (String.length p - 1)))
    | c -> Error (Printf.sprintf "unknown request tag %C" c)

let response_payload = function
  | Factor f ->
    if f < 1 || f > 255 then invalid_arg "Wire.response_payload: factor out of range";
    "F" ^ String.make 1 (Char.chr f)
  | Busy -> "B"
  | Okay text -> "O" ^ text
  | Failure text -> "E" ^ text

let parse_response p =
  if String.length p = 0 then Error "empty response payload"
  else
    match p.[0] with
    | 'F' when String.length p = 2 -> Ok (Factor (Char.code p.[1]))
    | 'F' -> Error "malformed factor response"
    | 'B' when String.length p = 1 -> Ok Busy
    | 'B' -> Error "malformed busy response"
    | 'O' -> Ok (Okay (String.sub p 1 (String.length p - 1)))
    | 'E' -> Ok (Failure (String.sub p 1 (String.length p - 1)))
    | c -> Error (Printf.sprintf "unknown response tag %C" c)

(* --- blocking socket I/O ------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let write_payload fd payload = write_all fd (encode payload)

(* Buffered bytes are [buf.[lo .. hi - 1]]; frames are consumed by
   advancing [lo], so no byte is copied more than once per frame. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

let read_size = 65536

let reader fd = { fd; buf = Bytes.create read_size; lo = 0; hi = 0 }

(* Make room past [lo] for [need] bytes (and at least one full read):
   slide the unconsumed bytes to the front, into a larger buffer when the
   current one is too small. *)
let reserve r need =
  let want = max need read_size in
  if r.lo + want > Bytes.length r.buf then begin
    let live = r.hi - r.lo in
    let dst = if want > Bytes.length r.buf then Bytes.create want else r.buf in
    Bytes.blit r.buf r.lo dst 0 live;
    r.buf <- dst;
    r.lo <- 0;
    r.hi <- live
  end

(* Read until [need] bytes are buffered; [Error] at end of stream, which
   is a torn frame unless nothing at all is buffered. *)
let rec fill r need =
  if r.hi - r.lo >= need then Ok ()
  else begin
    let torn what =
      if r.hi = r.lo then Error `Eof
      else Error (`Corrupt (Printf.sprintf "connection %s mid-frame (torn frame)" what))
    in
    reserve r need;
    match Unix.read r.fd r.buf r.hi (Bytes.length r.buf - r.hi) with
    | 0 -> torn "closed"
    | n ->
      r.hi <- r.hi + n;
      fill r need
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
      torn "reset"
  end

let next r =
  match fill r 4 with
  | Error ended -> ended
  | Ok () -> (
    let n = length_prefix (fun i -> Bytes.get_uint8 r.buf (r.lo + i)) in
    (* Refuse an oversized frame before reading (or allocating) its body. *)
    if n > max_payload then `Corrupt (oversized n)
    else
      match fill r (header_len + n) with
      | Error ended -> ended
      | Ok () ->
        let digest = Bytes.sub_string r.buf (r.lo + 4) digest_len in
        let payload = Bytes.sub_string r.buf (r.lo + header_len) n in
        r.lo <- r.lo + header_len + n;
        if Digest.string payload <> digest then `Corrupt digest_mismatch else `Payload payload)
