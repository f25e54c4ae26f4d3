(** The prediction wire protocol: length-prefixed, digest-framed messages.

    One frame is [4-byte big-endian payload length | 16-byte MD5 of the
    payload | payload].  The framing follows the {!Label_store} journal
    idiom: a frame is valid iff it is complete and its digest matches, and
    anything else is damage.  Damage is handled per connection, never per
    process — a torn or corrupt frame kills the connection it arrived on
    while the server keeps serving everyone else.

    Payloads carry one tagged message.  Requests are either a loop to
    predict (the loop travels as its [Marshal] image, which round-trips
    structurally — the server featurises exactly the loop the client
    holds, so remote predictions bit-match local ones) or a textual
    control command (["ping"], ["stats"], ["reload PATH"], ["shutdown"]).
    Responses are a factor, an explicit backpressure shed ({!Busy}), or a
    control acknowledgement/error.

    The same codec is shared by [unroll-ml serve], [unroll-ml predict
    --remote], [unroll-ml ctl], the load-generator bench, and the test
    suite's torn-frame properties. *)

val max_payload : int
(** Upper bound on a payload (1 MiB); larger length prefixes are rejected
    as corrupt rather than trusted as allocations. *)

(** {1 Frame layer} *)

type decoded =
  | Payload of string * int
      (** the payload, and the total frame size consumed from the buffer *)
  | Incomplete  (** a valid prefix: read more bytes and retry *)
  | Corrupt of string  (** digest mismatch or impossible length *)

val encode : string -> string
(** Wrap a payload into one frame. *)

val decode : ?pos:int -> string -> decoded
(** Decode the frame starting at [pos] (default 0). *)

(** {1 Messages} *)

type request =
  | Predict of Loop.t
  | Control of string

type response =
  | Factor of int  (** a prediction, 1..{!Unroll.max_factor} *)
  | Busy  (** admission control shed the request; retry later *)
  | Okay of string  (** control acknowledgement ([pong], stats text, …) *)
  | Failure of string  (** the request was understood but failed *)

val request_payload : request -> string
val parse_request : string -> (request, string) result

val response_payload : response -> string
val parse_response : string -> (response, string) result

(** {1 Blocking socket I/O} *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string, however many writes it takes.  Raises
    [Unix.Unix_error] on a dead peer. *)

val write_payload : Unix.file_descr -> string -> unit
(** Frame and write fully.  Raises [Unix.Unix_error] on a dead peer. *)

type reader
(** Incremental frame reader over a connection: buffers partial frames
    across reads. *)

val reader : Unix.file_descr -> reader

val next : reader -> [ `Payload of string | `Eof | `Corrupt of string ]
(** Block until one whole frame, end of stream, or damage.  [`Eof] in the
    middle of a frame is a torn frame and reported as [`Corrupt]. *)
