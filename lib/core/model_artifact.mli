(** Versioned, self-describing model artifacts — the train/serve split.

    The paper's end product is a trained classifier compiled {e into} the
    compiler: §4.1 argues "the learned classifier can easily be
    incorporated into a compiler" because a model is data, not code.  This
    module is that data: a trained model of any {!Learner}, the committed
    feature subset from greedy
    selection, the {!Scale} normalisation parameters, and provenance
    digests — serialised as a line-oriented text format that round-trips
    {e bit-identically} (floats are written as hexadecimal literals, so
    [of_string (to_string a)] reproduces every prediction exactly).

    An artifact is self-checking: the first line carries the format
    version, the last line a digest of everything above it, and the header
    records where the model came from (training-dataset digest, machine
    name + digest, code version).  Loading rejects version mismatches and
    content corruption outright; provenance digests are verified against
    the serving environment with {!verify_machine} / {!verify_dataset}, so
    a model trained for one machine description can never silently predict
    for another.

    This module owns the header, the checksum and the version handling;
    the lines after [std] are the learner's payload, written and decoded
    by the learner the [kind] line names ({!Learner.LEARNER.write} and
    {!Learner.LEARNER.read}). *)

type provenance = {
  dataset_digest : string;  (** hex digest of the training dataset ({!Dataset.digest}) *)
  machine_name : string;
  machine_digest : string;  (** hex {!Machine.digest} of the full machine description *)
  code_version : string;    (** {!code_version} of the trainer *)
}

type label_space =
  | Factor  (** 8-way: unroll factor alone (class = factor − 1) *)
  | Joint   (** 16-way: (unroll factor × SWP on/off), {!Labeling.Joint} layout *)

type t = {
  provenance : provenance;
  label_space : label_space;     (** decision space the classes index into *)
  features : int array;          (** committed feature subset (indices into the full vector) *)
  feature_names : string array;  (** names of those features when the model was trained *)
  mean : float array;            (** {!Scale} parameters over the subset *)
  std : float array;
  model : Learner.trained;       (** the fitted model; its learner names the [kind] *)
}

val version : int
(** Format version this build writes.  Older versions down to
    {!oldest_readable_version} still load: v1 (pre-MLP, no [label-space]
    line) parses as a factor-space NN or SVM artifact. *)

val oldest_readable_version : int

val code_version : string
(** Identifies the training code; bumped when the feature definitions or
    learner semantics change incompatibly. *)

val kind : t -> string
(** The learner's {!Learner.LEARNER.name}: ["nn"], ["svm"] or ["mlp"]. *)

val label_space_name : label_space -> string
(** ["factor"] or ["joint"]. *)

val n_classes : label_space -> int
(** Classes of the space: 8 for [Factor], 16 for [Joint]. *)

val to_string : t -> string
(** Serialise; deterministic (no timestamps), bit-exact floats. *)

val of_string : string -> (t, string) result
(** Parse and validate: the version line must name a version between
    {!oldest_readable_version} and {!version}, and the trailing checksum
    must match the content, and the payload must decode to a model of the
    header's shape (feature count, label space).  Errors name the
    offending line; malformed input never raises. *)

val save : t -> string -> unit
(** Write {!to_string} to a temp file beside [path], then rename it over
    [path], so a reader never sees a partly written artifact. *)

val load : ?telemetry:Telemetry.t -> string -> (t, string) result
(** {!of_string} over a file.  Load wall-time is recorded in [telemetry]
    (default {!Telemetry.global}) under the ["artifact"] pass, with the
    file size in bytes as a counter. *)

val verify_machine : t -> Machine.t -> (unit, string) result
(** Fails unless the serving machine's digest equals the training one. *)

val verify_dataset : t -> digest:string -> (unit, string) result
(** Fails unless [digest] equals the recorded training-dataset digest. *)
