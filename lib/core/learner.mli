(** The learner registry: everything specific to one classifier, behind
    one signature.

    §4.1 treats a trained classifier as data the compiler loads, and §5
    compares learners under one protocol.  A {!LEARNER} owns its training
    on scaled points, classification, cross-validation protocol and
    artifact payload; everything else — feature selection, scaling,
    artifact headers and checksums, the compiler's predictor, the
    experiments — iterates {!all}.  Adding a learner is one module here
    and one entry in {!all}. *)

(** {1 Payload text}

    Helpers shared by the payload codecs and the {!Model_artifact}
    header.  Floats are written as C99 hexadecimal literals, so every
    mantissa bit survives the round trip. *)

exception Malformed of string
(** A payload (or header) line that does not decode, or a payload whose
    shape does not fit the artifact. *)

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message. *)

val floats : float array -> string
val ints : int array -> string
val float_fields : ctx:string -> string list -> float array
val int_fields : ctx:string -> string list -> int array

(** {1 The signature} *)

module type LEARNER = sig
  type model

  val name : string
  (** Both the artifact [kind] line and the [--model] value. *)

  val fit_cap : Config.t -> int option
  (** Bound for the {!Dataset.subsample} {!fit} takes of the raw dataset
      {e before} {!Scale.fit} (the LS-SVM's O(N³) solve). *)

  val train :
    ?jobs:int -> ?telemetry:Telemetry.t -> Config.t -> n_classes:int ->
    (float array * int) array -> model
  (** Train on already-scaled points.  [jobs] and [telemetry] reach the
      learners whose training uses them. *)

  val classify : model -> float array -> int
  (** 0-based class of a scaled vector. *)

  val cv_cap : Config.t -> int option
  (** Bound for the {!Dataset.subsample} of the scaled dataset that
      {!cross_validate} scores (the LS-SVM's [loocv_svm_cap]). *)

  val loo :
    (jobs:int -> Config.t -> n_classes:int -> (float array * int) array -> int array) option
  (** Closed-form leave-one-out predictions; [None] makes
      {!cross_validate} score leave-one-benchmark-out instead. *)

  val write : model -> string list
  (** The artifact payload lines (no trailing newlines). *)

  val read : d:int -> n_classes:int -> string list list -> model
  (** Decode payload lines (split into words) for a [d]-feature subset
      and an [n_classes] label space.  Checks the payload's shape and
      raises {!Malformed} on any mismatch, so a checksum-valid but
      malformed artifact is rejected at load, never at predict time. *)
end

type t = (module LEARNER)

type trained = Trained : (module LEARNER with type model = 'm) * 'm -> trained
(** A fitted model, packed with its learner. *)

(** {1 The registry} *)

val nn : t
(** Near neighbour within a radius (§5.1); closed-form LOO. *)

val svm : t
(** One-vs-rest LS-SVM (§5.2); trains on at most [fig4_svm_cap]
    examples, closed-form LOO on at most [loocv_svm_cap]. *)

val mlp : t
(** The from-scratch {!Mlp}; scored leave-one-benchmark-out, with an
    empty training fold predicting class 0. *)

val all : t list
(** Every learner, in report order: [nn], [svm], [mlp]. *)

val name : t -> string
val find : string -> t option
val cv_cap : t -> Config.t -> int option
val learner : trained -> t
val classify : trained -> float array -> int
val write : trained -> string list
val read : t -> d:int -> n_classes:int -> string list list -> trained

(** {1 Protocols} *)

val fit :
  ?jobs:int -> ?telemetry:Telemetry.t -> t -> Config.t -> features:int array ->
  Dataset.t -> Scale.t * trained
(** Fit from a raw (unnormalised) dataset restricted to [features]:
    subsample to [fit_cap], fit the scaler, train on the scaled points. *)

val lobo : jobs:int -> t -> Config.t -> Dataset.t -> int array
(** Leave-one-benchmark-out predictions over a scaled dataset: one
    retraining per group (§6.1); an empty training fold predicts class 0. *)

val cross_validate : jobs:int -> t -> Config.t -> Dataset.t -> Dataset.t * int array
(** The learner's own cross-validation over a scaled dataset: subsample
    to [cv_cap], then closed-form LOO when the learner has it, else
    {!lobo}.  Returns the scored subset and its predictions. *)
