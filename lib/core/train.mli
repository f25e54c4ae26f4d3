(** The offline half of the train/serve split: sweep → select → fit →
    artifact.

    [run] is the whole paper pipeline as one deterministic function of the
    config: label the suite (optionally journalled so a killed sweep
    resumes), build the filtered dataset, commit the §7 feature subset,
    score every {!Learner} by its own cross-validation, and package the
    winner (or a forced choice) as a versioned
    {!Model_artifact} stamped with the training dataset's digest.  The
    CLI trainer, the CI golden job and the fixture generator all call
    this one function, so a shipped artifact can never diverge from what
    an in-process experiment would have trained. *)

type model_choice = Nn | Svm | Mlp | Best

val model_choices : (string * model_choice) list
(** Every choice under its [--model] name: the learners' names, then
    ["best"]. *)

type report = {
  measured : int;          (** loops swept (before filters) *)
  kept : int;              (** examples surviving the paper's filters *)
  features : int array;    (** committed feature subset *)
  cv_scores : (string * float) list;
  (** per learner, in {!Learner.all} order: {!Learner.cross_validate}
      accuracy ([nan] when scoring was skipped) *)
  chosen : string;         (** the packaged learner's name *)
  dataset_digest : string;
}

val cv_summary : (string * float) list -> string
(** ["nn 0.612, svm 0.650, mlp 0.598"]: scores to three decimals. *)

val best : (Learner.t * float) list -> Learner.t
(** The [Best] rule: the highest score, where an exact tie keeps the SVM
    (the paper's overall winner) and any other learner must strictly beat
    the best so far in registry order — so the SVM wins an NN tie and the
    MLP must strictly beat both. *)

val run :
  ?progress:bool -> ?journal:Label_store.t ->
  Config.t -> swp:bool -> model:model_choice -> Model_artifact.t * report
(** [Best] picks by {!best} over the cross-validation scores.  Raises [Failure] if the filtered dataset is
    empty (scale too small to train anything). *)

val run_joint :
  ?progress:bool -> ?journal:Label_store.t ->
  Config.t -> model:model_choice -> Model_artifact.t * report
(** {!run} over the joint (unroll factor × SWP) decision space: sweeps
    the suite at both SWP settings (one journal serves both — sweep keys
    differ in the swp coordinate), builds the 16-class dataset with
    {!Labeling.to_dataset} over {!Labeling.merge_joint}, and stamps the
    artifact [label-space joint]. *)

(** {1 Online training}

    The trainer behind [unroll-ml train --follow]: labels stream in from
    a {!Label_store} journal (typically tailed with {!Label_store.follow}
    while another process sweeps) instead of being measured in-process,
    and the model is refit as sweeps complete.

    The trainer only ever trains on {e journal-complete} sweeps — all
    factors 1..8 present — assembled in suite order, so the training set
    is a function of {e which} sweeps are complete, never of record
    arrival order.  Each {!Online.retrain} refits from scratch on those
    sweeps — the same filters, selection, fit and artifact formatting as
    a batch {!run}, and nothing carried over from the previous refit —
    which is why, once the journal covers the whole suite, it emits an
    artifact bit-identical to a batch {!run} over the same journal at
    any [-j].  Cross-validation is skipped unless the model choice is
    [Best] (the report carries [nan] scores then — the artifact never
    depends on them). *)

module Online : sig
  type t

  val create : ?progress:bool -> Config.t -> swp:bool -> model:model_choice -> t
  (** Generate the suite for [config] and index every loop's sweep key.
      No measuring happens — the journal is the only label source. *)

  val ingest : t -> key:string -> factor:int -> cycles:int -> bool
  (** Feed one journal record; returns [true] when it completes a sweep
      (the signal [--every] batches on).  Records for unknown keys or
      out-of-range factors are counted and ignored — a journal may hold
      sweeps from other configs.  Duplicate records overwrite (last
      wins), matching {!Label_store} recovery. *)

  val retrain : t -> (Model_artifact.t * report, string) result
  (** Refit on the complete sweeps ingested so far.  [Error] while the
      filtered dataset is still empty. *)

  val total_sweeps : t -> int
  val complete_sweeps : t -> int
  val ingested : t -> int

  val unknown_records : t -> int
  (** Records ignored (foreign key or bad factor). *)
end
