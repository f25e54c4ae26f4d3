(** Reproduction drivers: one per table and figure of the paper's
    evaluation.

    [build_env] performs the heavy, shared work once and holds every
    result more than one experiment reads: the 72-benchmark suite swept at
    factors 1..8 with software pipelining disabled and enabled, the
    filtered datasets of both label spaces, the §7 feature selection, one
    cross-validation per learner and the speedup rows (the last two lazy).
    Each experiment then renders its table or figure from them as text
    (ASCII plots for the figures), shaped after the paper's artefact.
    {!Train} calls the same selection and cross-validation functions. *)

(** §7's feature selection, with the per-step results of Tables 3 and 4. *)
type selection = {
  mis_top : (int * float) list;     (** MIS top-[mis_k], with scores *)
  nn_greedy : (int * float) list;   (** greedy 1-NN picks, with training error *)
  svm_greedy : (int * float) list;  (** greedy LS-SVM picks, with training error *)
  selected : int array;
  (** the committed subset: the union of the lists above, in
      first-appearance order *)
}

type env = {
  config : Config.t;
  benchmarks : Suite.benchmark list;
  labeled_off : Labeling.labeled array;  (** all loops, SWP disabled *)
  labeled_on : Labeling.labeled array;   (** all loops, SWP enabled *)
  merged : Labeling.labeled array;
  (** positionally merged off++on sweep ({!Labeling.merge_joint}): every
      loop with its 16 joint cycle counts *)
  dataset_off : Dataset.t;
  dataset_on : Dataset.t;
  dataset_joint : Dataset.t;             (** 16-class, built from [merged] *)
  selection : selection;                 (** over [dataset_off] *)
  cv : (Learner.t * (Dataset.t * int array) Lazy.t) list;
  (** {!cross_validations} of [dataset_off] *)
  rows_off : Compiler.row array Lazy.t;
  rows_on : Compiler.row array Lazy.t;
  rows_joint : Compiler.row array Lazy.t;
  (** per-benchmark speedups over the ORC baseline from
      {!Compiler.speedup_rows} (single-space and joint engines), computed
      on first demand and shared between the figure drivers, {!joint} and
      {!summary} *)
}

val build_env : ?progress:bool -> Config.t -> env
(** [progress] (default true) prints coarse progress to stderr. *)

val info : bool -> ('a, out_channel, unit) format -> 'a
(** [info progress fmt ...] prints a line to stderr when [progress] holds. *)

val select_feature_subset :
  ?progress:bool -> Config.t -> Dataset.t -> selection
(** §7's feature selection over an unscaled dataset: the MIS top-[mis_k]
    features, the greedy picks of the NN and the SVM on the scaled
    dataset, and their union.  Shared by {!build_env} and the {!Train}
    pipeline so the experiments and a deployed artifact select
    identically.  Every call standardises the dataset afresh and runs both
    greedy legs from scratch, so the selection is a function of the
    dataset alone. *)

val cross_validations :
  jobs:int -> Config.t -> selected:int array -> Dataset.t ->
  (Learner.t * (Dataset.t * int array) Lazy.t) list
(** Every learner's {!Learner.cross_validate} over the dataset restricted
    to [selected] and scaled — the protocol of Table 2, the summary and
    [Train]'s model choice.  Nothing runs until a learner's entry is
    forced. *)

val fig1 : env -> string
(** Near-neighbor classification on LDA-projected data (4 classes, ≥30%
    margin), with an example query. *)

val fig2 : env -> string
(** SVM decision regions on the projected plane (binary, ≥30% margin). *)

val fig3 : env -> string
(** Histogram of optimal unroll factors, SWP disabled. *)

val table2 : env -> string
(** Prediction-rank distribution for every {!Learner} (each under its
    own {!Learner.cross_validate} protocol) and the ORC heuristic, with
    the misprediction cost column. *)

val table3 : env -> string
(** Top features by mutual information score ([selection.mis_top]). *)

val table4 : env -> string
(** Top features by greedy selection for 1-NN and the SVM
    ([selection.nn_greedy] and [selection.svm_greedy]). *)

val fig4 : env -> string
(** Per-benchmark speedup over ORC, SWP disabled (every learner and the
    oracle), with SPEC and SPECfp aggregates. *)

val fig5 : env -> string
(** Same with SWP enabled. *)

val joint : env -> string
(** The widened (unroll factor × SWP) decision space: leave-one-benchmark-out
    accuracy of every learner on the 8-way factor head vs the 16-way
    joint head, the joint realized-speedup table over the ORC SWP-off
    baseline, and a verdict line comparing the best joint pipeline against
    the best single-decision one. *)

val summary : env -> string
(** Headline numbers next to the paper's claims. *)

val ablations : env -> string
(** Design-choice studies beyond the paper's tables:
    - NN radius sensitivity (the paper picked 0.3 "experimentally", §5.1);
    - one-vs-rest vs dense error-correcting output codes (§5.2 mentions
      ECOC as a possible improvement it does not use);
    - the selected feature subset vs all 38 features (§7's claim that a
      well-chosen subset improves accuracy);
    - the binary unroll/don't-unroll problem of Monsifrot et al. (§9):
      decision-tree accuracy vs the always-unroll baseline the paper
      derives from Figure 3. *)

val timing : env -> string
(** §5's timing claims: for every {!Learner}, the number of examples
    {!Learner.fit} trains on after its [fit_cap], the wall time of that
    fit on [dataset_off] restricted to [selection.selected], and the mean
    {!Learner.classify} time per scaled point; then the mean cold
    {!Features.extract} time per suite loop, timed on a private memo that
    never stores, so {!Deps_memo.global} and its telemetry are left as
    they were.  The paper's claim sits
    beside each row.  Wall-clock figures, so not deterministic. *)

val all : env -> string
(** Every experiment, concatenated in paper order (ablations, then
    {!timing}, last). *)
