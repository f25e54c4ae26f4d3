(** Reproduction drivers: one per table and figure of the paper's
    evaluation.

    [build_env] performs the heavy, shared work once — generating the
    72-benchmark suite, sweeping every loop at factors 1..8 with software
    pipelining disabled and enabled, building the filtered datasets, and
    running feature selection.  Each experiment then renders its table or
    figure as text (ASCII plots for the figures), shaped after the paper's
    artefact. *)

type env = {
  config : Config.t;
  benchmarks : Suite.benchmark list;
  labeled_off : Labeling.labeled array;  (** all loops, SWP disabled *)
  labeled_on : Labeling.labeled array;   (** all loops, SWP enabled *)
  merged : Labeling.labeled array;
  (** positionally merged off++on sweep ({!Labeling.merge_joint}): every
      loop with its 16 joint cycle counts *)
  filtered_off : Labeling.labeled array; (** filter-surviving, dataset order *)
  filtered_on : Labeling.labeled array;
  dataset_off : Dataset.t;
  dataset_on : Dataset.t;
  dataset_joint : Dataset.t;             (** 16-class joint-label dataset *)
  selected : int array;
  (** feature subset used for classification (§7: union of the MIS top-k
      and the greedy picks for both classifiers) *)
  rows_off : Compiler.row array Lazy.t;
  rows_on : Compiler.row array Lazy.t;
  rows_joint : Compiler.row array Lazy.t;
  (** per-benchmark speedups over the ORC baseline from
      {!Compiler.speedup_rows} (single-space and joint engines), computed on first demand and shared between the figure
      drivers, {!joint} and {!summary} *)
}

val build_env : ?progress:bool -> Config.t -> env
(** [progress] (default true) prints coarse progress to stderr. *)

val select_feature_subset :
  ?progress:bool -> ?warm:Greedy_select.Warm.t -> Config.t -> Dataset.t ->
  int array
(** §7's committed feature subset: the union (first-appearance order) of
    the MIS top-[mis_k] features and the greedy picks of both the NN and
    the SVM.  Shared by {!build_env} and the {!Train} pipeline so the
    experiments and a deployed artifact select identically.

    [warm] supplies a {!Greedy_select.Warm} cache for the greedy-NN leg —
    identical picks, warm-started when the scaled dataset extends the
    previous call's.  The greedy-SVM leg always re-runs in full (its
    deterministic subsample re-strides as the dataset grows, so no
    incremental bound applies). *)

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
(** Top features by mutual information score. *)

val table4 : env -> string
(** Top features by greedy selection for 1-NN and the SVM. *)

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

val all : env -> string
(** Every experiment, concatenated in paper order (ablations last). *)
