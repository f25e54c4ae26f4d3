(** Experiment configuration.

    Everything an experiment run depends on lives here, so that results are
    reproducible from a single value: the machine model, workload scale and
    seed, measurement methodology, and learner hyperparameters. *)

type t = {
  seed : int;               (** master seed for workload generation *)
  noise_seed : int;         (** separate stream for measurement noise *)
  scale : float;            (** suite size multiplier (1.0 = paper scale) *)
  machine : Machine.t;
  noise : float;            (** relative measurement noise (§4.4) *)
  runs : int;               (** measurements per configuration (paper: 30) *)
  max_sim_iters : int;      (** exact simulation window per loop entry *)
  jobs : int;
  (** worker domains for the labelling sweep and cross-validation loops
      (1 = sequential; results are bit-identical either way) *)
  knn_radius : float;       (** near-neighbor radius (paper: 0.3) *)
  svm_kernel : Kernel.t;
  svm_gamma : float;        (** LS-SVM ridge parameter *)
  greedy_k : int;           (** features chosen per greedy run (paper: 5) *)
  mis_k : int;              (** features taken from the MIS ranking *)
  fig4_svm_cap : int;
  (** max training examples per leave-one-benchmark-out SVM training in the
      speedup experiments (keeps 24 retrainings tractable) *)
  loocv_svm_cap : int;
  (** max examples entering the LOOCV SVM factorisation (Table 2) *)
  mlp_seed : int;
  (** seed for MLP weight init, epoch shuffles and the holdout split *)
  mlp_hyper : Mlp.hyper;  (** MLP architecture and SGD hyperparameters *)
}

val default : t
(** Paper-scale configuration: 72 benchmarks, ~2,500 surviving loops. *)

val fast : t
(** Reduced configuration for tests and quick runs (~15% scale, fewer
    measurement repeats). *)
