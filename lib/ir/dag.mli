(** Statistics over the per-iteration dependence DAG.

    These are the structural loop characteristics from the paper's Table 1
    that require graph analysis: critical-path latency, the partition of the
    body into independent "computations", dependence heights per kind, and
    fan-in.  All heights are latency-weighted longest paths where a node
    contributes the latency of its op. *)

type stats = {
  critical_path : int;
  (** latency of the longest distance-0 dependence chain *)
  computations : int;
  (** number of weakly-connected components of the register-flow DAG —
      the paper's "number of parallel computations in loop" *)
  max_dependence_height : int;
  (** largest critical path over any single computation *)
  avg_dependence_height : float;
  (** mean critical path over computations *)
  max_memory_height : int;
  (** longest chain restricted to memory dependences *)
  max_control_height : int;
  (** longest chain restricted to control dependences *)
  max_fan_in : int;
  (** maximum flow in-degree of any op *)
  avg_fan_in : float;
  (** mean flow in-degree *)
  min_mem_to_mem_distance : int;
  (** smallest positive iteration distance of a memory-to-memory
      dependence; [max_int] when there is none (paper: "-1 if none",
      translated at feature-extraction time) *)
  mem_to_mem_dependences : int;
  (** count of loop-carried memory-to-memory dependences *)
  recurrence_latency : int;
  (** max over loop-carried register flow self-chains of
      ceil(latency / distance) — a lower bound on achievable
      cycles-per-iteration regardless of unrolling *)
}

val analyze : Deps.csr -> (int -> int) -> stats
(** [analyze deps op_latency] computes the statistics; [op_latency i] is the
    latency of the op at body position [i]. *)
