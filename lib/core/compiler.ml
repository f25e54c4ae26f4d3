let compile (config : Config.t) ~swp predictor ?cycles loop =
  let u = Predictor.predict predictor config ~swp ?cycles loop in
  (u, Simulator.compile config.Config.machine ~swp loop u)

let run_compiled (config : Config.t) exe =
  let state = Simulator.create_state config.Config.machine in
  Simulator.run ~max_sim_iters:config.Config.max_sim_iters state exe

let predictions_for config ~swp predictor labeled =
  Array.map
    (fun (l : Labeling.labeled) ->
      Predictor.predict predictor config ~swp ~cycles:l.Labeling.cycles l.Labeling.loop)
    labeled

let benchmark_speedup config ~swp predictor ~baseline (b : Suite.benchmark) labeled =
  let mine =
    Array.of_list
      (List.filter
         (fun (l : Labeling.labeled) -> l.Labeling.bench = b.Suite.bname)
         (Array.to_list labeled))
  in
  if Array.length mine = 0 then 1.0
  else begin
    (* Relative loop time under a predictor, weighted by each loop's share
       of baseline loop runtime.  Both pick arrays come from
       [predictions_for] — the single place per-loop factors are chosen. *)
    let picks = predictions_for config ~swp predictor mine in
    let base = predictions_for config ~swp baseline mine in
    let ratio =
      let num = ref 0.0 and den = ref 0.0 in
      Array.iteri
        (fun i (l : Labeling.labeled) ->
          let c_p = float_of_int l.Labeling.cycles.(picks.(i) - 1) in
          let c_b = float_of_int l.Labeling.cycles.(base.(i) - 1) in
          num := !num +. (l.Labeling.weight *. (c_p /. c_b));
          den := !den +. l.Labeling.weight)
        mine;
      if !den > 0.0 then !num /. !den else 1.0
    in
    let f = b.Suite.loop_fraction in
    1.0 /. ((1.0 -. f) +. (f *. ratio))
  end

type row = { bench : string; fp : bool; learned : (string * float) list; oracle : float }

let speedup_rows ?(jobs = 1) (config : Config.t) ~features ~benchmarks ~dataset speedup =
  (* Leave-one-benchmark-out protocol (§6.1): for each benchmark, train
     every learner on every other benchmark's loops, then realise the
     speedup on the held-out one.  The retrainings are independent, so
     they fan out over [jobs] worker domains; rows come back in benchmark
     order.  Within a row the learners' trainings are themselves
     independent, so when the scheduler has room they run as a nested
     batch — idle workers steal one instead of waiting out the row. *)
  Parallel.map ~jobs
    (fun (b : Suite.benchmark) ->
      let train = Dataset.without_group dataset b.Suite.bname in
      let learned =
        Parallel.map_list
          ~jobs:(min jobs (List.length Learner.all))
          (fun l -> (Learner.name l, speedup (Predictor.fit l config ~features train) b))
          Learner.all
      in
      { bench = b.Suite.bname; fp = b.Suite.fp; learned; oracle = speedup Predictor.Oracle b })
    (Array.of_list benchmarks)

(* --- joint (factor × SWP) realisation ------------------------------------ *)

type space = Pinned of bool | Joint

(* The generalised engine below works over loops carrying the 16 merged
   cycle counts of Labeling.merge_joint; a decision (factor, swp) costs
   the merged entry at its Joint class.  [Pinned s] restricts decisions to
   one SWP setting — deliberately re-deriving what [benchmark_speedup]
   computes over a single-space sweep, so the two implementations can be
   checked against each other. *)

let joint_cost (l : Labeling.labeled) ~factor ~swp =
  float_of_int l.Labeling.cycles.(Labeling.Joint.encode ~factor ~swp)

let joint_decisions_for config ~space predictor merged =
  Array.map
    (fun (l : Labeling.labeled) ->
      match space with
      | Pinned swp ->
        let half =
          Array.sub l.Labeling.cycles
            (if swp then Unroll.max_factor else 0)
            Unroll.max_factor
        in
        (Predictor.predict predictor config ~swp ~cycles:half l.Labeling.loop, swp)
      | Joint -> Predictor.predict_joint predictor config ~cycles:l.Labeling.cycles l.Labeling.loop)
    merged

let joint_benchmark_speedup config ~space predictor ~baseline (b : Suite.benchmark) merged =
  let mine =
    Array.of_list
      (List.filter
         (fun (l : Labeling.labeled) -> l.Labeling.bench = b.Suite.bname)
         (Array.to_list merged))
  in
  if Array.length mine = 0 then 1.0
  else begin
    let picks = joint_decisions_for config ~space predictor mine in
    let base = joint_decisions_for config ~space baseline mine in
    let ratio =
      let num = ref 0.0 and den = ref 0.0 in
      Array.iteri
        (fun i (l : Labeling.labeled) ->
          let pf, ps = picks.(i) and bf, bs = base.(i) in
          let c_p = joint_cost l ~factor:pf ~swp:ps in
          let c_b = joint_cost l ~factor:bf ~swp:bs in
          num := !num +. (l.Labeling.weight *. (c_p /. c_b));
          den := !den +. l.Labeling.weight)
        mine;
      if !den > 0.0 then !num /. !den else 1.0
    in
    let f = b.Suite.loop_fraction in
    1.0 /. ((1.0 -. f) +. (f *. ratio))
  end
