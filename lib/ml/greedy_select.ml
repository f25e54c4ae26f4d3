(* Reduce candidate evaluations in candidate order: the first strictly
   lower error wins, so the pick does not depend on [jobs]. *)
let best_of errs =
  Array.fold_left
    (fun best (f, err) ->
      match best with
      | Some (_, e) when e <= err -> best
      | _ -> Some (f, err))
    None errs

let run ?(jobs = 1) ~n_features ~k error =
  let chosen = ref [] in
  let remaining = ref (Array.init n_features Fun.id) in
  let picks = ref [] in
  for _ = 1 to min k n_features do
    (* Candidate evaluations within a round are independent. *)
    let errs =
      Parallel.map ~jobs (fun f -> (f, error (List.rev (f :: !chosen)))) !remaining
    in
    match best_of errs with
    | None -> ()
    | Some (f, err) ->
      chosen := f :: !chosen;
      remaining :=
        Array.of_list (List.filter (fun g -> g <> f) (Array.to_list !remaining));
      picks := (f, err) :: !picks
  done;
  List.rev !picks

(* ------------------------------------------------------------------ *)
(* Pairwise-engine driver: one running dist² triangle, candidates add
   their own O(n²) contribution, the winner commits once per round. *)

let round_telemetry telemetry ~name ~round ~t0 ~candidates best =
  match telemetry with
  | None -> ()
  | Some sink ->
    let seconds = Unix.gettimeofday () -. t0 in
    let metrics =
      ("candidates", candidates)
      ::
      (match best with
      | None -> []
      | Some (f, err) ->
        (* error as basis points: Telemetry counters are integers *)
        [ ("best_feature", f); ("best_err_bp", int_of_float (err *. 10000.0)) ])
    in
    Telemetry.record sink
      ~pass:(Printf.sprintf "greedy.%s[round %d]" name round)
      ~seconds ~metrics ()

let run_pairwise ?(jobs = 1) ?telemetry ?(name = "select") ~k engine eval =
  let d = Pairwise.dim engine in
  let picks = ref [] in
  (try
     for round = 1 to min k d do
       let t0 = Unix.gettimeofday () in
       let remaining =
         Array.of_list
           (List.filter
              (fun f -> not (Pairwise.is_committed engine f))
              (List.init d Fun.id))
       in
       (* Candidate evaluations only read the committed triangle; the same
          candidate-order reduction as [run] keeps picks jobs-invariant. *)
       let errs = Parallel.map ~jobs (fun f -> (f, eval f)) remaining in
       let best = best_of errs in
       round_telemetry telemetry ~name ~round ~t0 ~candidates:(Array.length remaining)
         best;
       match best with
       | None -> raise Exit
       | Some (f, err) ->
         Pairwise.commit engine f;
         picks := (f, err) :: !picks
     done
   with Exit -> ());
  List.rev !picks

let project (e : Dataset.example) subset =
  Array.of_list (List.map (fun j -> e.Dataset.features.(j)) subset)

let nn_training_error (ds : Dataset.t) subset =
  let pts = Array.map (fun e -> (project e subset, e.Dataset.label)) ds.Dataset.examples in
  if Array.length pts < 2 then 1.0
  else begin
    (* §7.2: for greedy selection the NN algorithm is modified to use the
       single closest point.  Radius 0 makes every query fall through to
       the 1-NN fallback. *)
    let knn = Knn.train ~radius:0.0 ~n_classes:ds.Dataset.n_classes pts in
    let preds = Knn.loo_predictions knn in
    let errs = ref 0 in
    Array.iteri (fun i p -> if p <> snd pts.(i) then incr errs) preds;
    float_of_int !errs /. float_of_int (Array.length pts)
  end

let svm_training_error ?(kernel = Kernel.Rbf 0.5) ?(gamma = 16.0) ?(max_examples = 400)
    (ds : Dataset.t) subset =
  let ds = Dataset.subsample ~cap:max_examples ds in
  let pairs =
    Array.map (fun e -> (project e subset, e.Dataset.label)) ds.Dataset.examples
  in
  if Array.length pairs < 2 then 1.0
  else begin
    let model =
      Multiclass.train ~n_classes:ds.Dataset.n_classes ~kernel ~gamma pairs
    in
    let errs = ref 0 in
    Array.iter
      (fun (x, y) -> if Multiclass.predict model x <> y then incr errs)
      pairs;
    float_of_int !errs /. float_of_int (Array.length pairs)
  end

(* ------------------------------------------------------------------ *)
(* Engine-backed selections: same picks as [run] over the brute-force
   objectives above, at O(rounds · candidates · n²) instead of
   O(rounds · candidates · n² · d). *)

let nn_run ?jobs ?telemetry ~k (ds : Dataset.t) =
  let engine, labels = Pairwise.of_dataset ds in
  run_pairwise ?jobs ?telemetry ~name:"nn" ~k engine (fun cand ->
      Pairwise.nn_loo_error ~cand engine ~labels)

let svm_run ?jobs ?telemetry ?(kernel = Kernel.Rbf 0.5) ?(gamma = 16.0)
    ?(max_examples = 400) ~k (ds : Dataset.t) =
  match kernel with
  | Kernel.Rbf rbf_gamma ->
    let ds = Dataset.subsample ~cap:max_examples ds in
    let n_classes = ds.Dataset.n_classes in
    let engine, labels = Pairwise.of_dataset ds in
    run_pairwise ?jobs ?telemetry ~name:"svm" ~k engine (fun cand ->
        if Pairwise.size engine < 2 then 1.0
        else begin
          let gram = Pairwise.rbf_gram ~cand ~gamma:rbf_gamma engine in
          let preds = Multiclass.training_predictions ~n_classes ~gamma ~gram labels in
          let errs = ref 0 in
          Array.iteri (fun i p -> if p <> labels.(i) then incr errs) preds;
          float_of_int !errs /. float_of_int (Pairwise.size engine)
        end)
  | Kernel.Linear | Kernel.Poly _ ->
    (* non-RBF kernels are not a function of dist² — keep the generic path *)
    run ?jobs
      ~n_features:(Array.length ds.Dataset.feature_names)
      ~k
      (svm_training_error ~kernel ~gamma ~max_examples ds)

(* ------------------------------------------------------------------ *)
(* Warm-started greedy NN selection for online training.

   Online retraining re-runs selection over a dataset that usually only
   *extends* the previous one: the scaled coordinates of every old point
   are bit-identical and a few new points arrived.  A full [nn_run] costs
   O(k·d·n²); most of that work re-derives winners that cannot have
   changed.  The cache certifies each cached round winner with ONE exact
   candidate evaluation plus cheap per-candidate flag scans over the
   appended points, falling back to a full round — and from the first
   flipped winner, to full rounds for the rest — whenever certification
   fails.  Output is the *identical* pick list a from-scratch [nn_run]
   would return, unconditionally (the correctness gate of the
   online-training design; tests diff the two).

   Soundness of certification, in the engine's own float arithmetic.  Let
   S_r be the committed subset entering round r (identical to the batch
   run's, by induction), and let the replay engine hold the extended
   point set.  When round r was last scored in full — over the first n₀
   points — we recorded, per candidate c, the exact error count and the
   displacement thresholds

     u_c(i) = min_{j ≠ i, j < n₀} dist2_{S_r ∪ c}(i, j).

   An old query i's LOO vote under candidate c can change only if some
   appended point p ties or beats its nearest incumbent:

     dist2_{S_r ∪ c}(i, p)  <=  min_j dist2_{S_r ∪ c}(i, j),

   and the right side only *shrinks* as points are appended, so it is
   still bounded by the cached u_c(i).  Both sides are engine-arithmetic
   sums over the same feature subset; the 1e-9 relative margin below
   absorbs their accumulation-order rounding (<= #terms · 2⁻⁵³).  Flag
   i for candidate c iff  min_{p >= n₀} dist2(i,p) <= u_c(i)·margin —
   this also catches a new zero-distance duplicate joining a radius-0
   vote.  Let F_c count the flags.  Queries appended after n₀ were not
   part of the cached count and can only ADD errors, so

     count_now(c) >= count_cached(c) - F_c

   (integer counts admit this exact bound; error *ratios* do not, which
   is why the engine exposes [nn_loo_error_count]).  The cached winner
   f_r is re-scored exactly on the extended engine; it is certified iff
   every other remaining candidate's lower bound still loses to it under
   [best_of]'s first-minimum rule (strictly for c < f_r, weakly for
   c > f_r).  A certified round commits f_r after one exact evaluation;
   an uncertified round runs in full — exactly the batch computation —
   and re-primes its cache. *)

module Warm = struct
  type round = {
    mutable w_feature : int; (* cached winner *)
    mutable w_n0 : int; (* point count at last full scoring *)
    mutable w_counts : int array; (* exact per-candidate counts at n0 *)
    mutable w_u : float array array; (* per candidate: thresholds u_c(i), i < n0 *)
  }

  type t = {
    mutable c_primed : bool;
    mutable c_k : int;
    mutable c_d : int;
    mutable c_n : int;
    mutable c_pts : float array; (* n×d scaled coordinates of the cached run *)
    mutable c_labels : int array;
    mutable c_rounds : round array;
    mutable c_picks : (int * float) list;
    (* instrumentation *)
    mutable c_primes : int;
    mutable c_generations : int;
    mutable c_certified : int;
    mutable c_full : int;
  }

  let create () =
    {
      c_primed = false;
      c_k = 0;
      c_d = 0;
      c_n = 0;
      c_pts = [||];
      c_labels = [||];
      c_rounds = [||];
      c_picks = [];
      c_primes = 0;
      c_generations = 0;
      c_certified = 0;
      c_full = 0;
    }

  let primes t = t.c_primes
  let generations t = t.c_generations
  let certified_rounds t = t.c_certified
  let full_rounds t = t.c_full

  (* Matches [nn_loo_error]'s n < 2 convention bit for bit. *)
  let err_of_count ~n cnt =
    if n < 2 then 1.0 else float_of_int cnt /. float_of_int n

  (* Conservative margin for comparing two differently-accumulated sums of
     non-negative terms: each carries relative error <= #terms · 2⁻⁵³,
     orders of magnitude below 1e-9 for any realistic feature count. *)
  let margin = 1.0 +. 1e-9

  let remaining_of engine =
    Array.of_list
      (List.filter
         (fun f -> not (Pairwise.is_committed engine f))
         (List.init (Pairwise.dim engine) Fun.id))

  (* One full round — exactly the batch computation of [nn_run]'s round,
     plus recording each candidate's count and displacement thresholds. *)
  let full_round ~jobs ~telemetry t engine labels round rnd =
    let t0 = Unix.gettimeofday () in
    let n = Pairwise.size engine in
    let remaining = remaining_of engine in
    let scored =
      Parallel.map ~jobs
        (fun f ->
          let uc = Array.make n infinity in
          let cnt = Pairwise.nn_loo_error_count ~cand:f ~nearest_out:uc engine ~labels in
          (f, cnt, uc))
        remaining
    in
    let errs = Array.map (fun (f, c, _) -> (f, err_of_count ~n c)) scored in
    let best = best_of errs in
    round_telemetry telemetry ~name:"nn-warm" ~round ~t0
      ~candidates:(Array.length remaining) best;
    t.c_full <- t.c_full + 1;
    match best with
    | None -> None
    | Some (f, err) ->
      let d = Pairwise.dim engine in
      let counts = Array.make d max_int in
      let u = Array.make d [||] in
      Array.iter
        (fun (g, c, uc) ->
          counts.(g) <- c;
          u.(g) <- uc)
        scored;
      rnd.w_feature <- f;
      rnd.w_n0 <- n;
      rnd.w_counts <- counts;
      rnd.w_u <- u;
      Pairwise.commit engine f;
      Some (f, err)

  (* Certify the cached winner of one round; [Some pick] commits it,
     [None] means the caller must fall back to a full round.  The cached
     state is left untouched either way — counts and thresholds stay
     coherent with their own n0 epoch. *)
  let certified_round ~telemetry t engine labels round rnd =
    let t0 = Unix.gettimeofday () in
    let n = Pairwise.size engine in
    let n0 = rnd.w_n0 in
    let fr = rnd.w_feature in
    let exact = Pairwise.nn_loo_error_count ~cand:fr engine ~labels in
    let ok = ref true in
    Array.iter
      (fun c ->
        if !ok && c <> fr then begin
          (* [best_of] keeps the first minimum: an earlier candidate wins
             on ties, a later one only by being strictly lower — so the
             flag budget is one tighter for c < fr. *)
          let budget = rnd.w_counts.(c) - exact - (if c < fr then 1 else 0) in
          if budget < 0 then ok := false
          else begin
            let uc = rnd.w_u.(c) in
            let flags = ref 0 in
            (try
               for i = 0 to n0 - 1 do
                 let nearest_new = ref infinity in
                 for p = n0 to n - 1 do
                   let d2 = Pairwise.dist2 ~cand:c engine i p in
                   if d2 < !nearest_new then nearest_new := d2
                 done;
                 if !nearest_new <= uc.(i) *. margin then begin
                   incr flags;
                   if !flags > budget then raise Exit
                 end
               done
             with Exit -> ok := false)
          end
        end)
      (remaining_of engine);
    if not !ok then None
    else begin
      let pick = (fr, err_of_count ~n exact) in
      round_telemetry telemetry ~name:"nn-warm" ~round ~t0 ~candidates:1 (Some pick);
      t.c_certified <- t.c_certified + 1;
      Pairwise.commit engine fr;
      Some pick
    end

  let fresh_round () = { w_feature = -1; w_n0 = 0; w_counts = [||]; w_u = [||] }

  let run_rounds ?(jobs = 1) ?telemetry ~k t engine labels ~use_cache =
    let d = Pairwise.dim engine in
    let rounds = min k d in
    let cached = if use_cache then t.c_rounds else [||] in
    let new_rounds = Array.init rounds (fun _ -> fresh_round ()) in
    let picks = ref [] in
    (* Once a cached winner flips, every later round's cache describes a
       selection path that no longer exists — warm off from there. *)
    let warm = ref use_cache in
    (try
       for round = 0 to rounds - 1 do
         let rnd = new_rounds.(round) in
         let pick =
           if !warm && round < Array.length cached then begin
             let c = cached.(round) in
             rnd.w_feature <- c.w_feature;
             rnd.w_n0 <- c.w_n0;
             rnd.w_counts <- c.w_counts;
             rnd.w_u <- c.w_u;
             match certified_round ~telemetry t engine labels (round + 1) rnd with
             | Some _ as pick -> pick
             | None ->
               let pick = full_round ~jobs ~telemetry t engine labels (round + 1) rnd in
               (match pick with
               | Some (f, _) when f <> c.w_feature -> warm := false
               | _ -> ());
               pick
           end
           else full_round ~jobs ~telemetry t engine labels (round + 1) rnd
         in
         match pick with
         | None -> raise Exit
         | Some p -> picks := p :: !picks
       done
     with Exit -> ());
    t.c_rounds <- new_rounds;
    List.rev !picks

  let bits_equal a b len =
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < len do
      (* bit comparison, not [Float.equal]: artifacts print %h hex floats,
         so -0. vs 0. in a scaled coordinate is an observable difference *)
      if not (Int64.equal (Int64.bits_of_float a.(!i)) (Int64.bits_of_float b.(!i)))
      then ok := false;
      incr i
    done;
    !ok

  let ints_equal a b len =
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < len do
      if a.(!i) <> b.(!i) then ok := false;
      incr i
    done;
    !ok

  let nn_run ?(jobs = 1) ?telemetry ~k t (ds : Dataset.t) =
    let m, labels = Dataset.points_matrix ds in
    let n = Mat.rows m and d = Mat.cols m in
    let pts = Mat.data m in
    let extends =
      t.c_primed && t.c_k = k && t.c_d = d && n >= t.c_n
      && ints_equal labels t.c_labels t.c_n
      && bits_equal pts t.c_pts (t.c_n * d)
    in
    let engine = Pairwise.create m in
    if extends then t.c_generations <- t.c_generations + 1
    else t.c_primes <- t.c_primes + 1;
    let picks = run_rounds ~jobs ?telemetry ~k t engine labels ~use_cache:extends in
    t.c_primed <- true;
    t.c_k <- k;
    t.c_d <- d;
    t.c_n <- n;
    t.c_pts <- Array.sub pts 0 (n * d);
    t.c_labels <- Array.sub labels 0 n;
    t.c_picks <- picks;
    picks
end
