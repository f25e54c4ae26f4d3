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
