(* Tests for the machine-learning substrate: datasets, scaling, NN, LS-SVM,
   output codes, metrics, MIS, greedy selection, LDA, decision trees. *)

let rng = Rng.create 808

(* Two well-separated Gaussian blobs per class in 2-D. *)
let blobs ~classes ~per_class =
  Array.init (classes * per_class) (fun i ->
      let c = i mod classes in
      let cx = 6.0 *. float_of_int c in
      let x = [| cx +. Rng.gaussian rng; Rng.gaussian rng |] in
      (x, c))

let mk_example ?(group = "g") ?(tag = "t") features label costs =
  { Dataset.features; label; tag; group; costs }

let tiny_dataset () =
  Dataset.create
    ~feature_names:[| "f0"; "f1" |]
    ~n_classes:2
    [
      mk_example ~tag:"a" ~group:"g1" [| 0.0; 1.0 |] 0 [| 1.0; 2.0 |];
      mk_example ~tag:"b" ~group:"g1" [| 1.0; 3.0 |] 1 [| 3.0; 1.5 |];
      mk_example ~tag:"c" ~group:"g2" [| 2.0; 5.0 |] 1 [| 4.0; 2.0 |];
    ]

(* --- Dataset --- *)

let test_dataset_create_checks () =
  Alcotest.(check bool) "wrong feature arity rejected" true
    (try
       ignore
         (Dataset.create ~feature_names:[| "a" |] ~n_classes:2
            [ mk_example [| 1.0; 2.0 |] 0 [| 1.0; 1.0 |] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "label range checked" true
    (try
       ignore
         (Dataset.create ~feature_names:[| "a" |] ~n_classes:2
            [ mk_example [| 1.0 |] 5 [| 1.0; 1.0 |] ]);
       false
     with Invalid_argument _ -> true)

let test_dataset_select_features () =
  let ds = tiny_dataset () in
  let sel = Dataset.select_features ds [| 1 |] in
  Alcotest.(check (array string)) "names" [| "f1" |] sel.Dataset.feature_names;
  Alcotest.(check (array (float 0.0))) "column" [| 1.0; 3.0; 5.0 |]
    (Dataset.feature_column sel 0)

let test_dataset_groups () =
  let ds = tiny_dataset () in
  Alcotest.(check (list string)) "groups in order" [ "g1"; "g2" ] (Dataset.groups ds);
  let without = Dataset.without_group ds "g1" in
  Alcotest.(check int) "g1 dropped" 1 (Dataset.size without)

let test_dataset_csv_roundtrip () =
  let ds = tiny_dataset () in
  let path = Filename.temp_file "unrollml_ds" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset.to_csv ds path;
      let ds' = Dataset.of_csv path in
      Alcotest.(check int) "size" (Dataset.size ds) (Dataset.size ds');
      Alcotest.(check (array string)) "names" ds.Dataset.feature_names ds'.Dataset.feature_names;
      Array.iteri
        (fun i (e : Dataset.example) ->
          let e' = ds'.Dataset.examples.(i) in
          Alcotest.(check string) "tag" e.Dataset.tag e'.Dataset.tag;
          Alcotest.(check int) "label" e.Dataset.label e'.Dataset.label;
          Alcotest.(check (array (float 1e-9))) "features" e.Dataset.features e'.Dataset.features)
        ds.Dataset.examples)

(* --- Scale --- *)

let test_scale_zscore () =
  let ds = tiny_dataset () in
  let s = Scale.fit ds in
  let scaled = Scale.apply s ds in
  for j = 0 to 1 do
    let col = Dataset.feature_column scaled j in
    Alcotest.(check (float 1e-9)) "zero mean" 0.0 (Stats.mean col);
    Alcotest.(check (float 1e-9)) "unit std" 1.0 (Stats.stddev col)
  done

let test_scale_constant_feature () =
  let ds =
    Dataset.create ~feature_names:[| "c" |] ~n_classes:2
      [
        mk_example [| 7.0 |] 0 [| 1.0; 1.0 |];
        mk_example [| 7.0 |] 1 [| 1.0; 1.0 |];
      ]
  in
  let s = Scale.fit ds in
  Alcotest.(check (array (float 1e-9))) "constant maps to 0" [| 0.0 |]
    (Scale.transform s [| 7.0 |])

(* --- Knn --- *)

let test_knn_separable () =
  let pairs = blobs ~classes:3 ~per_class:30 in
  let knn = Knn.train ~radius:0.8 ~n_classes:3 pairs in
  let errors = ref 0 in
  Array.iteri
    (fun i p -> if p <> snd pairs.(i) then incr errors)
    (Knn.loo_predictions knn);
  Alcotest.(check bool) "high accuracy on blobs" true
    (float_of_int !errors /. float_of_int (Array.length pairs) < 0.05)

let test_knn_1nn_fallback () =
  (* Radius 0 forces the fallback; nearest neighbor decides. *)
  let pairs = [| ([| 0.0 |], 0); ([| 10.0 |], 1) |] in
  let knn = Knn.train ~radius:0.0 ~n_classes:2 pairs in
  Alcotest.(check int) "nearest wins" 0 (Knn.predict knn [| 1.0 |]);
  Alcotest.(check int) "other side" 1 (Knn.predict knn [| 9.0 |])

let test_knn_confidence () =
  let pairs = [| ([| 0.0 |], 0); ([| 0.1 |], 0); ([| 0.2 |], 0); ([| 10.0 |], 1) |] in
  let knn = Knn.train ~radius:1.0 ~n_classes:2 pairs in
  let pred, conf = Knn.predict_confidence knn [| 0.1 |] in
  Alcotest.(check int) "majority" 0 pred;
  Alcotest.(check (float 1e-9)) "unanimous" 1.0 conf;
  let _, conf_far = Knn.predict_confidence knn [| 100.0 |] in
  Alcotest.(check (float 1e-9)) "fallback confidence 0" 0.0 conf_far

let test_knn_majority_vote () =
  let pairs = [| ([| 0.0 |], 1); ([| 0.2 |], 1); ([| 0.4 |], 0) |] in
  let knn = Knn.train ~radius:2.0 ~n_classes:2 pairs in
  Alcotest.(check int) "2-1 vote" 1 (Knn.predict knn [| 0.2 |])

(* --- Kernel --- *)

let test_kernel_values () =
  Alcotest.(check (float 1e-9)) "rbf self" 1.0 (Kernel.apply (Kernel.Rbf 0.7) [| 1.; 2. |] [| 1.; 2. |]);
  Alcotest.(check (float 1e-9)) "linear" 11.0 (Kernel.apply Kernel.Linear [| 1.; 2. |] [| 3.; 4. |]);
  Alcotest.(check (float 1e-9)) "poly" 16.0
    (Kernel.apply (Kernel.Poly { degree = 2; bias = 1.0 }) [| 1.; 1. |] [| 1.; 2. |])

let test_kernel_gram_symmetric () =
  let pts = Array.init 10 (fun _ -> [| Rng.gaussian rng; Rng.gaussian rng |]) in
  let g = Kernel.gram (Kernel.Rbf 0.5) pts in
  Alcotest.(check bool) "symmetric" true (Mat.equal g (Mat.transpose g))

(* --- Lssvm --- *)

let test_lssvm_separable () =
  let pairs = blobs ~classes:2 ~per_class:25 in
  let points = Array.map fst pairs in
  let targets = Array.map (fun (_, y) -> if y = 0 then -1.0 else 1.0) pairs in
  let model = Lssvm.train ~kernel:(Kernel.Rbf 0.5) ~gamma:10.0 points targets in
  let errors = ref 0 in
  Array.iteri
    (fun i (x, _) ->
      let d = Lssvm.decision model x in
      if (d >= 0.0) <> (targets.(i) > 0.0) then incr errors)
    pairs;
  Alcotest.(check int) "separates blobs" 0 !errors

let test_lssvm_loo_matches_brute_force () =
  (* The closed-form LOO residual must equal actually retraining without
     each example. *)
  let pairs = blobs ~classes:2 ~per_class:8 in
  let points = Array.map fst pairs in
  let targets = Array.map (fun (_, y) -> if y = 0 then -1.0 else 1.0) pairs in
  let kernel = Kernel.Rbf 0.3 and gamma = 5.0 in
  let loo = (Lssvm.loo_decisions ~kernel ~gamma points [| targets |]).(0) in
  let n = Array.length points in
  for i = 0 to n - 1 do
    let keep j = j <> i in
    let pts' = Array.of_list (List.filteri (fun j _ -> keep j) (Array.to_list points)) in
    let tgt' = Array.of_list (List.filteri (fun j _ -> keep j) (Array.to_list targets)) in
    let model = Lssvm.train ~kernel ~gamma pts' tgt' in
    let direct = Lssvm.decision model points.(i) in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "loo decision %d" i)
      direct loo.(i)
  done

let test_lssvm_decision_batch () =
  let pairs = blobs ~classes:2 ~per_class:10 in
  let points = Array.map fst pairs in
  let t1 = Array.map (fun (_, y) -> if y = 0 then -1.0 else 1.0) pairs in
  let t2 = Array.map (fun t -> -.t) t1 in
  let ms = Lssvm.train_multi ~kernel:(Kernel.Rbf 0.5) ~gamma:4.0 points [| t1; t2 |] in
  let q = [| 0.5; 0.5 |] in
  let batch = Lssvm.decision_batch ms q in
  Alcotest.(check (float 1e-9)) "batch = individual 0" (Lssvm.decision ms.(0) q) batch.(0);
  Alcotest.(check (float 1e-9)) "batch = individual 1" (Lssvm.decision ms.(1) q) batch.(1)

let test_lssvm_gamma_positive () =
  Alcotest.(check bool) "gamma must be positive" true
    (try
       ignore (Lssvm.train ~kernel:Kernel.Linear ~gamma:0.0 [| [| 1.0 |] |] [| 1.0 |]);
       false
     with Invalid_argument _ -> true)

(* --- Multiclass --- *)

let test_multiclass_blobs () =
  let pairs = blobs ~classes:4 ~per_class:20 in
  let model = Multiclass.train ~n_classes:4 ~kernel:(Kernel.Rbf 0.3) ~gamma:10.0 pairs in
  let errors = ref 0 in
  Array.iter (fun (x, y) -> if Multiclass.predict model x <> y then incr errors) pairs;
  Alcotest.(check bool) "trains on 4 classes" true
    (float_of_int !errors /. float_of_int (Array.length pairs) < 0.05)

let test_multiclass_codewords () =
  let pairs = blobs ~classes:3 ~per_class:5 in
  let model = Multiclass.train ~n_classes:3 ~kernel:Kernel.Linear ~gamma:1.0 pairs in
  Alcotest.(check (array int)) "one-vs-rest codeword" [| 1; -1; -1 |]
    (Multiclass.codeword model 0);
  Alcotest.(check int) "decision per class" 3
    (Array.length (Multiclass.decision_values model [| 0.0; 0.0 |]))

let test_multiclass_loo_matches_brute_force () =
  let pairs = blobs ~classes:3 ~per_class:6 in
  let kernel = Kernel.Rbf 0.3 and gamma = 5.0 in
  let loo = Multiclass.loo_predictions ~n_classes:3 ~kernel ~gamma pairs in
  Array.iteri
    (fun i (x, _) ->
      let rest =
        Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list pairs))
      in
      let model = Multiclass.train ~n_classes:3 ~kernel ~gamma rest in
      Alcotest.(check int) (Printf.sprintf "loo pred %d" i) (Multiclass.predict model x)
        loo.(i))
    pairs

let test_multiclass_ecoc () =
  let pairs = blobs ~classes:4 ~per_class:15 in
  let model =
    Multiclass.train ~code:(Multiclass.Dense_random { bits = 8; seed = 3 }) ~n_classes:4
      ~kernel:(Kernel.Rbf 0.3) ~gamma:10.0 pairs
  in
  let errors = ref 0 in
  Array.iter (fun (x, y) -> if Multiclass.predict model x <> y then incr errors) pairs;
  Alcotest.(check bool) "ECOC works too" true
    (float_of_int !errors /. float_of_int (Array.length pairs) < 0.1)

(* --- Metrics --- *)

let test_metrics_accuracy () =
  Alcotest.(check (float 1e-9)) "accuracy" 0.75
    (Metrics.accuracy ~pred:[| 0; 1; 2; 0 |] ~truth:[| 0; 1; 2; 1 |])

let test_metrics_rank_distribution () =
  let costs = [| [| 10.0; 20.0; 30.0 |]; [| 30.0; 10.0; 20.0 |] |] in
  let d = Metrics.rank_distribution ~pred:[| 0; 2 |] ~costs in
  Alcotest.(check (array (float 1e-9))) "half optimal half second" [| 0.5; 0.5; 0.0 |] d

let test_metrics_rank_cost_penalty () =
  let costs = [| [| 10.0; 20.0 |]; [| 40.0; 20.0 |] |] in
  let p = Metrics.rank_cost_penalty ~costs in
  Alcotest.(check (float 1e-9)) "rank0 = 1x" 1.0 p.(0);
  Alcotest.(check (float 1e-9)) "rank1 = 2x" 2.0 p.(1)

let test_metrics_cost_ratio () =
  let costs = [| [| 10.0; 15.0 |] |] in
  Alcotest.(check (float 1e-9)) "ratio" 1.5 (Metrics.mean_cost_ratio ~pred:[| 1 |] ~costs)

let test_metrics_within () =
  let costs = [| [| 100.0; 106.0 |]; [| 100.0; 120.0 |] |] in
  Alcotest.(check (float 1e-9)) "within 7%" 0.5
    (Metrics.within_of_optimal ~pred:[| 1; 1 |] ~costs 1.07)

let test_metrics_confusion () =
  let m = Metrics.confusion ~n_classes:2 ~pred:[| 0; 1; 1 |] ~truth:[| 0; 0; 1 |] in
  Alcotest.(check int) "tp class0" 1 m.(0).(0);
  Alcotest.(check int) "confused" 1 m.(0).(1);
  Alcotest.(check int) "tp class1" 1 m.(1).(1)

(* --- Mis --- *)

let test_mis_informative () =
  let labels = Array.init 200 (fun i -> i mod 2) in
  let perfect = Array.map float_of_int labels in
  let constant = Array.make 200 1.0 in
  let noise = Array.init 200 (fun _ -> Rng.gaussian rng) in
  Alcotest.(check (float 1e-6)) "perfect feature = 1 bit" 1.0 (Mis.score perfect labels);
  Alcotest.(check (float 1e-9)) "constant = 0 bits" 0.0 (Mis.score constant labels);
  Alcotest.(check bool) "noise near 0" true (Mis.score noise labels < 0.25)

let test_mis_rank_order () =
  let labels = Array.init 100 (fun i -> i mod 2) in
  let ds =
    Dataset.create ~feature_names:[| "noise"; "perfect" |] ~n_classes:2
      (List.init 100 (fun i ->
           mk_example
             [| Rng.gaussian rng; float_of_int (i mod 2) |]
             labels.(i) [| 1.0; 1.0 |]))
  in
  let ranked = Mis.rank ds in
  Alcotest.(check int) "perfect feature first" 1 (fst ranked.(0))

(* --- Greedy selection --- *)

let test_greedy_finds_informative () =
  let ds =
    Dataset.create ~feature_names:[| "noise"; "perfect"; "constant" |] ~n_classes:2
      (List.init 60 (fun i ->
           let y = i mod 2 in
           mk_example
             [| Rng.gaussian rng; (6.0 *. float_of_int y) +. (0.1 *. Rng.gaussian rng); 1.0 |]
             y [| 1.0; 1.0 |]))
  in
  let picks =
    Greedy_select.run ~n_features:3 ~k:2 (Greedy_select.nn_training_error ds)
  in
  Alcotest.(check int) "first pick is the informative feature" 1 (fst (List.hd picks));
  Alcotest.(check bool) "error drops" true (snd (List.hd picks) < 0.2)

let test_greedy_error_monotone_interface () =
  (* run reports the error at each accepted step; the first is the best
     single feature. *)
  let errs = Hashtbl.create 4 in
  Hashtbl.replace errs [ 0 ] 0.5;
  Hashtbl.replace errs [ 1 ] 0.3;
  Hashtbl.replace errs [ 1; 0 ] 0.2;
  let error subset = Option.value (Hashtbl.find_opt errs subset) ~default:0.9 in
  let picks = Greedy_select.run ~n_features:2 ~k:2 error in
  Alcotest.(check (list (pair int (float 1e-9)))) "greedy order" [ (1, 0.3); (0, 0.2) ] picks

(* --- Lda --- *)

let test_lda_separates () =
  let pairs = blobs ~classes:2 ~per_class:40 in
  let lda = Lda.fit pairs in
  (* The first discriminant axis must separate the two blobs almost
     perfectly: project and threshold at the midpoint of class means. *)
  let proj = Array.map (fun (x, y) -> ((Lda.project lda x).(0), y)) pairs in
  let mean c =
    let vs = Array.to_list proj |> List.filter (fun (_, y) -> y = c) |> List.map fst in
    List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs)
  in
  let m0 = mean 0 and m1 = mean 1 in
  let mid = (m0 +. m1) /. 2.0 in
  let errors = ref 0 in
  Array.iter
    (fun (v, y) ->
      let side = if (v -. mid) *. (m1 -. m0) > 0.0 then 1 else 0 in
      if side <> y then incr errors)
    proj;
  Alcotest.(check bool) "projection separates" true
    (float_of_int !errors /. float_of_int (Array.length proj) < 0.05)

let test_lda_dims () =
  let pairs = blobs ~classes:3 ~per_class:10 in
  let lda = Lda.fit ~dims:2 pairs in
  Alcotest.(check int) "two axes" 2 (Array.length (Lda.axes lda));
  Alcotest.(check int) "projection is 2-D" 2 (Array.length (Lda.project lda (fst pairs.(0))))

(* --- Decision tree --- *)

let test_tree_learns_threshold () =
  let pairs =
    Array.init 100 (fun i ->
        let y = if i < 50 then 0 else 1 in
        ([| (if y = 0 then 1.0 else 5.0) +. (0.3 *. Rng.gaussian rng) |], y))
  in
  let tree = Decision_tree.train ~n_classes:2 pairs in
  Alcotest.(check int) "left" 0 (Decision_tree.predict tree [| 1.0 |]);
  Alcotest.(check int) "right" 1 (Decision_tree.predict tree [| 5.0 |]);
  Alcotest.(check bool) "small tree" true (Decision_tree.leaves tree <= 4)

let test_tree_depth_bound () =
  let pairs = blobs ~classes:4 ~per_class:30 in
  let tree = Decision_tree.train ~max_depth:3 ~n_classes:4 pairs in
  Alcotest.(check bool) "depth bounded" true (Decision_tree.depth tree <= 4)

(* --- QCheck --- *)

let prop_scale_inverse_consistent =
  QCheck.Test.make ~count:50 ~name:"scaled columns are z-scored"
    QCheck.(list_of_size Gen.(3 -- 20) (pair (float_bound_exclusive 10.0) bool))
    (fun rows ->
      let ds =
        Dataset.create ~feature_names:[| "x" |] ~n_classes:2
          (List.map
             (fun (v, b) -> mk_example [| v |] (if b then 1 else 0) [| 1.0; 1.0 |])
             rows)
      in
      let scaled = Scale.apply (Scale.fit ds) ds in
      let col = Dataset.feature_column scaled 0 in
      Float.abs (Stats.mean col) < 1e-6)

let prop_knn_predicts_training_label_radius0 =
  QCheck.Test.make ~count:50 ~name:"1-NN classifies a training point as itself"
    QCheck.(list_of_size Gen.(2 -- 20) (pair (float_bound_exclusive 100.0) (0 -- 3)))
    (fun rows ->
      (* Distinct points: de-duplicate by x. *)
      let rows = List.sort_uniq (fun (a, _) (b, _) -> compare a b) rows in
      if List.length rows < 2 then true
      else begin
        let pairs = Array.of_list (List.map (fun (x, y) -> ([| x |], y)) rows) in
        let knn = Knn.train ~radius:0.0 ~n_classes:4 pairs in
        Array.for_all (fun (x, y) -> Knn.predict knn x = y) pairs
      end)

let base_tests =
  [
    ("dataset create checks", `Quick, test_dataset_create_checks);
    ("dataset select features", `Quick, test_dataset_select_features);
    ("dataset groups", `Quick, test_dataset_groups);
    ("dataset csv roundtrip", `Quick, test_dataset_csv_roundtrip);
    ("scale zscore", `Quick, test_scale_zscore);
    ("scale constant", `Quick, test_scale_constant_feature);
    ("knn separable", `Quick, test_knn_separable);
    ("knn 1nn fallback", `Quick, test_knn_1nn_fallback);
    ("knn confidence", `Quick, test_knn_confidence);
    ("knn majority", `Quick, test_knn_majority_vote);
    ("kernel values", `Quick, test_kernel_values);
    ("kernel gram", `Quick, test_kernel_gram_symmetric);
    ("lssvm separable", `Quick, test_lssvm_separable);
    ("lssvm loo = brute force", `Quick, test_lssvm_loo_matches_brute_force);
    ("lssvm batch", `Quick, test_lssvm_decision_batch);
    ("lssvm gamma", `Quick, test_lssvm_gamma_positive);
    ("multiclass blobs", `Quick, test_multiclass_blobs);
    ("multiclass codewords", `Quick, test_multiclass_codewords);
    ("multiclass loo = brute force", `Quick, test_multiclass_loo_matches_brute_force);
    ("multiclass ecoc", `Quick, test_multiclass_ecoc);
    ("metrics accuracy", `Quick, test_metrics_accuracy);
    ("metrics rank distribution", `Quick, test_metrics_rank_distribution);
    ("metrics rank cost penalty", `Quick, test_metrics_rank_cost_penalty);
    ("metrics cost ratio", `Quick, test_metrics_cost_ratio);
    ("metrics within", `Quick, test_metrics_within);
    ("metrics confusion", `Quick, test_metrics_confusion);
    ("mis informative", `Quick, test_mis_informative);
    ("mis rank order", `Quick, test_mis_rank_order);
    ("greedy informative", `Quick, test_greedy_finds_informative);
    ("greedy interface", `Quick, test_greedy_error_monotone_interface);
    ("lda separates", `Quick, test_lda_separates);
    ("lda dims", `Quick, test_lda_dims);
    ("tree threshold", `Quick, test_tree_learns_threshold);
    ("tree depth bound", `Quick, test_tree_depth_bound);
    QCheck_alcotest.to_alcotest prop_scale_inverse_consistent;
    QCheck_alcotest.to_alcotest prop_knn_predicts_training_label_radius0;
  ]

let _ = ()

(* --- Loocv (generic driver) --- *)

let test_loocv_generic_matches_knn_fast_path () =
  let pairs = blobs ~classes:2 ~per_class:10 in
  let fast = Knn.loo_predictions (Knn.train ~radius:0.8 ~n_classes:2 pairs) in
  let generic =
    Loocv.run
      ~train:(Knn.train ~radius:0.8 ~n_classes:2)
      ~predict:Knn.predict pairs
  in
  Alcotest.(check (array int)) "generic = classifier shortcut" fast generic

let test_loocv_accuracy_bounds () =
  let pairs = blobs ~classes:2 ~per_class:15 in
  let acc =
    Loocv.accuracy ~train:(Decision_tree.train ~n_classes:2)
      ~predict:Decision_tree.predict pairs
  in
  Alcotest.(check bool) "separable blobs classified" true (acc > 0.85)

let test_loocv_grouped_excludes_group () =
  (* Two groups with opposite labels at the same point: a grouped LOO
     prediction can only come from the other group, so it must be wrong. *)
  let pairs = [| ([| 0.0 |], 0); ([| 0.1 |], 0); ([| 0.0 |], 1); ([| 0.1 |], 1) |] in
  let groups = [| "a"; "a"; "b"; "b" |] in
  let preds =
    Loocv.grouped ~groups
      ~train:(Knn.train ~radius:1.0 ~n_classes:2)
      ~predict:Knn.predict pairs
  in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) "cross-group prediction flips" true (p <> snd pairs.(i)))
    preds

let loocv_tests =
  [
    ("loocv generic = fast path", `Quick, test_loocv_generic_matches_knn_fast_path);
    ("loocv accuracy", `Quick, test_loocv_accuracy_bounds);
    ("loocv grouped", `Quick, test_loocv_grouped_excludes_group);
  ]


(* --- Kernel string roundtrip --- *)

let test_kernel_of_string_roundtrip () =
  List.iter
    (fun k ->
      match Kernel.of_string (Kernel.name k) with
      | Some k' -> Alcotest.(check string) "roundtrip" (Kernel.name k) (Kernel.name k')
      | None -> Alcotest.failf "failed to parse %s" (Kernel.name k))
    [ Kernel.Linear; Kernel.Rbf 0.03; Kernel.Rbf 12.5; Kernel.Poly { degree = 3; bias = 0.5 } ];
  Alcotest.(check bool) "garbage rejected" true (Kernel.of_string "quux(1)" = None)

let kernel_string_tests =
  [ ("kernel of_string", `Quick, test_kernel_of_string_roundtrip) ]

(* --- Pairwise engine --- *)

(* Blobs as a Dataset: feature 0 carries the classes, the rest is noise. *)
let blob_dataset ~classes ~per_class ~d =
  Dataset.create
    ~feature_names:(Array.init d (Printf.sprintf "f%d"))
    ~n_classes:classes
    (List.init (classes * per_class) (fun i ->
         let c = i mod classes in
         let features =
           Array.init d (fun j ->
               if j = 0 then (6.0 *. float_of_int c) +. Rng.gaussian rng
               else Rng.gaussian rng)
         in
         mk_example features c (Array.make classes 1.0)))

let test_points_matrix () =
  let ds = tiny_dataset () in
  let m, labels = Dataset.points_matrix ds in
  Alcotest.(check int) "rows" 3 (Mat.rows m);
  Alcotest.(check int) "cols" 2 (Mat.cols m);
  Alcotest.(check (array (float 0.0))) "row 1" [| 1.0; 3.0 |] (Mat.row m 1);
  Alcotest.(check (array int)) "labels" [| 0; 1; 1 |] labels

let test_pairwise_rbf_gram_matches_kernel () =
  (* With every feature committed in natural order, the triangle's
     accumulation order equals Vec.dist2's summation order, so the RBF
     Gram is bit-identical to Kernel.apply. *)
  let ds = blob_dataset ~classes:2 ~per_class:6 ~d:3 in
  let engine, _ = Pairwise.of_dataset ds in
  List.iter (Pairwise.commit engine) [ 0; 1; 2 ];
  let g = Pairwise.rbf_gram ~gamma:0.4 engine in
  let n = Dataset.size ds in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let direct =
        Kernel.apply (Kernel.Rbf 0.4) ds.Dataset.examples.(i).Dataset.features
          ds.Dataset.examples.(k).Dataset.features
      in
      Alcotest.(check (float 0.0)) (Printf.sprintf "gram %d,%d" i k) direct (Mat.get g i k)
    done
  done

let test_nn_run_matches_generic () =
  let ds = blob_dataset ~classes:3 ~per_class:12 ~d:5 in
  let reference =
    Greedy_select.run ~n_features:5 ~k:3 (Greedy_select.nn_training_error ds)
  in
  Alcotest.(check (list (pair int (float 0.0)))) "jobs 1" reference
    (Greedy_select.nn_run ~jobs:1 ~k:3 ds);
  Alcotest.(check (list (pair int (float 0.0)))) "jobs 4" reference
    (Greedy_select.nn_run ~jobs:4 ~k:3 ds)

let test_svm_run_matches_generic () =
  let ds = blob_dataset ~classes:2 ~per_class:10 ~d:4 in
  let kernel = Kernel.Rbf 0.5 and gamma = 16.0 in
  let reference =
    Greedy_select.run ~n_features:4 ~k:2
      (Greedy_select.svm_training_error ~kernel ~gamma ~max_examples:400 ds)
  in
  Alcotest.(check (list (pair int (float 1e-9)))) "jobs 1" reference
    (Greedy_select.svm_run ~jobs:1 ~kernel ~gamma ~max_examples:400 ~k:2 ds);
  Alcotest.(check (list (pair int (float 1e-9)))) "jobs 4" reference
    (Greedy_select.svm_run ~jobs:4 ~kernel ~gamma ~max_examples:400 ~k:2 ds)

let test_greedy_telemetry_rounds () =
  let ds = blob_dataset ~classes:2 ~per_class:8 ~d:4 in
  let sink = Telemetry.create () in
  ignore (Greedy_select.nn_run ~telemetry:sink ~k:2 ds);
  Alcotest.(check int) "round 1 recorded" 1 (Telemetry.calls sink ~pass:"greedy.nn[round 1]");
  Alcotest.(check int) "round 1 candidates" 4
    (Telemetry.counter sink ~pass:"greedy.nn[round 1]" "candidates");
  Alcotest.(check int) "round 2 candidates" 3
    (Telemetry.counter sink ~pass:"greedy.nn[round 2]" "candidates")

let test_loo_jobs_invariant () =
  let pairs = blobs ~classes:3 ~per_class:15 in
  let knn = Knn.train ~radius:0.8 ~n_classes:3 pairs in
  Alcotest.(check (array int)) "knn loo jobs 1 = jobs 4"
    (Knn.loo_predictions ~jobs:1 knn)
    (Knn.loo_predictions ~jobs:4 knn);
  let small = blobs ~classes:3 ~per_class:6 in
  let loo jobs =
    Multiclass.loo_predictions ~jobs ~n_classes:3 ~kernel:(Kernel.Rbf 0.3) ~gamma:5.0 small
  in
  Alcotest.(check (array int)) "multiclass loo jobs 1 = jobs 4" (loo 1) (loo 4)

let test_training_predictions_matches_predict () =
  let pairs = blobs ~classes:3 ~per_class:8 in
  let kernel = Kernel.Rbf 0.4 and gamma = 5.0 in
  let gram = Kernel.gram_matrix kernel (Mat.of_rows (Array.map fst pairs)) in
  let labels = Array.map snd pairs in
  let preds = Multiclass.training_predictions ~n_classes:3 ~gamma ~gram labels in
  let model = Multiclass.train ~n_classes:3 ~kernel ~gamma pairs in
  Array.iteri
    (fun i (x, _) ->
      Alcotest.(check int) (Printf.sprintf "pred %d" i) (Multiclass.predict model x)
        preds.(i))
    pairs

let pairwise_case_gen =
  QCheck.Gen.(
    let* n = 2 -- 8 in
    let* d = 1 -- 5 in
    let* entries = array_size (return (n * d)) (float_bound_exclusive 4.0) in
    return (n, d, entries))

let prop_pairwise_incremental_exact =
  QCheck.Test.make ~count:100 ~name:"incremental dist2 = direct recomputation"
    (QCheck.make pairwise_case_gen)
    (fun (n, d, entries) ->
      let m = Mat.init n d (fun i j -> entries.((i * d) + j) -. 2.0) in
      let engine = Pairwise.create m in
      let chosen = ref [] in
      let ok = ref true in
      let proj subset r = Array.of_list (List.map (fun j -> Mat.get m r j) subset) in
      for f = 0 to d - 1 do
        let subset = List.rev (f :: !chosen) in
        for i = 0 to n - 1 do
          for k = i + 1 to n - 1 do
            let direct = Vec.dist2 (proj subset i) (proj subset k) in
            if not (Float.equal direct (Pairwise.dist2 ~cand:f engine i k)) then ok := false
          done
        done;
        Pairwise.commit engine f;
        chosen := f :: !chosen
      done;
      (* fully committed triangle = dist2 over the whole rows *)
      for i = 0 to n - 1 do
        for k = i + 1 to n - 1 do
          if not (Float.equal (Vec.dist2 (Mat.row m i) (Mat.row m k)) (Pairwise.dist2 engine i k))
          then ok := false
        done
      done;
      !ok)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v) a b

let pairwise_tests =
  [
    ("dataset points matrix", `Quick, test_points_matrix);
    ("pairwise rbf gram = kernel apply", `Quick, test_pairwise_rbf_gram_matches_kernel);
    ("greedy nn_run = generic run", `Quick, test_nn_run_matches_generic);
    ("greedy svm_run = generic run", `Quick, test_svm_run_matches_generic);
    ("greedy telemetry rounds", `Quick, test_greedy_telemetry_rounds);
    ("loo jobs invariance", `Quick, test_loo_jobs_invariant);
    ("training predictions = predict", `Quick, test_training_predictions_matches_predict);
    QCheck_alcotest.to_alcotest prop_pairwise_incremental_exact;
  ]

(* --- Mlp --- *)

let mlp_flat m =
  let _, ws, bs = Mlp.export m in
  Array.concat (Array.to_list ws @ Array.to_list bs)

(* Blob inputs are unscaled (the training pipeline z-scores first), so a
   gentler learning rate than the production default keeps tanh units out
   of saturation. *)
let small_hyper =
  {
    Mlp.default_hyper with
    Mlp.hidden = [| 8 |];
    epochs = 60;
    batch = 16;
    patience = 60;
    lr = 0.02;
  }

(* Central finite differences vs the analytic gradient, on random small
   nets with random parameters and inputs.  The tolerance is relative:
   second-order truncation error scales with the magnitudes involved. *)
let prop_mlp_gradient_check =
  QCheck.Test.make ~count:40 ~name:"mlp analytic gradient = finite differences"
    QCheck.(
      make
        Gen.(
          let* seed = 0 -- 10_000 in
          let* d = 2 -- 5 in
          let* layers = 1 -- 2 in
          let* widths = list_size (return layers) (2 -- 6) in
          let* k = 2 -- 5 in
          let* y = 0 -- (k - 1) in
          let* x = list_size (return d) (float_bound_exclusive 2.0) in
          return (seed, d, widths, k, y, x)))
    (fun (seed, d, widths, k, y, x) ->
      let dims = Array.concat [ [| d |]; Array.of_list widths; [| k |] ] in
      let net = Mlp.init ~seed ~dims in
      (* Perturb away from the symmetric zero-bias start so the check also
         covers non-trivial bias gradients. *)
      let r = Rng.derive seed "grad-check" 0 in
      for p = 0 to Mlp.param_count net - 1 do
        Mlp.set_param net p (Mlp.get_param net p +. (0.2 *. Rng.gaussian r))
      done;
      let x = Array.of_list (List.map (fun v -> v -. 1.0) x) in
      let analytic = Mlp.example_gradient net x y in
      let eps = 1e-3 in
      let ok = ref true in
      for p = 0 to Mlp.param_count net - 1 do
        let saved = Mlp.get_param net p in
        Mlp.set_param net p (saved +. eps);
        let up = Mlp.example_loss net x y in
        Mlp.set_param net p (saved -. eps);
        let down = Mlp.example_loss net x y in
        Mlp.set_param net p saved;
        let fd = (up -. down) /. (2.0 *. eps) in
        let a = analytic.(p) in
        if Float.abs (a -. fd) > 1e-5 +. (1e-3 *. Float.max (Float.abs a) (Float.abs fd))
        then ok := false
      done;
      !ok)

let test_mlp_loss_decreases_on_separable () =
  (* Separable blobs: training must reduce the loss well below the fresh
     net's, and the trained net must classify its own training set. *)
  let pairs = blobs ~classes:3 ~per_class:20 in
  let d = Array.length (fst pairs.(0)) in
  let hyper = { small_hyper with Mlp.holdout = 0.0 } in
  let fresh = Mlp.init ~seed:11 ~dims:[| d; 8; 3 |] in
  let fresh_loss =
    Array.fold_left (fun acc (x, y) -> acc +. Mlp.example_loss fresh x y) 0.0 pairs
    /. float_of_int (Array.length pairs)
  in
  let m, stats = Mlp.train ~seed:11 ~hyper ~n_classes:3 pairs in
  Alcotest.(check bool) "loss drops" true (stats.Mlp.final_loss < 0.5 *. fresh_loss);
  let errors = ref 0 in
  Array.iter (fun (x, y) -> if Mlp.predict m x <> y then incr errors) pairs;
  Alcotest.(check bool) "separable blobs learned" true
    (float_of_int !errors /. float_of_int (Array.length pairs) < 0.1)

let test_mlp_same_seed_bit_identical () =
  let pairs = blobs ~classes:3 ~per_class:15 in
  let train () = fst (Mlp.train ~seed:5 ~hyper:small_hyper ~n_classes:3 pairs) in
  Alcotest.(check bool) "same seed, same bits" true
    (bits_equal (mlp_flat (train ())) (mlp_flat (train ())));
  let other = fst (Mlp.train ~seed:6 ~hyper:small_hyper ~n_classes:3 pairs) in
  Alcotest.(check bool) "different seed differs" false
    (bits_equal (mlp_flat (train ())) (mlp_flat other))

let test_mlp_holdout_append_order_stable () =
  (* Holdout membership is content-keyed: permuting the dataset must not
     move any example across the split. *)
  let pairs = blobs ~classes:3 ~per_class:20 in
  let member (x, y) = Mlp.holdout_member ~seed:7 ~holdout:0.25 x y in
  let forward = Array.map member pairs in
  let reversed = Array.map member (Array.of_list (List.rev (Array.to_list pairs))) in
  Alcotest.(check (array bool)) "membership survives reversal" forward
    (Array.of_list (List.rev (Array.to_list reversed)));
  let frac =
    let m = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 forward in
    float_of_int m /. float_of_int (Array.length forward)
  in
  Alcotest.(check bool) "roughly the requested fraction" true (frac > 0.05 && frac < 0.5)

let test_mlp_export_import_roundtrip () =
  let pairs = blobs ~classes:3 ~per_class:10 in
  let m = fst (Mlp.train ~seed:3 ~hyper:small_hyper ~n_classes:3 pairs) in
  let dims, weights, biases = Mlp.export m in
  let m' = Mlp.import ~dims ~weights ~biases in
  Alcotest.(check bool) "round-trip bits" true (bits_equal (mlp_flat m) (mlp_flat m'));
  Array.iter
    (fun (x, _) ->
      Alcotest.(check bool) "round-trip logits" true
        (bits_equal (Mlp.decision_values m x) (Mlp.decision_values m' x)))
    pairs;
  Alcotest.(check bool) "bad shape rejected" true
    (try
       ignore (Mlp.import ~dims:[| 2; 3 |] ~weights:[| [| 1.0 |] |] ~biases:[| [| 0.0 |] |]);
       false
     with Invalid_argument _ -> true)

let test_mlp_input_validation () =
  Alcotest.(check bool) "empty training set rejected" true
    (try
       ignore (Mlp.train ~seed:1 ~hyper:small_hyper ~n_classes:2 [||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "out-of-range label rejected" true
    (try
       ignore (Mlp.train ~seed:1 ~hyper:small_hyper ~n_classes:2 [| ([| 0.0 |], 5) |]);
       false
     with Invalid_argument _ -> true)

let test_mlp_predict_is_argmax () =
  let pairs = blobs ~classes:4 ~per_class:8 in
  let m = fst (Mlp.train ~seed:2 ~hyper:small_hyper ~n_classes:4 pairs) in
  Alcotest.(check int) "n_classes" 4 (Mlp.n_classes m);
  Array.iter
    (fun (x, _) ->
      let logits = Mlp.decision_values m x in
      Alcotest.(check int) "logit count" 4 (Array.length logits);
      let best = ref 0 in
      Array.iteri (fun i v -> if v > logits.(!best) then best := i) logits;
      Alcotest.(check int) "predict = argmax" !best (Mlp.predict m x))
    pairs

let mlp_tests =
  [
    ("mlp loss decreases on separable data", `Quick, test_mlp_loss_decreases_on_separable);
    ("mlp same seed bit-identical", `Quick, test_mlp_same_seed_bit_identical);
    ("mlp holdout append-order stable", `Quick, test_mlp_holdout_append_order_stable);
    ("mlp export/import roundtrip", `Quick, test_mlp_export_import_roundtrip);
    ("mlp input validation", `Quick, test_mlp_input_validation);
    ("mlp predict = argmax", `Quick, test_mlp_predict_is_argmax);
    QCheck_alcotest.to_alcotest prop_mlp_gradient_check;
  ]

let suite =
  base_tests @ loocv_tests @ kernel_string_tests @ pairwise_tests @ mlp_tests
