type env = {
  config : Config.t;
  benchmarks : Suite.benchmark list;
  labeled_off : Labeling.labeled array;
  labeled_on : Labeling.labeled array;
  merged : Labeling.labeled array;
  filtered_off : Labeling.labeled array;
  filtered_on : Labeling.labeled array;
  dataset_off : Dataset.t;
  dataset_on : Dataset.t;
  dataset_joint : Dataset.t;
  selected : int array;
  rows_off : Compiler.row array Lazy.t;
  rows_on : Compiler.row array Lazy.t;
  rows_joint : Compiler.row array Lazy.t;
}

let info progress fmt =
  if progress then Printf.eprintf (fmt ^^ "\n%!") else Printf.ifprintf stderr fmt

(* §7: classification uses the union of the MIS top features and the greedy
   picks of both classifiers. *)
let select_feature_subset ?(progress = false) ?warm (config : Config.t) dataset =
  let scaled = Scale.apply (Scale.fit dataset) dataset in
  let mis = Array.to_list (Mis.rank ~jobs:config.Config.jobs dataset) in
  let mis_top = List.filteri (fun i _ -> i < config.Config.mis_k) mis |> List.map fst in
  info progress "feature selection: MIS done";
  let nn_picks =
    (* The warm cache returns picks identical to [nn_run] — selection is
       the same function of the dataset either way.  The SVM side below
       always re-runs in full: its deterministic subsample re-strides as
       the dataset grows, so no warm bound applies (the invalidation rule
       of DESIGN.md §14). *)
    (match warm with
    | Some cache ->
      Greedy_select.Warm.nn_run ~jobs:config.Config.jobs ~telemetry:Telemetry.global
        ~k:config.Config.greedy_k cache scaled
    | None ->
      Greedy_select.nn_run ~jobs:config.Config.jobs ~telemetry:Telemetry.global
        ~k:config.Config.greedy_k scaled)
    |> List.map fst
  in
  info progress "feature selection: greedy NN done";
  let svm_picks =
    Greedy_select.svm_run ~jobs:config.Config.jobs ~telemetry:Telemetry.global
      ~kernel:config.Config.svm_kernel ~gamma:config.Config.svm_gamma
      ~max_examples:300 ~k:config.Config.greedy_k scaled
    |> List.map fst
  in
  info progress "feature selection: greedy SVM done";
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun f ->
      if not (Hashtbl.mem seen f) then begin
        Hashtbl.add seen f ();
        out := f :: !out
      end)
    (mis_top @ nn_picks @ svm_picks);
  Array.of_list (List.rev !out)

let build_env ?(progress = true) (config : Config.t) =
  info progress "generating 72-benchmark suite (scale %.2f)" config.Config.scale;
  let benchmarks = Suite.full ~scale:config.Config.scale ~seed:config.Config.seed in
  let count =
    List.fold_left (fun acc (b : Suite.benchmark) -> acc + Array.length b.Suite.loops) 0 benchmarks
  in
  info progress "labelling %d loops x 8 factors, SWP disabled" count;
  let tick label ~done_ ~total =
    if progress && (done_ mod (max 1 (total / 10)) = 0 || done_ = total) then
      Printf.eprintf "  %s: %d/%d\n%!" label done_ total
  in
  let labeled_off =
    Labeling.collect ~progress:(tick "swp-off") ~jobs:config.Config.jobs config
      ~swp:false benchmarks
  in
  info progress "labelling %d loops x 8 factors, SWP enabled" count;
  let labeled_on =
    Labeling.collect ~progress:(tick "swp-on") ~jobs:config.Config.jobs config
      ~swp:true benchmarks
  in
  let filter_labeled labeled =
    Array.of_list (List.filter Labeling.passes_filters (Array.to_list labeled))
  in
  let filtered_off = filter_labeled labeled_off in
  let filtered_on = filter_labeled labeled_on in
  let merged = Labeling.merge_joint ~off:labeled_off ~on:labeled_on in
  let dataset_off = Labeling.to_dataset config labeled_off in
  let dataset_on = Labeling.to_dataset config labeled_on in
  let dataset_joint = Labeling.to_joint_dataset config ~off:labeled_off ~on:labeled_on in
  info progress "dataset: %d/%d loops survive filters (swp off), %d (swp on)"
    (Dataset.size dataset_off) count (Dataset.size dataset_on);
  let selected = select_feature_subset ~progress config dataset_off in
  info progress "selected %d features" (Array.length selected);
  let spec =
    List.filter
      (fun (b : Suite.benchmark) ->
        match b.Suite.tag with
        | Suite.Spec2000fp | Suite.Spec2000int -> true
        | _ -> false)
      benchmarks
  in
  let rows dataset speedup =
    lazy
      (Compiler.speedup_rows ~jobs:config.Config.jobs config ~features:selected
         ~benchmarks:spec ~dataset speedup)
  in
  let single ~swp labeled p b =
    Compiler.benchmark_speedup config ~swp p ~baseline:Predictor.Orc b labeled
  in
  {
    config;
    benchmarks;
    labeled_off;
    labeled_on;
    merged;
    filtered_off;
    filtered_on;
    dataset_off;
    dataset_on;
    dataset_joint;
    selected;
    rows_off = rows dataset_off (single ~swp:false labeled_off);
    rows_on = rows dataset_on (single ~swp:true labeled_on);
    rows_joint =
      rows dataset_joint (fun p b ->
          Compiler.joint_benchmark_speedup config ~space:Compiler.Joint p
            ~baseline:Predictor.Orc b merged);
  }

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let scaled_selected env dataset =
  let ds = Dataset.select_features dataset env.selected in
  Scale.apply (Scale.fit ds) ds

let factor_name i = Printf.sprintf "%d" (i + 1)

let upper_name l = String.uppercase_ascii (Learner.name l)

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)

let fig3 env =
  let labels = Dataset.labels env.dataset_off in
  let n = Array.length labels in
  let counts = Array.make Unroll.max_factor 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) labels;
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Figure 3: histogram of optimal unroll factors (SWP disabled, %d loops)" n)
      [ ("unroll factor", Table.Right); ("frequency", Table.Right); ("", Table.Left) ]
  in
  Array.iteri
    (fun i c ->
      let frac = float_of_int c /. float_of_int (max n 1) in
      Table.add_row t
        [ factor_name i; Table.cell_pct frac; Table.bar ~width:40 frac ])
    counts;
  let unrolled =
    float_of_int (n - counts.(0)) /. float_of_int (max n 1)
  in
  Table.to_string t
  ^ Printf.sprintf "always-unrolling accuracy (paper cites 77%%): %s\n"
      (Table.cell_pct unrolled)

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)

(* The paper's accuracy figures, where it reports one. *)
let paper_accuracy = [ ("NN", "62%"); ("SVM", "65%"); ("ORC", "16%") ]

let table2 env =
  let config = env.config in
  let ds = scaled_selected env env.dataset_off in
  let costs_of (d : Dataset.t) = Array.map (fun e -> e.Dataset.costs) d.Dataset.examples in
  (* Every learner under its own protocol ({!Learner.cross_validate}):
     closed-form LOO for NN and the (capped) SVM; the MLP has no
     closed-form shortcut, so it is scored leave-one-benchmark-out. *)
  let scored =
    List.map
      (fun l ->
        let sub, pred = Learner.cross_validate ~jobs:config.Config.jobs l config ds in
        (upper_name l, sub, pred))
      Learner.all
  in
  let orc_pred =
    Array.map
      (fun (l : Labeling.labeled) ->
        Orc_heuristic.no_swp config.Config.machine l.Labeling.loop - 1)
      env.filtered_off
  in
  let columns = scored @ [ ("ORC", ds, orc_pred) ] in
  let ranks =
    List.map (fun (_, sub, pred) -> Metrics.rank_distribution ~pred ~costs:(costs_of sub)) columns
  in
  let penalty = Metrics.rank_cost_penalty ~costs:(costs_of ds) in
  let t =
    Table.create ~title:"Table 2: accuracy of predictions (LOOCV, SWP disabled)"
      ((("Prediction correctness", Table.Left) :: List.map (fun (n, _, _) -> (n, Table.Right)) columns)
      @ [ ("Cost", Table.Right) ])
  in
  let rank_label = function
    | 0 -> "Optimal unroll factor"
    | 1 -> "Second-best unroll factor"
    | 2 -> "Third-best unroll factor"
    | 3 -> "Fourth-best unroll factor"
    | 4 -> "Fifth-best unroll factor"
    | 5 -> "Sixth-best unroll factor"
    | 6 -> "Seventh-best unroll factor"
    | _ -> "Worst unroll factor"
  in
  for r = 0 to Unroll.max_factor - 1 do
    Table.add_row t
      ((rank_label r :: List.map (fun rank -> Table.cell_float ~decimals:2 rank.(r)) ranks)
      @ [ Printf.sprintf "%.2fx" penalty.(r) ])
  done;
  let accuracy (n, sub, pred) =
    Printf.sprintf "%s accuracy %s%s" n
      (Table.cell_pct (Metrics.accuracy ~pred ~truth:(Dataset.labels sub)))
      (match List.assoc_opt n paper_accuracy with
      | Some p -> Printf.sprintf " (paper %s)" p
      | None -> "")
  in
  let _, svm_ds, svm_pred = List.find (fun (n, _, _) -> n = "SVM") scored in
  let svm_rank = Metrics.rank_distribution ~pred:svm_pred ~costs:(costs_of svm_ds) in
  Table.to_string t
  ^ String.concat " | " (List.map accuracy columns)
  ^ Printf.sprintf
      "\nSVM optimal-or-second %s (paper 79%%) | SVM within 7%% of optimal %s\n\
       truth vs NN agreement on %d examples; SVM LOOCV over %d examples; MLP scored leave-one-benchmark-out\n"
      (Table.cell_pct (svm_rank.(0) +. svm_rank.(1)))
      (Table.cell_pct (Metrics.within_of_optimal ~pred:svm_pred ~costs:(costs_of svm_ds) 1.07))
      (Dataset.size ds) (Dataset.size svm_ds)

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4                                                      *)

let table3 env =
  let ranked = Mis.rank ~jobs:env.config.Config.jobs env.dataset_off in
  let t =
    Table.create ~title:"Table 3: best features according to MIS"
      [ ("Rank", Table.Right); ("Feature", Table.Left); ("MIS", Table.Right) ]
  in
  Array.iteri
    (fun i (j, score) ->
      if i < env.config.Config.mis_k then
        Table.add_row t
          [
            string_of_int (i + 1);
            env.dataset_off.Dataset.feature_names.(j);
            Table.cell_float ~decimals:3 score;
          ])
    ranked;
  Table.to_string t

let table4 env =
  let config = env.config in
  let scaled = Scale.apply (Scale.fit env.dataset_off) env.dataset_off in
  let nn_picks =
    Greedy_select.nn_run ~jobs:config.Config.jobs ~telemetry:Telemetry.global
      ~k:config.Config.greedy_k scaled
  in
  let svm_picks =
    Greedy_select.svm_run ~jobs:config.Config.jobs ~telemetry:Telemetry.global
      ~kernel:config.Config.svm_kernel ~gamma:config.Config.svm_gamma
      ~max_examples:300 ~k:config.Config.greedy_k scaled
  in
  let t =
    Table.create ~title:"Table 4: greedy feature selection (training error)"
      [
        ("Rank", Table.Right);
        ("NN feature", Table.Left);
        ("Error", Table.Right);
        ("SVM feature", Table.Left);
        ("Error", Table.Right);
      ]
  in
  List.iteri
    (fun i ((fn, en), (fs, es)) ->
      Table.add_row t
        [
          string_of_int (i + 1);
          env.dataset_off.Dataset.feature_names.(fn);
          Table.cell_float ~decimals:2 en;
          env.dataset_off.Dataset.feature_names.(fs);
          Table.cell_float ~decimals:2 es;
        ])
    (List.combine nn_picks svm_picks);
  Table.to_string t

(* ------------------------------------------------------------------ *)
(* Figures 1 and 2: LDA projections                                    *)

let ascii_scatter ~width ~height points =
  (* points: (x, y, char) *)
  match points with
  | [] -> "(no points)\n"
  | _ ->
    let xs = List.map (fun (x, _, _) -> x) points in
    let ys = List.map (fun (_, y, _) -> y) points in
    let xmin = List.fold_left min (List.hd xs) xs in
    let xmax = List.fold_left max (List.hd xs) xs in
    let ymin = List.fold_left min (List.hd ys) ys in
    let ymax = List.fold_left max (List.hd ys) ys in
    let dx = if xmax > xmin then xmax -. xmin else 1.0 in
    let dy = if ymax > ymin then ymax -. ymin else 1.0 in
    let grid = Array.make_matrix height width ' ' in
    List.iter
      (fun (x, y, c) ->
        let i = int_of_float ((y -. ymin) /. dy *. float_of_int (height - 1)) in
        let j = int_of_float ((x -. xmin) /. dx *. float_of_int (width - 1)) in
        let i = height - 1 - i in
        grid.(i).(j) <- c)
      points;
    let buf = Buffer.create (width * height) in
    Array.iter
      (fun row ->
        Buffer.add_char buf '|';
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_string buf "|\n")
      grid;
    Buffer.contents buf

let fig1 env =
  let classes = [| 0; 1; 3; 7 |] in
  let symbols = [| '+'; 'o'; '*'; '#' |] in
  let class_of label = Array.to_list classes |> List.find_index (fun c -> c = label) in
  let ds = scaled_selected env env.dataset_off in
  (* ≥30% margin against the other three classes, as under Figure 1. *)
  let kept =
    Array.to_list ds.Dataset.examples
    |> List.filter_map (fun (e : Dataset.example) ->
           match class_of e.Dataset.label with
           | None -> None
           | Some k ->
             let own = e.Dataset.costs.(e.Dataset.label) in
             let dominated =
               Array.for_all
                 (fun c -> c = e.Dataset.label || e.Dataset.costs.(c) >= 1.3 *. own)
                 classes
             in
             if dominated then Some (e.Dataset.features, k) else None)
  in
  if List.length kept < 8 then
    "Figure 1: too few high-margin examples at this scale to project.\n"
  else begin
    let pairs = Array.of_list kept in
    let lda = Lda.fit pairs in
    let points =
      Array.to_list pairs
      |> List.map (fun (x, k) ->
             let p = Lda.project lda x in
             (p.(0), p.(1), symbols.(k)))
    in
    let counts = Array.make 4 0 in
    List.iter (fun (_, k) -> counts.(k) <- counts.(k) + 1) kept;
    Printf.sprintf
      "Figure 1: near-neighbor view of LDA-projected loops (margin >= 30%%)\n\
       legend: '+' factor 1 (%d), 'o' factor 2 (%d), '*' factor 4 (%d), '#' factor 8 (%d)\n"
      counts.(0) counts.(1) counts.(2) counts.(3)
    ^ ascii_scatter ~width:72 ~height:24 points
  end

let fig2 env =
  let ds = scaled_selected env env.dataset_off in
  (* Binary with ≥30% improvement either way, as under Figure 2. *)
  let kept =
    Array.to_list ds.Dataset.examples
    |> List.filter_map (fun (e : Dataset.example) ->
           let c1 = e.Dataset.costs.(0) in
           let best_unrolled =
             Array.fold_left min infinity (Array.sub e.Dataset.costs 1 (Unroll.max_factor - 1))
           in
           if e.Dataset.label = 0 && best_unrolled >= 1.3 *. c1 then
             Some (e.Dataset.features, 0)
           else if e.Dataset.label > 0 && c1 >= 1.3 *. best_unrolled then
             Some (e.Dataset.features, 1)
           else None)
  in
  if List.length kept < 8 then
    "Figure 2: too few high-margin examples at this scale to project.\n"
  else begin
    let pairs = Array.of_list kept in
    let lda = Lda.fit pairs in
    let projected =
      Array.map (fun (x, y) -> (Lda.project lda x, y)) pairs
    in
    let machine_pairs = Array.map (fun (p, y) -> (p, float_of_int ((2 * y) - 1))) projected in
    let svm =
      Lssvm.train ~kernel:(Kernel.Rbf 1.0) ~gamma:env.config.Config.svm_gamma
        (Array.map fst machine_pairs) (Array.map snd machine_pairs)
    in
    (* Decision-region map with training points overlaid. *)
    let xs = Array.map (fun (p, _) -> p.(0)) projected in
    let ys = Array.map (fun (p, _) -> p.(1)) projected in
    let xmin = Array.fold_left min xs.(0) xs and xmax = Array.fold_left max xs.(0) xs in
    let ymin = Array.fold_left min ys.(0) ys and ymax = Array.fold_left max ys.(0) ys in
    let width = 72 and height = 24 in
    let grid = Array.make_matrix height width ' ' in
    for i = 0 to height - 1 do
      for j = 0 to width - 1 do
        let x = xmin +. (float_of_int j /. float_of_int (width - 1) *. (xmax -. xmin)) in
        let y = ymin +. (float_of_int (height - 1 - i) /. float_of_int (height - 1) *. (ymax -. ymin)) in
        let d = Lssvm.decision svm [| x; y |] in
        grid.(i).(j) <- (if d >= 0.0 then ':' else ' ')
      done
    done;
    Array.iter
      (fun (p, y) ->
        let j = int_of_float ((p.(0) -. xmin) /. (max (xmax -. xmin) 1e-9) *. float_of_int (width - 1)) in
        let i = height - 1 - int_of_float ((p.(1) -. ymin) /. (max (ymax -. ymin) 1e-9) *. float_of_int (height - 1)) in
        if i >= 0 && i < height && j >= 0 && j < width then
          grid.(i).(j) <- (if y = 1 then 'o' else '+'))
      projected;
    let buf = Buffer.create (width * height) in
    Array.iter
      (fun row ->
        Buffer.add_char buf '|';
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_string buf "|\n")
      grid;
    let n0 = Array.length (Array.of_list (List.filter (fun (_, y) -> y = 0) kept)) in
    let n1 = List.length kept - n0 in
    Printf.sprintf
      "Figure 2: SVM decision regions on LDA plane (binary, margin >= 30%%)\n\
       legend: '+' don't unroll (%d), 'o' unroll (%d), ':' unroll region\n" n0 n1
    ^ Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5: realized speedups                                  *)

let speedup_rows env ~swp =
  Lazy.force (if swp then env.rows_on else env.rows_off)

let learned name (r : Compiler.row) = List.assoc name r.Compiler.learned
let oracle (r : Compiler.row) = r.Compiler.oracle
let fp_rows rows = Array.of_list (List.filter (fun r -> r.Compiler.fp) (Array.to_list rows))

let render_speedups ~title rows =
  let columns =
    List.map (fun l -> (upper_name l ^ " v. ORC", learned (Learner.name l))) Learner.all
    @ [ ("Oracle v. ORC", oracle) ]
  in
  let t =
    Table.create ~title
      (("Benchmark", Table.Left) :: List.map (fun (h, _) -> (h, Table.Right)) columns)
  in
  Array.iter
    (fun r ->
      Table.add_row t
        (r.Compiler.bench :: List.map (fun (_, f) -> Table.cell_pct (f r -. 1.0)) columns))
    rows;
  Table.add_separator t;
  let geomean_row label rows =
    Table.add_row t
      (label
      :: List.map (fun (_, f) -> Table.cell_pct (Stats.geomean (Array.map f rows) -. 1.0)) columns)
  in
  geomean_row "GEOMEAN (all 24)" rows;
  geomean_row "GEOMEAN (SPECfp)" (fp_rows rows);
  let total = Array.length rows in
  let wins name =
    Array.fold_left (fun acc r -> if learned name r > 1.0 then acc + 1 else acc) 0 rows
  in
  (* The SVM, the paper's overall winner, leads the tally. *)
  let others = List.filter (fun l -> Learner.name l <> "svm") Learner.all in
  Table.to_string t
  ^ Printf.sprintf "SVM beats ORC on %d of %d benchmarks" (wins "svm") total
  ^ String.concat ""
      (List.map
         (fun l -> Printf.sprintf "; %s on %d of %d" (upper_name l) (wins (Learner.name l)) total)
         others)
  ^ "\n"

let fig4 env =
  render_speedups
    ~title:"Figure 4: realized speedup over ORC's heuristic, SWP disabled"
    (speedup_rows env ~swp:false)

let fig5 env =
  render_speedups
    ~title:"Figure 5: realized speedup over ORC's heuristic, SWP enabled"
    (speedup_rows env ~swp:true)

(* ------------------------------------------------------------------ *)

let summary env =
  let rows_off = speedup_rows env ~swp:false in
  let rows_on = speedup_rows env ~swp:true in
  let agg f rows = Stats.geomean (Array.map f rows) -. 1.0 in
  let svm = learned "svm" in
  let t =
    Table.create ~title:"Summary: paper claim vs this reproduction"
      [ ("Claim", Table.Left); ("Paper", Table.Right); ("Here", Table.Right) ]
  in
  let ds = scaled_selected env env.dataset_off in
  let cv l = Learner.cross_validate ~jobs:env.config.Config.jobs l env.config ds in
  let nn_acc =
    let sub, pred = cv Learner.nn in
    Metrics.accuracy ~pred ~truth:(Dataset.labels sub)
  in
  let svm_rank =
    let sub, pred = cv Learner.svm in
    Metrics.rank_distribution ~pred
      ~costs:(Array.map (fun e -> e.Dataset.costs) sub.Dataset.examples)
  in
  let row label paper here = Table.add_row t [ label; paper; here ] in
  row "dataset size (loops surviving filters)" "2500+"
    (string_of_int (Dataset.size env.dataset_off));
  row "SVM optimal prediction rate (LOOCV)" "65%" (Table.cell_pct svm_rank.(0));
  row "SVM optimal-or-second rate" "79%" (Table.cell_pct (svm_rank.(0) +. svm_rank.(1)));
  row "NN optimal prediction rate (LOOCV)" "62%" (Table.cell_pct nn_acc);
  row "speedup over ORC, SWP off (SPEC 2000)" "5%"
    (Table.cell_pct (agg svm rows_off));
  row "speedup over ORC, SWP off (SPECfp)" "9%"
    (Table.cell_pct (agg svm (fp_rows rows_off)));
  row "MLP speedup over ORC, SWP off" "n/a"
    (Table.cell_pct (agg (learned "mlp") rows_off));
  row "oracle speedup, SWP off" "7.2%"
    (Table.cell_pct (agg oracle rows_off));
  row "speedup over ORC, SWP on (SPEC 2000)" "1%"
    (Table.cell_pct (agg svm rows_on));
  row "oracle speedup, SWP on" "4.4%"
    (Table.cell_pct (agg oracle rows_on));
  let improved rows =
    Array.fold_left (fun acc r -> if svm r > 1.0 then acc + 1 else acc) 0 rows
  in
  row "benchmarks improved, SWP off" "19 of 24"
    (Printf.sprintf "%d of %d" (improved rows_off) (Array.length rows_off));
  row "benchmarks improved, SWP on" "16 of 24"
    (Printf.sprintf "%d of %d" (improved rows_on) (Array.length rows_on));
  Table.to_string t

(* ------------------------------------------------------------------ *)
(* Joint (unroll factor × SWP) decision space                          *)

let joint env =
  let config = env.config in
  let jobs = config.Config.jobs in
  let buf = Buffer.create 2048 in
  (* LOOCV-vs-LOOCV: every learner scored leave-one-benchmark-out on its
     own label space.  One protocol for all learners and both heads, so
     the 8-way and 16-way columns are directly comparable (the closed-form
     per-example shortcuts exist only for some learners, and only on a
     fixed training set).  A learner with a cross-validation cap (the
     LS-SVM's O(N³) solve) is scored on a subsample of at most 800. *)
  let head ds =
    let scaled = scaled_selected env ds in
    let score l =
      let sub =
        match Learner.cv_cap l config with
        | Some cap -> Dataset.subsample ~cap:(min cap 800) scaled
        | None -> scaled
      in
      Table.cell_pct
        (Metrics.accuracy ~pred:(Learner.lobo ~jobs l config sub) ~truth:(Dataset.labels sub))
    in
    (List.map score Learner.all, string_of_int (Dataset.size scaled))
  in
  let t =
    Table.create
      ~title:"Joint decision space: leave-one-benchmark-out accuracy per head"
      ((("Head", Table.Left) :: ("Classes", Table.Right)
        :: List.map (fun l -> (upper_name l, Table.Right)) Learner.all)
      @ [ ("Examples", Table.Right) ])
  in
  let add_head label classes ds =
    let scores, n = head ds in
    Table.add_row t ((label :: string_of_int classes :: scores) @ [ n ])
  in
  add_head "factor (SWP off)" Unroll.max_factor env.dataset_off;
  add_head "joint (factor x SWP)" Labeling.Joint.classes env.dataset_joint;
  Buffer.add_string buf (Table.to_string t);
  (* Realized speedup over the shared ORC-at-SWP-off baseline: the joint
     head may pick any (factor, swp) coordinate, the single-decision rows
     (Figure 4) only a factor at SWP off. *)
  let rows_joint = Lazy.force env.rows_joint in
  Buffer.add_string buf
    (render_speedups
       ~title:
         "Joint (unroll x SWP) realized speedup over ORC (SWP off baseline, LOBO)"
       rows_joint);
  let rows_off = Lazy.force env.rows_off in
  let geo f rows = Stats.geomean (Array.map f rows) in
  let best rows =
    match List.map (fun l -> (Learner.name l, geo (learned (Learner.name l)) rows)) Learner.all with
    | first :: rest ->
      List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv)) first rest
    | [] -> invalid_arg "Experiments.joint: empty learner registry"
  in
  let sn, sv = best rows_off in
  let jn, jv = best rows_joint in
  Buffer.add_string buf
    (Printf.sprintf
       "best joint pipeline: %s %+.2f%% | best single-decision pipeline (SWP off): %s %+.2f%% | joint %s\n\
        (both against the ORC SWP-off baseline; the SWP-on rows of Figure 5 use a different baseline)\n"
       jn
       ((jv -. 1.0) *. 100.0)
       sn
       ((sv -. 1.0) *. 100.0)
       (if jv >= sv then "beats-or-matches" else "trails"));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Ablations: design choices the paper mentions but does not evaluate.  *)

let ablations env =
  let config = env.config in
  let buf = Buffer.create 1024 in
  let ds = scaled_selected env env.dataset_off in
  let pairs = Dataset.points ds in
  let truth = Dataset.labels ds in
  (* NN radius sensitivity. *)
  let t =
    Table.create ~title:"Ablation: near-neighbor radius (LOOCV accuracy)"
      [ ("radius", Table.Right); ("accuracy", Table.Right) ]
  in
  List.iter
    (fun r ->
      let nn = Knn.train ~radius:r ~n_classes:ds.Dataset.n_classes pairs in
      Table.add_row t
        [
          Table.cell_float ~decimals:2 r;
          Table.cell_pct (Metrics.accuracy ~pred:(Knn.loo_predictions nn) ~truth);
        ])
    [ 0.0; 0.2; 0.35; 0.5; 0.7; 1.0; 1.5 ];
  Buffer.add_string buf (Table.to_string t);
  (* Output codes. *)
  let svm_ds = Dataset.subsample ~cap:(min config.Config.loocv_svm_cap 800) ds in
  let svm_pairs = Dataset.points svm_ds in
  let svm_truth = Dataset.labels svm_ds in
  let t =
    Table.create ~title:"Ablation: output codes for the LS-SVM (LOOCV accuracy)"
      [ ("code", Table.Left); ("bits", Table.Right); ("accuracy", Table.Right) ]
  in
  List.iter
    (fun (name, code, bits) ->
      let pred =
        Multiclass.loo_predictions ~code ~n_classes:ds.Dataset.n_classes
          ~kernel:config.Config.svm_kernel ~gamma:config.Config.svm_gamma svm_pairs
      in
      Table.add_row t
        [
          name;
          string_of_int bits;
          Table.cell_pct (Metrics.accuracy ~pred ~truth:svm_truth);
        ])
    [
      ("one-vs-rest (paper)", Multiclass.One_vs_rest, Unroll.max_factor);
      ("dense random ECOC", Multiclass.Dense_random { bits = 15; seed = 11 }, 15);
    ];
  Buffer.add_string buf (Table.to_string t);
  (* Feature subset vs the full set. *)
  let eval_features features =
    let ds0 = Dataset.select_features env.dataset_off features in
    let scaled = Scale.apply (Scale.fit ds0) ds0 in
    let nn =
      Knn.train ~radius:config.Config.knn_radius ~n_classes:ds0.Dataset.n_classes
        (Dataset.points scaled)
    in
    Metrics.accuracy ~pred:(Knn.loo_predictions nn) ~truth:(Dataset.labels scaled)
  in
  let t =
    Table.create ~title:"Ablation: feature subset (NN LOOCV accuracy, paper 7)"
      [ ("feature set", Table.Left); ("count", Table.Right); ("accuracy", Table.Right) ]
  in
  Table.add_row t
    [
      "all features";
      string_of_int Features.count;
      Table.cell_pct (eval_features (Array.init Features.count (fun i -> i)));
    ];
  Table.add_row t
    [
      "MIS + greedy union";
      string_of_int (Array.length env.selected);
      Table.cell_pct (eval_features env.selected);
    ];
  Buffer.add_string buf (Table.to_string t);
  (* Binary problem (Monsifrot et al., paper 9).  Tree LOOCV retrains per
     example, so bound the sample. *)
  let binary_pairs =
    Array.map (fun (x, y) -> (x, if y = 0 then 0 else 1)) pairs
  in
  let binary_pairs =
    let n = Array.length binary_pairs in
    let cap = 500 in
    if n <= cap then binary_pairs
    else begin
      let stride = float_of_int n /. float_of_int cap in
      Array.init cap (fun i -> binary_pairs.(int_of_float (float_of_int i *. stride)))
    end
  in
  let n = Array.length binary_pairs in
  let tree_hits = ref 0 in
  Array.iteri
    (fun i (x, y) ->
      let rest =
        Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list binary_pairs))
      in
      (* Grow shallow trees so that n leave-one-out trainings stay cheap. *)
      let tree = Decision_tree.train ~max_depth:4 ~n_classes:2 rest in
      if Decision_tree.predict tree x = y then incr tree_hits)
    binary_pairs;
  let always = Array.length (Array.of_list (List.filter (fun (_, y) -> y = 1) (Array.to_list binary_pairs))) in
  (* Boosted trees, evaluated on a deterministic split (LOO x rounds of
     boosting would be quadratic). *)
  let train_b, test_b =
    let n = Array.length binary_pairs in
    ( Array.of_list (List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list binary_pairs)),
      Array.of_list (List.filteri (fun i _ -> i mod 2 = 1) (Array.to_list binary_pairs))
      |> fun a -> if n < 4 then binary_pairs else a )
  in
  let boosted = Boost.train ~rounds:25 ~n_classes:2 train_b in
  let boost_hits =
    Array.fold_left
      (fun acc (x, y) -> if Boost.predict boosted x = y then acc + 1 else acc)
      0 test_b
  in
  let t =
    Table.create
      ~title:"Ablation: binary unroll/don't-unroll (Monsifrot-style, paper 9)"
      [ ("classifier", Table.Left); ("accuracy", Table.Right) ]
  in
  Table.add_row t
    [ "decision tree (LOOCV)"; Table.cell_pct (float_of_int !tree_hits /. float_of_int n) ];
  Table.add_row t
    [
      Printf.sprintf "boosted trees (%d rounds, held-out)" (Boost.rounds_used boosted);
      Table.cell_pct (float_of_int boost_hits /. float_of_int (max 1 (Array.length test_b)));
    ];
  Table.add_row t
    [ "always unroll"; Table.cell_pct (float_of_int always /. float_of_int n) ];
  Buffer.add_string buf (Table.to_string t);
  Buffer.add_string buf
    "paper reference points: Monsifrot et al. report 86% on binary; the paper\n\
     notes always-unrolling already achieves 77% and argues the multi-class\n\
     problem (Table 2) is the one that matters.\n";
  (* Regression (paper 8, future work): predict the whole cost curve, pick
     the arg-min factor. *)
  let groups = Dataset.groups ds in
  let train_groups = List.filteri (fun i _ -> i mod 2 = 0) groups in
  let is_train (e : Dataset.example) = List.mem e.Dataset.group train_groups in
  let train_ex = Array.of_list (List.filter is_train (Array.to_list ds.Dataset.examples)) in
  let test_ex =
    Array.of_list
      (List.filter (fun e -> not (is_train e)) (Array.to_list ds.Dataset.examples))
  in
  if Array.length train_ex >= 8 && Array.length test_ex >= 8 then begin
    let rows =
      Array.to_list train_ex
      |> List.concat_map (fun (e : Dataset.example) ->
             let c1 = e.Dataset.costs.(0) in
             List.init Unroll.max_factor (fun u ->
                 ( Array.append e.Dataset.features [| float_of_int (u + 1) |],
                   log (e.Dataset.costs.(u) /. c1) )))
      |> Array.of_list
    in
    let knn_reg = Regression.train_knn ~k:7 (Array.map fst rows) (Array.map snd rows) in
    let predict_cost (e : Dataset.example) u =
      Regression.predict_knn knn_reg
        (Array.append e.Dataset.features [| float_of_int u |])
    in
    let reg_hits = ref 0 and cls_hits = ref 0 in
    (* classification baseline on the identical split *)
    let nn_cls =
      Knn.train ~radius:config.Config.knn_radius ~n_classes:ds.Dataset.n_classes
        (Array.map (fun (e : Dataset.example) -> (e.Dataset.features, e.Dataset.label)) train_ex)
    in
    Array.iter
      (fun (e : Dataset.example) ->
        let u_reg = Regression.argmin_factor ~predict:(fun _ u -> predict_cost e u) [||] in
        if u_reg - 1 = e.Dataset.label then incr reg_hits;
        if Knn.predict nn_cls e.Dataset.features = e.Dataset.label then incr cls_hits)
      test_ex;
    let nt = float_of_int (Array.length test_ex) in
    let t =
      Table.create
        ~title:"Ablation: classification vs regression-argmin (paper 8, held-out)"
        [ ("method", Table.Left); ("optimal-factor accuracy", Table.Right) ]
    in
    Table.add_row t
      [ "NN classification"; Table.cell_pct (float_of_int !cls_hits /. nt) ];
    Table.add_row t
      [ "kNN regression of the cost curve, arg-min"; Table.cell_pct (float_of_int !reg_hits /. nt) ];
    Buffer.add_string buf (Table.to_string t)
  end;
  Buffer.contents buf

let all env =
  String.concat "\n"
    [
      fig1 env;
      fig2 env;
      fig3 env;
      table2 env;
      table3 env;
      table4 env;
      fig4 env;
      fig5 env;
      joint env;
      summary env;
      ablations env;
    ]
