(* Incremental pairwise-distance engine.

   Squared Euclidean distance decomposes additively over features:

     dist²(x, y; S ∪ {f}) = dist²(x, y; S) + (x_f − y_f)²

   so greedy forward selection never needs to rebuild an n×n distance (or
   RBF Gram) matrix from raw features.  The engine keeps the running dist²
   of the *committed* subset in a single strict upper triangle
   (n(n−1)/2 floats); evaluating a candidate feature adds only that
   feature's pairwise contribution on the fly — O(n²) instead of
   O(n²·|S|) — and the winner's contribution is folded in once per round
   by {!commit}.

   Storage is *column-block*: pair (i, k) with i < k lives at
   k(k−1)/2 + i, i.e. all pairs whose larger index is k form one
   contiguous block.  The NN objective's first-minimum tie-break follows
   this walk order (see [nn_loo_error]).

   Determinism contract: contributions are accumulated in commit order,
   with the candidate term added last, which is exactly the left-to-right
   summation order of [Vec.dist2] over a feature subset projected in
   selection order.  Committed-plus-candidate distances are therefore
   bit-identical to the direct recomputation the engine replaces.  Nothing
   here depends on [jobs] — candidate evaluations may fan out over domains
   that only *read* the triangle. *)

type t = {
  d : int;
  n : int;
  pts : float array; (* n rows × d feature columns, row-major *)
  tri : float array; (* strict upper triangle of committed dist², column-block *)
  committed : bool array; (* per-feature committed flag *)
  mutable committed_rev : int list; (* most recently committed first *)
}

let create points =
  let n = Mat.rows points in
  let d = Mat.cols points in
  {
    d;
    n;
    pts = Mat.data points;
    tri = Array.make (n * (n - 1) / 2) 0.0;
    committed = Array.make d false;
    committed_rev = [];
  }

let of_dataset ds =
  let m, labels = Dataset.points_matrix ds in
  (create m, labels)

let size t = t.n
let dim t = t.d
let committed t = List.rev t.committed_rev
let is_committed t j = t.committed.(j)

let check_feature t name j =
  if j < 0 || j >= dim t then
    invalid_arg (Printf.sprintf "Pairwise.%s: feature %d out of range" name j)

let commit t j =
  check_feature t "commit" j;
  if t.committed.(j) then invalid_arg "Pairwise.commit: feature already committed";
  let p = t.pts and d = t.d in
  (* One contiguous copy of the feature column keeps the triangle walk
     streaming instead of striding through the points matrix per pair. *)
  let col = Array.init t.n (fun r -> p.((r * d) + j)) in
  let idx = ref 0 in
  for k = 1 to t.n - 1 do
    let vk = col.(k) in
    for i = 0 to k - 1 do
      let dv = col.(i) -. vk in
      t.tri.(!idx) <- t.tri.(!idx) +. (dv *. dv);
      incr idx
    done
  done;
  t.committed.(j) <- true;
  t.committed_rev <- j :: t.committed_rev

let iter_pairs ?cand t f =
  (match cand with
  | None -> ()
  | Some j ->
    check_feature t "iter_pairs" j;
    if t.committed.(j) then invalid_arg "Pairwise.iter_pairs: candidate already committed");
  match cand with
  | None ->
    let idx = ref 0 in
    for k = 1 to t.n - 1 do
      for i = 0 to k - 1 do
        f i k t.tri.(!idx);
        incr idx
      done
    done
  | Some j ->
    let p = t.pts and d = t.d in
    let idx = ref 0 in
    for k = 1 to t.n - 1 do
      let vk = p.((k * d) + j) in
      for i = 0 to k - 1 do
        let dv = p.((i * d) + j) -. vk in
        f i k (t.tri.(!idx) +. (dv *. dv));
        incr idx
      done
    done

let dist2 ?cand t i k =
  if i = k then 0.0
  else begin
    let i, k = if i < k then (i, k) else (k, i) in
    (* column-block strict upper triangle: block k holds pairs (0..k-1, k) *)
    let idx = (k * (k - 1) / 2) + i in
    let base = t.tri.(idx) in
    match cand with
    | None -> base
    | Some j ->
      check_feature t "dist2" j;
      let p = t.pts and d = t.d in
      let dv = p.((i * d) + j) -. p.((k * d) + j) in
      base +. (dv *. dv)
  end

let rbf_gram ?cand ~gamma t =
  let m = Mat.create t.n t.n in
  let a = Mat.data m in
  for i = 0 to t.n - 1 do
    a.((i * t.n) + i) <- 1.0
  done;
  iter_pairs ?cand t (fun i k d2 ->
      let v = exp (-.gamma *. d2) in
      a.((i * t.n) + k) <- v;
      a.((k * t.n) + i) <- v);
  m

let nn_loo_error ?cand t ~labels =
  if Array.length labels <> t.n then invalid_arg "Pairwise.nn_loo_error: labels";
  if t.n < 2 then 1.0
  else begin
    (* Leave-one-out training error of [Knn] at radius 0 — the greedy-NN
       objective (§7.2) — reproduced bit for bit.  Each query sees its
       neighbors in increasing index order and strict [<] keeps the first
       minimum, the same tie-breaking as [Knn]'s linear scan; comparing
       raw dist² instead of Knn's sqrt(dist²/d) picks the same neighbor
       because sqrt and the division by the subset size are monotone.
       (Under the column-block walk a query q still meets 0..q−1 in order
       inside its own block, then q+1.. in ascending later blocks, so the
       first-minimum tie-break is unchanged.)  Exact duplicates
       (dist² = 0) matter: Knn's radius test is [<=], so at radius 0 the
       zero-distance neighbors majority-vote instead of the single nearest
       deciding. *)
    let n_classes = 1 + Array.fold_left max 0 labels in
    let nearest = Array.make t.n (-1) in
    let nearest_d = Array.make t.n infinity in
    let dup_votes = Array.make (t.n * n_classes) 0 in
    let dup_count = Array.make t.n 0 in
    (* Specialised triangle walks (not {!iter_pairs}): this runs once per
       candidate per round, and a per-pair closure call costs more than
       the pair's own arithmetic.  Query [k]'s running minimum lives in
       locals across its block; updates for the smaller index [i] go
       straight to the arrays. *)
    let tri = t.tri in
    let[@inline] update i k d2 =
      if d2 < nearest_d.(i) then begin
        nearest_d.(i) <- d2;
        nearest.(i) <- k
      end;
      if d2 = 0.0 then begin
        dup_count.(i) <- dup_count.(i) + 1;
        dup_votes.((i * n_classes) + labels.(k)) <-
          dup_votes.((i * n_classes) + labels.(k)) + 1;
        dup_count.(k) <- dup_count.(k) + 1;
        dup_votes.((k * n_classes) + labels.(i)) <-
          dup_votes.((k * n_classes) + labels.(i)) + 1
      end
    in
    (match cand with
    | None ->
      let idx = ref 0 in
      for k = 1 to t.n - 1 do
        let best = ref nearest_d.(k) and best_i = ref nearest.(k) in
        for i = 0 to k - 1 do
          let d2 = tri.(!idx) in
          incr idx;
          if d2 < !best then begin
            best := d2;
            best_i := i
          end;
          update i k d2
        done;
        nearest_d.(k) <- !best;
        nearest.(k) <- !best_i
      done
    | Some j ->
      check_feature t "nn_loo_error" j;
      if t.committed.(j) then invalid_arg "Pairwise.nn_loo_error: candidate already committed";
      let p = t.pts and d = t.d in
      (* One contiguous copy of the candidate column: the triangle walk
         then streams it sequentially instead of striding through the
         whole points matrix once per row. *)
      let col = Array.init t.n (fun k -> p.((k * d) + j)) in
      let idx = ref 0 in
      for k = 1 to t.n - 1 do
        let vk = col.(k) in
        let best = ref nearest_d.(k) and best_i = ref nearest.(k) in
        for i = 0 to k - 1 do
          let dv = col.(i) -. vk in
          let d2 = tri.(!idx) +. (dv *. dv) in
          incr idx;
          if d2 < !best then begin
            best := d2;
            best_i := i
          end;
          update i k d2
        done;
        nearest_d.(k) <- !best;
        nearest.(k) <- !best_i
      done);
    let errs = ref 0 in
    for i = 0 to t.n - 1 do
      let pred =
        if dup_count.(i) = 0 then labels.(nearest.(i))
        else
          Stats.max_index
            (Array.init n_classes (fun c -> float_of_int dup_votes.((i * n_classes) + c)))
      in
      if pred <> labels.(i) then incr errs
    done;
    float_of_int !errs /. float_of_int t.n
  end
