type t = {
  data : float array; (* n × d, row-major *)
  labels : int array;
  n : int;
  d : int;
  radius : float;
  classes : int;
}

let train ?(radius = 0.3) ~n_classes pairs =
  if Array.length pairs = 0 then invalid_arg "Knn.train: empty training set";
  let d = Array.length (fst pairs.(0)) in
  let n = Array.length pairs in
  let data = Array.make (n * d) 0.0 in
  Array.iteri
    (fun i (x, _) ->
      if Array.length x <> d then invalid_arg "Knn.train: ragged features";
      Array.blit x 0 data (i * d) d)
    pairs;
  { data; labels = Array.map snd pairs; n; d; radius; classes = n_classes }

let n_classes t = t.classes
let size t = t.n
let radius t = t.radius

(* The database as a Mat view for the blocked kernels. *)
let points_matrix t = Mat.of_flat t.n t.d t.data

(* dist²(x, row i) with the same left-to-right summation as [Vec.dist2];
   callers divide by d and take sqrt for the RMS-per-dimension distance. *)
let row_dist2 t x i =
  let d = t.d in
  if Array.length x <> d then invalid_arg "Knn: dimension mismatch";
  let a = t.data in
  let base = i * d in
  let acc = ref 0.0 in
  for j = 0 to d - 1 do
    let dv = x.(j) -. a.(base + j) in
    acc := !acc +. (dv *. dv)
  done;
  !acc

(* Shared vote/fallback logic: [dist i] must yield the RMS-per-dimension
   distance of the query to point [i]; iteration is in index order so ties
   keep the lowest index. *)
let classify_dists t ~skip dist =
  let n = t.n in
  let votes = Array.make t.classes 0 in
  let nearest = ref (-1) in
  let nearest_d = ref infinity in
  let in_radius = ref 0 in
  for i = 0 to n - 1 do
    if i <> skip then begin
      let d = dist i in
      if d < !nearest_d then begin
        nearest_d := d;
        nearest := i
      end;
      if d <= t.radius then begin
        incr in_radius;
        votes.(t.labels.(i)) <- votes.(t.labels.(i)) + 1
      end
    end
  done;
  if !in_radius = 0 then ((if !nearest >= 0 then t.labels.(!nearest) else 0), 0.0)
  else begin
    let best = Stats.max_index (Array.map float_of_int votes) in
    (best, float_of_int votes.(best) /. float_of_int !in_radius)
  end

let classify ?(skip = -1) t x =
  let dims = float_of_int (max t.d 1) in
  classify_dists t ~skip (fun i -> sqrt (row_dist2 t x i /. dims))

let predict t x = fst (classify t x)
let predict_confidence t x = classify t x

let loo_predictions ?jobs t =
  let n = t.n in
  let dims = float_of_int (max t.d 1) in
  (* One blocked O(n²·d) pairwise build replaces n independent O(n·d)
     scans; rows then vote independently across [jobs] domains.  Output is
     identical for every [jobs] value. *)
  let d2 = Mat.pairwise_dist2 ?jobs (points_matrix t) in
  let dd = Mat.data d2 in
  Parallel.tabulate ?jobs n (fun i ->
      let base = i * n in
      fst (classify_dists t ~skip:i (fun k -> sqrt (dd.(base + k) /. dims))))

let export t =
  ( t.radius,
    t.classes,
    Array.init t.n (fun i -> (Array.sub t.data (i * t.d) t.d, t.labels.(i))) )
