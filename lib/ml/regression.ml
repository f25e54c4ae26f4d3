type knn_reg = { k : int; points : float array array; responses : float array }

let train_knn ?(k = 5) points responses =
  if Array.length points = 0 then invalid_arg "Regression.train_knn: empty data";
  if Array.length points <> Array.length responses then
    invalid_arg "Regression.train_knn: sizes";
  { k = max 1 k; points; responses }

let predict_knn t x =
  let n = Array.length t.points in
  let d = Array.mapi (fun i p -> (Vec.dist2 p x, i)) t.points in
  Array.sort compare d;
  let k = min t.k n in
  let wsum = ref 0.0 and acc = ref 0.0 in
  for j = 0 to k - 1 do
    let dist2, i = d.(j) in
    let w = 1.0 /. (1e-9 +. sqrt dist2) in
    wsum := !wsum +. w;
    acc := !acc +. (w *. t.responses.(i))
  done;
  !acc /. !wsum

let argmin_factor ~predict features =
  let best = ref 1 and best_cost = ref infinity in
  for u = 1 to 8 do
    let c = predict features u in
    if c < !best_cost then begin
      best_cost := c;
      best := u
    end
  done;
  !best
