type trained = {
  alphas : float array;
  kernel : Kernel.t;
  points : float array array;
}

let ridge_matrix ?jobs ~kernel ~gamma points =
  if gamma <= 0.0 then invalid_arg "Lssvm: gamma must be positive";
  let h = Kernel.gram ?jobs kernel points in
  Mat.add_diagonal h (1.0 /. gamma);
  h

(* Solve (K + I/gamma) alpha = y for each target set over a precomputed
   Gram matrix — the pairwise-engine entry point, where K comes from the
   running dist² triangle rather than raw features.  [gram] is left
   untouched (the ridge is added to a copy) so callers can reuse it for
   the K·alpha decision values. *)
let solve_gram ~gamma gram target_sets =
  if gamma <= 0.0 then invalid_arg "Lssvm: gamma must be positive";
  let n = Mat.rows gram in
  let h = Mat.copy gram in
  Mat.add_diagonal h (1.0 /. gamma);
  let chol = Solve.cholesky h in
  Array.map
    (fun targets ->
      if Array.length targets <> n then invalid_arg "Lssvm.solve_gram: sizes";
      Solve.cholesky_solve chol targets)
    target_sets

let train ?jobs ~kernel ~gamma points targets =
  if Array.length points <> Array.length targets then invalid_arg "Lssvm.train: sizes";
  let h = ridge_matrix ?jobs ~kernel ~gamma points in
  let chol = Solve.cholesky h in
  { alphas = Solve.cholesky_solve chol targets; kernel; points }

let train_multi ?jobs ~kernel ~gamma points target_sets =
  let h = ridge_matrix ?jobs ~kernel ~gamma points in
  let chol = Solve.cholesky h in
  Array.map
    (fun targets ->
      if Array.length targets <> Array.length points then
        invalid_arg "Lssvm.train_multi: sizes";
      { alphas = Solve.cholesky_solve chol targets; kernel; points })
    target_sets

let decision t x =
  let acc = ref 0.0 in
  Array.iteri
    (fun i p -> acc := !acc +. (t.alphas.(i) *. Kernel.apply t.kernel p x))
    t.points;
  !acc

let decision_batch machines x =
  match machines with
  | [||] -> [||]
  | _ ->
    let first = machines.(0) in
    let n = Array.length first.points in
    let krow = Array.init n (fun i -> Kernel.apply first.kernel first.points.(i) x) in
    Array.map
      (fun m ->
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. (m.alphas.(i) *. krow.(i))
        done;
        !acc)
      machines

let loo_decisions ?jobs ~kernel ~gamma points target_sets =
  let h = ridge_matrix ?jobs ~kernel ~gamma points in
  let chol = Solve.cholesky h in
  let hdiag = Solve.cholesky_inverse_diagonal chol in
  Array.map
    (fun targets ->
      let alphas = Solve.cholesky_solve chol targets in
      Array.mapi
        (fun i y_i ->
          (* Closed-form LOO residual: e_i = alpha_i / (H^-1)_ii, and the
             decision without example i is y_i - e_i. *)
          y_i -. (alphas.(i) /. hdiag.(i)))
        targets)
    target_sets

let export t = t.alphas

let import ~kernel ~points ~alphas =
  if Array.length points <> Array.length alphas then invalid_arg "Lssvm.import";
  { alphas; kernel; points }

let training_points t = t.points
let kernel_of t = t.kernel
