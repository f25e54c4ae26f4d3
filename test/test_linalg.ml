(* Tests for dense linear algebra: vectors, matrices, solvers, eigen. *)

let check_float = Alcotest.(check (float 1e-6))

let rng = Rng.create 20250705

let random_vec n = Array.init n (fun _ -> Rng.gaussian rng)

let random_spd n =
  (* BᵀB + I is symmetric positive definite. *)
  let b = Mat.init n n (fun _ _ -> Rng.gaussian rng) in
  let a = Mat.mul (Mat.transpose b) b in
  Mat.add_diagonal a 1.0;
  a

(* --- Vec --- *)

let test_vec_dot () = check_float "dot" 32.0 (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |])

let test_vec_add_sub () =
  Alcotest.(check (array (float 1e-9))) "add" [| 5.; 7. |] (Vec.add [| 1.; 2. |] [| 4.; 5. |]);
  Alcotest.(check (array (float 1e-9))) "sub" [| -3.; -3. |] (Vec.sub [| 1.; 2. |] [| 4.; 5. |])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy 2.0 [| 3.0; 4.0 |] y;
  Alcotest.(check (array (float 1e-9))) "axpy" [| 7.0; 9.0 |] y

let test_vec_dist () =
  check_float "dist" 5.0 (Vec.dist [| 0.; 0. |] [| 3.; 4. |]);
  check_float "dist2" 25.0 (Vec.dist2 [| 0.; 0. |] [| 3.; 4. |])

let test_vec_norm () = check_float "norm" 5.0 (Vec.norm2 [| 3.0; 4.0 |])

let test_vec_dim_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Vec: dimension mismatch") (fun () ->
      ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]))

let test_vec_scale () =
  Alcotest.(check (array (float 1e-9))) "scale" [| 2.; 4. |] (Vec.scale 2.0 [| 1.; 2. |])

(* --- Mat --- *)

let test_mat_identity_mul () =
  let a = Mat.init 4 4 (fun i j -> float_of_int ((i * 4) + j)) in
  Alcotest.(check bool) "I*A = A" true (Mat.equal (Mat.mul (Mat.identity 4) a) a);
  Alcotest.(check bool) "A*I = A" true (Mat.equal (Mat.mul a (Mat.identity 4)) a)

let test_mat_mul_known () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_mat_transpose () =
  let a = Mat.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows t);
  Alcotest.(check int) "cols" 2 (Mat.cols t);
  check_float "t21" 6.0 (Mat.get t 2 1)

let test_mat_mul_vec () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array (float 1e-9))) "Ax" [| 5.; 11. |] (Mat.mul_vec a [| 1.; 2. |])

let test_mat_add_diagonal () =
  let a = Mat.create 3 3 in
  Mat.add_diagonal a 2.5;
  check_float "diag" 2.5 (Mat.get a 1 1);
  check_float "off-diag" 0.0 (Mat.get a 0 1)

let test_mat_row_col () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check (array (float 1e-9))) "row" [| 3.; 4. |] (Mat.row a 1);
  Alcotest.(check (array (float 1e-9))) "col" [| 2.; 4. |] (Mat.col a 1)

let test_mat_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged") (fun () ->
      ignore (Mat.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* --- Solve --- *)

let test_lu_solves () =
  for n = 1 to 8 do
    let a = random_spd n in
    let x = random_vec n in
    let b = Mat.mul_vec a x in
    let x' = Solve.solve a b in
    Alcotest.(check bool)
      (Printf.sprintf "lu n=%d" n)
      true
      (Vec.equal ~eps:1e-6 x x')
  done

let test_lu_needs_pivoting () =
  (* Zero top-left pivot forces a row swap. *)
  let a = Mat.of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Solve.solve a [| 3.0; 7.0 |] in
  Alcotest.(check (array (float 1e-9))) "swap solve" [| 7.0; 3.0 |] x

let test_lu_singular () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Solve.Singular (fun () -> ignore (Solve.lu a))

let test_cholesky_solves () =
  for n = 1 to 8 do
    let a = random_spd n in
    let x = random_vec n in
    let b = Mat.mul_vec a x in
    let x' = Solve.cholesky_solve (Solve.cholesky a) b in
    Alcotest.(check bool)
      (Printf.sprintf "chol n=%d" n)
      true
      (Vec.equal ~eps:1e-6 x x')
  done

let test_cholesky_inverse () =
  let n = 6 in
  let a = random_spd n in
  let inv = Solve.cholesky_inverse (Solve.cholesky a) in
  Alcotest.(check bool) "A * A^-1 = I" true
    (Mat.equal ~eps:1e-6 (Mat.mul a inv) (Mat.identity n))

let test_cholesky_rejects_indefinite () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  (* eigenvalues 3 and -1: not PD *)
  Alcotest.check_raises "indefinite" Solve.Singular (fun () -> ignore (Solve.cholesky a))

let test_cholesky_log_det () =
  let a = Mat.of_rows [| [| 4.; 0. |]; [| 0.; 9. |] |] in
  check_float "log det" (log 36.0) (Solve.cholesky_log_det (Solve.cholesky a))

let test_inverse_general () =
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let inv = Solve.inverse a in
  Alcotest.(check bool) "general inverse" true
    (Mat.equal ~eps:1e-9 (Mat.mul a inv) (Mat.identity 2))

(* --- Eigen --- *)

let test_eigen_diagonal () =
  let a = Mat.of_rows [| [| 3.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 2. |] |] in
  let vals, _ = Eigen.symmetric a in
  Alcotest.(check (array (float 1e-9))) "sorted eigenvalues" [| 3.; 2.; 1. |] vals

let test_eigen_residual () =
  let n = 6 in
  let a = random_spd n in
  let vals, vecs = Eigen.symmetric a in
  for k = 0 to n - 1 do
    let v = Array.init n (fun i -> Mat.get vecs i k) in
    let av = Mat.mul_vec a v in
    let lv = Vec.scale vals.(k) v in
    Alcotest.(check bool)
      (Printf.sprintf "Av = lv (k=%d)" k)
      true
      (Vec.equal ~eps:1e-6 av lv)
  done

let test_eigen_orthonormal () =
  let n = 5 in
  let a = random_spd n in
  let _, vecs = Eigen.symmetric a in
  let vtv = Mat.mul (Mat.transpose vecs) vecs in
  Alcotest.(check bool) "VᵀV = I" true (Mat.equal ~eps:1e-6 vtv (Mat.identity n))

let test_eigen_known_2x2 () =
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let vals, _ = Eigen.symmetric a in
  check_float "lambda1" 3.0 vals.(0);
  check_float "lambda2" 1.0 vals.(1)

let test_top_eigenvectors () =
  let a = Mat.of_rows [| [| 5.; 0. |]; [| 0.; 1. |] |] in
  let top = Eigen.top_eigenvectors a 1 in
  Alcotest.(check int) "one vector" 1 (Array.length top);
  Alcotest.(check bool) "aligned with e1" true (Float.abs top.(0).(0) > 0.99)

(* --- Blocked kernels: Mat.gram / Mat.pairwise_dist2 --- *)

let test_row_norms2 () =
  let m = Mat.of_rows [| [| 3.0; 4.0 |]; [| 1.0; 2.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "norms" [| 25.0; 5.0 |] (Mat.row_norms2 m)

let test_gram_multiblock () =
  (* 150 rows spans multiple 64-row tiles and several worker domains. *)
  let n = 150 in
  let m = Mat.init n 3 (fun _ _ -> Rng.gaussian rng) in
  let g1 = Mat.gram ~jobs:1 m in
  let g4 = Mat.gram ~jobs:4 m in
  Alcotest.(check bool) "bit-identical across jobs" true (Mat.equal ~eps:0.0 g1 g4);
  List.iter
    (fun (i, j) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "entry %d,%d" i j)
        (Vec.dot (Mat.row m i) (Mat.row m j))
        (Mat.get g1 i j))
    [ (0, 0); (0, 149); (63, 64); (100, 17); (149, 149) ]

let test_pairwise_dist2_multiblock () =
  let n = 150 in
  let m = Mat.init n 3 (fun _ _ -> Rng.gaussian rng) in
  let d1 = Mat.pairwise_dist2 ~jobs:1 m in
  let d4 = Mat.pairwise_dist2 ~jobs:4 m in
  Alcotest.(check bool) "bit-identical across jobs" true (Mat.equal ~eps:0.0 d1 d4);
  List.iter
    (fun (i, j) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "entry %d,%d" i j)
        (Vec.dist2 (Mat.row m i) (Mat.row m j))
        (Mat.get d1 i j))
    [ (0, 0); (0, 149); (63, 64); (100, 17); (149, 149) ]

(* --- QCheck --- *)

let small_spd_gen =
  QCheck.Gen.(
    let* n = 1 -- 6 in
    let* entries = array_size (return (n * n)) (float_bound_exclusive 2.0) in
    let b = Mat.init n n (fun i j -> entries.((i * n) + j) -. 1.0) in
    let a = Mat.mul (Mat.transpose b) b in
    Mat.add_diagonal a 1.0;
    return a)

let prop_cholesky_vs_lu =
  QCheck.Test.make ~count:100 ~name:"cholesky solve = lu solve"
    (QCheck.make small_spd_gen)
    (fun a ->
      let n = Mat.rows a in
      let b = Array.init n (fun i -> float_of_int (i + 1)) in
      let x1 = Solve.cholesky_solve (Solve.cholesky a) b in
      let x2 = Solve.solve a b in
      Vec.equal ~eps:1e-6 x1 x2)

let random_mat_gen =
  QCheck.Gen.(
    let* n = 1 -- 12 in
    let* d = 1 -- 7 in
    let* entries = array_size (return (n * d)) (float_bound_exclusive 4.0) in
    return (Mat.init n d (fun i j -> entries.((i * d) + j) -. 2.0)))

let prop_gram_blocked_matches_scalar =
  QCheck.Test.make ~count:100 ~name:"blocked gram = row dots, jobs-invariant"
    (QCheck.make random_mat_gen)
    (fun m ->
      let n = Mat.rows m in
      let g1 = Mat.gram ~jobs:1 m in
      let g4 = Mat.gram ~jobs:4 m in
      let ok = ref (Mat.equal ~eps:0.0 g1 g4) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Float.abs (Mat.get g1 i j -. Vec.dot (Mat.row m i) (Mat.row m j)) > 1e-9 then
            ok := false
        done
      done;
      !ok)

let prop_pairwise_dist2_matches_scalar =
  QCheck.Test.make ~count:100 ~name:"blocked pairwise dist2 = Vec.dist2, jobs-invariant"
    (QCheck.make random_mat_gen)
    (fun m ->
      let n = Mat.rows m in
      let d1 = Mat.pairwise_dist2 ~jobs:1 m in
      let d4 = Mat.pairwise_dist2 ~jobs:4 m in
      let ok = ref (Mat.equal ~eps:0.0 d1 d4) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Float.abs (Mat.get d1 i j -. Vec.dist2 (Mat.row m i) (Mat.row m j)) > 1e-9 then
            ok := false
        done
      done;
      !ok)

let prop_eigen_trace =
  QCheck.Test.make ~count:100 ~name:"eigenvalues sum to trace"
    (QCheck.make small_spd_gen)
    (fun a ->
      let n = Mat.rows a in
      let vals, _ = Eigen.symmetric a in
      let trace = ref 0.0 in
      for i = 0 to n - 1 do
        trace := !trace +. Mat.get a i i
      done;
      Float.abs (Array.fold_left ( +. ) 0.0 vals -. !trace) < 1e-6)

let suite =
  [
    ("vec dot", `Quick, test_vec_dot);
    ("vec add/sub", `Quick, test_vec_add_sub);
    ("vec axpy", `Quick, test_vec_axpy);
    ("vec dist", `Quick, test_vec_dist);
    ("vec norm", `Quick, test_vec_norm);
    ("vec dim mismatch", `Quick, test_vec_dim_mismatch);
    ("vec scale", `Quick, test_vec_scale);
    ("mat identity mul", `Quick, test_mat_identity_mul);
    ("mat mul known", `Quick, test_mat_mul_known);
    ("mat transpose", `Quick, test_mat_transpose);
    ("mat mul_vec", `Quick, test_mat_mul_vec);
    ("mat add_diagonal", `Quick, test_mat_add_diagonal);
    ("mat row/col", `Quick, test_mat_row_col);
    ("mat ragged", `Quick, test_mat_ragged);
    ("lu solves", `Quick, test_lu_solves);
    ("lu pivoting", `Quick, test_lu_needs_pivoting);
    ("lu singular", `Quick, test_lu_singular);
    ("cholesky solves", `Quick, test_cholesky_solves);
    ("cholesky inverse", `Quick, test_cholesky_inverse);
    ("cholesky indefinite", `Quick, test_cholesky_rejects_indefinite);
    ("cholesky log det", `Quick, test_cholesky_log_det);
    ("general inverse", `Quick, test_inverse_general);
    ("eigen diagonal", `Quick, test_eigen_diagonal);
    ("eigen residual", `Quick, test_eigen_residual);
    ("eigen orthonormal", `Quick, test_eigen_orthonormal);
    ("eigen 2x2", `Quick, test_eigen_known_2x2);
    ("top eigenvectors", `Quick, test_top_eigenvectors);
    ("row norms2", `Quick, test_row_norms2);
    ("gram multiblock", `Quick, test_gram_multiblock);
    ("pairwise dist2 multiblock", `Quick, test_pairwise_dist2_multiblock);
    QCheck_alcotest.to_alcotest prop_gram_blocked_matches_scalar;
    QCheck_alcotest.to_alcotest prop_pairwise_dist2_matches_scalar;
    QCheck_alcotest.to_alcotest prop_cholesky_vs_lu;
    QCheck_alcotest.to_alcotest prop_eigen_trace;
  ]
