exception Singular

(* The Cholesky factor is kept as raw lower-triangular rows: the LS-SVM
   experiments factor and invert matrices in the low thousands, and row
   arrays keep the inner loops free of index arithmetic and matrix
   accessors. *)
type cholesky = {
  rows : float array array;
  (* cols.(i).(k-i) = L(k,i) for k >= i: the transposed factor, stored
     contiguously so the backward substitution streams memory. *)
  mutable cols : float array array option;
}

let cholesky a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Solve.cholesky: non-square";
  (* Copy the lower triangle. *)
  let l = Array.init n (fun i -> Array.init (i + 1) (fun j -> Mat.get a i j)) in
  for j = 0 to n - 1 do
    let lj = l.(j) in
    let s = ref lj.(j) in
    for k = 0 to j - 1 do
      s := !s -. (lj.(k) *. lj.(k))
    done;
    if !s <= 1e-12 then raise Singular;
    let d = sqrt !s in
    lj.(j) <- d;
    for i = j + 1 to n - 1 do
      let li = l.(i) in
      let s = ref li.(j) in
      for k = 0 to j - 1 do
        s := !s -. (li.(k) *. lj.(k))
      done;
      li.(j) <- !s /. d
    done
  done;
  { rows = l; cols = None }

(* Solves L y = b, allowing a known prefix of zeros in [b] (y is zero
   there too, a big saving when inverting column by column). *)
let forward_subst rows ?(first = 0) b y =
  let n = Array.length rows in
  Array.fill y 0 n 0.0;
  for i = first to n - 1 do
    let ri = rows.(i) in
    let s = ref b.(i) in
    for k = first to i - 1 do
      s := !s -. (ri.(k) *. y.(k))
    done;
    y.(i) <- !s /. ri.(i)
  done

let transposed_factor t =
  match t.cols with
  | Some c -> c
  | None ->
    let n = Array.length t.rows in
    let c = Array.init n (fun i -> Array.init (n - i) (fun d -> t.rows.(i + d).(i))) in
    t.cols <- Some c;
    c

(* Solves Lᵀ x = y in place over [y], reading the transposed factor. *)
let backward_subst_transposed cols y =
  let n = Array.length cols in
  for i = n - 1 downto 0 do
    let ci = cols.(i) in
    let s = ref y.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (ci.(k - i) *. y.(k))
    done;
    y.(i) <- !s /. ci.(0)
  done

let cholesky_solve t b =
  let rows = t.rows in
  let n = Array.length rows in
  if Array.length b <> n then invalid_arg "Solve.cholesky_solve: dimension";
  let y = Array.make n 0.0 in
  forward_subst rows b y;
  backward_subst_transposed (transposed_factor t) y;
  y

let cholesky_inverse t =
  let rows = t.rows in
  let cols = transposed_factor t in
  let n = Array.length rows in
  let inv = Mat.create n n in
  let e = Array.make n 0.0 in
  let y = Array.make n 0.0 in
  for j = 0 to n - 1 do
    e.(j) <- 1.0;
    (* e_j is zero before position j, so the forward solve starts there. *)
    forward_subst rows ~first:j e y;
    backward_subst_transposed cols y;
    e.(j) <- 0.0;
    for i = 0 to n - 1 do
      Mat.set inv i j y.(i)
    done
  done;
  inv

(* diag(A^-1) without the full inverse: A^-1 = L^-T L^-1, so
   (A^-1)_jj = || L^-1 e_j ||^2 — one (sparse) forward solve per column. *)
let cholesky_inverse_diagonal t =
  let rows = t.rows in
  let n = Array.length rows in
  let diag = Array.make n 0.0 in
  let e = Array.make n 0.0 in
  let y = Array.make n 0.0 in
  for j = 0 to n - 1 do
    e.(j) <- 1.0;
    forward_subst rows ~first:j e y;
    e.(j) <- 0.0;
    let acc = ref 0.0 in
    for i = j to n - 1 do
      acc := !acc +. (y.(i) *. y.(i))
    done;
    diag.(j) <- !acc
  done;
  diag

let cholesky_log_det { rows; _ } =
  let n = Array.length rows in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. log rows.(i).(i)
  done;
  2.0 *. !acc

type lu = { lu : Mat.t; perm : int array }

let lu a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Solve.lu: non-square";
  let m = Mat.copy a in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* Partial pivoting: pick the largest magnitude in column k. *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (Mat.get m i k) > Float.abs (Mat.get m !piv k) then piv := i
    done;
    if Float.abs (Mat.get m !piv k) < 1e-12 then raise Singular;
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let t = Mat.get m k j in
        Mat.set m k j (Mat.get m !piv j);
        Mat.set m !piv j t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- t
    end;
    let pivot = Mat.get m k k in
    for i = k + 1 to n - 1 do
      let factor = Mat.get m i k /. pivot in
      Mat.set m i k factor;
      for j = k + 1 to n - 1 do
        Mat.set m i j (Mat.get m i j -. (factor *. Mat.get m k j))
      done
    done
  done;
  { lu = m; perm }

let lu_solve { lu = m; perm } b =
  let n = Mat.rows m in
  if Array.length b <> n then invalid_arg "Solve.lu_solve: dimension";
  let y = Array.init n (fun i -> b.(perm.(i))) in
  for i = 0 to n - 1 do
    let s = ref y.(i) in
    for k = 0 to i - 1 do
      s := !s -. (Mat.get m i k *. y.(k))
    done;
    y.(i) <- !s
  done;
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (Mat.get m i k *. y.(k))
    done;
    y.(i) <- !s /. Mat.get m i i
  done;
  y

let lu_inverse f =
  let n = Mat.rows f.lu in
  let inv = Mat.create n n in
  let e = Array.make n 0.0 in
  for j = 0 to n - 1 do
    e.(j) <- 1.0;
    let x = lu_solve f e in
    e.(j) <- 0.0;
    for i = 0 to n - 1 do
      Mat.set inv i j x.(i)
    done
  done;
  inv

let solve a b = lu_solve (lu a) b
let inverse a = lu_inverse (lu a)
