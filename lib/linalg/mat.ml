type t = { r : int; c : int; a : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Mat.create";
  { r; c; a = Array.make (r * c) 0.0 }

let init r c f =
  let m = create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      m.a.((i * c) + j) <- f i j
    done
  done;
  m

let of_rows rows =
  let r = Array.length rows in
  if r = 0 then create 0 0
  else begin
    let c = Array.length rows.(0) in
    Array.iter (fun row -> if Array.length row <> c then invalid_arg "Mat.of_rows: ragged") rows;
    init r c (fun i j -> rows.(i).(j))
  end

let of_flat r c a =
  if r < 0 || c < 0 || Array.length a <> r * c then invalid_arg "Mat.of_flat";
  { r; c; a }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let rows m = m.r
let cols m = m.c

let get m i j = m.a.((i * m.c) + j)
let set m i j v = m.a.((i * m.c) + j) <- v

let copy m = { m with a = Array.copy m.a }

let row m i = Array.sub m.a (i * m.c) m.c

let col m j = Array.init m.r (fun i -> get m i j)

let transpose m = init m.c m.r (fun i j -> get m j i)

(* i-k-j loop order: the inner loop walks both matrices row-major. *)
let mul m n =
  if m.c <> n.r then invalid_arg "Mat.mul: inner dimensions";
  let out = create m.r n.c in
  for i = 0 to m.r - 1 do
    for k = 0 to m.c - 1 do
      let mik = m.a.((i * m.c) + k) in
      if mik <> 0.0 then
        for j = 0 to n.c - 1 do
          out.a.((i * n.c) + j) <- out.a.((i * n.c) + j) +. (mik *. n.a.((k * n.c) + j))
        done
    done
  done;
  out

let mul_vec m x =
  if m.c <> Array.length x then invalid_arg "Mat.mul_vec: dimension";
  Array.init m.r (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.c - 1 do
        acc := !acc +. (m.a.((i * m.c) + j) *. x.(j))
      done;
      !acc)

let add_diagonal m a =
  let n = min m.r m.c in
  for i = 0 to n - 1 do
    m.a.((i * m.c) + i) <- m.a.((i * m.c) + i) +. a
  done

let data m = m.a

(* ------------------------------------------------------------------ *)
(* Blocked pairwise kernels over row-major points matrices.

   Every output entry is a function of exactly two rows, computed with the
   inner summation running left-to-right over the full row — tiling only
   reorders *independent* entries for cache locality, and worker domains
   own disjoint row blocks, so results are bit-identical for every [jobs]
   value and every block size. *)

let block = 64

let row_norms2 m =
  Array.init m.r (fun i ->
      let base = i * m.c in
      let acc = ref 0.0 in
      for j = 0 to m.c - 1 do
        let v = m.a.(base + j) in
        acc := !acc +. (v *. v)
      done;
      !acc)

let gram ?(jobs = 1) m =
  let n = m.r and d = m.c in
  let out = create n n in
  let a = m.a and o = out.a in
  (* Fill the tile rows [i0,i1] x columns [j0,j1] with j >= i entries and
     mirror them; tiles below the diagonal are never visited, so each
     output element is written exactly once (no races across domains). *)
  let fill_rows i0 =
    let i1 = min (n - 1) (i0 + block - 1) in
    let j0 = ref i0 in
    while !j0 < n do
      let j1 = min (n - 1) (!j0 + block - 1) in
      for i = i0 to i1 do
        let bi = i * d in
        for j = max i !j0 to j1 do
          let bj = j * d in
          let acc = ref 0.0 in
          for k = 0 to d - 1 do
            acc := !acc +. (a.(bi + k) *. a.(bj + k))
          done;
          o.((i * n) + j) <- !acc;
          o.((j * n) + i) <- !acc
        done
      done;
      j0 := !j0 + block
    done
  in
  let n_blocks = (n + block - 1) / block in
  Parallel.iter ~jobs n_blocks (fun b -> fill_rows (b * block));
  out

let pairwise_dist2 ?(jobs = 1) m =
  let n = m.r and d = m.c in
  let out = create n n in
  let a = m.a and o = out.a in
  (* Direct blocked differences rather than |x|²+|y|²−2x·y: the gram form
     is a hair faster but its cancellation noise (±1 ulp around 0 for
     duplicate rows) breaks exact-tie reproducibility against the
     incremental Pairwise triangle.  Each entry sums (x_k−y_k)² left to
     right over features — bit-identical to [Vec.dist2] and independent
     of [jobs] and the tile size.  The worker owning row block [i0,i1]
     writes exactly the pairs (i, k) with i0 <= i <= i1 < k plus their
     mirrors and its own diagonal zeros, so no element races. *)
  let fill_rows i0 =
    let i1 = min (n - 1) (i0 + block - 1) in
    let k0 = ref i0 in
    while !k0 < n do
      let k1 = min (n - 1) (!k0 + block - 1) in
      for i = i0 to i1 do
        let bi = i * d in
        for k = max (i + 1) !k0 to k1 do
          let bk = k * d in
          let acc = ref 0.0 in
          for j = 0 to d - 1 do
            let dv = a.(bi + j) -. a.(bk + j) in
            acc := !acc +. (dv *. dv)
          done;
          o.((i * n) + k) <- !acc;
          o.((k * n) + i) <- !acc
        done
      done;
      k0 := !k0 + block
    done
  in
  let n_blocks = (n + block - 1) / block in
  Parallel.iter ~jobs n_blocks (fun b -> fill_rows (b * block));
  out

let equal ?(eps = 1e-9) m n =
  m.r = n.r && m.c = n.c
  &&
  let ok = ref true in
  for i = 0 to Array.length m.a - 1 do
    if Float.abs (m.a.(i) -. n.a.(i)) > eps then ok := false
  done;
  !ok
