type t = float array

let check_dim x y =
  if Array.length x <> Array.length y then invalid_arg "Vec: dimension mismatch"

let add x y =
  check_dim x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let sub x y =
  check_dim x y;
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let scale a x = Array.map (fun v -> a *. v) x

let axpy a x y =
  check_dim x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot x y =
  check_dim x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let dist2 x y =
  check_dim x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let dist x y = sqrt (dist2 x y)

let equal ?(eps = 1e-9) x y =
  Array.length x = Array.length y
  &&
  let ok = ref true in
  for i = 0 to Array.length x - 1 do
    if Float.abs (x.(i) -. y.(i)) > eps then ok := false
  done;
  !ok
