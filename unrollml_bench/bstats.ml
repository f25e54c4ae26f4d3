(* Order statistics used for every reported number. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it.  Used for latency tails, where an interpolated
   value would name a latency nobody observed. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Bstats.percentile: no samples"
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* The highest percentile, up to the 95th, with at least ten samples
   beyond it — a tail that repeats from run to run.  Higher percentiles
   of a closed-loop server's latency follow the load other tenants put on
   a shared host more than the code.  Fewer than twenty samples have no
   such tail; their median stands in. *)
let tail a =
  let n = float_of_int (Array.length a) in
  percentile a (Float.max 0.5 (Float.min 0.95 (1.0 -. (10.0 /. n))))

(* First quartile, median and third quartile by the "exclusive" method of
   Python's [statistics.quantiles(values, n=4)], so spreads computed here
   agree with the ones other tools compute from the same result files.  A
   single sample is its own quartiles. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then invalid_arg "Bstats.quartiles: no samples"
  else if ld = 1 then (s.(0), s.(0), s.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* Interquartile distance as a share of the median. *)
let spread a =
  let q1, med, q3 = quartiles a in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med
