(* Multi-layer perceptron with a softmax cross-entropy head.

   Parameter layout: one flat [float array]; layer l (mapping dims.(l)
   inputs to dims.(l+1) outputs) occupies the weight block
   [dims.(l+1) * dims.(l)] row-major followed by [dims.(l+1)] biases.
   Momentum buffers, early-stopping snapshots and the finite-difference
   gradient checker all address parameters through this one indexing.

   Determinism: weight init and the per-epoch shuffle derive from the
   seed alone, and training is sequential: each example's gradient is
   added into one batch accumulator in index order, and loss sums and the
   weight update run in index order too.  Trained weights are a pure
   function of (data, seed, hyper); callers parallelise across models
   (cross-validation folds), never inside one. *)

type t = {
  dims : int array;
  params : float array;
}

type hyper = {
  hidden : int array;
  epochs : int;
  batch : int;
  lr : float;
  momentum : float;
  holdout : float;
  patience : int;
}

let default_hyper =
  {
    hidden = [| 24 |];
    epochs = 150;
    batch = 32;
    lr = 0.08;
    momentum = 0.9;
    holdout = 0.18;
    patience = 18;
  }

type stats = {
  epochs_run : int;
  final_loss : float;
  holdout_accuracy : float;
  holdout_size : int;
}

let n_layers t = Array.length t.dims - 1
let dims t = t.dims
let n_classes t = t.dims.(Array.length t.dims - 1)

(* Start of layer l's block in the flat parameter array. *)
let layer_offset dims l =
  let off = ref 0 in
  for i = 0 to l - 1 do
    off := !off + (dims.(i + 1) * (dims.(i) + 1))
  done;
  !off

let param_count_of dims = layer_offset dims (Array.length dims - 1)
let param_count t = param_count_of t.dims
let get_param t i = t.params.(i)
let set_param t i v = t.params.(i) <- v

let check_dims dims =
  if Array.length dims < 2 then invalid_arg "Mlp: need at least input and output layers";
  Array.iter (fun d -> if d < 1 then invalid_arg "Mlp: layer width must be positive") dims

let init ~seed ~dims =
  check_dims dims;
  let params = Array.make (param_count_of dims) 0.0 in
  for l = 0 to Array.length dims - 2 do
    let fan_in = dims.(l) and fan_out = dims.(l + 1) in
    let rng = Rng.derive seed "mlp-init" l in
    let limit = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
    let off = layer_offset dims l in
    for i = 0 to (fan_out * fan_in) - 1 do
      params.(off + i) <- Rng.float rng (2.0 *. limit) -. limit
    done
    (* biases stay zero *)
  done;
  { dims; params }

(* --- forward and backward passes into scratch ----------------------------- *)

(* Per-pass buffers, reused across every example of a [train] call so the
   inner loop allocates nothing.  For l >= 1, acts.(l) holds layer l-1's
   output (tanh for hidden layers, raw logits at the head) and deltas.(l)
   the loss gradient with respect to its pre-activation; the input is read
   in place, so acts.(0) and deltas.(0) are empty.  deltas.(n_layers)
   first receives the softmax probabilities.  [loss] is a one-cell running
   sum of example losses (a float array cell, so adding to it allocates
   nothing). *)
type scratch = {
  acts : float array array;
  deltas : float array array;
  loss : float array;
}

let scratch dims =
  let buffers () = Array.mapi (fun l w -> if l = 0 then [||] else Array.make w 0.0) dims in
  { acts = buffers (); deltas = buffers (); loss = [| 0.0 |] }

(* Runs x through every layer into s.acts; returns the logits buffer. *)
let forward t s x =
  let nl = n_layers t in
  for l = 0 to nl - 1 do
    let fan_in = t.dims.(l) and fan_out = t.dims.(l + 1) in
    let off = layer_offset t.dims l in
    let bias_off = off + (fan_out * fan_in) in
    let inp = if l = 0 then x else s.acts.(l) in
    let out = s.acts.(l + 1) in
    for i = 0 to fan_out - 1 do
      let row = off + (i * fan_in) in
      let z = ref t.params.(bias_off + i) in
      for j = 0 to fan_in - 1 do
        z := !z +. (t.params.(row + j) *. inp.(j))
      done;
      out.(i) <- (if l = nl - 1 then !z else tanh !z)
    done
  done;
  s.acts.(nl)

let argmax a =
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

let predict t x = argmax (forward t (scratch t.dims) x)
let decision_values t x = Array.copy (forward t (scratch t.dims) x)

(* Forward pass plus softmax cross-entropy: writes the max-shifted softmax
   probabilities into deltas.(n_layers), adds the example's loss to
   s.loss.(0) and returns the logits.  The max is [Stdlib.max] folded
   left, at type float. *)
let forward_loss t s x y =
  let logits = forward t s x in
  let p = s.deltas.(n_layers t) in
  let m = ref neg_infinity in
  for i = 0 to Array.length logits - 1 do
    let z = logits.(i) in
    m := if !m >= z then !m else z
  done;
  let sum = ref 0.0 in
  for i = 0 to Array.length logits - 1 do
    let e = exp (logits.(i) -. !m) in
    p.(i) <- e;
    sum := !sum +. e
  done;
  for i = 0 to Array.length p - 1 do
    p.(i) <- p.(i) /. !sum
  done;
  s.loss.(0) <- s.loss.(0) -. log (Float.max p.(y) 1e-300);
  logits

(* The training kernel: one example's forward and backward pass, adding
   its cross-entropy gradient into [acc] (flat, indexed like params) and
   its loss into s.loss.(0).  Each gradient term is added on its own, so
   summing examples into one [acc] in index order equals summing their
   separate gradient vectors in that order, bit for bit. *)
let accumulate t s acc x y =
  let nl = n_layers t in
  ignore (forward_loss t s x y);
  (* delta at the head: softmax − one-hot *)
  let head = s.deltas.(nl) in
  head.(y) <- head.(y) -. 1.0;
  for l = nl - 1 downto 0 do
    let fan_in = t.dims.(l) and fan_out = t.dims.(l + 1) in
    let off = layer_offset t.dims l in
    let bias_off = off + (fan_out * fan_in) in
    let inp = if l = 0 then x else s.acts.(l) and d = s.deltas.(l + 1) in
    for i = 0 to fan_out - 1 do
      let row = off + (i * fan_in) in
      let di = d.(i) in
      acc.(bias_off + i) <- acc.(bias_off + i) +. di;
      for j = 0 to fan_in - 1 do
        acc.(row + j) <- acc.(row + j) +. (di *. inp.(j))
      done
    done;
    if l > 0 then begin
      (* back-propagate through the tanh: d_in.(j) = (1 − a²) Σᵢ dᵢ·Wᵢⱼ *)
      let prev = s.deltas.(l) in
      for j = 0 to fan_in - 1 do
        let z = ref 0.0 in
        for i = 0 to fan_out - 1 do
          z := !z +. (d.(i) *. t.params.(off + (i * fan_in) + j))
        done;
        let a = inp.(j) in
        prev.(j) <- !z *. (1.0 -. (a *. a))
      done
    end
  done

let example_loss t x y =
  let s = scratch t.dims in
  ignore (forward_loss t s x y);
  s.loss.(0)

let example_gradient t x y =
  let grad = Array.make (param_count t) 0.0 in
  accumulate t (scratch t.dims) grad x y;
  grad

(* --- content-keyed holdout split ----------------------------------------- *)

(* An example's holdout membership is a pure function of (seed, features,
   label): hash the content, map the first 48 bits to [0, 1) and compare
   against the holdout fraction.  Appending examples to the dataset (or
   permuting it) cannot move any existing example across the split. *)
let holdout_member ~seed ~holdout features label =
  if holdout <= 0.0 then false
  else begin
    let b = Buffer.create 64 in
    Buffer.add_string b (string_of_int seed);
    Buffer.add_char b '#';
    Buffer.add_string b (string_of_int label);
    Array.iter
      (fun v ->
        Buffer.add_char b '#';
        Buffer.add_string b (Printf.sprintf "%h" v))
      features;
    let d = Digest.string (Buffer.contents b) in
    let bits = ref 0 in
    for i = 0 to 5 do
      bits := (!bits lsl 8) lor Char.code d.[i]
    done;
    float_of_int !bits /. 281474976710656.0 < holdout
  end

(* --- serialisation ------------------------------------------------------- *)

let export t =
  let nl = n_layers t in
  let weights = Array.make nl [||] and biases = Array.make nl [||] in
  for l = 0 to nl - 1 do
    let fan_in = t.dims.(l) and fan_out = t.dims.(l + 1) in
    let off = layer_offset t.dims l in
    weights.(l) <- Array.sub t.params off (fan_out * fan_in);
    biases.(l) <- Array.sub t.params (off + (fan_out * fan_in)) fan_out
  done;
  (Array.copy t.dims, weights, biases)

let import ~dims ~weights ~biases =
  check_dims dims;
  let nl = Array.length dims - 1 in
  if Array.length weights <> nl || Array.length biases <> nl then
    invalid_arg "Mlp.import: layer count mismatch";
  let params = Array.make (param_count_of dims) 0.0 in
  for l = 0 to nl - 1 do
    let fan_in = dims.(l) and fan_out = dims.(l + 1) in
    if Array.length weights.(l) <> fan_out * fan_in then
      invalid_arg "Mlp.import: weight block size mismatch";
    if Array.length biases.(l) <> fan_out then
      invalid_arg "Mlp.import: bias size mismatch";
    let off = layer_offset dims l in
    Array.blit weights.(l) 0 params off (fan_out * fan_in);
    Array.blit biases.(l) 0 params (off + (fan_out * fan_in)) fan_out
  done;
  { dims = Array.copy dims; params }

(* --- training ------------------------------------------------------------ *)

(* Mean loss and accuracy over a fixed index set, summed in index order. *)
let evaluate t s xs ys idx =
  let n = Array.length idx in
  if n = 0 then (nan, nan)
  else begin
    s.loss.(0) <- 0.0;
    let correct = ref 0 in
    Array.iter
      (fun i -> if argmax (forward_loss t s xs.(i) ys.(i)) = ys.(i) then incr correct)
      idx;
    (s.loss.(0) /. float_of_int n, float_of_int !correct /. float_of_int n)
  end

let train ?telemetry ~seed ~hyper ~n_classes pairs =
  let t0 = Unix.gettimeofday () in
  let n = Array.length pairs in
  if n = 0 then invalid_arg "Mlp.train: empty training set";
  if n_classes < 2 then invalid_arg "Mlp.train: need at least two classes";
  let d = Array.length (fst pairs.(0)) in
  Array.iter
    (fun (x, y) ->
      if Array.length x <> d then invalid_arg "Mlp.train: ragged feature vectors";
      if y < 0 || y >= n_classes then invalid_arg "Mlp.train: label out of range")
    pairs;
  let xs = Array.map fst pairs and ys = Array.map snd pairs in
  let dims = Array.concat [ [| d |]; hyper.hidden; [| n_classes |] ] in
  let net = init ~seed ~dims in
  (* Content-keyed split; if everything lands in the holdout (tiny sets),
     train on all of it and skip early stopping. *)
  let held = Array.init n (fun i -> holdout_member ~seed ~holdout:hyper.holdout xs.(i) ys.(i)) in
  let train_idx = ref [] and hold_idx = ref [] in
  for i = n - 1 downto 0 do
    if held.(i) then hold_idx := i :: !hold_idx else train_idx := i :: !train_idx
  done;
  let train_idx, hold_idx =
    match !train_idx with
    | [] -> (Array.init n (fun i -> i), [||])
    | l -> (Array.of_list l, Array.of_list !hold_idx)
  in
  let n_train = Array.length train_idx in
  let n_hold = Array.length hold_idx in
  let np = param_count net in
  let velocity = Array.make np 0.0 in
  let s = scratch dims and acc = Array.make np 0.0 in
  let batch = max 1 hyper.batch in
  let order = Array.copy train_idx in
  let best_params = Array.copy net.params in
  let best_loss = ref infinity in
  let stale = ref 0 in
  let last_train_loss = ref nan in
  let epochs_run = ref 0 in
  (try
     for epoch = 0 to hyper.epochs - 1 do
       incr epochs_run;
       Rng.shuffle (Rng.derive seed "mlp-epoch" epoch) order;
       s.loss.(0) <- 0.0;
       let pos = ref 0 in
       while !pos < n_train do
         let nb = min batch (n_train - !pos) in
         Array.fill acc 0 np 0.0;
         for k = !pos to !pos + nb - 1 do
           let i = order.(k) in
           accumulate net s acc xs.(i) ys.(i)
         done;
         let inv = 1.0 /. float_of_int nb in
         for i = 0 to np - 1 do
           velocity.(i) <- (hyper.momentum *. velocity.(i)) -. (hyper.lr *. acc.(i) *. inv);
           net.params.(i) <- net.params.(i) +. velocity.(i)
         done;
         pos := !pos + nb
       done;
       last_train_loss := s.loss.(0) /. float_of_int n_train;
       if n_hold > 0 then begin
         let hloss, _ = evaluate net s xs ys hold_idx in
         if hloss < !best_loss then begin
           best_loss := hloss;
           Array.blit net.params 0 best_params 0 np;
           stale := 0
         end
         else begin
           incr stale;
           if !stale > hyper.patience then raise Exit
         end
       end
     done
   with Exit -> ());
  if n_hold > 0 then Array.blit best_params 0 net.params 0 np;
  let _, holdout_accuracy =
    if n_hold > 0 then evaluate net s xs ys hold_idx else (nan, nan)
  in
  let stats =
    {
      epochs_run = !epochs_run;
      final_loss = !last_train_loss;
      holdout_accuracy;
      holdout_size = n_hold;
    }
  in
  (match telemetry with
  | None -> ()
  | Some tel ->
    let scaled v mult = if Float.is_nan v then -1 else int_of_float (v *. mult) in
    Telemetry.record tel ~pass:"mlp"
      ~seconds:(Unix.gettimeofday () -. t0)
      ~metrics:
        [
          ("epochs", stats.epochs_run);
          ("params", np);
          ("examples", n);
          ("holdout", n_hold);
          ("final-loss-milli", scaled stats.final_loss 1000.0);
          ("holdout-acc-bp", scaled stats.holdout_accuracy 10000.0);
        ]
      ());
  (net, stats)
