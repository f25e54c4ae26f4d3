type code = One_vs_rest | Dense_random of { bits : int; seed : int }

type t = {
  machines : Lssvm.trained array;
  codewords : int array array; (* class -> ±1 per bit *)
}

let build_codewords code n_classes =
  match code with
  | One_vs_rest ->
    Array.init n_classes (fun c ->
        Array.init n_classes (fun b -> if b = c then 1 else -1))
  | Dense_random { bits; seed } ->
    let rng = Rng.create seed in
    let distinct rows row =
      not (List.exists (fun r -> r = row) rows)
    in
    let rec draw rows remaining =
      if remaining = 0 then List.rev rows
      else begin
        let row = Array.init bits (fun _ -> if Rng.bool rng then 1 else -1) in
        if distinct rows row then draw (row :: rows) (remaining - 1)
        else draw rows remaining
      end
    in
    Array.of_list (draw [] n_classes)

(* One ±1 target vector per codeword bit, over the labels in order. *)
let targets_of_codewords codewords labels =
  let bits = Array.length codewords.(0) in
  Array.init bits (fun b -> Array.map (fun y -> float_of_int codewords.(y).(b)) labels)

let train ?jobs ?(code = One_vs_rest) ~n_classes ~kernel ~gamma pairs =
  let codewords = build_codewords code n_classes in
  let points = Array.map fst pairs in
  let target_sets = targets_of_codewords codewords (Array.map snd pairs) in
  let machines = Lssvm.train_multi ?jobs ~kernel ~gamma points target_sets in
  { machines; codewords }

(* Soft decoding: score of class c = sum_b codeword(c,b) * f_b; the exact
   Hamming decode on signs is recovered when decisions saturate, and
   margins resolve ties. *)
let decode codewords decisions =
  let best = ref 0 and best_score = ref neg_infinity in
  Array.iteri
    (fun c row ->
      let score = ref 0.0 in
      Array.iteri (fun b bit -> score := !score +. (float_of_int bit *. decisions.(b))) row;
      if !score > !best_score then begin
        best_score := !score;
        best := c
      end)
    codewords;
  !best

(* Decode every row of per-bit decision columns: row [i] takes entry [i]
   of each column. *)
let decode_columns codewords columns n =
  Array.init n (fun i -> decode codewords (Array.map (fun col -> col.(i)) columns))

let decision_values t x = Lssvm.decision_batch t.machines x

let predict t x = decode t.codewords (decision_values t x)

let loo_predictions ?jobs ?(code = One_vs_rest) ~n_classes ~kernel ~gamma pairs =
  let codewords = build_codewords code n_classes in
  let points = Array.map fst pairs in
  let target_sets = targets_of_codewords codewords (Array.map snd pairs) in
  let loo = Lssvm.loo_decisions ?jobs ~kernel ~gamma points target_sets in
  decode_columns codewords loo (Array.length pairs)

(* Train on a precomputed Gram matrix and classify the training points in
   place: decision values are K·alpha rows, so no kernel is re-evaluated.
   This is the SVM objective of greedy selection, fed by the pairwise
   engine's incremental RBF Gram. *)
let training_predictions ?(code = One_vs_rest) ~n_classes ~gamma ~gram labels =
  let codewords = build_codewords code n_classes in
  let alphas = Lssvm.solve_gram ~gamma gram (targets_of_codewords codewords labels) in
  let decisions = Array.map (fun a -> Mat.mul_vec gram a) alphas in
  decode_columns codewords decisions (Array.length labels)

let codeword t c = t.codewords.(c)

let export t = (t.codewords, t.machines)

let import ~codewords ~machines =
  if Array.length codewords = 0 then invalid_arg "Multiclass.import";
  { machines; codewords }
