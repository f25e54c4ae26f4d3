type example = {
  features : float array;
  label : int;
  tag : string;
  group : string;
  costs : float array;
}

type t = {
  examples : example array;
  feature_names : string array;
  n_classes : int;
}

let create ~feature_names ~n_classes examples =
  let d = Array.length feature_names in
  List.iter
    (fun e ->
      if Array.length e.features <> d then
        invalid_arg
          (Printf.sprintf "Dataset.create: %s has %d features, expected %d" e.tag
             (Array.length e.features) d);
      if e.label < 0 || e.label >= n_classes then
        invalid_arg (Printf.sprintf "Dataset.create: %s label out of range" e.tag);
      if Array.length e.costs <> n_classes then
        invalid_arg (Printf.sprintf "Dataset.create: %s costs wrong length" e.tag))
    examples;
  { examples = Array.of_list examples; feature_names; n_classes }

let size t = Array.length t.examples

let select_features t idx =
  Array.iter
    (fun i ->
      if i < 0 || i >= Array.length t.feature_names then
        invalid_arg "Dataset.select_features: index out of range")
    idx;
  {
    t with
    feature_names = Array.map (fun i -> t.feature_names.(i)) idx;
    examples =
      Array.map
        (fun e -> { e with features = Array.map (fun i -> e.features.(i)) idx })
        t.examples;
  }

let feature_column t i = Array.map (fun e -> e.features.(i)) t.examples

let labels t = Array.map (fun e -> e.label) t.examples

let without_group t g =
  {
    t with
    examples = Array.of_list (List.filter (fun e -> e.group <> g) (Array.to_list t.examples));
  }

let subsample ~cap t =
  let n = size t in
  if n <= cap then t
  else begin
    let stride = float_of_int n /. float_of_int cap in
    { t with examples = Array.init cap (fun i -> t.examples.(int_of_float (float_of_int i *. stride))) }
  end

let groups t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iter
    (fun e ->
      if not (Hashtbl.mem seen e.group) then begin
        Hashtbl.add seen e.group ();
        out := e.group :: !out
      end)
    t.examples;
  List.rev !out

let points t = Array.map (fun e -> (e.features, e.label)) t.examples

let points_matrix t =
  let n = Array.length t.examples in
  let d = Array.length t.feature_names in
  let m = Mat.create n d in
  let a = Mat.data m in
  Array.iteri (fun i e -> Array.blit e.features 0 a (i * d) d) t.examples;
  (m, Array.map (fun e -> e.label) t.examples)

let digest t =
  Digest.to_hex (Digest.string (Marshal.to_string (t.feature_names, t.n_classes, t.examples) []))

let to_csv t path =
  let header =
    [ "tag"; "group"; "label"; "n_classes" ]
    @ List.init t.n_classes (Printf.sprintf "cost%d")
    @ Array.to_list t.feature_names
  in
  let rows =
    Array.to_list
      (Array.map
         (fun e ->
           [ e.tag; e.group; string_of_int e.label; string_of_int t.n_classes ]
           @ List.map string_of_float (Array.to_list e.costs)
           @ List.map string_of_float (Array.to_list e.features))
         t.examples)
  in
  Csvio.write path (header :: rows)

let of_csv path =
  match Csvio.read path with
  | [] -> invalid_arg "Dataset.of_csv: empty file"
  | header :: rows ->
    let n_classes =
      match rows with
      | [] -> invalid_arg "Dataset.of_csv: no examples"
      | r :: _ -> int_of_string (List.nth r 3)
    in
    let feature_names =
      Array.of_list (List.filteri (fun i _ -> i >= 4 + n_classes) header)
    in
    let parse row =
      match row with
      | tag :: group :: label :: _nc :: rest ->
        let rest = Array.of_list (List.map float_of_string rest) in
        {
          tag;
          group;
          label = int_of_string label;
          costs = Array.sub rest 0 n_classes;
          features = Array.sub rest n_classes (Array.length rest - n_classes);
        }
      | _ -> invalid_arg "Dataset.of_csv: malformed row"
    in
    create ~feature_names ~n_classes (List.map parse rows)
