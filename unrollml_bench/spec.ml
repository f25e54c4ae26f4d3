(* The benchmark's definition as recorded in BENCHMARK.json at the root of
   the checkout: workloads, metrics with units, directions and bounds. *)

type metric = {
  name : string;
  unit_ : string;
  better_higher : bool;
  bound : float;  (** 0 for per-layer metrics, which have none *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let path = "BENCHMARK.json"

let load () =
  let ( let* ) = Result.bind in
  let* json = Jsonv.of_file path in
  let str k j = Option.bind (Jsonv.member k j) Jsonv.to_str in
  let metrics key =
    List.filter_map
      (fun m ->
        match (str "name" m, str "unit" m, str "better" m) with
        | Some name, Some unit_, Some better ->
          Some
            {
              name;
              unit_;
              better_higher = better = "higher";
              bound = Option.value ~default:0.0 (Option.bind (Jsonv.member "bound" m) Jsonv.to_num);
            }
        | _ -> None)
      (Jsonv.to_list (Option.value ~default:Jsonv.Null (Jsonv.member key json)))
  in
  match Option.bind (Jsonv.member "run_seconds" json) Jsonv.to_num with
  | None -> Error (path ^ ": no run_seconds")
  | Some seconds ->
    Ok
      {
        run_seconds = int_of_float seconds;
        workloads =
          List.filter_map (str "name")
            (Jsonv.to_list (Option.value ~default:Jsonv.Null (Jsonv.member "workloads" json)));
        end_to_end = metrics "end_to_end";
        per_layer = metrics "per_layer";
      }
