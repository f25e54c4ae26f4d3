(* The unroll-ml benchmark.  Run from the root of a checkout:

     unrollml_bench.exe --workload W [--seed S] [--seconds N] [--trace 0|1]
       One run of one workload.  Prints each metric by name and unit, then
       as its last line one JSON object: correct, attempted, failed and the
       end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
       Exits 1 when any output check fails.

     unrollml_bench.exe run [--workload W] [--seed S] [--out DIR]
       A set of runs of every workload (or of W) at seeds S, S+1, ..., one
       traced run each; writes DIR/results.json and DIR/trace-W.json.

     unrollml_bench.exe compare PARENT.json CHANGE.json
       Judges each workload and end-to-end metric of two result files.

   Workloads, metrics, units, bounds and the run length are read from
   BENCHMARK.json. *)

let runs_per_set = 10

let usage () =
  prerr_endline
    "usage: unrollml_bench.exe --workload W [--seed S] [--seconds N] [--trace 0|1]\n\
    \       unrollml_bench.exe run [--workload W] [--seed S] [--out DIR]\n\
    \       unrollml_bench.exe compare PARENT.json CHANGE.json";
  exit 2

let spec () =
  match Spec.load () with
  | Ok s -> s
  | Error e ->
    prerr_endline ("unrollml_bench: " ^ e);
    exit 2

(* --key value pairs. *)
let rec options acc = function
  | key :: value :: rest when String.starts_with ~prefix:"--" key ->
    options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | [] -> List.rev acc
  | _ -> usage ()

let int_opt opts key ~default =
  match List.assoc_opt key opts with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let check_workload (spec : Spec.t) w =
  if not (List.mem w spec.Spec.workloads && Workload.find w <> None) then begin
    prerr_endline ("unrollml_bench: unknown workload " ^ w);
    exit 2
  end

let single args =
  let spec = spec () in
  let opts = options [] args in
  let workload = match List.assoc_opt "workload" opts with Some w -> w | None -> usage () in
  check_workload spec workload;
  let seed = int_opt opts "seed" ~default:Pins.default_seed in
  let seconds = int_opt opts "seconds" ~default:spec.Spec.run_seconds in
  let trace = int_opt opts "trace" ~default:0 <> 0 in
  let r = Runner.measure spec ~workload ~seed ~seconds ~trace in
  Runner.print_human spec ~workload ~seed r;
  print_endline (Jsonv.to_string (Runner.result_json spec r ~trace));
  exit (if r.Runner.correct then 0 else 1)

let command_output cmd =
  match Unix.open_process_in cmd with
  | ic ->
    let out = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if out = "" then "unknown" else out
  | exception Unix.Unix_error _ -> "unknown"

(* Median and quartiles of each end-to-end metric over a set's runs,
   printed as a table row and returned for the results file. *)
let summary (spec : Spec.t) ~workload runs =
  Printf.printf "%-12s %-12s %14s %14s %14s %8s %6s\n" "workload" "metric" "median" "q1" "q3" "spread"
    "bound";
  Jsonv.Obj
    (List.filter_map
       (fun (m : Spec.metric) ->
         let values =
           Array.of_list (List.filter_map (fun (r : Runner.outcome) -> List.assoc_opt m.Spec.name r.Runner.metrics) runs)
         in
         if values = [||] then None
         else
           let q1, med, q3 = Bstats.quartiles values in
           Printf.printf "%-12s %-12s %14.6g %14.6g %14.6g %8.4f %6.2f\n" workload m.Spec.name med q1 q3
             (Bstats.spread values) m.Spec.bound;
           Some
             ( m.Spec.name,
               Jsonv.Obj
                 [
                   ("median", Jsonv.Num med);
                   ("q1", Jsonv.Num q1);
                   ("q3", Jsonv.Num q3);
                   ("spread", Jsonv.Num (Bstats.spread values));
                   ("bound", Jsonv.Num m.Spec.bound);
                   ("unit", Jsonv.Str m.Spec.unit_);
                 ] ))
       spec.Spec.end_to_end)

let run_set args =
  let spec = spec () in
  let opts = options [] args in
  let seed = int_opt opts "seed" ~default:Pins.default_seed in
  let out = Option.value ~default:"bench-results" (List.assoc_opt "out" opts) in
  let workloads =
    match List.assoc_opt "workload" opts with
    | Some w ->
      check_workload spec w;
      [ w ]
    | None -> spec.Spec.workloads
  in
  Runner.mkdir_p out;
  let all_correct = ref true in
  let per_workload =
    List.map
      (fun workload ->
        let runs =
          List.init runs_per_set (fun i ->
              let seed = seed + i in
              let r = Runner.measure spec ~workload ~seed ~seconds:spec.Spec.run_seconds ~trace:false in
              Runner.print_human spec ~workload ~seed r;
              if not r.Runner.correct then all_correct := false;
              (seed, r))
        in
        let traced = Runner.measure spec ~workload ~seed ~seconds:spec.Spec.run_seconds ~trace:true in
        Runner.print_human spec ~workload ~seed traced;
        if not traced.Runner.correct then all_correct := false;
        let trace_file = Runner.trace_path workload in
        if Sys.file_exists trace_file then
          Out_channel.with_open_bin
            (Filename.concat out (Printf.sprintf "trace-%s.json" workload))
            (fun oc -> output_string oc (In_channel.with_open_bin trace_file In_channel.input_all));
        let run_json (seed, (r : Runner.outcome)) =
          Jsonv.Obj
            [
              ("seed", Jsonv.Num (float_of_int seed));
              ("correct", Jsonv.Bool r.Runner.correct);
              ("attempted", Jsonv.Num (float_of_int r.Runner.attempted));
              ("failed", Jsonv.Num (float_of_int r.Runner.failed));
              ("metrics", Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Num v)) r.Runner.metrics));
            ]
        in
        Jsonv.Obj
          [
            ("name", Jsonv.Str workload);
            ("runs", Jsonv.Arr (List.map run_json runs));
            ("summary", summary spec ~workload (List.map snd runs));
            ("per_layer", Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Num v)) traced.Runner.layers));
          ])
      workloads
  in
  let results =
    Jsonv.Obj
      [
        ("commit", Jsonv.Str (command_output "git rev-parse HEAD 2>/dev/null"));
        ("host", Jsonv.Str (Unix.gethostname ()));
        ("cores", Jsonv.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Jsonv.Str Sys.ocaml_version);
        ("run_seconds", Jsonv.Num (float_of_int spec.Spec.run_seconds));
        ("first_seed", Jsonv.Num (float_of_int seed));
        ("workloads", Jsonv.Arr per_workload);
      ]
  in
  let path = Filename.concat out "results.json" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Jsonv.to_string results);
      output_char oc '\n');
  Printf.printf "set of %d runs per workload written to %s\n" runs_per_set path;
  exit (if !all_correct then 0 else 1)

(* The per-run values, attempts and failures of one workload's metric in a
   results file. *)
let side results ~workload ~metric =
  let w =
    List.find_opt
      (fun w -> Option.bind (Jsonv.member "name" w) Jsonv.to_str = Some workload)
      (Jsonv.to_list (Option.value ~default:Jsonv.Null (Jsonv.member "workloads" results)))
  in
  Option.map
    (fun w ->
      let runs = Jsonv.to_list (Option.value ~default:Jsonv.Null (Jsonv.member "runs" w)) in
      let num k j = Option.value ~default:0.0 (Option.bind (Jsonv.member k j) Jsonv.to_num) in
      {
        Verdict.values =
          Array.of_list
            (List.filter_map
               (fun r -> Option.bind (Jsonv.member "metrics" r) (fun m -> Option.bind (Jsonv.member metric m) Jsonv.to_num))
               runs);
        attempted = int_of_float (List.fold_left (fun a r -> a +. num "attempted" r) 0.0 runs);
        failed = int_of_float (List.fold_left (fun a r -> a +. num "failed" r) 0.0 runs);
      })
    w

let compare_sets parent_path change_path =
  let spec = spec () in
  let load p =
    match Jsonv.of_file p with
    | Ok j -> j
    | Error e ->
      Printf.eprintf "unrollml_bench: %s: %s\n" p e;
      exit 2
  in
  let parent = load parent_path and change = load change_path in
  Printf.printf "%-12s %-12s %14s %14s  %s\n" "workload" "metric" "parent" "change" "verdict";
  List.iter
    (fun workload ->
      let copies = match Workload.find workload with Some w -> w.Workload.copies | None -> [] in
      List.iter
        (fun (m : Spec.metric) ->
          match (side parent ~workload ~metric:m.Spec.name, side change ~workload ~metric:m.Spec.name) with
          | _ when List.mem_assoc m.Spec.name copies ->
            (* Judged once, under the metric it repeats. *)
            Printf.printf "%-12s %-12s %14s %14s  same as %s\n" workload m.Spec.name "-" "-"
              (List.assoc m.Spec.name copies)
          | Some p, Some c when p.Verdict.values <> [||] && c.Verdict.values <> [||] ->
            let v = Verdict.judge ~better_higher:m.Spec.better_higher ~bound:m.Spec.bound ~parent:p ~change:c in
            Printf.printf "%-12s %-12s %14.6g %14.6g  %s\n" workload m.Spec.name
              (Stats.median p.Verdict.values) (Stats.median c.Verdict.values) (Verdict.to_string v)
          | _ -> Printf.printf "%-12s %-12s %14s %14s  %s\n" workload m.Spec.name "-" "-" "unresolved")
        spec.Spec.end_to_end)
    spec.Spec.workloads

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: workload :: seed :: rep :: dir :: ([] | [ _ ] as trace) ->
    Runner.child ~workload ~seed:(int_of_string seed) ~rep:(int_of_string rep) ~dir
      ~trace_out:(List.nth_opt trace 0)
  | "run" :: args -> run_set args
  | [ "compare"; parent; change ] -> compare_sets parent change
  | args -> single args
