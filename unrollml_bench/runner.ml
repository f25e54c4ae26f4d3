(* One run of one workload: repetitions of the job, each in a fresh child
   process of this executable, for the run's length, then (when tracing)
   one traced repetition.  The children write their results to a scratch
   directory under the working directory; the run removes it when done. *)

let scratch_root = ".unrollml_bench"
let min_reps = 3

(* Past this many seconds no new repetition starts, even to reach
   [min_reps], so a run ends well inside the time a caller allows it. *)
let time_cap = 100.0

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  digest : string;  (** identity of the output all repetitions produced *)
  rep_walls : float list;  (** wall seconds of every untraced repetition *)
  metrics : (string * float) list;  (** end-to-end metrics *)
  layers : (string * float) list;  (** per-layer metrics, traced runs only *)
  problems : string list;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* Runs this executable with [args], its standard output sent to our
   standard error so that our standard output carries only results. *)
let spawn args =
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr Unix.stderr in
  wait pid = Unix.WEXITED 0

let rep_file dir rep = Filename.concat dir (Printf.sprintf "rep-%d.bin" rep)

(* A child still running after this many seconds is killed by its own
   alarm, so a hung repetition cannot hold the run open. *)
let child_limit = 120

(* The child side: run one repetition and write its result. *)
let child ~workload ~seed ~rep ~dir ~trace_out =
  ignore (Unix.alarm child_limit);
  match Workload.find workload with
  | None -> failwith ("unknown workload " ^ workload)
  | Some w ->
    let r = w.Workload.rep { Workload.seed; dir; rep; trace_out } in
    Out_channel.with_open_bin (rep_file dir rep) (fun oc -> Marshal.to_channel oc r [])

let run_rep ~workload ~seed ~rep ~dir ~trace_out =
  let args = [ "child"; workload; string_of_int seed; string_of_int rep; dir ] in
  if not (spawn (args @ Option.to_list trace_out)) then None
  else
    match In_channel.with_open_bin (rep_file dir rep) (fun ic -> (Marshal.from_channel ic : Workload.rep)) with
    | r -> Some r
    | exception (Sys_error _ | End_of_file | Failure _) -> None

let trace_path workload = Filename.concat scratch_root (Printf.sprintf "trace-%s.json" workload)

let measure (spec : Spec.t) ~workload ~seed ~seconds ~trace =
  let dir = Filename.concat scratch_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> remove dir) @@ fun () ->
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  let start = Unix.gettimeofday () in
  let median l = Stats.median (Array.of_list l) in
  (* Repetitions follow one another until the next one, taking as long as
     the last, would end past [seconds], so a run lasts about [seconds]
     however fast the host is, and a slow stretch of the host costs
     repetitions rather than time. *)
  let reps = ref [] in
  let rec loop rep last =
    let elapsed = Unix.gettimeofday () -. start in
    if
      !problems = []
      && elapsed < time_cap
      && (rep < min_reps || elapsed +. last <= float_of_int seconds)
    then
      let t0 = Unix.gettimeofday () in
      match run_rep ~workload ~seed ~rep ~dir ~trace_out:None with
      | Some r ->
        reps := r :: !reps;
        loop (rep + 1) (Unix.gettimeofday () -. t0)
      | None -> problem (Printf.sprintf "repetition %d failed" rep)
  in
  loop 0 0.0;
  let reps = List.rev !reps in
  let traced =
    if trace && !problems = [] then begin
      let r = run_rep ~workload ~seed ~rep:(List.length reps) ~dir ~trace_out:(Some (trace_path workload)) in
      if r = None then problem "traced repetition failed";
      r
    end
    else None
  in
  let all = reps @ Option.to_list traced in
  let reference = match reps with r :: _ -> r.Workload.digest | [] -> "" in
  let diverged = List.filter (fun r -> r.Workload.digest <> reference) all in
  if diverged <> [] then problem "repetitions disagree on the output";
  List.iter
    (fun r ->
      List.iter (fun (name, ok) -> if not ok then problem ("check failed: " ^ name)) r.Workload.checks)
    all;
  let attempted = List.fold_left (fun a r -> a + r.Workload.attempted) 0 all in
  let failed =
    List.fold_left (fun a r -> a + r.Workload.failed) 0 all
    + List.fold_left (fun a r -> a + r.Workload.attempted) 0 diverged
  in
  (* Every metric is the median over the run's repetitions. *)
  let over_reps f = median (List.map f reps) in
  let metrics =
    if reps = [] then []
    else
      [
        ("setup_s", over_reps (fun r -> r.Workload.setup_s));
        ("wall_s", over_reps (fun r -> r.Workload.wall_s));
        ("op_p50_ms", over_reps (fun r -> Bstats.percentile r.Workload.ops_ms 0.5));
        ("op_tail_ms", over_reps (fun r -> Bstats.tail r.Workload.ops_ms));
        ("peak_rss_mb", over_reps (fun r -> r.Workload.rss_mb));
      ]
  in
  let layers =
    match (traced, metrics) with
    | Some t, _ :: _ ->
      let untraced = over_reps (fun r -> r.Workload.wall_s) in
      let measured = ("trace.overhead", t.Workload.wall_s /. untraced) :: t.Workload.layers in
      (* Every declared per-layer metric is reported; a layer the workload
         never enters reads 0. *)
      List.map
        (fun (m : Spec.metric) -> (m.Spec.name, Option.value ~default:0.0 (List.assoc_opt m.Spec.name measured)))
        spec.Spec.per_layer
    | _ -> []
  in
  let missing =
    List.filter (fun (m : Spec.metric) -> not (List.mem_assoc m.Spec.name metrics)) spec.Spec.end_to_end
  in
  if metrics <> [] && missing <> [] then problem "an end-to-end metric is not measured";
  {
    correct = !problems = [] && failed = 0 && reps <> [];
    attempted = max 1 attempted;
    digest = reference;
    rep_walls = List.map (fun r -> r.Workload.wall_s) reps;
    failed = (if !problems <> [] && failed = 0 then max 1 failed else failed);
    metrics;
    layers;
    problems = List.rev !problems;
  }

let result_json (spec : Spec.t) r ~trace =
  let unit_of list name =
    match List.find_opt (fun (m : Spec.metric) -> m.Spec.name = name) list with
    | Some m -> m.Spec.unit_
    | None -> ""
  in
  let values, defs = if trace then (r.layers, spec.Spec.per_layer) else (r.metrics, spec.Spec.end_to_end) in
  Jsonv.Obj
    [
      ("correct", Jsonv.Bool r.correct);
      ("attempted", Jsonv.Num (float_of_int r.attempted));
      ("failed", Jsonv.Num (float_of_int r.failed));
      ( "metrics",
        Jsonv.Obj
          (List.map
             (fun (name, v) ->
               (name, Jsonv.Obj [ ("value", Jsonv.Num v); ("unit", Jsonv.Str (unit_of defs name)) ]))
             values) );
    ]

let print_human (spec : Spec.t) ~workload ~seed r =
  Printf.printf "workload %s, seed %d: %s (%d attempted, %d failed)\n" workload seed
    (if r.correct then "correct" else "INCORRECT") r.attempted r.failed;
  List.iter (Printf.printf "  problem: %s\n") r.problems;
  Printf.printf "  output digest %s\n" r.digest;
  Printf.printf "  repetitions (wall s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") r.rep_walls));
  let show defs values =
    List.iter
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.Spec.name values with
        | Some v -> Printf.printf "  %-34s %14.6g %s\n" m.Spec.name v m.Spec.unit_
        | None -> ())
      defs
  in
  show spec.Spec.end_to_end r.metrics;
  show spec.Spec.per_layer r.layers;
  flush stdout
