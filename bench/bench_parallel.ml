(* Scaling curve for the work-stealing runtime.

   Two workloads, each measured at j = 1 / 2 / 4 / all-cores (ascending, so
   the persistent pool only ever grows to the size under test):

   - the FAST-scale labelling sweep (heavy-tailed per-loop cost: the exact
     steady-state skip makes some sweeps 100x cheaper than others), and
   - a 10k-case differential-fuzzing campaign (uniform-ish per-case cost).

   Every parallel run is checked bit-identical to the j=1 baseline before
   its timing counts — a scaling number from a wrong answer is worthless.
   The compile cache is cleared before each labelling run so each j does
   full sweep work rather than replaying a previous run's compiles.

   Scheduler counters (tasks, steals, steal-misses) are sampled around the
   widest run.  Results go to stdout and BENCH_par.json (one JSON object;
   a CI artifact next to BENCH_ml.json and BENCH_sim.json).  The "cores"
   field records the host width: on a 1-core container every j collapses
   to sequential-plus-overhead, so scaling claims should be read off the
   multi-core CI runner's artifact. *)

let config = Config.fast

let fuzz_budget =
  match Sys.getenv_opt "UNROLLML_BENCH_FUZZ_BUDGET" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 10_000)
  | None -> 10_000

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let job_points () =
  let all = max 1 (Parallel.default_jobs ()) in
  List.sort_uniq compare [ 1; 2; 4; all ]

let labels_equal (a : Labeling.labeled array) (b : Labeling.labeled array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Labeling.labeled) (y : Labeling.labeled) ->
         x.Labeling.bench = y.Labeling.bench
         && x.Labeling.loop.Loop.name = y.Labeling.loop.Loop.name
         && x.Labeling.cycles = y.Labeling.cycles)
       a b

(* A fuzz report contains loops and cases; structural equality over the
   whole record is the bit-identity gate. *)
let reports_equal (a : Fuzz_driver.report) (b : Fuzz_driver.report) = a = b

let json_curve points =
  "["
  ^ String.concat ","
      (List.map (fun (j, s, sp) -> Printf.sprintf "{\"jobs\":%d,\"s\":%.3f,\"speedup\":%.2f}" j s sp) points)
  ^ "]"

let () =
  let cores = Domain.recommended_domain_count () in
  let points = job_points () in
  Printf.printf "cores=%d, measuring at j = %s\n%!" cores
    (String.concat "/" (List.map string_of_int points));

  let benchmarks = Suite.full ~scale:config.Config.scale ~seed:config.Config.seed in

  (* --- labelling sweep ------------------------------------------------ *)
  let sweep jobs =
    Compile_cache.clear Compile_cache.global;
    Deps_memo.clear Deps_memo.global;
    time (fun () -> Labeling.collect ~jobs config ~swp:false benchmarks)
  in
  let baseline, t1 = sweep 1 in
  let label_identical = ref true in
  let label_curve =
    List.map
      (fun j ->
        if j = 1 then (1, t1, 1.0)
        else begin
          let out, t = sweep j in
          if not (labels_equal baseline out) then label_identical := false;
          (j, t, t1 /. Float.max t 1e-9)
        end)
      points
  in
  List.iter
    (fun (j, t, sp) ->
      Printf.printf "labeling  j=%-3d %.3fs (%.2fx)\n%!" j t sp)
    label_curve;

  (* --- fuzz campaign -------------------------------------------------- *)
  let tel = Telemetry.global in
  let c name = Telemetry.counter tel ~pass:"parallel" name in
  let campaign jobs = time (fun () -> Fuzz_driver.run ~jobs ~budget:fuzz_budget ~seed:7 ()) in
  let fuzz_base, f1 = campaign 1 in
  let fuzz_identical = ref true in
  let steals = ref 0 and tasks = ref 0 and misses = ref 0 in
  let fuzz_curve =
    List.map
      (fun j ->
        if j = 1 then (1, f1, 1.0)
        else begin
          let s0 = c "steals" and t0 = c "tasks" and m0 = c "steal-misses" in
          let out, t = campaign j in
          if j = List.fold_left max 1 points then begin
            steals := c "steals" - s0;
            tasks := c "tasks" - t0;
            misses := c "steal-misses" - m0
          end;
          if not (reports_equal fuzz_base out) then fuzz_identical := false;
          (j, t, f1 /. Float.max t 1e-9)
        end)
      points
  in
  List.iter
    (fun (j, t, sp) -> Printf.printf "fuzz(%d)  j=%-3d %.3fs (%.2fx)\n%!" fuzz_budget j t sp)
    fuzz_curve;

  let identical = !label_identical && !fuzz_identical in
  Printf.printf "bit-identity at every j: %b | widest run: tasks=%d steals=%d misses=%d\n%!"
    identical !tasks !steals !misses;

  let json =
    Printf.sprintf
      "{\"bench\":\"parallel-scaling\",\"cores\":%d,\"loops\":%d,\
       \"fuzz_budget\":%d,\"identical\":%b,\
       \"labeling\":%s,\"fuzz\":%s,\
       \"tasks\":%d,\"steals\":%d,\"steal_misses\":%d}"
      cores (Array.length baseline) fuzz_budget identical (json_curve label_curve)
      (json_curve fuzz_curve) !tasks !steals !misses
  in
  print_endline json;
  let oc = open_out "BENCH_par.json" in
  output_string oc (json ^ "\n");
  close_out oc;
  if not identical then exit 1
