(* Why-is-this-loop-slow: the profiling view of unrolling decisions.

   For a handful of contrasting kernels, print where the cycles go at each
   unroll factor — schedule issue, data stalls, instruction fetch, branch
   overhead, loop-entry overhead, pipeline fill — plus the schedule and
   unit occupancy at the interesting factors.  This is the evidence trail
   behind every label the classifiers learn from.

   Run with: dune exec examples/why_slow.exe *)

let machine = Machine.itanium2

let profile_kernel (name, maker) =
  let loop = maker ~name ~trip:256 in
  Printf.printf "\n=== %s ===\n" name;
  Printf.printf "%3s %9s %8s %8s %8s %8s %8s %7s\n" "u" "cycles" "issue"
    "data" "fetch" "branch" "entry" "fill";
  List.iter
    (fun u ->
      let cycles, stats =
        Measure.warm_run machine (Pipeline.compile machine ~swp:false loop u)
      in
      Printf.printf "%3d %9d %8d %8d %8d %8d %8d %7d\n" u cycles
        stats.Simulator.issue_cycles stats.Simulator.data_stall_cycles
        stats.Simulator.fetch_stall_cycles stats.Simulator.branch_cycles
        stats.Simulator.entry_overhead_cycles stats.Simulator.pipeline_fill_cycles)
    [ 1; 2; 4; 8 ];
  (* Show the schedule at u=4 with unit occupancy. *)
  let u4 = Unroll.run loop 4 in
  let kernel = (Rle.run u4.Unroll.kernel).Rle.loop in
  let sched = List_sched.schedule machine kernel in
  print_string (Sched_pretty.render sched);
  print_string (Sched_pretty.render_occupancy sched);
  match Modulo_sched.schedule machine kernel with
  | Some swp ->
    Printf.printf "software pipelined:\n%s" (Sched_pretty.render swp)
  | None -> print_endline "(not software-pipelinable)"

let () =
  List.iter profile_kernel
    [
      ("daxpy", Kernels.daxpy);          (* streaming: fetch/branch amortise *)
      ("ddot", Kernels.ddot);            (* recurrence-bound: data stalls stay *)
      ("fp_divide", Kernels.fp_divide);  (* divider-bound: issue saturates *)
      ("gather", Kernels.gather);        (* indirect: data stalls dominate *)
    ]
