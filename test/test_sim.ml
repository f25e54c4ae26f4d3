(* Tests for the cache model, the simulator and the measurement layer. *)

let machine = Machine.itanium2

(* --- Cache --- *)

let small_geom = { Machine.size_bytes = 256; line_bytes = 64; assoc = 2 }
(* 2 sets x 2 ways of 64-byte lines *)

let test_cache_hit_after_access () =
  let c = Cache.create small_geom in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0);
  Alcotest.(check bool) "second hits" true (Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache.access c 63);
  Alcotest.(check bool) "next line misses" false (Cache.access c 64)

let test_cache_lru_eviction () =
  let c = Cache.create small_geom in
  (* set 0 holds lines 0, 128, 256, ... (2 ways) *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  ignore (Cache.access c 0);   (* touch 0: 128 is now LRU *)
  ignore (Cache.access c 256); (* evicts 128 *)
  Alcotest.(check bool) "0 still resident" true (Cache.access c 0);
  Alcotest.(check bool) "128 evicted" false (Cache.access c 128)

let test_cache_probe_no_allocate () =
  let c = Cache.create small_geom in
  Alcotest.(check bool) "probe misses" false (Cache.probe c 0);
  Alcotest.(check bool) "still missing" false (Cache.probe c 0)

let test_cache_reset () =
  let c = Cache.create small_geom in
  ignore (Cache.access c 0);
  Cache.reset c;
  Alcotest.(check bool) "cold after reset" false (Cache.probe c 0)

let test_cache_sets_isolate () =
  let c = Cache.create small_geom in
  ignore (Cache.access c 0);   (* set 0 *)
  ignore (Cache.access c 64);  (* set 1 *)
  ignore (Cache.access c 128); (* set 0 *)
  ignore (Cache.access c 192); (* set 1 *)
  Alcotest.(check bool) "set 0 way 1" true (Cache.probe c 0);
  Alcotest.(check bool) "set 1 way 1" true (Cache.probe c 64)

let test_cache_geometry () =
  let c = Cache.create small_geom in
  Alcotest.(check int) "lines" 4 (Cache.lines c);
  Alcotest.(check int) "line bytes" 64 (Cache.line_bytes c)

(* --- Simulator --- *)

let run_loop ?(swp = false) loop u =
  let exe = Pipeline.compile machine ~swp loop u in
  let st = Simulator.create_state machine in
  ignore (Simulator.run st exe);
  Simulator.run st exe

let test_sim_deterministic () =
  let loop = Kernels.daxpy ~name:"sim_det" ~trip:200 in
  Alcotest.(check int) "same cycles" (run_loop loop 2) (run_loop loop 2)

let test_sim_more_work_more_cycles () =
  let short = Kernels.daxpy ~name:"sim_short" ~trip:100 in
  let long = Kernels.daxpy ~name:"sim_long" ~trip:1000 in
  Alcotest.(check bool) "10x trips cost more" true (run_loop long 1 > run_loop short 1)

let test_sim_unrolling_helps_streaming () =
  let loop = Kernels.daxpy ~name:"sim_unroll" ~trip:512 in
  Alcotest.(check bool) "u4 beats u1" true (run_loop loop 4 < run_loop loop 1)

let test_sim_unrolling_useless_for_chase () =
  (* A serial pointer chase gains almost nothing from unrolling. *)
  let loop = Kernels.pointer_chase ~name:"sim_chase" ~trip:512 in
  let c1 = run_loop loop 1 and c8 = run_loop loop 8 in
  Alcotest.(check bool) "less than 2x from u8" true
    (float_of_int c1 /. float_of_int c8 < 2.0)

let test_sim_swp_helps_recurrence () =
  let loop = Kernels.ddot ~name:"sim_swp" ~trip:512 in
  Alcotest.(check bool) "pipelined beats straight" true
    (run_loop ~swp:true loop 1 < run_loop ~swp:false loop 1)

let test_sim_outer_trip_scales () =
  let mk outer =
    let b = Builder.create ~lang:Loop.Fortran ~name:"sim_outer" ~outer_trip:outer ~trip:64 () in
    let x = Builder.add_array b "x" in
    let v = Builder.load b ~cls:Op.Flt ~array:x ~stride:1 ~offset:0 () in
    let w = Builder.fmul b [ v; v ] in
    Builder.store b ~array:x ~stride:1 ~offset:0 w;
    Builder.finish b
  in
  let c1 = run_loop (mk 1) 1 and c8 = run_loop (mk 8) 1 in
  Alcotest.(check bool) "8 entries cost roughly 8x" true
    (c8 > 6 * c1 && c8 < 10 * c1)

let test_sim_exit_shortens () =
  let b maker p =
    let bld =
      Builder.create ~lang:Loop.C ~name:"sim_exit" ~trip:4096 ~exit_prob:p ()
    in
    maker bld
  in
  let make bld =
    let x = Builder.add_array bld ~length:4200 "x" in
    let v = Builder.load bld ~cls:Op.Int ~array:x ~stride:1 ~offset:0 () in
    let p = Builder.cmp bld [ v ] in
    Builder.early_exit bld ~pred:p;
    Builder.finish bld
  in
  let no_exit = run_loop (b make 0.0) 1 in
  let with_exit = run_loop (b make 0.01) 1 in
  Alcotest.(check bool) "expected early exit shortens run" true (with_exit < no_exit)

let test_sim_code_footprint_costs () =
  (* Same work, hugely different code footprint: the big-code version pays
     I-cache refetch on every one of many entries. *)
  let loop = Kernels.stencil5 ~name:"sim_icache" ~trip:24 in
  let loop = { loop with Loop.outer_trip = 256 } in
  let exe_small = Pipeline.compile machine ~swp:false loop 1 in
  let exe_big = Pipeline.compile machine ~swp:false loop 8 in
  Alcotest.(check bool) "u8 code much larger" true
    (exe_big.Simulator.total_code_bytes > 3 * exe_small.Simulator.total_code_bytes)

let test_sim_executable_structure () =
  let loop = Kernels.daxpy ~name:"sim_exe" ~trip:103 in
  let exe = Pipeline.compile machine ~swp:false loop 4 in
  Alcotest.(check int) "two schedules (kernel+remainder)" 2
    (List.length exe.Simulator.schedules);
  (match exe.Simulator.schedules with
  | [ (_, kt, ph0); (_, rt, ph) ] ->
    Alcotest.(check int) "kernel trips" 25 kt;
    Alcotest.(check int) "kernel phase" 0 ph0;
    Alcotest.(check int) "remainder trips" 3 rt;
    Alcotest.(check int) "remainder phase" 100 ph
  | _ -> Alcotest.fail "expected kernel + remainder");
  let exe1 = Pipeline.compile machine ~swp:false loop 1 in
  Alcotest.(check int) "single schedule at u1" 1 (List.length exe1.Simulator.schedules)

let test_sim_extrapolation_close () =
  (* Windowed extrapolation should stay close to full simulation when both
     start cold. *)
  let loop = Kernels.dscal ~name:"sim_extrap" ~trip:3000 in
  let exe = Pipeline.compile machine ~swp:false loop 2 in
  let st = Simulator.create_state machine in
  let full = Simulator.run ~max_sim_iters:4000 st exe in
  Simulator.reset_state st;
  let windowed = Simulator.run ~max_sim_iters:300 st exe in
  let ratio = float_of_int windowed /. float_of_int full in
  Alcotest.(check bool)
    (Printf.sprintf "within 15%% (ratio %.3f)" ratio)
    true
    (ratio > 0.85 && ratio < 1.15)

(* --- Measure --- *)

let test_measure_sweep_shape () =
  let rng = Rng.create 5 in
  let loop = Kernels.daxpy ~name:"me_shape" ~trip:256 in
  let cycles = Measure.sweep ~noise:0.0 ~runs:1 ~rng ~machine ~swp:false loop in
  Alcotest.(check int) "8 factors" 8 (Array.length cycles);
  Array.iter (fun c -> Alcotest.(check bool) "positive" true (c > 0)) cycles

let test_measure_noiseless_deterministic () =
  let loop = Kernels.ddot ~name:"me_det" ~trip:256 in
  let a = Measure.sweep ~noise:0.0 ~runs:1 ~rng:(Rng.create 1) ~machine ~swp:false loop in
  let b = Measure.sweep ~noise:0.0 ~runs:1 ~rng:(Rng.create 2) ~machine ~swp:false loop in
  Alcotest.(check (array int)) "noise-free ignores rng" a b

let test_measure_noise_bounded () =
  let loop = Kernels.dscal ~name:"me_noise" ~trip:256 in
  let exact = Measure.sweep ~noise:0.0 ~runs:1 ~rng:(Rng.create 1) ~machine ~swp:false loop in
  let noisy = Measure.sweep ~noise:0.02 ~runs:15 ~rng:(Rng.create 1) ~machine ~swp:false loop in
  Array.iteri
    (fun i c ->
      let r = float_of_int noisy.(i) /. float_of_int c in
      Alcotest.(check bool) "within 5%" true (r > 0.95 && r < 1.05))
    exact

let test_measure_median_reduces_noise () =
  let rng = Rng.create 9 in
  let v = Measure.noisy_median ~rng ~noise:0.05 ~runs:31 (fun () -> 1_000_000) in
  Alcotest.(check bool) "median near exact" true (abs (v - 1_000_000) < 30_000)

let test_measure_filter_constant () =
  Alcotest.(check int) "50k threshold" 50_000 Measure.min_cycles_filter

(* --- QCheck: simulation sanity over random loops --- *)

let synth_gen =
  QCheck.Gen.(
    let* seed = 0 -- 20000 in
    let* f = 1 -- 8 in
    let* swp = bool in
    let rng = Rng.create seed in
    let profile = if seed mod 2 = 0 then Synth.media else Synth.fp_numeric in
    return (Synth.generate rng profile ~name:(Printf.sprintf "qm%d" seed), f, swp))

let prop_sim_positive_and_deterministic =
  QCheck.Test.make ~count:60 ~name:"simulation positive and deterministic"
    (QCheck.make synth_gen)
    (fun (l, f, swp) ->
      let exe = Pipeline.compile machine ~swp l f in
      let st = Simulator.create_state machine in
      let a = Simulator.run ~max_sim_iters:100 st exe in
      Simulator.reset_state st;
      let b = Simulator.run ~max_sim_iters:100 st exe in
      a > 0 && a = b)

let base_suite =
  [
    ("cache hit after access", `Quick, test_cache_hit_after_access);
    ("cache lru eviction", `Quick, test_cache_lru_eviction);
    ("cache probe no allocate", `Quick, test_cache_probe_no_allocate);
    ("cache reset", `Quick, test_cache_reset);
    ("cache sets isolate", `Quick, test_cache_sets_isolate);
    ("cache geometry", `Quick, test_cache_geometry);
    ("sim deterministic", `Quick, test_sim_deterministic);
    ("sim workload scales", `Quick, test_sim_more_work_more_cycles);
    ("sim unrolling helps", `Quick, test_sim_unrolling_helps_streaming);
    ("sim chase immune", `Quick, test_sim_unrolling_useless_for_chase);
    ("sim swp helps recurrence", `Quick, test_sim_swp_helps_recurrence);
    ("sim outer trip scales", `Quick, test_sim_outer_trip_scales);
    ("sim exit shortens", `Quick, test_sim_exit_shortens);
    ("sim code footprint", `Quick, test_sim_code_footprint_costs);
    ("sim executable structure", `Quick, test_sim_executable_structure);
    ("sim extrapolation", `Quick, test_sim_extrapolation_close);
    ("measure sweep shape", `Quick, test_measure_sweep_shape);
    ("measure noiseless deterministic", `Quick, test_measure_noiseless_deterministic);
    ("measure noise bounded", `Quick, test_measure_noise_bounded);
    ("measure median", `Quick, test_measure_median_reduces_noise);
    ("measure filter constant", `Quick, test_measure_filter_constant);
    QCheck_alcotest.to_alcotest prop_sim_positive_and_deterministic;
  ]

(* --- additional edge cases --- *)

let test_sim_zero_trip_kernel () =
  (* A loop shorter than the factor: kernel runs zero times, the remainder
     carries everything, and simulation still terminates with sane cost. *)
  let loop = Kernels.daxpy ~name:"sim_zero" ~trip:3 in
  let exe = Pipeline.compile machine ~swp:false loop 8 in
  let st = Simulator.create_state machine in
  let c = Simulator.run st exe in
  Alcotest.(check bool) "positive but small" true (c > 0 && c < 10_000)

let test_sweep_same_rng_same_result () =
  let loop = Kernels.dscal ~name:"sim_rng" ~trip:128 in
  let a = Measure.sweep ~noise:0.01 ~runs:7 ~rng:(Rng.create 99) ~machine ~swp:false loop in
  let b = Measure.sweep ~noise:0.01 ~runs:7 ~rng:(Rng.create 99) ~machine ~swp:false loop in
  Alcotest.(check (array int)) "noisy but reproducible" a b

let test_sim_compile_all_machines () =
  List.iter
    (fun m ->
      let loop = Kernels.stencil3 ~name:("sim_" ^ m.Machine.mach_name) ~trip:64 in
      List.iter
        (fun swp ->
          let exe = Pipeline.compile m ~swp loop 4 in
          let st = Simulator.create_state m in
          Alcotest.(check bool)
            (m.Machine.mach_name ^ " runs")
            true
            (Simulator.run st exe > 0))
        [ false; true ])
    Machine.all

let edge_tests =
  [
    ("sim zero-trip kernel", `Quick, test_sim_zero_trip_kernel);
    ("sweep rng reproducible", `Quick, test_sweep_same_rng_same_result);
    ("sim all machines", `Quick, test_sim_compile_all_machines);
  ]

let suite = base_suite @ edge_tests
