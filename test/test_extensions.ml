(* Tests for the extension modules: boosting, regression, the cycle
   profiler and schedule rendering. *)

let rng = Rng.create 31415

let blobs ~classes ~per_class =
  Array.init (classes * per_class) (fun i ->
      let c = i mod classes in
      let cx = 6.0 *. float_of_int c in
      ([| cx +. Rng.gaussian rng; Rng.gaussian rng |], c))

(* --- Boost --- *)

let test_boost_separable () =
  let pairs = blobs ~classes:2 ~per_class:40 in
  let model = Boost.train ~rounds:10 ~n_classes:2 pairs in
  let errs = ref 0 in
  Array.iter (fun (x, y) -> if Boost.predict model x <> y then incr errs) pairs;
  Alcotest.(check bool) "boosting separates blobs" true
    (float_of_int !errs /. float_of_int (Array.length pairs) < 0.05)

let test_boost_beats_stump_on_xor () =
  (* XOR needs more than one axis-aligned split; depth-1 stumps fail alone
     but boosted stumps of depth 2 recover it. *)
  let pairs =
    Array.init 200 (fun i ->
        let a = (i lsr 0) land 1 and b = (i lsr 1) land 1 in
        let x = float_of_int a +. (0.1 *. Rng.gaussian rng) in
        let y = float_of_int b +. (0.1 *. Rng.gaussian rng) in
        ([| x; y |], a lxor b))
  in
  let single = Decision_tree.train ~max_depth:1 ~n_classes:2 pairs in
  let boosted = Boost.train ~rounds:30 ~max_depth:2 ~n_classes:2 pairs in
  let acc predict =
    let hits = ref 0 in
    Array.iter (fun (x, y) -> if predict x = y then incr hits) pairs;
    float_of_int !hits /. float_of_int (Array.length pairs)
  in
  Alcotest.(check bool) "stump fails xor" true (acc (Decision_tree.predict single) < 0.75);
  Alcotest.(check bool) "boosted solves xor" true (acc (Boost.predict boosted) > 0.9)

let test_boost_deterministic () =
  let pairs = blobs ~classes:3 ~per_class:15 in
  let a = Boost.train ~seed:7 ~n_classes:3 pairs in
  let b = Boost.train ~seed:7 ~n_classes:3 pairs in
  Array.iter
    (fun (x, _) ->
      Alcotest.(check int) "same predictions" (Boost.predict a x) (Boost.predict b x))
    pairs

(* --- Regression --- *)

let test_knn_regression_interpolates () =
  let points = [| [| 0.0 |]; [| 1.0 |]; [| 2.0 |]; [| 3.0 |] |] in
  let responses = [| 0.0; 10.0; 20.0; 30.0 |] in
  let r = Regression.train_knn ~k:2 points responses in
  let mid = Regression.predict_knn r [| 1.5 |] in
  Alcotest.(check bool) "between neighbors" true (mid > 10.0 && mid < 20.0);
  (* exactly on a training point: that point dominates the weighting *)
  Alcotest.(check bool) "near exact at training point" true
    (Float.abs (Regression.predict_knn r [| 2.0 |] -. 20.0) < 0.5)

let test_argmin_factor () =
  let predict _ u = Float.abs (float_of_int u -. 5.2) in
  Alcotest.(check int) "argmin at 5" 5 (Regression.argmin_factor ~predict [||])

(* --- Profiler --- *)

let machine = Machine.itanium2

let test_profile_accounts_for_total () =
  let loop = Kernels.daxpy ~name:"pr_daxpy" ~trip:256 in
  let exe = Pipeline.compile machine ~swp:false loop 2 in
  let st = Simulator.create_state machine in
  ignore (Simulator.run st exe);
  let cycles, s = Simulator.run_profiled st exe in
  let accounted =
    s.Simulator.issue_cycles + s.Simulator.data_stall_cycles
    + s.Simulator.fetch_stall_cycles + s.Simulator.branch_cycles
    + s.Simulator.entry_overhead_cycles + s.Simulator.pipeline_fill_cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "breakdown ~ total (%d vs %d)" accounted cycles)
    true
    (abs (accounted - cycles) * 10 <= cycles)

let test_profile_gather_stalls () =
  (* The indirect gather must show data stalls; the dense copy mustn't. *)
  let prof k =
    let loop = k ~trip:512 in
    let exe = Pipeline.compile machine ~swp:false loop 1 in
    let st = Simulator.create_state machine in
    ignore (Simulator.run st exe);
    snd (Simulator.run_profiled st exe)
  in
  let g = prof (fun ~trip -> Kernels.gather ~name:"pr_gather" ~trip) in
  Alcotest.(check bool) "gather stalls on data" true (g.Simulator.data_stall_cycles > 0)

let test_profile_unroll_reduces_branch () =
  let loop = Kernels.dscal ~name:"pr_branch" ~trip:512 in
  let branch u =
    let exe = Pipeline.compile machine ~swp:false loop u in
    let st = Simulator.create_state machine in
    ignore (Simulator.run st exe);
    (snd (Simulator.run_profiled st exe)).Simulator.branch_cycles
  in
  Alcotest.(check bool) "u8 pays fewer branches" true (branch 8 * 4 < branch 1)

let test_profile_swp_reports_fill () =
  let loop = Kernels.ddot ~name:"pr_fill" ~trip:256 in
  let exe = Pipeline.compile machine ~swp:true loop 1 in
  let st = Simulator.create_state machine in
  ignore (Simulator.run st exe);
  let _, s = Simulator.run_profiled st exe in
  Alcotest.(check bool) "pipeline fill accounted" true
    (s.Simulator.pipeline_fill_cycles > 0)

(* --- Sched_pretty --- *)

let test_render_mentions_every_op () =
  let loop = Kernels.daxpy ~name:"sp_daxpy" ~trip:64 in
  let s = List_sched.schedule machine loop in
  let rendered = Sched_pretty.render s in
  for pos = 0 to Loop.op_count loop - 1 do
    let needle = Printf.sprintf "#%d." pos in
    let found =
      let n = String.length needle and h = String.length rendered in
      let rec go i = i + n <= h && (String.sub rendered i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (Printf.sprintf "op %d rendered" pos) true found
  done

let test_render_occupancy_shape () =
  let loop = Kernels.fir8 ~name:"sp_fir" ~trip:64 in
  let s = List_sched.schedule machine loop in
  let occ = Sched_pretty.render_occupancy s in
  Alcotest.(check int) "four unit rows" 4
    (List.length (String.split_on_char '\n' (String.trim occ)))

let test_render_pipelined_stages () =
  let loop = Kernels.ddot ~name:"sp_swp" ~trip:64 in
  match Modulo_sched.schedule machine loop with
  | None -> Alcotest.fail "expected pipelined schedule"
  | Some s ->
    let rendered = Sched_pretty.render s in
    Alcotest.(check bool) "mentions II" true
      (let n = "II=" in
       let h = String.length rendered in
       let rec go i =
         i + 3 <= h && (String.sub rendered i 3 = n || go (i + 1))
       in
       go 0)

let base_suite =
  [
    ("boost separable", `Quick, test_boost_separable);
    ("boost xor", `Quick, test_boost_beats_stump_on_xor);
    ("boost deterministic", `Quick, test_boost_deterministic);
    ("knn regression", `Quick, test_knn_regression_interpolates);
    ("argmin factor", `Quick, test_argmin_factor);
    ("profile totals", `Quick, test_profile_accounts_for_total);
    ("profile gather stalls", `Quick, test_profile_gather_stalls);
    ("profile branch amortised", `Quick, test_profile_unroll_reduces_branch);
    ("profile swp fill", `Quick, test_profile_swp_reports_fill);
    ("render ops", `Quick, test_render_mentions_every_op);
    ("render occupancy", `Quick, test_render_occupancy_shape);
    ("render pipelined", `Quick, test_render_pipelined_stages);
  ]

(* --- Strip mining / tiling --- *)

let test_chunks_cover_iteration_space () =
  List.iter
    (fun (trip, outer, strip) ->
      let chunks = Strip_mine.chunks ~trip ~outer ~strip in
      (* every chunk repeated outer times; total work = trip * outer *)
      let total = List.fold_left (fun acc (len, _) -> acc + len) 0 chunks in
      Alcotest.(check int)
        (Printf.sprintf "total %d/%d/%d" trip outer strip)
        (trip * outer) total;
      (* each phase covered exactly outer times *)
      let phases = Hashtbl.create 16 in
      List.iter
        (fun (len, phase) ->
          for i = phase to phase + len - 1 do
            Hashtbl.replace phases i (1 + Option.value (Hashtbl.find_opt phases i) ~default:0)
          done)
        chunks;
      for i = 0 to trip - 1 do
        Alcotest.(check int) "coverage" outer
          (Option.value (Hashtbl.find_opt phases i) ~default:0)
      done)
    [ (16, 2, 4); (17, 3, 4); (8, 1, 8); (5, 2, 16) ]

let test_chunks_tile_major_order () =
  let chunks = Strip_mine.chunks ~trip:8 ~outer:2 ~strip:4 in
  Alcotest.(check (list (pair int int))) "order"
    [ (4, 0); (4, 0); (4, 4); (4, 4) ]
    chunks

let test_tiling_beats_thrashing () =
  (* 2x-L1 footprint with heavy outer reuse: a cache-sized strip wins. *)
  let b = Builder.create ~lang:Loop.Fortran ~name:"sm_reuse" ~trip:2048 ~nest_level:2
      ~outer_trip:32 () in
  let x = Builder.add_array b ~length:2064 "x" in
  let y = Builder.add_array b ~length:2064 "y" in
  let a = Builder.freg b in
  let xv = Builder.load b ~cls:Op.Flt ~array:x ~stride:1 ~offset:0 () in
  let yv = Builder.load b ~cls:Op.Flt ~array:y ~stride:1 ~offset:0 () in
  Builder.store b ~array:y ~stride:1 ~offset:0 (Builder.fmadd b [ a; xv; yv ]);
  let loop = Builder.finish b in
  let run exe =
    let st = Simulator.create_state machine in
    ignore (Simulator.run st exe);
    Simulator.run st exe
  in
  let untiled = run (Pipeline.compile machine ~swp:false loop 4) in
  let tiled = run (Strip_mine.executable machine ~swp:false loop ~strip:512 ~unroll:4) in
  Alcotest.(check bool)
    (Printf.sprintf "tiled %d < untiled %d" tiled untiled)
    true (tiled < untiled)

let test_tiling_unaligned_strip () =
  (* strip not divisible by the unroll factor: head/tail chunks align. *)
  let loop = Kernels.daxpy ~name:"sm_unaligned" ~trip:100 in
  let exe = Strip_mine.executable machine ~swp:false loop ~strip:7 ~unroll:4 in
  let total =
    List.fold_left
      (fun acc (s, trips, _) ->
        let per =
          match s.Schedule.kind with
          | _ ->
            (* kernel chunks cover unroll iterations per trip *)
            if Loop.op_count s.Schedule.loop > Loop.op_count loop then trips * 4 else trips
        in
        acc + per)
      0 exe.Simulator.schedules
  in
  Alcotest.(check int) "iterations covered" (100 * loop.Loop.outer_trip) total

let test_best_strip_fits_cache () =
  (* Two 32 KB streams against a 16 KB L1: the traversal thrashes within
     the simulated window, so a cache-sized strip must win the sweep. *)
  let b = Builder.create ~lang:Loop.Fortran ~name:"sm_best" ~trip:4096 ~nest_level:2
      ~outer_trip:32 () in
  let x = Builder.add_array b ~length:4112 "x" in
  let y = Builder.add_array b ~length:4112 "y" in
  let a = Builder.freg b in
  let xv = Builder.load b ~cls:Op.Flt ~array:x ~stride:1 ~offset:0 () in
  let yv = Builder.load b ~cls:Op.Flt ~array:y ~stride:1 ~offset:0 () in
  Builder.store b ~array:y ~stride:1 ~offset:0 (Builder.fmadd b [ a; xv; yv ]);
  let loop = Builder.finish b in
  let strip, _ = Strip_mine.best_strip machine ~swp:false loop ~candidates:[ 256; 1024; 4096 ] ~unroll:4 in
  Alcotest.(check bool) "small strip wins" true (strip < 4096)

let strip_suite =
  [
    ("chunks cover space", `Quick, test_chunks_cover_iteration_space);
    ("chunks tile-major", `Quick, test_chunks_tile_major_order);
    ("tiling beats thrashing", `Quick, test_tiling_beats_thrashing);
    ("tiling unaligned strip", `Quick, test_tiling_unaligned_strip);
    ("best strip fits cache", `Quick, test_best_strip_fits_cache);
  ]

let suite = base_suite @ strip_suite
