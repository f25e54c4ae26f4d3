(* Tests for the IR: ops, loops, builder, dependence analysis, DAG stats. *)

let machine = Machine.itanium2
let latency op = Machine.latency machine op

let daxpy () = Kernels.daxpy ~name:"t_daxpy" ~trip:100
let ddot () = Kernels.ddot ~name:"t_ddot" ~trip:100

(* --- Op --- *)

let test_op_classifiers () =
  let mref = { Op.array = 0; stride = 1; offset = 0; mkind = Op.Direct } in
  let load = Op.make ~uid:0 ~dst:{ Op.id = 0; cls = Op.Flt } (Op.Load mref) in
  let store = Op.make ~uid:1 ~srcs:[ { Op.id = 0; cls = Op.Flt } ] (Op.Store mref) in
  let fmul = Op.make ~uid:2 ~dst:{ Op.id = 1; cls = Op.Flt } Op.Fmul in
  let br = Op.make ~uid:3 (Op.Br Op.Backedge) in
  let mov = Op.make ~uid:4 ~dst:{ Op.id = 2; cls = Op.Int } Op.Mov in
  Alcotest.(check bool) "load is memory" true (Op.is_memory load);
  Alcotest.(check bool) "load is load" true (Op.is_load load);
  Alcotest.(check bool) "store is store" true (Op.is_store store);
  Alcotest.(check bool) "store not load" false (Op.is_load store);
  Alcotest.(check bool) "fmul is float" true (Op.is_float fmul);
  Alcotest.(check bool) "load not float" false (Op.is_float load);
  Alcotest.(check bool) "br is branch" true (Op.is_branch br);
  Alcotest.(check bool) "mov implicit" true (Op.is_implicit mov)

let test_op_operands () =
  let r0 = { Op.id = 0; cls = Op.Flt } and r1 = { Op.id = 1; cls = Op.Flt } in
  let op = Op.make ~uid:0 ~dst:r1 ~srcs:[ r0; r0 ] Op.Fmul in
  Alcotest.(check int) "operand count" 3 (Op.operand_count op);
  Alcotest.(check int) "uses" 2 (List.length (Op.uses op));
  Alcotest.(check int) "defs" 1 (List.length (Op.defs op))

let test_op_to_string () =
  let r0 = { Op.id = 3; cls = Op.Flt } in
  let op = Op.make ~uid:0 ~dst:r0 (Op.Load { Op.array = 1; stride = 2; offset = 1; mkind = Op.Direct }) in
  Alcotest.(check string) "render" "f3 = load A1[2*i+1]" (Op.to_string op)

(* --- Loop counts --- *)

let test_loop_counts_daxpy () =
  let l = daxpy () in
  (* 2 loads, fmadd, store + ialu/cmp/br overhead = 7 ops *)
  Alcotest.(check int) "ops" 7 (Loop.op_count l);
  Alcotest.(check int) "fp" 1 (Loop.float_op_count l);
  Alcotest.(check int) "branches" 1 (Loop.branch_count l);
  Alcotest.(check int) "mem" 3 (Loop.memory_op_count l);
  Alcotest.(check int) "loads" 2 (Loop.load_count l);
  Alcotest.(check int) "stores" 1 (Loop.store_count l);
  Alcotest.(check int) "implicit" 0 (Loop.implicit_count l);
  Alcotest.(check bool) "unrollable" true (Loop.unrollable l)

let test_loop_flags () =
  let exit_loop = Kernels.early_exit_search ~name:"t_exit" ~trip:64 in
  let call_loop = Kernels.call_in_loop ~name:"t_call" ~trip:64 in
  Alcotest.(check bool) "exit flag" true (Loop.has_early_exit exit_loop);
  Alcotest.(check bool) "call flag" true (Loop.has_call call_loop);
  Alcotest.(check bool) "exit not unrollable" false (Loop.unrollable exit_loop);
  Alcotest.(check bool) "call not unrollable" false (Loop.unrollable call_loop)

let test_loop_live_in () =
  let l = daxpy () in
  (* invariant 'a' and the induction variable are live-in *)
  Alcotest.(check int) "live-ins" 2 (List.length (Loop.live_in_regs l))

let test_loop_code_bytes () =
  let l = daxpy () in
  (* 7 ops = 3 bundles = 48 bytes *)
  Alcotest.(check int) "code bytes" 48 (Loop.code_bytes l)

let test_backedge_index () =
  let l = daxpy () in
  Alcotest.(check int) "backedge last" (Loop.op_count l - 1) (Loop.backedge_index l)

let test_indirect_count () =
  let g = Kernels.gather ~name:"t_gather" ~trip:64 in
  Alcotest.(check int) "indirect refs" 1 (Loop.indirect_ref_count g)

(* --- validate --- *)

let test_validate_ok_all_kernels () =
  List.iter
    (fun (name, maker) ->
      let l = maker ~name ~trip:64 in
      match Loop.validate l with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" name e)
    Kernels.all

let expect_invalid what l =
  match Loop.validate l with
  | Ok () -> Alcotest.failf "%s should be invalid" what
  | Error _ -> ()

let test_validate_rejects () =
  let l = daxpy () in
  expect_invalid "empty body" { l with Loop.body = [||] };
  expect_invalid "backedge not last"
    {
      l with
      Loop.body =
        (let b = Array.copy l.Loop.body in
         let n = Array.length b in
         let tmp = b.(n - 1) in
         b.(n - 1) <- b.(n - 2);
         b.(n - 2) <- tmp;
         b);
    };
  expect_invalid "negative trip" { l with Loop.trip_actual = -1 };
  expect_invalid "zero outer" { l with Loop.outer_trip = 0 };
  expect_invalid "exit prob 1" { l with Loop.exit_prob = 1.0 };
  expect_invalid "bad array"
    {
      l with
      Loop.body =
        Array.map
          (fun (op : Op.t) ->
            match op.Op.opcode with
            | Op.Load m -> { op with Op.opcode = Op.Load { m with Op.array = 99 } }
            | _ -> op)
          l.Loop.body;
    }

let test_builder_class_check () =
  let b = Builder.create ~name:"t" ~trip:4 () in
  let i = Builder.ireg b in
  Alcotest.check_raises "fadd wants floats"
    (Invalid_argument "Builder.fadd: operand class mismatch") (fun () ->
      ignore (Builder.fadd b [ i ]))

(* --- Deps --- *)

(* The graph's edges in index order, as records. *)
let edges l = Deps_reference.edges_of_csr (Deps.build ~latency l)

let edges_between deps src dst =
  List.filter
    (fun e -> e.Deps_reference.src = src && e.dst = dst)
    deps

let test_deps_daxpy_structure () =
  let l = daxpy () in
  let deps = edges l in
  (* body: 0 load x, 1 load y, 2 fmadd, 3 store, 4 iv, 5 cmp, 6 br *)
  let flow02 = edges_between deps 0 2 in
  Alcotest.(check bool) "load x feeds fmadd" true
    (List.exists
       (fun e -> e.Deps_reference.dkind = Deps.Reg_flow && e.latency = machine.Machine.lat_load)
       flow02);
  (* load y and store y at the same address: anti dependence, same iter *)
  let anti13 = edges_between deps 1 3 in
  Alcotest.(check bool) "load y before store y" true
    (List.exists (fun e -> e.Deps_reference.dkind = Deps.Mem_anti && e.distance = 0) anti13);
  (* everything serialises before the backedge *)
  let n = Loop.op_count l in
  for i = 0 to n - 2 do
    Alcotest.(check bool)
      (Printf.sprintf "op %d -> backedge" i)
      true
      (List.exists (fun e -> e.Deps_reference.dkind = Deps.Serial) (edges_between deps i (n - 1)))
  done

let test_deps_recurrence () =
  let l = ddot () in
  let deps = edges l in
  (* fadd (pos 3) accumulates: self flow edge at distance 1 *)
  let self = edges_between deps 3 3 in
  Alcotest.(check bool) "accumulator recurrence" true
    (List.exists
       (fun e -> e.Deps_reference.dkind = Deps.Reg_flow && e.distance = 1)
       self)

let test_deps_acyclic_at_distance_zero () =
  List.iter
    (fun (name, maker) ->
      let l = maker ~name ~trip:32 in
      let deps = Deps.build ~latency l in
      Alcotest.(check bool) (name ^ " acyclic") false (Deps.has_cycle_at_distance_zero deps))
    Kernels.all

let test_deps_stride0_carried () =
  let l = Kernels.dot_stride0 ~name:"t_s0" ~trip:32 in
  let deps = edges l in
  (* stride-0 store feeds next iteration's load of the accumulator cell *)
  Alcotest.(check bool) "carried mem flow" true
    (List.exists
       (fun e -> e.Deps_reference.dkind = Deps.Mem_flow && e.distance = 1)
       deps)

let test_deps_language_aliasing () =
  let build lang =
    let b = Builder.create ~lang ~name:"t_alias" ~trip:32 () in
    let x = Builder.add_array b "x" in
    let y = Builder.add_array b "y" in
    let v = Builder.load b ~cls:Op.Flt ~array:x ~stride:1 ~offset:0 () in
    Builder.store b ~array:y ~stride:1 ~offset:0 v;
    Builder.finish b
  in
  let cross_edges l =
    let deps = edges l in
    List.length
      (List.filter
         (fun e ->
           match e.Deps_reference.dkind with
           | Deps.Mem_flow | Deps.Mem_anti | Deps.Mem_output -> true
           | _ -> false)
         deps)
  in
  Alcotest.(check int) "fortran: no cross-array deps" 0 (cross_edges (build Loop.Fortran));
  Alcotest.(check bool) "c: conservative cross-array deps" true
    (cross_edges (build Loop.C) > 0)

let test_deps_distance_from_offsets () =
  (* store a[i], load a[i-2]: flow at distance 2 (the load reads what was
     stored two iterations ago). *)
  let b = Builder.create ~lang:Loop.Fortran ~name:"t_dist" ~trip:64 () in
  let a = Builder.add_array b "a" in
  let v = Builder.load b ~cls:Op.Flt ~array:a ~stride:1 ~offset:0 () in
  let w = Builder.fmul b [ v; v ] in
  Builder.store b ~array:a ~stride:1 ~offset:2 w;
  let l = Builder.finish b in
  let deps = edges l in
  Alcotest.(check bool) "mem flow at distance 2" true
    (List.exists
       (fun e ->
         e.Deps_reference.dkind = Deps.Mem_flow && e.distance = 2 && e.src = 2 && e.dst = 0)
       deps)

(* --- Dag --- *)

let test_dag_critical_path_chain () =
  let l = Kernels.long_latency_chain ~name:"t_chain" ~trip:32 in
  let deps = Deps.build ~latency l in
  let stats = Dag.analyze deps (fun i -> latency l.Loop.body.(i)) in
  (* load (3) + 5 chained fmuls (4 each) + store (1) = 24 *)
  Alcotest.(check int) "critical path" 24 stats.Dag.critical_path

let test_dag_recurrence_ddot () =
  let l = ddot () in
  let deps = Deps.build ~latency l in
  let stats = Dag.analyze deps (fun i -> latency l.Loop.body.(i)) in
  Alcotest.(check int) "recurrence = fadd latency" machine.Machine.lat_fadd
    stats.Dag.recurrence_latency

let test_dag_computations_wide () =
  let l = Kernels.wide_independent ~name:"t_wide" ~trip:32 in
  let deps = Deps.build ~latency l in
  let stats = Dag.analyze deps (fun i -> latency l.Loop.body.(i)) in
  (* 4 independent computations plus the overhead chain; at least 5
     register-flow components. *)
  Alcotest.(check bool) "several computations" true (stats.Dag.computations >= 5)

let test_dag_mem_carried_prefix_sum () =
  let l = Kernels.prefix_sum ~name:"t_ps" ~trip:32 in
  let deps = Deps.build ~latency l in
  let stats = Dag.analyze deps (fun i -> latency l.Loop.body.(i)) in
  Alcotest.(check int) "min carried distance 1" 1 stats.Dag.min_mem_to_mem_distance;
  Alcotest.(check bool) "has carried mem deps" true (stats.Dag.mem_to_mem_dependences > 0)

let test_dag_fan_in () =
  let l = daxpy () in
  let deps = Deps.build ~latency l in
  let stats = Dag.analyze deps (fun i -> latency l.Loop.body.(i)) in
  (* fmadd consumes a, xv, yv: fan-in 3 (a is live-in, so 2 flow edges) *)
  Alcotest.(check bool) "fan-in at least 2" true (stats.Dag.max_fan_in >= 2)

(* --- Pretty --- *)

let test_pretty_renders () =
  let s = Pretty.loop_to_string (daxpy ()) in
  Alcotest.(check bool) "mentions loop name" true
    (String.length s > 0
    &&
    let rec find i =
      i + 7 <= String.length s && (String.sub s i 7 = "t_daxpy" || find (i + 1))
    in
    find 0)

(* --- QCheck: random synthetic loops are well-formed --- *)

let synth_loop_gen =
  QCheck.Gen.(
    let* seed = 0 -- 100000 in
    let* p = 0 -- 3 in
    let profile =
      match p with
      | 0 -> Synth.fp_numeric
      | 1 -> Synth.int_pointer
      | 2 -> Synth.media
      | _ -> Synth.scientific_c
    in
    let rng = Rng.create seed in
    return (Synth.generate rng profile ~name:(Printf.sprintf "q%d" seed)))

let prop_synth_valid =
  QCheck.Test.make ~count:200 ~name:"synthetic loops validate"
    (QCheck.make synth_loop_gen)
    (fun l -> match Loop.validate l with Ok () -> true | Error _ -> false)

let prop_synth_deps_acyclic =
  QCheck.Test.make ~count:100 ~name:"synthetic deps acyclic at distance 0"
    (QCheck.make synth_loop_gen)
    (fun l -> not (Deps.has_cycle_at_distance_zero (Deps.build ~latency l)))

let suite =
  [
    ("op classifiers", `Quick, test_op_classifiers);
    ("op operands", `Quick, test_op_operands);
    ("op to_string", `Quick, test_op_to_string);
    ("loop counts daxpy", `Quick, test_loop_counts_daxpy);
    ("loop flags", `Quick, test_loop_flags);
    ("loop live-in", `Quick, test_loop_live_in);
    ("loop code bytes", `Quick, test_loop_code_bytes);
    ("backedge index", `Quick, test_backedge_index);
    ("indirect count", `Quick, test_indirect_count);
    ("validate kernels", `Quick, test_validate_ok_all_kernels);
    ("validate rejects", `Quick, test_validate_rejects);
    ("builder class check", `Quick, test_builder_class_check);
    ("deps daxpy structure", `Quick, test_deps_daxpy_structure);
    ("deps recurrence", `Quick, test_deps_recurrence);
    ("deps acyclic", `Quick, test_deps_acyclic_at_distance_zero);
    ("deps stride0 carried", `Quick, test_deps_stride0_carried);
    ("deps language aliasing", `Quick, test_deps_language_aliasing);
    ("deps offset distance", `Quick, test_deps_distance_from_offsets);
    ("dag critical path", `Quick, test_dag_critical_path_chain);
    ("dag recurrence", `Quick, test_dag_recurrence_ddot);
    ("dag computations", `Quick, test_dag_computations_wide);
    ("dag mem carried", `Quick, test_dag_mem_carried_prefix_sum);
    ("dag fan-in", `Quick, test_dag_fan_in);
    ("pretty renders", `Quick, test_pretty_renders);
    QCheck_alcotest.to_alcotest prop_synth_valid;
    QCheck_alcotest.to_alcotest prop_synth_deps_acyclic;
  ]
