(* Tests for loop transformations: unrolling and redundant-load/dead-store
   elimination. *)

let machine = Machine.itanium2
let latency op = Machine.latency machine op

let test_unroll_identity () =
  let l = Kernels.daxpy ~name:"u1" ~trip:100 in
  let u = Unroll.run l 1 in
  Alcotest.(check int) "factor" 1 u.Unroll.factor;
  Alcotest.(check int) "kernel trips" 100 u.Unroll.kernel_trips;
  Alcotest.(check bool) "no remainder" true (u.Unroll.remainder = None);
  Alcotest.(check int) "same ops" (Loop.op_count l) (Loop.op_count u.Unroll.kernel)

let test_unroll_out_of_range () =
  let l = Kernels.daxpy ~name:"u_bad" ~trip:100 in
  Alcotest.(check bool) "rejects 0" true
    (try ignore (Unroll.run l 0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "rejects 9" true
    (try ignore (Unroll.run l 9); false with Invalid_argument _ -> true)

let test_unroll_op_count () =
  let l = Kernels.daxpy ~name:"u4" ~trip:100 in
  let u = Unroll.run l 4 in
  (* 4 ops core * 4 replicas + 3 overhead = 19 *)
  Alcotest.(check int) "unrolled ops" 19 (Loop.op_count u.Unroll.kernel)

let test_unroll_mref_rewrite () =
  let l = Kernels.daxpy ~name:"u_mref" ~trip:100 in
  let u = Unroll.run l 4 in
  let offsets = ref [] in
  Array.iter
    (fun op ->
      match Op.mref op with
      | Some m when Op.is_load op && m.Op.array = 0 ->
        Alcotest.(check int) "stride scaled" 4 m.Op.stride;
        offsets := m.Op.offset :: !offsets
      | _ -> ())
    u.Unroll.kernel.Loop.body;
  Alcotest.(check (list int)) "per-replica offsets" [ 0; 1; 2; 3 ]
    (List.sort compare !offsets)

let test_unroll_trip_arithmetic () =
  let l = Kernels.daxpy ~name:"u_trip" ~trip:103 in
  let u = Unroll.run l 4 in
  Alcotest.(check int) "kernel trips" 25 u.Unroll.kernel_trips;
  Alcotest.(check int) "remainder trips" 3 u.Unroll.remainder_trips;
  Alcotest.(check bool) "remainder exists" true (u.Unroll.remainder <> None);
  Alcotest.(check int) "total iterations preserved" 103
    ((u.Unroll.kernel_trips * 4) + u.Unroll.remainder_trips)

let test_unroll_divisible_no_remainder () =
  let l = Kernels.daxpy ~name:"u_div" ~trip:128 in
  let u = Unroll.run l 8 in
  Alcotest.(check bool) "no remainder when divisible and known" true
    (u.Unroll.remainder = None);
  Alcotest.(check int) "kernel trips" 16 u.Unroll.kernel_trips

let test_unroll_unknown_trip_remainder () =
  let l = Kernels.daxpy_unknown_trip ~name:"u_unk" ~trip:128 in
  let u = Unroll.run l 8 in
  (* Even though 128 is divisible, the compiler cannot prove it. *)
  Alcotest.(check bool) "remainder code present" true (u.Unroll.remainder <> None);
  Alcotest.(check int) "runtime remainder trips" 0 u.Unroll.remainder_trips

let test_unroll_small_trip () =
  let l = Kernels.daxpy ~name:"u_small" ~trip:3 in
  let u = Unroll.run l 8 in
  Alcotest.(check int) "kernel never runs" 0 u.Unroll.kernel_trips;
  Alcotest.(check int) "all in remainder" 3 u.Unroll.remainder_trips

let test_unroll_kernel_validates () =
  List.iter
    (fun (name, maker) ->
      let l = maker ~name ~trip:64 in
      List.iter
        (fun f ->
          let u = Unroll.run l f in
          (match Loop.validate u.Unroll.kernel with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s u=%d: %s" name f e);
          Alcotest.(check bool)
            (Printf.sprintf "%s u=%d acyclic" name f)
            false
            (Deps.has_cycle_at_distance_zero
               (Deps.build ~latency u.Unroll.kernel)))
        [ 2; 3; 8 ])
    Kernels.all

let test_unroll_carried_register () =
  let l = Kernels.ddot ~name:"u_acc" ~trip:64 in
  let acc =
    match l.Loop.live_out with [ r ] -> r | _ -> Alcotest.fail "one live-out"
  in
  let u = Unroll.run l 4 in
  (* The accumulator keeps a serial chain: exactly one op defines the
     original register (the last replica), and the kernel still carries it. *)
  let defs_of_acc =
    Array.to_list u.Unroll.kernel.Loop.body
    |> List.filter (fun (op : Op.t) -> List.mem acc (Op.defs op))
  in
  Alcotest.(check int) "one def of original acc" 1 (List.length defs_of_acc);
  let deps = Deps_reference.edges_of_csr (Deps.build ~latency u.Unroll.kernel) in
  Alcotest.(check bool) "still a recurrence" true
    (List.exists (fun e -> e.Deps_reference.dkind = Deps.Reg_flow && e.distance = 1) deps)

let test_unroll_overhead_merged () =
  let l = Kernels.daxpy ~name:"u_ovh" ~trip:64 in
  let u = Unroll.run l 8 in
  Alcotest.(check int) "one backedge" 1 (Loop.branch_count u.Unroll.kernel)

let test_unroll_exit_replicated () =
  let l = Kernels.early_exit_search ~name:"u_exit" ~trip:64 in
  let u = Unroll.run l 4 in
  (* 4 exit branches + 1 backedge *)
  Alcotest.(check int) "branches" 5 (Loop.branch_count u.Unroll.kernel)

let test_unroll_code_growth () =
  let l = Kernels.stencil5 ~name:"u_code" ~trip:64 in
  let u2 = Unroll.run l 2 and u8 = Unroll.run l 8 in
  Alcotest.(check bool) "code grows" true (u8.Unroll.code_bytes > u2.Unroll.code_bytes)

(* --- RLE --- *)

let test_rle_stencil_reuse () =
  let l = Kernels.stencil3 ~name:"r_st3" ~trip:64 in
  let u = Unroll.run l 4 in
  let r = Rle.run u.Unroll.kernel in
  (* Replicas k>=1 reload offsets already loaded by replica k-1: two loads
     saved per later replica = 6. *)
  Alcotest.(check int) "loads eliminated" 6 r.Rle.loads_eliminated;
  Alcotest.(check int) "no dead stores" 0 r.Rle.stores_eliminated;
  match Loop.validate r.Rle.loop with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_rle_rolled_stencil_nothing () =
  let l = Kernels.stencil3 ~name:"r_st1" ~trip:64 in
  let r = Rle.run l in
  Alcotest.(check int) "nothing to eliminate rolled" 0 r.Rle.loads_eliminated

let test_rle_store_forwarding () =
  (* store a[i] then load a[i] in the same iteration: load collapses. *)
  let b = Builder.create ~lang:Loop.Fortran ~name:"r_fwd" ~trip:32 () in
  let a = Builder.add_array b "a" in
  let x = Builder.freg b in
  Builder.store b ~array:a ~stride:1 ~offset:0 x;
  let v = Builder.load b ~cls:Op.Flt ~array:a ~stride:1 ~offset:0 () in
  let w = Builder.fmul b [ v; v ] in
  Builder.store b ~array:a ~stride:1 ~offset:1 w;
  let l = Builder.finish b in
  let r = Rle.run l in
  Alcotest.(check int) "forwarded" 1 r.Rle.loads_eliminated

let test_rle_aliasing_blocks () =
  (* In a may-alias (C) loop an intervening store to another array kills
     the available load. *)
  let build aliased =
    let b = Builder.create ~lang:Loop.C ~aliased ~name:"r_alias" ~trip:32 () in
    let x = Builder.add_array b "x" in
    let y = Builder.add_array b "y" in
    let v1 = Builder.load b ~cls:Op.Flt ~array:x ~stride:1 ~offset:0 () in
    Builder.store b ~array:y ~stride:1 ~offset:0 v1;
    let v2 = Builder.load b ~cls:Op.Flt ~array:x ~stride:1 ~offset:0 () in
    Builder.store b ~array:y ~stride:1 ~offset:1 v2;
    Builder.finish b
  in
  let r_alias = Rle.run (build true) in
  let r_clean = Rle.run (build false) in
  Alcotest.(check int) "aliased keeps the reload" 0 r_alias.Rle.loads_eliminated;
  Alcotest.(check int) "non-aliased eliminates" 1 r_clean.Rle.loads_eliminated

let test_rle_dead_store () =
  (* Two stores to the same stride-0 slot, no read between: first is dead. *)
  let b = Builder.create ~lang:Loop.Fortran ~name:"r_dse" ~trip:32 () in
  let a = Builder.add_array b "a" in
  let x = Builder.freg b and y = Builder.freg b in
  Builder.store b ~array:a ~stride:0 ~offset:0 x;
  Builder.store b ~array:a ~stride:0 ~offset:0 y;
  let l = Builder.finish b in
  let r = Rle.run l in
  Alcotest.(check int) "dead store removed" 1 r.Rle.stores_eliminated

let test_rle_exit_blocks_dse () =
  (* An early exit between the stores makes the first one observable. *)
  let b = Builder.create ~lang:Loop.C ~name:"r_dse_exit" ~trip:32 ~exit_prob:0.01 () in
  let a = Builder.add_array b "a" in
  let x = Builder.freg b and y = Builder.freg b in
  Builder.store b ~array:a ~stride:0 ~offset:0 x;
  let v = Builder.load b ~cls:Op.Int ~array:a ~stride:1 ~offset:1 () in
  let p = Builder.cmp b [ v ] in
  Builder.early_exit b ~pred:p;
  Builder.store b ~array:a ~stride:0 ~offset:0 y;
  let l = Builder.finish b in
  let r = Rle.run l in
  Alcotest.(check int) "exit keeps store" 0 r.Rle.stores_eliminated

let test_rle_predicated_untouched () =
  let b = Builder.create ~lang:Loop.Fortran ~name:"r_pred" ~trip:32 () in
  let a = Builder.add_array b "a" in
  let v1 = Builder.load b ~cls:Op.Flt ~array:a ~stride:1 ~offset:0 () in
  let p = Builder.cmp b [ v1 ] in
  let v2 = Builder.load b ~pred:p ~cls:Op.Flt ~array:a ~stride:1 ~offset:0 () in
  Builder.store b ~array:a ~stride:1 ~offset:1 v2;
  let l = Builder.finish b in
  let r = Rle.run l in
  Alcotest.(check int) "predicated load kept" 0 r.Rle.loads_eliminated

(* --- QCheck: unrolling invariants over random loops --- *)

let loop_and_factor_gen =
  QCheck.Gen.(
    let* seed = 0 -- 50000 in
    let* f = 1 -- 8 in
    let rng = Rng.create seed in
    let profile = if seed mod 2 = 0 then Synth.fp_numeric else Synth.int_pointer in
    return (Synth.generate rng profile ~name:(Printf.sprintf "qu%d" seed), f))

let prop_unroll_valid =
  QCheck.Test.make ~count:150 ~name:"unrolled kernels validate"
    (QCheck.make loop_and_factor_gen)
    (fun (l, f) ->
      let u = Unroll.run l f in
      (match Loop.validate u.Unroll.kernel with Ok () -> true | Error _ -> false)
      && (u.Unroll.kernel_trips * f) + u.Unroll.remainder_trips = l.Loop.trip_actual)

let prop_rle_only_shrinks =
  QCheck.Test.make ~count:150 ~name:"RLE never grows the body"
    (QCheck.make loop_and_factor_gen)
    (fun (l, f) ->
      let u = Unroll.run l f in
      let r = Rle.run u.Unroll.kernel in
      Loop.op_count r.Rle.loop <= Loop.op_count u.Unroll.kernel
      && Loop.store_count r.Rle.loop
         = Loop.store_count u.Unroll.kernel - r.Rle.stores_eliminated)

let suite =
  [
    ("unroll identity", `Quick, test_unroll_identity);
    ("unroll out of range", `Quick, test_unroll_out_of_range);
    ("unroll op count", `Quick, test_unroll_op_count);
    ("unroll mref rewrite", `Quick, test_unroll_mref_rewrite);
    ("unroll trip arithmetic", `Quick, test_unroll_trip_arithmetic);
    ("unroll divisible", `Quick, test_unroll_divisible_no_remainder);
    ("unroll unknown trip", `Quick, test_unroll_unknown_trip_remainder);
    ("unroll small trip", `Quick, test_unroll_small_trip);
    ("unroll kernels validate", `Quick, test_unroll_kernel_validates);
    ("unroll carried register", `Quick, test_unroll_carried_register);
    ("unroll overhead merged", `Quick, test_unroll_overhead_merged);
    ("unroll exit replicated", `Quick, test_unroll_exit_replicated);
    ("unroll code growth", `Quick, test_unroll_code_growth);
    ("rle stencil reuse", `Quick, test_rle_stencil_reuse);
    ("rle rolled nothing", `Quick, test_rle_rolled_stencil_nothing);
    ("rle store forwarding", `Quick, test_rle_store_forwarding);
    ("rle aliasing blocks", `Quick, test_rle_aliasing_blocks);
    ("rle dead store", `Quick, test_rle_dead_store);
    ("rle exit blocks dse", `Quick, test_rle_exit_blocks_dse);
    ("rle predicated untouched", `Quick, test_rle_predicated_untouched);
    QCheck_alcotest.to_alcotest prop_unroll_valid;
    QCheck_alcotest.to_alcotest prop_rle_only_shrinks;
  ]
