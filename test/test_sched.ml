(* Tests for schedulers and the register allocator. *)

let machine = Machine.itanium2

let kernels_for_test =
  List.map (fun (name, maker) -> (name, maker ~name ~trip:64)) Kernels.all

let test_list_sched_validates () =
  List.iter
    (fun (name, loop) ->
      let s = List_sched.schedule machine loop in
      match Schedule.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    kernels_for_test

let test_list_sched_respects_res_bound () =
  List.iter
    (fun (name, loop) ->
      let s = List_sched.schedule machine loop in
      Alcotest.(check bool)
        (name ^ " length >= res bound")
        true
        (s.Schedule.length >= Machine.res_cycles machine loop.Loop.body))
    kernels_for_test

let test_list_sched_backedge_last () =
  List.iter
    (fun (name, loop) ->
      let s = List_sched.schedule machine loop in
      let be = Loop.backedge_index loop in
      let max_cycle = Array.fold_left max 0 s.Schedule.assignment in
      Alcotest.(check int) (name ^ " backedge in final cycle") max_cycle
        s.Schedule.assignment.(be))
    kernels_for_test

let test_list_sched_latency_respected () =
  let loop = Kernels.long_latency_chain ~name:"s_chain" ~trip:32 in
  let s = List_sched.schedule machine loop in
  (* chain: load(3) + 5 fmul(4) + store must span at least 23 issue cycles *)
  Alcotest.(check bool) "span covers chain" true (s.Schedule.length >= 23)

let test_list_sched_unrolled_validates () =
  List.iter
    (fun (name, loop) ->
      List.iter
        (fun f ->
          let u = Unroll.run loop f in
          let s = List_sched.schedule machine u.Unroll.kernel in
          match Schedule.validate s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s u=%d: %s" name f e)
        [ 2; 8 ])
    kernels_for_test

let test_list_sched_amortizes () =
  (* Per-original-iteration issue length shrinks with unrolling for an
     ILP-rich loop. *)
  let loop = Kernels.daxpy ~name:"s_daxpy" ~trip:64 in
  let len f =
    let u = Unroll.run loop f in
    let s = List_sched.schedule machine u.Unroll.kernel in
    float_of_int s.Schedule.length /. float_of_int f
  in
  Alcotest.(check bool) "u4 cheaper per iteration than u1" true (len 4 < len 1)

(* --- Modulo scheduling --- *)

let test_mii_ddot () =
  let loop = Kernels.ddot ~name:"m_ddot" ~trip:64 in
  Alcotest.(check int) "RecMII = fadd latency" machine.Machine.lat_fadd
    (Modulo_sched.rec_mii machine loop);
  Alcotest.(check bool) "ResMII <= RecMII here" true
    (Modulo_sched.res_mii machine loop <= machine.Machine.lat_fadd)

let test_mii_daxpy_resource () =
  let loop = Kernels.daxpy ~name:"m_daxpy" ~trip:64 in
  (* 3 memory ops on 2 M units: ResMII 2. *)
  Alcotest.(check int) "ResMII" 2 (Modulo_sched.res_mii machine loop)

let test_modulo_achieves_mii_ddot () =
  let loop = Kernels.ddot ~name:"m_ddot2" ~trip:64 in
  match Modulo_sched.schedule machine loop with
  | None -> Alcotest.fail "ddot should pipeline"
  | Some s -> begin
    match s.Schedule.kind with
    | Schedule.Pipelined { ii; _ } ->
      Alcotest.(check int) "II = RecMII" machine.Machine.lat_fadd ii
    | Schedule.Straight -> Alcotest.fail "expected pipelined"
  end

let test_modulo_validates () =
  List.iter
    (fun (name, loop) ->
      match Modulo_sched.schedule machine loop with
      | None -> ()
      | Some s -> begin
        match Schedule.validate s with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" name e
      end)
    kernels_for_test

let test_modulo_refuses_calls_exits () =
  let call_loop = Kernels.call_in_loop ~name:"m_call" ~trip:64 in
  let exit_loop = Kernels.early_exit_search ~name:"m_exit" ~trip:64 in
  Alcotest.(check bool) "no SWP for calls" true
    (Modulo_sched.schedule machine call_loop = None);
  Alcotest.(check bool) "no SWP for exits" true
    (Modulo_sched.schedule machine exit_loop = None)

let test_modulo_beats_straight_ddot () =
  (* The whole point of SWP: ddot's steady state reaches RecMII per
     iteration, far below the straight schedule's span. *)
  let loop = Kernels.ddot ~name:"m_win" ~trip:64 in
  let straight = List_sched.schedule machine loop in
  match Modulo_sched.schedule machine loop with
  | None -> Alcotest.fail "should pipeline"
  | Some s ->
    Alcotest.(check bool) "II < straight span" true
      (Schedule.ii s < straight.Schedule.length)

let test_modulo_register_pressure_backoff () =
  (* A very wide unrolled FP loop cannot hold all rotating values in 24
     registers at a tight II; the scheduler must either raise II or give
     up — but never return an invalid schedule. *)
  let loop = Kernels.fir8 ~name:"m_fir" ~trip:64 in
  let u = Unroll.run loop 8 in
  match Modulo_sched.schedule machine u.Unroll.kernel with
  | None -> ()
  | Some s ->
    Alcotest.(check bool) "fits rotating register files" true
      (s.Schedule.int_pressure <= machine.Machine.rot_int_regs
      && s.Schedule.fp_pressure <= machine.Machine.rot_fp_regs)

(* --- Regalloc --- *)

let test_pressure_positive () =
  let loop = Kernels.fir8 ~name:"ra_fir" ~trip:64 in
  let s = List_sched.schedule machine loop in
  let int_p, fp_p = Regalloc.pressure s in
  Alcotest.(check bool) "some fp pressure" true (fp_p > 0);
  Alcotest.(check bool) "some int pressure" true (int_p > 0)

let test_allocate_within_limits_or_spills () =
  List.iter
    (fun (name, loop) ->
      List.iter
        (fun f ->
          let u = Unroll.run loop f in
          let s =
            Regalloc.allocate ~sched:(List_sched.schedule machine) u.Unroll.kernel
          in
          (match Schedule.validate s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s u=%d: %s" name f e);
          if s.Schedule.spills = 0 then begin
            Alcotest.(check bool)
              (Printf.sprintf "%s u=%d pressure ok" name f)
              true
              (s.Schedule.int_pressure <= machine.Machine.int_regs
              && s.Schedule.fp_pressure <= machine.Machine.fp_regs)
          end)
        [ 1; 8 ])
    kernels_for_test

let test_spill_code_inserted () =
  (* Force pressure: a machine with almost no FP registers. *)
  let tiny = { machine with Machine.fp_regs = 4; int_regs = 16 } in
  let loop = Kernels.fir8 ~name:"ra_spill" ~trip:64 in
  let u = Unroll.run loop 4 in
  let s = Regalloc.allocate ~sched:(List_sched.schedule tiny) u.Unroll.kernel in
  Alcotest.(check bool) "spills happened" true (s.Schedule.spills > 0);
  let has_spill_array =
    Array.exists
      (fun (a : Loop.array_info) -> a.Loop.aname = "$spill")
      s.Schedule.loop.Loop.arrays
  in
  Alcotest.(check bool) "spill slots allocated" true has_spill_array;
  match Schedule.validate s with Ok () -> () | Error e -> Alcotest.fail e

let test_spill_lowers_pressure () =
  let tiny = { machine with Machine.fp_regs = 6 } in
  let loop = Kernels.fir8 ~name:"ra_lower" ~trip:64 in
  let u = Unroll.run loop 2 in
  let before = List_sched.schedule tiny u.Unroll.kernel in
  let _, fp_before = Regalloc.pressure before in
  let s = Regalloc.allocate ~sched:(List_sched.schedule tiny) u.Unroll.kernel in
  Alcotest.(check bool) "pressure reduced by spilling" true
    (s.Schedule.fp_pressure < fp_before || s.Schedule.spills > 0)

(* --- QCheck --- *)

let synth_gen =
  QCheck.Gen.(
    let* seed = 0 -- 30000 in
    let* f = 1 -- 8 in
    let rng = Rng.create seed in
    let profile = if seed mod 3 = 0 then Synth.int_pointer else Synth.fp_numeric in
    let l = Synth.generate rng profile ~name:(Printf.sprintf "qs%d" seed) in
    return (l, f))

let prop_list_schedule_valid =
  QCheck.Test.make ~count:80 ~name:"list schedules of random unrolled loops validate"
    (QCheck.make synth_gen)
    (fun (l, f) ->
      let u = Unroll.run l f in
      let kernel = (Rle.run u.Unroll.kernel).Rle.loop in
      let s = Regalloc.allocate ~sched:(List_sched.schedule machine) kernel in
      match Schedule.validate s with Ok () -> true | Error _ -> false)

let prop_modulo_schedule_valid =
  QCheck.Test.make ~count:40 ~name:"modulo schedules of random loops validate"
    (QCheck.make synth_gen)
    (fun (l, _) ->
      match Modulo_sched.schedule machine l with
      | None -> true
      | Some s -> (
        match Schedule.validate s with Ok () -> true | Error _ -> false))

let prop_modulo_ii_at_least_mii =
  QCheck.Test.make ~count:40 ~name:"II >= max(ResMII, RecMII)"
    (QCheck.make synth_gen)
    (fun (l, _) ->
      match Modulo_sched.schedule machine l with
      | None -> true
      | Some s -> (
        match s.Schedule.kind with
        | Schedule.Pipelined { ii; _ } ->
          ii >= Modulo_sched.res_mii machine l && ii >= Modulo_sched.rec_mii machine l
        | Schedule.Straight -> false))

(* --- The rotating-register floor --- *)

(* Kernels the pipeline would hand the modulo scheduler: structured fuzz
   loops and SPEC2000 suite loops, unrolled 1..8 and cleaned by RLE, on
   every machine model — embedded2's 24-register rotating files make the
   refusal branch common. *)
let suite_loops =
  lazy
    (Suite.all_loops (Suite.spec2000 ~scale:0.03 ~seed:Config.fast.Config.seed)
    |> List.map snd |> Array.of_list)

let floor_gen =
  QCheck.Gen.(
    let* from_suite = bool in
    let* seed = 0 -- 30000 in
    let* f = 1 -- 8 in
    let* m = 0 -- (List.length Machine.all - 1) in
    let* ii = 1 -- 32 in
    let loop =
      if from_suite then
        let loops = Lazy.force suite_loops in
        loops.(seed mod Array.length loops)
      else (Fuzz.Gen.case ~seed ~id:seed ()).Fuzz.Gen.loop
    in
    let kernel = (Rle.run (Unroll.run loop f).Unroll.kernel).Rle.loop in
    return (List.nth Machine.all m, kernel, ii, seed))

let print_floor_case (m, (l : Loop.t), ii, seed) =
  Printf.sprintf "%s %s (%d ops) ii=%d seed=%d" m.Machine.mach_name l.Loop.name
    (Array.length l.Loop.body) ii seed

let over_floor m l =
  let int_floor, fp_floor = Modulo_sched.min_register_requirement l in
  int_floor > m.Machine.rot_int_regs || fp_floor > m.Machine.rot_fp_regs

let prop_register_floor =
  QCheck.Test.make ~count:300 ~name:"register_requirement >= its II-independent floor"
    (QCheck.make ~print:print_floor_case floor_gen)
    (fun (m, l, ii, seed) ->
      let graph = Deps_memo.get m l in
      let n = Array.length l.Loop.body in
      let rng = Rng.create seed in
      (* Any assignment, dependence-respecting or not. *)
      let assignment = Array.init n (fun _ -> Rng.int rng ((4 * n) + 1)) in
      let int_req, fp_req = Modulo_sched.register_requirement l graph assignment ii in
      let int_floor, fp_floor = Modulo_sched.min_register_requirement l in
      int_req >= int_floor && fp_req >= fp_floor)

let prop_floor_refusal_sound =
  QCheck.Test.make ~count:60 ~name:"a loop over the floor is refused, and no II would fit it"
    (QCheck.make ~print:print_floor_case floor_gen)
    (fun (m, l, _, _) ->
      (not (over_floor m l))
      || Modulo_sched.schedule m l = None
         &&
         (* With unbounded rotating files the search returns the first
            placement the real machine's search would check, which must
            already need more registers than the real files hold. *)
         let unbounded = { m with Machine.rot_int_regs = max_int; rot_fp_regs = max_int } in
         match Modulo_sched.schedule unbounded l with
         | None -> true
         | Some s ->
           s.Schedule.int_pressure > m.Machine.rot_int_regs
           || s.Schedule.fp_pressure > m.Machine.rot_fp_regs)

(* --- CSR-native dependence graphs --- *)

(* The loop and two successive spill rewrites of it, as the allocator's
   respill loop would reschedule them; victims are defined registers picked
   by [seed]. *)
let with_spills (l : Loop.t) seed =
  let spill (l : Loop.t) k =
    match List.filter_map (fun (op : Op.t) -> op.Op.dst) (Array.to_list l.Loop.body) with
    | [] -> l
    | regs -> Regalloc.spill_register l (List.nth regs (k mod List.length regs))
  in
  let once = spill l seed in
  [ l; once; spill once (seed / 7) ]

let prop_deps_csr_native =
  QCheck.Test.make ~count:300 ~name:"csr-native graph = reference builder"
    (QCheck.make ~print:print_floor_case floor_gen)
    (fun (m, l, _, seed) ->
      let latency = Machine.latency m in
      List.for_all
        (fun l ->
          let g = Deps.build ~latency l in
          let r = Deps_reference.to_csr (Deps_reference.build ~latency l) in
          g.Deps.csr_n = r.Deps.csr_n
          && g.Deps.n_edges = r.Deps.n_edges
          && g.Deps.e_src = r.Deps.e_src
          && g.Deps.e_dst = r.Deps.e_dst
          && g.Deps.e_kind = r.Deps.e_kind
          && g.Deps.e_lat = r.Deps.e_lat
          && g.Deps.e_dist = r.Deps.e_dist
          && g.Deps.succ_off = r.Deps.succ_off
          && g.Deps.succ_edge = r.Deps.succ_edge
          && g.Deps.pred_off = r.Deps.pred_off
          && g.Deps.pred_edge = r.Deps.pred_edge)
        (with_spills l seed))

(* [Loop.live_in_regs] as it was: registers read before any def, collected
   in a polymorphic-compare set. *)
let live_in_regs_reference (t : Loop.t) =
  let module RS = Set.Make (struct
    type t = Op.reg
    let compare = compare
  end) in
  let defined = ref RS.empty in
  let live_in = ref RS.empty in
  Array.iter
    (fun op ->
      List.iter
        (fun r -> if not (RS.mem r !defined) then live_in := RS.add r !live_in)
        (Op.uses op);
      List.iter (fun r -> defined := RS.add r !defined) (Op.defs op))
    t.Loop.body;
  RS.elements !live_in

let prop_live_in_regs =
  QCheck.Test.make ~count:300 ~name:"live_in_regs = Set reference"
    (QCheck.make ~print:print_floor_case floor_gen)
    (fun (_, l, _, seed) ->
      List.for_all
        (fun l -> Loop.live_in_regs l = live_in_regs_reference l)
        (with_spills l seed))

(* --- First fit without probing --- *)

(* The list scheduler as it was before skip pointers: same priorities, but
   each op probes cycle by cycle from its earliest start until its unit is
   free for its whole occupancy and the issue cycle has spare width. *)
let linear_probe_assignment m (l : Loop.t) =
  let body = l.Loop.body in
  let n = Array.length body in
  let edges =
    List.filter
      (fun e -> e.Deps_reference.distance = 0)
      (Deps_reference.edges_of_csr (Deps_memo.build m l))
  in
  let height = Array.make n 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (e : Deps_reference.edge) ->
        let h = height.(e.dst) + e.latency in
        if h > height.(e.src) then begin
          height.(e.src) <- h;
          changed := true
        end)
      edges
  done;
  let preds = Array.make n 0 in
  List.iter (fun (e : Deps_reference.edge) -> preds.(e.dst) <- preds.(e.dst) + 1) edges;
  let used = Hashtbl.create 64 in
  let get c slot = Option.value ~default:0 (Hashtbl.find_opt used (c, slot)) in
  let bump c slot = Hashtbl.replace used (c, slot) (get c slot + 1) in
  let slot op =
    match Machine.unit_of op with Machine.M -> 0 | Machine.I -> 1 | Machine.F -> 2 | Machine.B -> 3
  in
  let avail = [| m.Machine.m_units; m.Machine.i_units; m.Machine.f_units; m.Machine.b_units |] in
  let occ (op : Op.t) =
    match op.Op.opcode with
    | Op.Fdiv when m.Machine.fdiv_unpipelined -> m.Machine.lat_fdiv
    | _ -> 1
  in
  let fits op c =
    get c 4 < m.Machine.issue_width
    && List.for_all (fun d -> get (c + d) (slot op) < avail.(slot op)) (List.init (occ op) Fun.id)
  in
  let earliest = Array.make n 0 and time = Array.make n (-1) in
  let ready = ref (List.filter (fun v -> preds.(v) = 0) (List.init n Fun.id)) in
  for _ = 1 to n do
    let v =
      List.fold_left
        (fun b u -> if height.(u) > height.(b) || (height.(u) = height.(b) && u < b) then u else b)
        (List.hd !ready) !ready
    in
    ready := List.filter (( <> ) v) !ready;
    let c = ref earliest.(v) in
    while not (fits body.(v) !c) do incr c done;
    List.iter (fun d -> bump (!c + d) (slot body.(v))) (List.init (occ body.(v)) Fun.id);
    bump !c 4;
    time.(v) <- !c;
    List.iter
      (fun (e : Deps_reference.edge) ->
        if e.src = v then begin
          let d = e.dst in
          earliest.(d) <- max earliest.(d) (!c + e.latency);
          preds.(d) <- preds.(d) - 1;
          if preds.(d) = 0 then ready := d :: !ready
        end)
      edges
  done;
  time

let prop_list_sched_first_fit =
  QCheck.Test.make ~count:200 ~name:"list schedule = linear-probe first fit"
    (QCheck.make ~print:print_floor_case floor_gen)
    (fun (m, l, _, _) -> (List_sched.schedule m l).Schedule.assignment = linear_probe_assignment m l)

let test_list_sched_first_fit_kernels () =
  (* Every kernel, including the divides that block itanium2's unpipelined
     FP unit for 24 cycles. *)
  List.iter
    (fun m ->
      List.iter
        (fun (name, loop) ->
          List.iter
            (fun f ->
              let k = (Unroll.run loop f).Unroll.kernel in
              if (List_sched.schedule m k).Schedule.assignment <> linear_probe_assignment m k then
                Alcotest.failf "%s x%d on %s" name f m.Machine.mach_name)
            [ 1; 3; 8 ])
        kernels_for_test)
    Machine.all

let test_floor_refusal_counted () =
  let m = Machine.embedded2 in
  let l = (Unroll.run (Kernels.fir8 ~name:"m_floor" ~trip:64) 8).Unroll.kernel in
  Alcotest.(check bool) "fir8 x8 is over embedded2's floor" true (over_floor m l);
  let count name = Telemetry.counter Telemetry.global ~pass:"modulo-sched" name in
  let attempts = count "attempts" and refused = count "refused-regs" in
  Alcotest.(check bool) "refused" true (Modulo_sched.schedule m l = None);
  Alcotest.(check bool) "ddot pipelines" true
    (Modulo_sched.schedule m (Kernels.ddot ~name:"m_floor_ddot" ~trip:64) <> None);
  Alcotest.(check int) "attempts counted" (attempts + 2) (count "attempts");
  Alcotest.(check int) "one refusal counted" (refused + 1) (count "refused-regs")

let suite =
  [
    ("list sched validates", `Quick, test_list_sched_validates);
    ("list sched res bound", `Quick, test_list_sched_respects_res_bound);
    ("list sched backedge last", `Quick, test_list_sched_backedge_last);
    ("list sched latency", `Quick, test_list_sched_latency_respected);
    ("list sched unrolled", `Quick, test_list_sched_unrolled_validates);
    ("list sched amortizes", `Quick, test_list_sched_amortizes);
    ("mii ddot", `Quick, test_mii_ddot);
    ("mii daxpy resource", `Quick, test_mii_daxpy_resource);
    ("modulo achieves mii", `Quick, test_modulo_achieves_mii_ddot);
    ("modulo validates", `Quick, test_modulo_validates);
    ("modulo refuses calls/exits", `Quick, test_modulo_refuses_calls_exits);
    ("modulo beats straight", `Quick, test_modulo_beats_straight_ddot);
    ("modulo pressure backoff", `Quick, test_modulo_register_pressure_backoff);
    ("regalloc pressure", `Quick, test_pressure_positive);
    ("regalloc limits or spills", `Quick, test_allocate_within_limits_or_spills);
    ("regalloc spill code", `Quick, test_spill_code_inserted);
    ("regalloc lowers pressure", `Quick, test_spill_lowers_pressure);
    QCheck_alcotest.to_alcotest prop_list_schedule_valid;
    QCheck_alcotest.to_alcotest prop_modulo_schedule_valid;
    QCheck_alcotest.to_alcotest prop_modulo_ii_at_least_mii;
    QCheck_alcotest.to_alcotest prop_register_floor;
    QCheck_alcotest.to_alcotest prop_floor_refusal_sound;
    QCheck_alcotest.to_alcotest prop_deps_csr_native;
    QCheck_alcotest.to_alcotest prop_live_in_regs;
    ("modulo floor refusal counted", `Quick, test_floor_refusal_counted);
    QCheck_alcotest.to_alcotest prop_list_sched_first_fit;
    ("list sched first fit on kernels", `Quick, test_list_sched_first_fit_kernels);
  ]
