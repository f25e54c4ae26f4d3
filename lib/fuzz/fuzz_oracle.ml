type outcome = {
  checked : string list;
  violations : (string * string) list;
  digest : (string * string) option;
}

(* --- helpers shared with the test suites -------------------------------- *)

let spill_ranges (exe : Pipeline_state.executable) =
  List.filter_map
    (fun ((s : Schedule.t), _, _) ->
      Array.find_opt
        (fun (a : Loop.array_info) -> a.Loop.aname = Regalloc.spill_array_name)
        s.Schedule.loop.Loop.arrays
      |> Option.map (fun (a : Loop.array_info) ->
             (a.Loop.base, a.Loop.base + (a.Loop.elem_size * a.Loop.length))))
    exe.Pipeline_state.schedules

let run_exe st (exe : Pipeline_state.executable) =
  (* Kernel then remainder, like Interp.run_unrolled: the remainder is
     skipped when the kernel fired an early exit. *)
  let exited = ref false in
  List.iter
    (fun ((s : Schedule.t), trips, phase) ->
      if (not !exited) && trips > 0 then begin
        let out = Interp.run st s.Schedule.loop ~trips ~phase in
        if out.Interp.exited_early then exited := true
      end)
    exe.Pipeline_state.schedules

let equivalent_modulo_spills exe st_orig st_new live_out =
  let ranges = spill_ranges exe in
  let keep (addr, _) =
    not (List.exists (fun (lo, hi) -> addr >= lo && addr < hi) ranges)
  in
  List.filter keep (Interp.memory_image st_orig)
  = List.filter keep (Interp.memory_image st_new)
  && List.for_all
       (fun r -> Interp.register_value st_orig r = Interp.register_value st_new r)
       live_out

let structurally_equal (a : Loop.t) (b : Loop.t) =
  let sig_of (l : Loop.t) =
    ( Array.map
        (fun (op : Op.t) ->
          ( op.Op.opcode,
            Option.map (fun (r : Op.reg) -> r.Op.cls) op.Op.dst,
            List.length op.Op.srcs,
            op.Op.pred <> None ))
        l.Loop.body,
      Array.map
        (fun (x : Loop.array_info) -> (x.Loop.aname, x.Loop.elem_size, x.Loop.length))
        l.Loop.arrays,
      l.Loop.nest_level,
      l.Loop.lang,
      l.Loop.trip_static,
      l.Loop.trip_actual,
      l.Loop.aliased,
      l.Loop.outer_trip,
      List.length l.Loop.live_out )
  in
  sig_of a = sig_of b

(* --- oracle naming ------------------------------------------------------ *)

let pipeline_oracle_name ~swp ~rle =
  Printf.sprintf "pipeline-interp[%s,%s]"
    (if swp then "swp" else "list")
    (if rle then "rle" else "norle")

let oracle_names =
  [
    "unroll-interp";
    "rle-interp";
    pipeline_oracle_name ~swp:false ~rle:true;
    pipeline_oracle_name ~swp:false ~rle:false;
    pipeline_oracle_name ~swp:true ~rle:true;
    pipeline_oracle_name ~swp:true ~rle:false;
    "pipeline-interp[noregalloc]";
    "sim-fast-vs-ref";
    "cache-roundtrip";
    "text-roundtrip";
    "artifact-predict";
    "verify-symbolic";
  ]

let oracles_for ~id =
  (* swp/rle must mirror Fuzz_gen.case's coordinate cycling *)
  let swp = id land 1 = 1 and rle = id land 2 = 0 in
  [ "unroll-interp"; "rle-interp"; pipeline_oracle_name ~swp ~rle; "text-roundtrip" ]
  @ (if id mod 3 = 0 then [ "pipeline-interp[noregalloc]" ] else [])
  @ (if id mod 4 = 0 then [ "cache-roundtrip" ] else [])
  @ (if id mod 4 = 1 then [ "sim-fast-vs-ref" ] else [])
  @ (if id mod 4 = 2 then [ "artifact-predict" ] else [])
  @ if id mod 4 = 3 then [ "verify-symbolic" ] else []

(* --- the oracles -------------------------------------------------------- *)

let baseline (loop : Loop.t) =
  let st = Interp.fresh_state () in
  ignore (Interp.run st loop ~trips:loop.Loop.trip_actual ~phase:0);
  st

let check_unroll (c : Fuzz_gen.case) =
  let st0 = baseline c.Fuzz_gen.loop in
  let u = Unroll.run c.Fuzz_gen.loop c.Fuzz_gen.factor in
  let st1 = Interp.fresh_state () in
  ignore (Interp.run_unrolled st1 u);
  if Interp.equivalent st0 st1 c.Fuzz_gen.loop.Loop.live_out then None
  else Some (Printf.sprintf "unroll x%d diverges from interp baseline" c.Fuzz_gen.factor)

let check_rle (c : Fuzz_gen.case) =
  let st0 = baseline c.Fuzz_gen.loop in
  let u = Unroll.run c.Fuzz_gen.loop c.Fuzz_gen.factor in
  let r = Rle.run u.Unroll.kernel in
  let u = { u with Unroll.kernel = r.Rle.loop } in
  let st1 = Interp.fresh_state () in
  ignore (Interp.run_unrolled st1 u);
  if Interp.equivalent st0 st1 c.Fuzz_gen.loop.Loop.live_out then None
  else
    Some
      (Printf.sprintf "rle after unroll x%d diverges (%d loads, %d stores eliminated)"
         c.Fuzz_gen.factor r.Rle.loads_eliminated r.Rle.stores_eliminated)

let passes_without names =
  List.filter (fun p -> not (List.mem p.Pipeline.pass_name names)) Pipeline.default_passes

let compile_with ~passes (c : Fuzz_gen.case) ~swp =
  let st = Pipeline_state.init c.Fuzz_gen.machine ~swp c.Fuzz_gen.loop c.Fuzz_gen.factor in
  let st = Pipeline.run ~telemetry:(Telemetry.create ()) ~passes st in
  Pipeline_state.executable_exn st

let check_compiled (c : Fuzz_gen.case) exe =
  let st0 = baseline c.Fuzz_gen.loop in
  let st1 = Interp.fresh_state () in
  run_exe st1 exe;
  if equivalent_modulo_spills exe st0 st1 c.Fuzz_gen.loop.Loop.live_out then None
  else
    Some
      (Printf.sprintf "compiled loop diverges (machine %s, factor %d)"
         c.Fuzz_gen.machine.Machine.mach_name c.Fuzz_gen.factor)

let check_pipeline (c : Fuzz_gen.case) ~swp ~rle =
  let passes = if rle then Pipeline.default_passes else passes_without [ "rle" ] in
  check_compiled c (compile_with ~passes c ~swp)

let check_noregalloc (c : Fuzz_gen.case) =
  check_compiled c (compile_with ~passes:(passes_without [ "regalloc" ]) c ~swp:c.Fuzz_gen.swp)

let sim_iters = [| 40; 75; 200 |]

let check_sim (c : Fuzz_gen.case) =
  (* Semantics are trip-exact already; here only cycle accounting is on
     trial, so bound the nest re-entry count to keep the reference
     simulator affordable. *)
  let loop =
    { c.Fuzz_gen.loop with Loop.outer_trip = min c.Fuzz_gen.loop.Loop.outer_trip 256 }
  in
  let exe =
    Pipeline.compile
      ~cache:(Compile_cache.create ())
      ~telemetry:(Telemetry.create ()) c.Fuzz_gen.machine ~swp:c.Fuzz_gen.swp loop
      c.Fuzz_gen.factor
  in
  let iters = sim_iters.(c.Fuzz_gen.id mod Array.length sim_iters) in
  let fast =
    let st = Simulator.create_state c.Fuzz_gen.machine in
    let c1, s1 = Simulator.run_profiled ~max_sim_iters:iters st exe in
    let c2, s2 = Simulator.run_profiled ~max_sim_iters:iters st exe in
    ( (c1, (s1.Simulator.issue_cycles, s1.Simulator.data_stall_cycles,
            s1.Simulator.fetch_stall_cycles, s1.Simulator.branch_cycles,
            s1.Simulator.entry_overhead_cycles, s1.Simulator.pipeline_fill_cycles)),
      (c2, (s2.Simulator.issue_cycles, s2.Simulator.data_stall_cycles,
            s2.Simulator.fetch_stall_cycles, s2.Simulator.branch_cycles,
            s2.Simulator.entry_overhead_cycles, s2.Simulator.pipeline_fill_cycles)) )
  in
  let reference =
    let st = Sim_reference.create_state c.Fuzz_gen.machine in
    let c1, s1 = Sim_reference.run_profiled ~max_sim_iters:iters st exe in
    let c2, s2 = Sim_reference.run_profiled ~max_sim_iters:iters st exe in
    ( (c1, (s1.Sim_reference.issue_cycles, s1.Sim_reference.data_stall_cycles,
            s1.Sim_reference.fetch_stall_cycles, s1.Sim_reference.branch_cycles,
            s1.Sim_reference.entry_overhead_cycles, s1.Sim_reference.pipeline_fill_cycles)),
      (c2, (s2.Sim_reference.issue_cycles, s2.Sim_reference.data_stall_cycles,
            s2.Sim_reference.fetch_stall_cycles, s2.Sim_reference.branch_cycles,
            s2.Sim_reference.entry_overhead_cycles, s2.Sim_reference.pipeline_fill_cycles)) )
  in
  if fast = reference then None
  else
    let (f1, _), _ = fast and (r1, _), _ = reference in
    Some
      (Printf.sprintf "fast simulator %d cycles, reference %d (window %d)" f1 r1 iters)

let canonical_content (c : Fuzz_gen.case) =
  Printf.sprintf "%s|swp=%b|factor=%d|%s" c.Fuzz_gen.machine.Machine.mach_name
    c.Fuzz_gen.swp c.Fuzz_gen.factor
    (Loop_text.to_string { c.Fuzz_gen.loop with Loop.name = "_" })

let cache_key (c : Fuzz_gen.case) =
  Compile_cache.key ~machine:c.Fuzz_gen.machine ~swp:c.Fuzz_gen.swp
    ~factor:c.Fuzz_gen.factor c.Fuzz_gen.loop

let check_cache (c : Fuzz_gen.case) =
  let compile cache =
    Pipeline.compile ~cache ~telemetry:(Telemetry.create ()) c.Fuzz_gen.machine
      ~swp:c.Fuzz_gen.swp c.Fuzz_gen.loop c.Fuzz_gen.factor
  in
  let cold = compile (Compile_cache.create ~exe_capacity:0 ~cycles_capacity:0 ()) in
  let shared = Compile_cache.create () in
  ignore (compile shared);
  let hit_before = Compile_cache.hits shared in
  let warm = compile shared in
  if Compile_cache.hits shared <= hit_before then Some "warm compile did not hit the cache"
  else if cold <> warm then Some "cache hit differs from cold compile"
  else None

let check_text_semantics (loop : Loop.t) (l2 : Loop.t) =
  if loop.Loop.body = l2.Loop.body then begin
    (* Register ids survived the round trip (no gaps from unused regs), so
       the interpreter's id-keyed initial values line up and full semantic
       equality must hold too. *)
    let st1 = baseline loop and st2 = baseline l2 in
    if Interp.equivalent st1 st2 loop.Loop.live_out then None
    else Some "parse(print) structurally equal but semantically different"
  end
  else None

let check_text (c : Fuzz_gen.case) =
  let loop = c.Fuzz_gen.loop in
  let text = Loop_text.to_string loop in
  match Loop_text.parse text with
  | Error e -> Some ("reprint does not parse: " ^ e)
  | Ok l2 ->
    (* Parsing renumbers registers in textual occurrence order, so the
       first print may not be literally reproduced; the renumbered form,
       however, must be a true fixed point of parse ∘ print. *)
    let normal = Loop_text.to_string l2 in
    if not (structurally_equal loop l2) then Some "parse(print) not structurally equal"
    else begin
      match Loop_text.parse normal with
      | Error e -> Some ("normal form does not re-parse: " ^ e)
      | Ok l3 ->
        if Loop_text.to_string l3 <> normal then
          Some "normal form is not a print fixed point"
        else check_text_semantics loop l2
    end

(* --- artifact round-trip oracle -----------------------------------------

   Fixture predictors, one per learner, trained once per machine on the
   built-in kernels with synthetic labels (i mod 8 — the oracle judges
   serialisation and the serving path, not prediction quality), serialised
   to text, then compared along two routes: the in-compiler path
   (Predictor.of_artifact on the original artifact) and the serving path
   (Predict_service on the artifact re-parsed from text).  Any disagreement means the text format or the
   batched matrix path changed a bit somewhere. *)

let artifact_fixtures : (string, (string * string) list) Hashtbl.t = Hashtbl.create 4
let artifact_mutex = Mutex.create ()

let fixture_config machine = { Config.fast with Config.machine }

let fixture_texts machine =
  Mutex.protect artifact_mutex (fun () ->
      match Hashtbl.find_opt artifact_fixtures machine.Machine.mach_name with
      | Some t -> t
      | None ->
        let config = fixture_config machine in
        let examples =
          List.mapi
            (fun i (name, maker) ->
              let loop = maker ~name ~trip:256 in
              {
                Dataset.features = Features.extract machine loop;
                label = i mod Unroll.max_factor;
                tag = name;
                group = "fuzz-fixture";
                costs = Array.make Unroll.max_factor 0.;
              })
            Kernels.all
        in
        let ds =
          Dataset.create ~feature_names:Features.names ~n_classes:Unroll.max_factor examples
        in
        let features = Array.init 12 (fun i -> i * 3) in
        let dataset_digest = Dataset.digest ds in
        let t =
          List.map
            (fun l ->
              let a = Predictor.to_artifact config ~dataset_digest (Predictor.fit l config ~features ds) in
              (Learner.name l, Model_artifact.to_string a))
            Learner.all
        in
        Hashtbl.replace artifact_fixtures machine.Machine.mach_name t;
        t)

let check_artifact (c : Fuzz_gen.case) =
  let machine = c.Fuzz_gen.machine in
  let config = fixture_config machine in
  let loop = c.Fuzz_gen.loop in
  let check_one (kind, text) =
    match Model_artifact.of_string text with
    | Error e -> Some (Printf.sprintf "%s artifact does not re-parse: %s" kind e)
    | Ok a ->
      if Model_artifact.to_string a <> text then
        Some (kind ^ " artifact is not a print fixed point")
      else begin
        match Predictor.of_artifact a with
        | Error e -> Some (Printf.sprintf "%s of_artifact: %s" kind e)
        | Ok p -> begin
          match Predict_service.create config a with
          | Error e -> Some (Printf.sprintf "%s predict service: %s" kind e)
          | Ok service ->
            let direct = Predictor.predict p config ~swp:c.Fuzz_gen.swp loop in
            let batch = Predict_service.predict_batch service [ loop; loop ] in
            let single = Predict_service.predict service loop in
            if batch.(0) <> direct || batch.(1) <> direct || single <> direct then
              Some
                (Printf.sprintf "%s service predicts %d/%d/%d, in-compiler path %d" kind
                   batch.(0) batch.(1) single direct)
            else if Loop.unrollable loop && Predict_service.cache_hits service < 2 then
              Some (kind ^ " vector cache never hit on a repeated loop")
            else None
        end
      end
  in
  List.find_map check_one (fixture_texts machine)

(* --- bounded translation validation oracle ------------------------------

   The symbolic prover at the case's own swp×rle coordinate.  Only a
   Refuted verdict — a concrete (trip, location) counterexample — is a
   violation; Unknown means the normalizer could not close the proof,
   which is incompleteness, not evidence of a bug (the interp oracles
   above still cover the case concretely). *)

let check_verify (c : Fuzz_gen.case) =
  let report =
    Verify_validate.verify_case
      ~coords:[ (c.Fuzz_gen.swp, c.Fuzz_gen.rle) ]
      ~machine:c.Fuzz_gen.machine c.Fuzz_gen.loop ~factor:c.Fuzz_gen.factor
  in
  List.find_map
    (fun (ch : Verify_validate.check) ->
      match ch.Verify_validate.verdict with
      | Verify_validate.Refuted _ ->
        Some
          (Printf.sprintf "%s %s" ch.Verify_validate.check_name
             (Verify_validate.verdict_to_string ch.Verify_validate.verdict))
      | Verify_validate.Proved | Verify_validate.Unknown _ -> None)
    report.Verify_validate.checks

let check (c : Fuzz_gen.case) ~oracle =
  let f =
    match oracle with
    | "unroll-interp" -> check_unroll
    | "rle-interp" -> check_rle
    | "pipeline-interp[list,rle]" -> fun c -> check_pipeline c ~swp:false ~rle:true
    | "pipeline-interp[list,norle]" -> fun c -> check_pipeline c ~swp:false ~rle:false
    | "pipeline-interp[swp,rle]" -> fun c -> check_pipeline c ~swp:true ~rle:true
    | "pipeline-interp[swp,norle]" -> fun c -> check_pipeline c ~swp:true ~rle:false
    | "pipeline-interp[noregalloc]" -> check_noregalloc
    | "sim-fast-vs-ref" -> check_sim
    | "cache-roundtrip" -> check_cache
    | "text-roundtrip" -> check_text
    | "artifact-predict" -> check_artifact
    | "verify-symbolic" -> check_verify
    | other -> invalid_arg ("Fuzz_oracle.check: unknown oracle " ^ other)
  in
  try f c
  with e -> Some ("exception: " ^ Printexc.to_string e)

let run_case (c : Fuzz_gen.case) =
  let checked = oracles_for ~id:c.Fuzz_gen.id in
  let violations =
    List.filter_map
      (fun oracle -> Option.map (fun d -> (oracle, d)) (check c ~oracle))
      checked
  in
  let digest =
    if List.mem "cache-roundtrip" checked then Some (cache_key c, canonical_content c)
    else None
  in
  { checked; violations; digest }
