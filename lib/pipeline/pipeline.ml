type pass = {
  pass_name : string;
  transform : Pipeline_state.state -> Pipeline_state.state * (string * int) list;
}

let unrolled_exn (st : Pipeline_state.state) =
  match st.Pipeline_state.unrolled with
  | Some u -> u
  | None -> invalid_arg "Pipeline: unroll pass has not run"

let kernel_sched_exn (st : Pipeline_state.state) =
  match st.Pipeline_state.kernel_sched with
  | Some s -> s
  | None -> invalid_arg "Pipeline: schedule pass has not run"

(* Scheduling strategy for this compile: modulo scheduling with list
   fallback when software pipelining is requested, plain list scheduling
   otherwise.  Both the schedule pass and the allocator's respill loop use
   the same function.  Each call builds the loop's dependence graph once,
   shared by the modulo attempt and its fallback (and not built at all
   before a refusal), and hands it over: the resulting [Schedule.t] owns
   it, so no graph outlives the compile that needed it. *)
let sched_fn (st : Pipeline_state.state) =
  let machine = st.Pipeline_state.machine in
  if st.Pipeline_state.swp then fun l ->
    let graph = lazy (Deps_memo.build machine l) in
    (match Modulo_sched.schedule ~graph machine l with
    | Some s -> s
    | None -> List_sched.schedule ~graph:(Lazy.force graph) machine l)
  else List_sched.schedule machine

let unroll_pass =
  {
    pass_name = "unroll";
    transform =
      (fun st ->
        let u = Unroll.run st.Pipeline_state.source st.Pipeline_state.factor in
        let metrics =
          [
            ("kernel-ops", Array.length u.Unroll.kernel.Loop.body);
            ("remainders", match u.Unroll.remainder with Some _ -> 1 | None -> 0);
            ("code-bytes", u.Unroll.code_bytes);
          ]
        in
        ({ st with Pipeline_state.unrolled = Some u }, metrics));
  }

let rle_pass =
  {
    pass_name = "rle";
    transform =
      (fun st ->
        let u = unrolled_exn st in
        let before = Array.length u.Unroll.kernel.Loop.body in
        let r = Rle.run u.Unroll.kernel in
        let u = { u with Unroll.kernel = r.Rle.loop } in
        let metrics =
          [
            ("loads-eliminated", r.Rle.loads_eliminated);
            ("stores-eliminated", r.Rle.stores_eliminated);
            ("ops-removed", before - Array.length r.Rle.loop.Loop.body);
          ]
        in
        ({ st with Pipeline_state.unrolled = Some u }, metrics));
  }

let schedule_pass =
  {
    pass_name = "schedule";
    transform =
      (fun st ->
        let u = unrolled_exn st in
        let sched = sched_fn st in
        let kernel_sched = sched u.Unroll.kernel in
        let remainder_sched = Option.map sched u.Unroll.remainder in
        let metrics =
          [
            ("kernel-len", kernel_sched.Schedule.length);
            ( "kernel-ii",
              match kernel_sched.Schedule.kind with
              | Schedule.Pipelined { ii; _ } -> ii
              | Schedule.Straight -> 0 );
            ( "modulo-fallbacks",
              if
                st.Pipeline_state.swp
                && kernel_sched.Schedule.kind = Schedule.Straight
              then 1
              else 0 );
          ]
        in
        ( { st with Pipeline_state.kernel_sched = Some kernel_sched; remainder_sched },
          metrics ));
  }

let regalloc_pass =
  {
    pass_name = "regalloc";
    transform =
      (fun st ->
        let sched = sched_fn st in
        let kernel_sched = Regalloc.allocate_from ~sched (kernel_sched_exn st) in
        let remainder_sched =
          Option.map (Regalloc.allocate_from ~sched) st.Pipeline_state.remainder_sched
        in
        let spills =
          kernel_sched.Schedule.spills
          + (match remainder_sched with Some s -> s.Schedule.spills | None -> 0)
        in
        let metrics =
          [
            ("spills", spills);
            ("int-pressure", kernel_sched.Schedule.int_pressure);
            ("fp-pressure", kernel_sched.Schedule.fp_pressure);
          ]
        in
        ( { st with Pipeline_state.kernel_sched = Some kernel_sched; remainder_sched },
          metrics ));
  }

(* Test-only: reintroduces the historical phantom-iteration bug where a
   zero-trip loop was assembled as if it ran once ([effective_trips]
   clamps to >= 1 even with no iteration to run; fixed after fuzzing
   caught it).  The translation validator's refutation tests re-enable
   it to prove they would catch it. *)
let testing_phantom_trips = ref false

(* Expected iterations before a geometric early exit fires, capped at the
   trip count. *)
let effective_trips trip p =
  if p <= 0.0 then trip
  else begin
    let t = float_of_int trip in
    let expected = (1.0 -. ((1.0 -. p) ** t)) /. p in
    max 1 (min trip (int_of_float (Float.round expected)))
  end

let assemble_pass =
  {
    pass_name = "assemble";
    transform =
      (fun st ->
        let u = unrolled_exn st in
        let machine = st.Pipeline_state.machine in
        let outer_trip = st.Pipeline_state.source.Loop.outer_trip in
        let exit_prob = st.Pipeline_state.source.Loop.exit_prob in
        let trip = (u.Unroll.kernel_trips * u.Unroll.factor) + u.Unroll.remainder_trips in
        (* A zero-trip loop executes nothing: [effective_trips] clamps to at
           least one iteration (a geometric exit always fires eventually),
           which is right only when there is an iteration to run.  Without
           this guard a trip-0 loop compiled at factor 1 executed once. *)
        let eff =
          if !testing_phantom_trips then effective_trips (max trip 1) exit_prob
          else if trip = 0 then 0
          else effective_trips trip exit_prob
        in
        let kernel_trips =
          if exit_prob > 0.0 then
            (* An exit mid-kernel still executes (and wastes) the whole
               unrolled iteration it fired in. *)
            (eff + u.Unroll.factor - 1) / u.Unroll.factor
          else eff / u.Unroll.factor
        in
        let remainder_trips =
          if exit_prob > 0.0 then 0
          else
            match u.Unroll.remainder with
            | Some _ -> eff mod u.Unroll.factor
            | None -> 0
        in
        let kernel_sched = kernel_sched_exn st in
        let rem =
          match st.Pipeline_state.remainder_sched with
          | Some r -> [ (r, remainder_trips, kernel_trips * u.Unroll.factor) ]
          | None -> []
        in
        let entry_extra_cycles =
          (* Loop setup: computing the kernel trip count and dispatching
             between kernel and remainder costs a few cycles per entry once
             unrolled. *)
          4
          + (if u.Unroll.factor > 1 then 4 else 0)
          + (match u.Unroll.remainder with Some _ -> 6 | None -> 0)
          + (if exit_prob > 0.0 then machine.Machine.mispredict_cost else 0)
        in
        let total_spills =
          List.fold_left
            (fun acc (s, _, _) -> acc + s.Schedule.spills)
            0
            ((kernel_sched, 0, 0) :: rem)
        in
        let exe =
          {
            Pipeline_state.schedules = (kernel_sched, kernel_trips, 0) :: rem;
            unroll_factor = u.Unroll.factor;
            total_code_bytes = u.Unroll.code_bytes;
            outer_trip;
            exit_prob;
            entry_extra_cycles;
            total_spills;
          }
        in
        let metrics =
          [
            ("code-bytes", exe.Pipeline_state.total_code_bytes);
            ("entry-cycles", entry_extra_cycles);
            ("spills", total_spills);
          ]
        in
        ({ st with Pipeline_state.exe = Some exe }, metrics));
  }

let default_passes = [ unroll_pass; rle_pass; schedule_pass; regalloc_pass; assemble_pass ]
let pass_names = List.map (fun p -> p.pass_name) default_passes

let run ?(telemetry = Telemetry.global) ?(passes = default_passes) st =
  List.fold_left
    (fun st p ->
      let t0 = Unix.gettimeofday () in
      let st, metrics = p.transform st in
      Telemetry.record telemetry ~pass:p.pass_name
        ~seconds:(Unix.gettimeofday () -. t0)
        ~metrics ();
      st)
    st passes

let compile ?(cache = Compile_cache.global) ?telemetry machine ~swp loop factor =
  let key = Compile_cache.key ~machine ~swp ~factor loop in
  match Compile_cache.find_exe cache key with
  | Some exe -> exe
  | None ->
    let st = run ?telemetry (Pipeline_state.init machine ~swp loop factor) in
    let exe = Pipeline_state.executable_exn st in
    Compile_cache.store_exe cache key exe;
    exe
