let chunks ~trip ~outer ~strip =
  if strip <= 0 || outer <= 0 then invalid_arg "Strip_mine.chunks";
  let rec tiles phase acc =
    if phase >= trip then List.rev acc
    else begin
      let len = min strip (trip - phase) in
      tiles (phase + strip) ((len, phase) :: acc)
    end
  in
  let per_tile = tiles 0 [] in
  (* Tile-major: all outer repetitions of a strip, then the next strip. *)
  List.concat_map (fun chunk -> List.init outer (fun _ -> chunk)) per_tile

let executable machine ~swp (loop : Loop.t) ~strip ~unroll =
  let exe = Pipeline.compile machine ~swp loop unroll in
  (* The compiled kernel covers [unroll] original iterations per trip; the
     remainder covers one.  Re-plan the traversal tile by tile, reusing the
     kernel schedule for the divisible part of each strip and the remainder
     schedule (or the kernel at factor 1) for the tail. *)
  let kernel_sched, remainder_sched =
    match exe.Simulator.schedules with
    | [ (k, _, _) ] -> (k, None)
    | [ (k, _, _); (r, _, _) ] -> (k, Some r)
    | _ -> invalid_arg "Strip_mine.executable: unexpected schedule shape"
  in
  let fallback_sched =
    match remainder_sched with
    | Some r -> r
    | None ->
      (* strips not divisible by the unroll factor need a rolled tail even
         when the whole trip was divisible *)
      (match (Pipeline.compile machine ~swp loop 1).Simulator.schedules with
      | (s, _, _) :: _ -> s
      | [] -> assert false)
  in
  let schedules =
    chunks ~trip:loop.Loop.trip_actual ~outer:loop.Loop.outer_trip ~strip
    |> List.concat_map (fun (len, phase) ->
           (* The unrolled kernel's scaled references demand a phase that is
              a multiple of the factor; a rolled head chunk aligns it. *)
           let head = min len ((unroll - (phase mod unroll)) mod unroll) in
           let kernel_trips = (len - head) / unroll in
           let tail = len - head - (kernel_trips * unroll) in
           let head_part = if head > 0 then [ (fallback_sched, head, phase) ] else [] in
           let kernel_part =
             if kernel_trips > 0 then
               [ (kernel_sched, kernel_trips, (phase + head) / unroll) ]
             else []
           in
           let tail_part =
             if tail > 0 then
               [ (fallback_sched, tail, phase + head + (kernel_trips * unroll)) ]
             else []
           in
           head_part @ kernel_part @ tail_part)
  in
  (* The tiled nest dispatches once per chunk: each strip costs the loop
     setup the plain nest paid once per entry, which is what puts the left
     wall on the strip-size U-curve. *)
  let n_chunks = List.length schedules in
  {
    exe with
    Simulator.schedules;
    outer_trip = 1;
    entry_extra_cycles = exe.Simulator.entry_extra_cycles * max n_chunks 1;
  }

let best_strip machine ~swp loop ~candidates ~unroll =
  let best = ref (0, max_int) in
  List.iter
    (fun strip ->
      let cycles, _ = Measure.warm_run machine (executable machine ~swp loop ~strip ~unroll) in
      if cycles < snd !best then best := (strip, cycles))
    candidates;
  !best
