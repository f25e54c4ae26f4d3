let min_cycles_filter = 50_000

let noisy_median ~rng ~noise ~runs f =
  let exact = f () in
  if noise <= 0.0 || runs <= 1 then exact
  else begin
    let samples =
      Array.init runs (fun _ ->
          let factor = 1.0 +. (noise *. Rng.gaussian rng) in
          let factor = Float.max 0.5 factor in
          float_of_int exact *. factor)
    in
    int_of_float (Float.round (Stats.median samples))
  end

let warm_run ?max_sim_iters machine exe =
  let state = Simulator.create_state machine in
  (* Warm-up run: the paper measures loops inside live processes, so
     steady-state measurements see warm caches. *)
  ignore (Simulator.run_profiled ?max_sim_iters state exe);
  Simulator.run_profiled ?max_sim_iters state exe

let sweep ?(noise = 0.015) ?(runs = 30) ?max_sim_iters ?(cache = Compile_cache.global)
    ~rng ~machine ~swp loop =
  Array.init Unroll.max_factor (fun i ->
      let u = i + 1 in
      let key = Compile_cache.key ~machine ~swp ~factor:u loop in
      let exact =
        (* Simulation is deterministic given the loop content, factor and
           machine, so the warm steady-state cycle count is memoised;
           measurement noise is applied after the lookup, from the caller's
           RNG, so warm and cold runs observe identical distributions.  The
           executable is not: a repeat is answered by the cycles memo
           before it could be read, so it dies with this factor. *)
        match Compile_cache.find_cycles cache key ~max_sim_iters with
        | Some cycles -> cycles
        | None ->
          let exe =
            Pipeline_state.executable_exn
              (Pipeline.run (Pipeline_state.init machine ~swp loop u))
          in
          let cycles = fst (warm_run ?max_sim_iters machine exe) in
          Compile_cache.store_cycles cache key ~max_sim_iters cycles;
          cycles
      in
      noisy_median ~rng ~noise ~runs (fun () -> exact))
