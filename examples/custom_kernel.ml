(* Custom kernel walk-through: a 2D 5-point stencil row sweep, compiled at
   every unroll factor in both pipeline modes, showing exactly where the
   performance comes from — schedule length, software-pipelined II,
   spills, code growth, cache behaviour.

   Run with: dune exec examples/custom_kernel.exe *)

let build_stencil_row ~trip =
  let b =
    Builder.create ~lang:Loop.Fortran ~name:"stencil5_row" ~trip ~nest_level:2
      ~outer_trip:64 ()
  in
  let grid = Builder.add_array b ~length:(3 * (trip + 16)) "grid" in
  let out = Builder.add_array b ~length:(trip + 16) "out" in
  let c = Builder.freg b in
  (* north / west / centre / east / south of a row-major 2D grid *)
  let w = Builder.load b ~cls:Op.Flt ~array:grid ~stride:1 ~offset:(trip + 15) () in
  let ctr = Builder.load b ~cls:Op.Flt ~array:grid ~stride:1 ~offset:(trip + 16) () in
  let e = Builder.load b ~cls:Op.Flt ~array:grid ~stride:1 ~offset:(trip + 17) () in
  let n = Builder.load b ~cls:Op.Flt ~array:grid ~stride:1 ~offset:0 () in
  let s = Builder.load b ~cls:Op.Flt ~array:grid ~stride:1 ~offset:(2 * (trip + 16)) () in
  let s1 = Builder.fadd b [ w; e ] in
  let s2 = Builder.fadd b [ n; s ] in
  let s3 = Builder.fadd b [ s1; s2 ] in
  let s4 = Builder.fmadd b [ ctr; c; s3 ] in
  Builder.store b ~array:out ~stride:1 ~offset:0 s4;
  Builder.finish b

let () =
  let machine = Machine.itanium2 in
  let loop = build_stencil_row ~trip:256 in
  Format.printf "%a@." Pretty.pp_loop loop;

  List.iter
    (fun swp ->
      Printf.printf "\n--- software pipelining %s ---\n"
        (if swp then "ENABLED" else "DISABLED");
      Printf.printf "%3s %12s %-28s %7s %7s\n" "u" "cycles" "schedule" "spills" "code";
      let best = ref (1, max_int) in
      for u = 1 to Unroll.max_factor do
        let exe = Pipeline.compile machine ~swp loop u in
        let cycles, _ = Measure.warm_run machine exe in
        if cycles < snd !best then best := (u, cycles);
        let kind =
          match exe.Simulator.schedules with
          | (s, _, _) :: _ -> begin
            match s.Schedule.kind with
            | Schedule.Straight ->
              Printf.sprintf "straight, %d-cycle body" s.Schedule.length
            | Schedule.Pipelined { ii; stages } ->
              Printf.sprintf "pipelined, II=%d (%d stages)" ii stages
          end
          | [] -> "?"
        in
        Printf.printf "%3d %12d %-28s %7d %6dB\n" u cycles kind exe.Simulator.total_spills
          exe.Simulator.total_code_bytes
      done;
      let u, cycles = !best in
      Printf.printf "best factor: u=%d (%d cycles); ORC heuristic would pick u=%d\n" u
        cycles
        (Orc_heuristic.predict machine ~swp loop);
      (* Redundant-load elimination is what makes unrolled stencils fly:
         neighbouring replicas reload the same grid cells. *)
      if not swp then begin
        let unrolled = Unroll.run loop 4 in
        let rle = Rle.run unrolled.Unroll.kernel in
        Printf.printf
          "at u=4, redundant-load elimination removed %d loads and %d dead stores\n"
          rle.Rle.loads_eliminated rle.Rle.stores_eliminated
      end)
    [ false; true ]
