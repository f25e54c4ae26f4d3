(* Loop tiling — the paper's named future work, realized.

   "Now that our infrastructure is in place, we are in the position to
   create heuristics for other loop optimizations such as loop tiling and
   strip mining." (§4.5/§10)

   A loop that re-traverses a larger-than-L1 array on every outer entry
   thrashes; running every outer repetition of one cache-sized strip before
   moving on (tiling) keeps the strip hot.  This example sweeps strip sizes
   for such loops, shows the classic U-curve, and then plays the paper's
   game: the empirically best strip is the label a learned heuristic would
   train on, and it lines up with what the loop's footprint predicts.

   Run with: dune exec examples/tiling.exe *)

let machine = Machine.itanium2

let reuse_loop ~name ~trip ~outer =
  let b = Builder.create ~lang:Loop.Fortran ~name ~trip ~nest_level:2 ~outer_trip:outer () in
  let x = Builder.add_array b ~length:(trip + 16) "x" in
  let y = Builder.add_array b ~length:(trip + 16) "y" in
  let a = Builder.freg b in
  let xv = Builder.load b ~cls:Op.Flt ~array:x ~stride:1 ~offset:0 () in
  let yv = Builder.load b ~cls:Op.Flt ~array:y ~stride:1 ~offset:0 () in
  Builder.store b ~array:y ~stride:1 ~offset:0 (Builder.fmadd b [ a; xv; yv ]);
  Builder.finish b

let sweep name loop =
  Printf.printf "\n%s: trip=%d outer=%d, data footprint %dKB (L1D %dKB)\n" name
    loop.Loop.trip_actual loop.Loop.outer_trip
    (Array.fold_left (fun acc (a : Loop.array_info) -> acc + (a.Loop.elem_size * a.Loop.length)) 0
       loop.Loop.arrays
    / 1024)
    (machine.Machine.l1d.Machine.size_bytes / 1024);
  let baseline = fst (Measure.warm_run machine (Pipeline.compile machine ~swp:false loop 4)) in
  Printf.printf "  untiled (u=4): %d cycles\n" baseline;
  let candidates =
    List.filter (fun s -> s <= loop.Loop.trip_actual) [ 64; 128; 256; 512; 1024; 2048; 4096 ]
  in
  (* The strip with the fewest cycles, first on ties — the label
     [Strip_mine.best_strip] would return, read off the measured sweep. *)
  let best, cycles =
    List.fold_left
      (fun (best, best_cycles) strip ->
        let cycles, _ =
          Measure.warm_run machine (Strip_mine.executable machine ~swp:false loop ~strip ~unroll:4)
        in
        Printf.printf "  strip %5d: %9d cycles (%.2fx)\n" strip cycles
          (float_of_int baseline /. float_of_int cycles);
        if cycles < best_cycles then (strip, cycles) else (best, best_cycles))
      (0, max_int) candidates
  in
  Printf.printf "  -> best strip %d (%d cycles, %.2fx over untiled)\n" best cycles
    (float_of_int baseline /. float_of_int cycles);
  best

let () =
  (* Arrays of 8 KB, 32 KB and 128 KB against a 16 KB L1D: only the loops
     that overflow the cache should want small strips. *)
  let cases =
    [
      ("fits-in-L1", reuse_loop ~name:"fits" ~trip:512 ~outer:64);
      ("2x-L1", reuse_loop ~name:"twice" ~trip:2048 ~outer:64);
      ("8x-L1", reuse_loop ~name:"eight" ~trip:8192 ~outer:64);
    ]
  in
  let picks = List.map (fun (n, l) -> (n, sweep n l)) cases in
  print_endline "\nempirically-best strips (the labels a strip heuristic would learn):";
  List.iter (fun (n, s) -> Printf.printf "  %-10s -> %d\n" n s) picks;
  print_endline
    "as the paper promises, collecting these labels is fully automated; the\n\
     same feature vectors + classifiers would learn the footprint rule."
