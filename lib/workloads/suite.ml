type tag = Spec2000fp | Spec2000int | Spec95 | Spec92 | Mediabench | Perfect | KernelSuite

type benchmark = {
  bname : string;
  tag : tag;
  fp : bool;
  loop_fraction : float;
  loops : (Loop.t * float) array;
}

(* Benchmark roster: name, tag, profile, base loop count, kernel-loop count,
   loop runtime fraction.  SPEC 2000 first, in the paper's figure order. *)
let roster : (string * tag * Synth.profile * int * int * float) list =
  [
    (* --- SPEC 2000 (24 = paper's Figures 4/5) --- *)
    ("164.gzip", Spec2000int, Synth.int_pointer, 14, 2, 0.30);
    ("168.wupwise", Spec2000fp, Synth.fp_numeric, 40, 4, 0.75);
    ("171.swim", Spec2000fp, Synth.fp_numeric, 44, 5, 0.88);
    ("172.mgrid", Spec2000fp, Synth.fp_numeric, 38, 5, 0.90);
    ("173.applu", Spec2000fp, Synth.fp_numeric, 52, 4, 0.80);
    ("175.vpr", Spec2000int, Synth.int_pointer, 16, 1, 0.22);
    ("176.gcc", Spec2000int, Synth.int_pointer, 26, 0, 0.10);
    ("177.mesa", Spec2000fp, Synth.scientific_c, 34, 3, 0.45);
    ("178.galgel", Spec2000fp, Synth.fp_numeric, 48, 4, 0.82);
    ("179.art", Spec2000fp, Synth.scientific_c, 18, 3, 0.70);
    ("181.mcf", Spec2000int, Synth.int_pointer, 10, 1, 0.15);
    ("183.equake", Spec2000fp, Synth.scientific_c, 22, 3, 0.65);
    ("186.crafty", Spec2000int, Synth.int_pointer, 14, 0, 0.12);
    ("187.facerec", Spec2000fp, Synth.fp_numeric, 30, 3, 0.72);
    ("188.ammp", Spec2000fp, Synth.scientific_c, 26, 2, 0.55);
    ("189.lucas", Spec2000fp, Synth.fp_numeric, 32, 3, 0.80);
    ("197.parser", Spec2000int, Synth.int_pointer, 14, 0, 0.14);
    ("200.sixtrack", Spec2000fp, Synth.fp_numeric, 46, 3, 0.60);
    ("253.perlbmk", Spec2000int, Synth.int_pointer, 16, 0, 0.08);
    ("254.gap", Spec2000int, Synth.int_pointer, 16, 1, 0.16);
    ("255.vortex", Spec2000int, Synth.int_pointer, 14, 0, 0.08);
    ("256.bzip2", Spec2000int, Synth.int_pointer, 14, 2, 0.35);
    ("300.twolf", Spec2000int, Synth.int_pointer, 16, 1, 0.20);
    ("301.apsi", Spec2000fp, Synth.fp_numeric, 42, 3, 0.70);
    (* --- SPEC '95 --- *)
    ("101.tomcatv", Spec95, Synth.fp_numeric, 22, 3, 0.90);
    ("102.swim95", Spec95, Synth.fp_numeric, 24, 3, 0.88);
    ("103.su2cor", Spec95, Synth.fp_numeric, 28, 2, 0.75);
    ("104.hydro2d", Spec95, Synth.fp_numeric, 30, 2, 0.80);
    ("107.mgrid95", Spec95, Synth.fp_numeric, 22, 3, 0.90);
    ("110.applu95", Spec95, Synth.fp_numeric, 30, 2, 0.78);
    ("125.turb3d", Spec95, Synth.fp_numeric, 26, 2, 0.70);
    ("141.apsi95", Spec95, Synth.fp_numeric, 26, 2, 0.68);
    ("145.fpppp", Spec95, Synth.fp_numeric, 20, 0, 0.55);
    ("146.wave5", Spec95, Synth.fp_numeric, 28, 2, 0.72);
    ("099.go", Spec95, Synth.int_pointer, 12, 0, 0.10);
    ("129.compress", Spec95, Synth.int_pointer, 8, 1, 0.30);
    ("130.li", Spec95, Synth.int_pointer, 10, 0, 0.10);
    ("132.ijpeg", Spec95, Synth.media, 20, 1, 0.45);
    (* --- SPEC '92 --- *)
    ("013.spice2g6", Spec92, Synth.fp_numeric, 20, 1, 0.55);
    ("015.doduc", Spec92, Synth.fp_numeric, 18, 1, 0.60);
    ("034.mdljdp2", Spec92, Synth.fp_numeric, 18, 1, 0.70);
    ("047.tomcatv92", Spec92, Synth.fp_numeric, 14, 2, 0.88);
    ("048.ora", Spec92, Synth.fp_numeric, 10, 1, 0.75);
    ("052.alvinn", Spec92, Synth.scientific_c, 12, 2, 0.80);
    ("056.ear", Spec92, Synth.scientific_c, 14, 1, 0.70);
    ("077.mdljsp2", Spec92, Synth.fp_numeric, 16, 1, 0.70);
    ("078.swm256", Spec92, Synth.fp_numeric, 16, 2, 0.90);
    ("093.nasa7", Spec92, Synth.fp_numeric, 20, 3, 0.85);
    (* --- Mediabench --- *)
    ("adpcm", Mediabench, Synth.media, 6, 1, 0.60);
    ("epic", Mediabench, Synth.media, 14, 2, 0.65);
    ("g721", Mediabench, Synth.media, 10, 0, 0.45);
    ("gsm", Mediabench, Synth.media, 14, 1, 0.55);
    ("jpeg", Mediabench, Synth.media, 18, 2, 0.50);
    ("mpeg2", Mediabench, Synth.media, 20, 2, 0.60);
    ("pegwit", Mediabench, Synth.int_pointer, 10, 0, 0.35);
    ("ghostscript", Mediabench, Synth.int_pointer, 14, 0, 0.20);
    ("mesa_mb", Mediabench, Synth.scientific_c, 16, 1, 0.45);
    ("rasta", Mediabench, Synth.media, 12, 1, 0.50);
    (* --- Perfect Club --- *)
    ("ADM", Perfect, Synth.fp_numeric, 18, 1, 0.75);
    ("QCD", Perfect, Synth.fp_numeric, 16, 1, 0.65);
    ("MDG", Perfect, Synth.fp_numeric, 14, 1, 0.72);
    ("TRACK", Perfect, Synth.fp_numeric, 12, 1, 0.60);
    ("BDNA", Perfect, Synth.fp_numeric, 16, 1, 0.70);
    ("OCEAN", Perfect, Synth.fp_numeric, 18, 2, 0.80);
    ("DYFESM", Perfect, Synth.fp_numeric, 14, 1, 0.68);
    ("ARC2D", Perfect, Synth.fp_numeric, 18, 2, 0.85);
    ("FLO52", Perfect, Synth.fp_numeric, 14, 1, 0.78);
    ("TRFD", Perfect, Synth.fp_numeric, 10, 1, 0.70);
    ("SPEC77", Perfect, Synth.fp_numeric, 16, 1, 0.72);
    (* --- Kernels --- *)
    ("livermore", KernelSuite, Synth.fp_numeric, 10, 8, 0.95);
    ("linpack", KernelSuite, Synth.fp_numeric, 6, 6, 0.92);
    ("dspstone", KernelSuite, Synth.media, 8, 5, 0.90);
  ]

let is_fp_tagged = function
  | Spec2000fp | Spec95 | Spec92 | Perfect | KernelSuite -> true
  | Spec2000int | Mediabench -> false

(* Kernels instantiated inside a benchmark, excluding families that a given
   profile would not plausibly contain. *)
let kernel_pool (profile : Synth.profile) =
  let fp_families =
    [ "daxpy"; "ddot"; "dscal"; "stencil3"; "stencil5"; "fir8"; "saxpy_strided";
      "sqrt_newton"; "complex_mul"; "matvec_row"; "fp_divide"; "long_latency_chain";
      "wide_independent"; "dcopy"; "daxpy_unknown_trip"; "prefix_sum";
      "gaxpy2"; "back_subst_inner"; "jacobi2d_row"; "tridiag_solve"; "horner";
      "norm2"; "givens_rotate"; "conv3x3_row"; "fft_butterfly"; "gauss_seidel_row";
      "quantize"; "csr_spmv_inner" ]
  in
  let int_families =
    [ "int_sum"; "int_histogram"; "memset_like"; "memcpy_like"; "gather"; "scatter";
      "pointer_chase"; "early_exit_search"; "predicated_max"; "mixed_int_fp";
      "call_in_loop"; "small_trip";
      "crc_byte"; "hash_mix"; "strcmp_like"; "run_length"; "bitcount";
      "table_interp"; "bubble_inner"; "memmove_reverse"; "checksum_2way";
      "viterbi_inner" ]
  in
  let media_families =
    [ "fir8"; "complex_mul"; "stencil3"; "memcpy_like"; "mixed_int_fp"; "int_sum";
      "predicated_max"; "gather"; "saxpy_strided"; "small_trip";
      "rgb2yuv"; "alpha_blend"; "sad8"; "max_pool4"; "clip8"; "yuv_downsample";
      "lerp"; "strided_gather8"; "viterbi_inner"; "fft_butterfly" ]
  in
  let wanted =
    if profile.Synth.pname = "int_pointer" then int_families
    else if profile.Synth.pname = "media" then media_families
    else fp_families
  in
  List.filter (fun (n, _) -> List.mem n wanted) Kernels.all

(* Loop-count multiplier calibrated so that scale 1.0 yields ~3,400 raw
   loops, of which the labelling filters keep roughly the paper's 2,500. *)
let density = 2.2

let make_benchmark rng ~scale (bname, tag, profile, n_synth, n_kern, loop_fraction) =
  let rng = Rng.split rng in
  let scale = scale *. density in
  let n_synth = max 1 (int_of_float (Float.round (float_of_int n_synth *. scale))) in
  let n_kern = int_of_float (Float.round (float_of_int n_kern *. scale)) in
  let synth_loops =
    List.init n_synth (fun i ->
        Synth.generate rng profile ~name:(Printf.sprintf "%s/L%d" bname i))
  in
  let pool = Array.of_list (kernel_pool profile) in
  let kern_loops =
    List.init n_kern (fun i ->
        let kname, maker = Rng.choice rng pool in
        let trip =
          Synth.snap_trip rng
            (max 8
               (int_of_float
                  (Float.round
                     (exp (log 8.0 +. Rng.float rng (log 400.0 -. log 8.0))))))
        in
        maker ~name:(Printf.sprintf "%s/%s%d" bname kname i) ~trip)
  in
  let loops = Array.of_list (synth_loops @ kern_loops) in
  (* Runtime weights: heavy-tailed, like real profiles. *)
  let raw = Array.map (fun _ -> (Rng.float rng 1.0 +. 0.05) ** 2.0) loops in
  let total = Array.fold_left ( +. ) 0.0 raw in
  let loops = Array.mapi (fun i l -> (l, raw.(i) /. total)) loops in
  { bname; tag; fp = is_fp_tagged tag; loop_fraction; loops }

let build roster_part ~scale ~seed =
  let rng = Rng.create seed in
  List.map (make_benchmark rng ~scale) roster_part

let spec2000 ~scale ~seed =
  build (List.filteri (fun i _ -> i < 24) roster) ~scale ~seed

let full ~scale ~seed = build roster ~scale ~seed

let all_loops benchmarks =
  List.concat_map
    (fun b -> Array.to_list (Array.map (fun (l, _) -> (b.bname, l)) b.loops))
    benchmarks
