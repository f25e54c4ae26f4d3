type labeled = {
  bench : string;
  loop : Loop.t;
  weight : float;
  cycles : int array;
}

let best_factor l = 1 + Stats.min_index (Array.map float_of_int l.cycles)

let passes_filters l =
  let fc = Array.map float_of_int l.cycles in
  let best = fc.(Stats.min_index fc) in
  let mean = Stats.mean fc in
  Loop.unrollable l.loop
  && best >= float_of_int Measure.min_cycles_filter
  && mean /. best >= 1.05

(* One task per loop, in suite order — the canonical flattening shared by
   the batch sweep and the online trainer (which must rebuild the same
   ordering from journal records regardless of arrival order). *)
let tasks benchmarks =
  List.concat_map
    (fun (b : Suite.benchmark) ->
      Array.to_list
        (Array.mapi
           (fun i (loop, weight) -> (b.Suite.bname, i, loop, weight))
           b.Suite.loops))
    benchmarks
  |> Array.of_list

let task_key (config : Config.t) ~swp ~bench ~index loop =
  Label_store.sweep_key ~machine:config.Config.machine ~swp
    ~noise:config.Config.noise ~noise_seed:config.Config.noise_seed
    ~runs:config.Config.runs ~max_sim_iters:config.Config.max_sim_iters ~bench
    ~index loop

let collect ?progress ?(jobs = 1) ?journal (config : Config.t) ~swp benchmarks =
  (* Each loop's measurement RNG is derived from (noise_seed, benchmark,
     loop index) rather than threaded through a single sequential stream,
     so the noise a loop observes does not depend on which loops were
     measured before it — which is what makes the parallel sweep
     bit-identical to the sequential one, and a journalled resume
     (skipping already-measured loops) bit-identical to both. *)
  let tasks = tasks benchmarks in
  let total = Array.length tasks in
  let done_ = Atomic.make 0 in
  let progress_mutex = Mutex.create () in
  let measure (bench, i, loop, weight) =
    let key =
      Option.map (fun _ -> task_key config ~swp ~bench ~index:i loop) journal
    in
    let journalled =
      match (journal, key) with
      | Some j, Some k -> Label_store.find_sweep j ~key:k ~n_factors:Unroll.max_factor
      | _ -> None
    in
    let cycles =
      match journalled with
      | Some cycles ->
        Telemetry.incr Telemetry.global ~pass:"label-store" "resume-hits" 1;
        cycles
      | None ->
        let rng = Rng.derive config.Config.noise_seed bench i in
        let cycles =
          Measure.sweep ~noise:config.Config.noise ~runs:config.Config.runs
            ~max_sim_iters:config.Config.max_sim_iters ~rng
            ~machine:config.Config.machine ~swp loop
        in
        (match (journal, key) with
        | Some j, Some k ->
          Telemetry.incr Telemetry.global ~pass:"label-store" "sweeps-measured" 1;
          Label_store.append_sweep j ~key:k cycles
        | _ -> ());
        cycles
    in
    let d = Atomic.fetch_and_add done_ 1 + 1 in
    (match progress with
    | Some f ->
      Mutex.protect progress_mutex (fun () -> f ~done_:d ~total)
    | None -> ());
    { bench; loop; weight; cycles }
  in
  Parallel.map ~jobs measure tasks

(* --- joint (unroll factor × SWP) label space ----------------------------- *)

module Joint = struct
  let classes = 2 * Unroll.max_factor

  (* Class layout mirrors the concatenated cost array [off ++ on]:
     classes 0..7 are factors 1..8 with SWP off, 8..15 the same with SWP
     on.  Keeping encode/decode and the cost concatenation in one place
     is what the round-trip tests pin down. *)
  let encode ~factor ~swp =
    if factor < 1 || factor > Unroll.max_factor then
      invalid_arg "Labeling.Joint.encode: factor out of range";
    (if swp then Unroll.max_factor else 0) + factor - 1

  let decode c =
    if c < 0 || c >= classes then invalid_arg "Labeling.Joint.decode: class out of range";
    ((c mod Unroll.max_factor) + 1, c >= Unroll.max_factor)
end

let merge_joint ~off ~on =
  if Array.length off <> Array.length on then
    invalid_arg "Labeling: off/on sweeps differ in length";
  Array.map2
    (fun (o : labeled) (s : labeled) ->
      if o.loop.Loop.name <> s.loop.Loop.name || o.bench <> s.bench then
        invalid_arg "Labeling: off/on sweeps are not positionally aligned";
      { o with cycles = Array.append o.cycles s.cycles })
    off on

let to_dataset ?(filtered = true) ?features (config : Config.t) labeled =
  (* A loop's label is the argmin of its cycle array in either space:
     factor - 1 over 8 entries, the joint class over 16 merged ones. *)
  let n_classes =
    if Array.length labeled = 0 then Unroll.max_factor else Array.length labeled.(0).cycles
  in
  let features =
    match features with
    | Some f -> f
    | None -> fun i -> Features.extract config.Config.machine labeled.(i).loop
  in
  let examples =
    List.filter_map
      (fun i ->
        let l = labeled.(i) in
        if filtered && not (passes_filters l) then None
        else
          let costs = Array.map float_of_int l.cycles in
          Some
            {
              Dataset.features = features i;
              label = Stats.min_index costs;
              tag = l.loop.Loop.name;
              group = l.bench;
              costs;
            })
      (List.init (Array.length labeled) Fun.id)
  in
  Dataset.create ~feature_names:Features.names ~n_classes examples
