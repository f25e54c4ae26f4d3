(* Tests for the support library: RNG, statistics, tables, CSV. *)

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (v >= 0.0 && v < 3.5)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let c1 = Rng.int64 child in
  (* Drawing from the parent must not change the child's future. *)
  let _ = Rng.int64 parent in
  let parent2 = Rng.create 5 in
  let child2 = Rng.split parent2 in
  Alcotest.(check int64) "split deterministic" c1 (Rng.int64 child2)

let test_rng_copy () =
  let a = Rng.create 11 in
  let _ = Rng.int64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng) in
  Alcotest.(check bool) "mean near 0" true (Float.abs (Stats.mean xs) < 0.05);
  Alcotest.(check bool) "std near 1" true (Float.abs (Stats.stddev xs -. 1.0) < 0.05)

let test_rng_weighted_choice () =
  let rng = Rng.create 3 in
  let counts = Hashtbl.create 2 in
  for _ = 1 to 5000 do
    let v = Rng.weighted_choice rng [| (0.9, "a"); (0.1, "b") |] in
    Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0)
  done;
  let a = Option.value (Hashtbl.find_opt counts "a") ~default:0 in
  Alcotest.(check bool) "90/10 split" true (a > 4200 && a < 4800)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_choice () =
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    let v = Rng.choice rng [| 1; 2; 3 |] in
    Alcotest.(check bool) "chosen from array" true (v >= 1 && v <= 3)
  done

(* --- Stats --- *)

let test_mean () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_median_odd () = check_float "odd median" 3.0 (Stats.median [| 5.0; 3.0; 1.0 |])

let test_median_even () =
  check_float "even median" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_median_no_mutation () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  let _ = Stats.median xs in
  Alcotest.(check (array (float 0.0))) "unchanged" [| 3.0; 1.0; 2.0 |] xs

let test_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_variance () =
  check_float "sample variance" 2.5 (Stats.variance [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_variance_singleton () = check_float "n<2" 0.0 (Stats.variance [| 42.0 |])

let test_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 40.0 (Stats.percentile xs 100.0);
  check_float "p50" 25.0 (Stats.percentile xs 50.0)

let test_min_max_index () =
  let xs = [| 3.0; 1.0; 1.0; 5.0 |] in
  Alcotest.(check int) "min first tie" 1 (Stats.min_index xs);
  Alcotest.(check int) "max" 3 (Stats.max_index xs)

let test_rank_of () =
  let costs = [| 30.0; 10.0; 20.0 |] in
  Alcotest.(check int) "rank of best" 0 (Stats.rank_of costs 1);
  Alcotest.(check int) "rank of mid" 1 (Stats.rank_of costs 2);
  Alcotest.(check int) "rank of worst" 2 (Stats.rank_of costs 0)

let test_rank_of_ties () =
  let costs = [| 5.0; 5.0; 5.0 |] in
  Alcotest.(check int) "tie by index 0" 0 (Stats.rank_of costs 0);
  Alcotest.(check int) "tie by index 1" 1 (Stats.rank_of costs 1);
  Alcotest.(check int) "tie by index 2" 2 (Stats.rank_of costs 2)

let test_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.0; 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "two bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "lower bin" 2 c0;
  Alcotest.(check int) "upper bin" 2 c1

(* --- Table --- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_renders () =
  let t = Table.create ~title:"T" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "long-cell"; "22" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "contains title" true (String.length s > 0 && String.sub s 0 1 = "T");
  Alcotest.(check bool) "contains cell" true (contains ~needle:"long-cell" s)

let test_table_wrong_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_cell_pct () =
  Alcotest.(check string) "pct" "5.1%" (Table.cell_pct 0.051);
  Alcotest.(check string) "neg pct" "-2.0%" (Table.cell_pct (-0.02))

let test_bar () =
  Alcotest.(check string) "full" "##########" (Table.bar ~width:10 1.0);
  Alcotest.(check string) "clamped" "##########" (Table.bar ~width:10 2.0);
  Alcotest.(check string) "empty" "" (Table.bar ~width:10 0.0)

(* --- Csvio --- *)

let roundtrip rows =
  let path = Filename.temp_file "unrollml" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csvio.write path rows;
      Csvio.read path)

let test_csv_roundtrip_simple () =
  let rows = [ [ "a"; "b" ]; [ "1"; "2" ] ] in
  Alcotest.(check (list (list string))) "simple" rows (roundtrip rows)

let test_csv_roundtrip_quoting () =
  let rows = [ [ "he,llo"; "wo\"rld"; "multi\nline" ]; [ ""; "x"; "y" ] ] in
  Alcotest.(check (list (list string))) "quoted" rows (roundtrip rows)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csvio.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csvio.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csvio.escape "a\"b")

(* --- Parallel scheduler --- *)

(* Spin for a task-dependent but deterministic amount of work, so schedules
   differ across runs without timers. *)
let busy n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc)

let test_parallel_map_identical () =
  let input = Array.init 257 (fun i -> i) in
  let f x = (x * x) + (x mod 7) in
  let seq = Parallel.map ~jobs:1 f input in
  List.iter
    (fun j ->
      Alcotest.(check (array int))
        (Printf.sprintf "map at j=%d" j)
        seq
        (Parallel.map ~jobs:j f input))
    [ 2; 4; 8 ]

let test_parallel_tabulate_iter () =
  let n = 100 in
  let expect = Array.init n (fun i -> 3 * i) in
  Alcotest.(check (array int)) "tabulate" expect (Parallel.tabulate ~jobs:4 n (fun i -> 3 * i));
  let out = Array.make n 0 in
  Parallel.iter ~jobs:4 n (fun i -> out.(i) <- 3 * i);
  Alcotest.(check (array int)) "iter writes disjoint slots" expect out

let test_parallel_nested_identical () =
  let outer j =
    Parallel.tabulate ~jobs:j 12 (fun i ->
        let inner = Parallel.tabulate ~jobs:3 8 (fun k -> (i * 31) + (k * k)) in
        Array.fold_left ( + ) 0 inner)
  in
  let seq = outer 1 in
  Alcotest.(check (array int)) "nested j=4" seq (outer 4);
  Alcotest.(check (array int)) "nested j=8" seq (outer 8)

let test_parallel_first_exception_by_index () =
  (* Several tasks raise; the re-raised one must be the lowest input index
     at every job count, even though a thief often finishes index 40
     before the owner reaches index 17. *)
  let f i =
    busy ((i * 131) mod 997);
    if i mod 23 = 17 then failwith (string_of_int i) else i
  in
  List.iter
    (fun j ->
      match Parallel.map ~jobs:j f (Array.init 120 Fun.id) with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure s ->
        Alcotest.(check string) (Printf.sprintf "first raise at j=%d" j) "17" s)
    [ 1; 2; 8 ]

let test_fork_join () =
  let a, b = Parallel.fork_join (fun () -> busy 1000; 41 + 1) (fun () -> "ab" ^ "c") in
  Alcotest.(check int) "left" 42 a;
  Alcotest.(check string) "right" "abc" b;
  (* When both sides raise, the left exception wins. *)
  (match Parallel.fork_join (fun () -> failwith "left") (fun () -> failwith "right") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure s -> Alcotest.(check string) "left wins" "left" s);
  match Parallel.fork_join ~jobs:1 (fun () -> 1) (fun () -> 2) with
  | a, b ->
    Alcotest.(check int) "sequential left" 1 a;
    Alcotest.(check int) "sequential right" 2 b

let test_steal_counter_skew () =
  (* Seed two deques with a deliberately skewed split: the first chunk is
     all heavy tasks, the second all trivial ones.  The helper that drains
     the light chunk must steal from the heavy one for the batch to finish,
     so the global steal counter has to move. *)
  let steals0 = Telemetry.counter Telemetry.global ~pass:"parallel" "steals" in
  let tasks0 = Telemetry.counter Telemetry.global ~pass:"parallel" "tasks" in
  let n = 64 in
  ignore
    (Parallel.map ~jobs:2
       (fun i -> busy (if i < n / 2 then 400_000 else 10))
       (Array.init n Fun.id));
  let steals = Telemetry.counter Telemetry.global ~pass:"parallel" "steals" - steals0 in
  let tasks = Telemetry.counter Telemetry.global ~pass:"parallel" "tasks" - tasks0 in
  Alcotest.(check int) "every task counted" n tasks;
  Alcotest.(check bool) "steals happened under skew" true (steals >= 1)

let test_default_jobs_env_override () =
  let set v = Unix.putenv "UNROLLML_JOBS" v in
  let before = try Some (Sys.getenv "UNROLLML_JOBS") with Not_found -> None in
  Fun.protect
    ~finally:(fun () -> set (Option.value before ~default:""))
    (fun () ->
      set "5";
      Alcotest.(check int) "env override" 5 (Parallel.default_jobs ());
      set "0";
      Alcotest.(check bool) "non-positive ignored" true (Parallel.default_jobs () >= 1);
      set "nope";
      Alcotest.(check bool) "garbage ignored" true (Parallel.default_jobs () >= 1);
      set "";
      Alcotest.(check bool) "uncapped recommended count" true
        (Parallel.default_jobs () = Domain.recommended_domain_count ()))

(* --- Memo --- *)

let test_memo_fifo_order () =
  let m = Memo.create 3 in
  for k = 1 to 5 do
    Memo.add m k (k * 10)
  done;
  Alcotest.(check (list (option int))) "oldest two evicted"
    [ None; None; Some 30; Some 40; Some 50 ]
    (List.map (Memo.find m) [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check int) "length" 3 (Memo.length m);
  Alcotest.(check int) "evictions" 2 (Memo.evictions m)

let test_memo_readd_is_noop () =
  let m = Memo.create 3 in
  List.iter (fun k -> Memo.add m k k) [ 1; 2; 3 ];
  Memo.add m 1 100;
  Alcotest.(check int) "no growth" 3 (Memo.length m);
  Alcotest.(check (option int)) "incumbent value kept" (Some 1) (Memo.find m 1);
  Memo.add m 4 4;
  Alcotest.(check (option int)) "key 1 still evicted first" None (Memo.find m 1);
  Alcotest.(check (option int)) "key 2 survives" (Some 2) (Memo.find m 2);
  Alcotest.(check int) "one eviction" 1 (Memo.evictions m)

let test_memo_capacity_zero () =
  let tel = Telemetry.create () in
  let m = Memo.create ~telemetry:(tel, "memo") 0 in
  Memo.add m "a" 1;
  Alcotest.(check (option int)) "nothing stored" None (Memo.find m "a");
  Alcotest.(check (option int)) "still nothing" None (Memo.find m "a");
  Alcotest.(check int) "empty" 0 (Memo.length m);
  Alcotest.(check int) "no hits" 0 (Memo.hits m);
  Alcotest.(check int) "every lookup a miss" 2 (Memo.misses m);
  Alcotest.(check int) "telemetry misses" 2 (Telemetry.counter tel ~pass:"memo" "misses");
  Memo.clear m;
  Alcotest.(check int) "clear zeroes counters" 0 (Memo.misses m)

let test_memo_stress () =
  let capacity = 64 and per_domain = 2500 in
  let m = Memo.create capacity in
  let worker d () =
    let lookups = ref 0 and wrong = ref 0 in
    for i = 0 to per_domain - 1 do
      let k = ((i * 7919) + (d * 104729)) mod 200 in
      if (i + d) mod 3 = 0 then Memo.add m k (k * k)
      else begin
        incr lookups;
        match Memo.find m k with Some v when v <> k * k -> incr wrong | _ -> ()
      end
    done;
    (!lookups, !wrong)
  in
  let results = List.map Domain.join (List.init 4 (fun d -> Domain.spawn (worker d))) in
  let lookups = List.fold_left (fun acc (l, _) -> acc + l) 0 results in
  Alcotest.(check int) "no wrong values" 0 (List.fold_left (fun acc (_, w) -> acc + w) 0 results);
  Alcotest.(check int) "hits + misses = lookups" lookups (Memo.hits m + Memo.misses m);
  Alcotest.(check bool) "length within capacity" true (Memo.length m <= capacity)

(* Chaos: random task costs, random raisers, random nesting — results and
   the identity of the raised exception must match the sequential run at
   every job count. *)
let prop_parallel_chaos =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 40)
        (triple (0 -- 2000) (0 -- 9) bool))
  in
  let print = QCheck.Print.(list (fun (c, r, n) -> Printf.sprintf "(%d,%d,%b)" c r n)) in
  QCheck.Test.make ~count:30 ~name:"parallel chaos: jobs-invariant results and raises"
    (QCheck.make ~print gen)
    (fun spec ->
      let tasks = Array.of_list spec in
      let f (cost, raise_mod, nest) i =
        busy cost;
        if raise_mod = 3 && i mod 5 = 2 then failwith (string_of_int i);
        if nest then
          Array.fold_left ( + ) i (Parallel.tabulate ~jobs:2 4 (fun k -> i + k))
        else i
      in
      let run jobs =
        match Parallel.map ~jobs (fun i -> f tasks.(i) i) (Array.init (Array.length tasks) Fun.id)
        with
        | r -> Ok r
        | exception Failure s -> Error s
      in
      let seq = run 1 in
      run 2 = seq && run 8 = seq)

(* --- QCheck properties --- *)

let prop_median_bounded =
  QCheck.Test.make ~count:200 ~name:"median within min/max"
    QCheck.(array_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0))
    (fun xs ->
      let m = Stats.median xs in
      let lo = Array.fold_left min xs.(0) xs and hi = Array.fold_left max xs.(0) xs in
      m >= lo && m <= hi)

let prop_rank_is_permutation =
  QCheck.Test.make ~count:200 ~name:"ranks form a permutation"
    QCheck.(array_of_size Gen.(1 -- 16) (float_bound_exclusive 100.0))
    (fun xs ->
      let ranks = Array.mapi (fun i _ -> Stats.rank_of xs i) xs in
      Array.sort compare ranks;
      ranks = Array.init (Array.length xs) (fun i -> i))

let prop_csv_roundtrip =
  QCheck.Test.make ~count:50 ~name:"csv roundtrip"
    QCheck.(small_list (small_list (string_gen Gen.printable)))
    (fun rows ->
      (* Empty trailing rows are not representable; normalise. *)
      let rows = List.filter (fun r -> r <> [] && r <> [ "" ]) rows in
      roundtrip rows = rows)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng copy", `Quick, test_rng_copy);
    ("rng gaussian moments", `Quick, test_rng_gaussian_moments);
    ("rng weighted choice", `Quick, test_rng_weighted_choice);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    ("rng choice", `Quick, test_rng_choice);
    ("stats mean", `Quick, test_mean);
    ("stats median odd", `Quick, test_median_odd);
    ("stats median even", `Quick, test_median_even);
    ("stats median pure", `Quick, test_median_no_mutation);
    ("stats geomean", `Quick, test_geomean);
    ("stats variance", `Quick, test_variance);
    ("stats variance singleton", `Quick, test_variance_singleton);
    ("stats percentile", `Quick, test_percentile);
    ("stats min/max index", `Quick, test_min_max_index);
    ("stats rank_of", `Quick, test_rank_of);
    ("stats rank_of ties", `Quick, test_rank_of_ties);
    ("stats histogram", `Quick, test_histogram);
    ("table renders", `Quick, test_table_renders);
    ("table arity", `Quick, test_table_wrong_arity);
    ("table cell_pct", `Quick, test_cell_pct);
    ("table bar", `Quick, test_bar);
    ("csv roundtrip", `Quick, test_csv_roundtrip_simple);
    ("csv quoting", `Quick, test_csv_roundtrip_quoting);
    ("csv escape", `Quick, test_csv_escape);
    ("parallel map jobs-invariant", `Quick, test_parallel_map_identical);
    ("parallel tabulate/iter", `Quick, test_parallel_tabulate_iter);
    ("parallel nested jobs-invariant", `Quick, test_parallel_nested_identical);
    ("parallel first exception by index", `Quick, test_parallel_first_exception_by_index);
    ("parallel fork_join", `Quick, test_fork_join);
    ("parallel steals under skew", `Quick, test_steal_counter_skew);
    ("parallel default_jobs env", `Quick, test_default_jobs_env_override);
    ("memo fifo eviction order", `Quick, test_memo_fifo_order);
    ("memo re-add is a no-op", `Quick, test_memo_readd_is_noop);
    ("memo capacity zero", `Quick, test_memo_capacity_zero);
    ("memo 4-domain stress", `Quick, test_memo_stress);
    QCheck_alcotest.to_alcotest prop_parallel_chaos;
    QCheck_alcotest.to_alcotest prop_median_bounded;
    QCheck_alcotest.to_alcotest prop_rank_is_permutation;
    QCheck_alcotest.to_alcotest prop_csv_roundtrip;
  ]
