(* Unit tests of the benchmark's own arithmetic and checks: order
   statistics, the compare rule, the golden-journal check and span self
   time.  They build no workload and run in well under a second. *)

let feq = Alcotest.float 1e-12

let percentiles () =
  let a = [| 50.; 15.; 40.; 20.; 35. |] in
  Alcotest.check feq "p5" 15. (Bstats.percentile a 0.05);
  Alcotest.check feq "p30" 20. (Bstats.percentile a 0.30);
  Alcotest.check feq "p40" 20. (Bstats.percentile a 0.40);
  Alcotest.check feq "p50" 35. (Bstats.percentile a 0.50);
  Alcotest.check feq "p100" 50. (Bstats.percentile a 1.0);
  let up_to n = Array.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "tail of 1000 is p95" 950. (Bstats.tail (up_to 1000));
  Alcotest.check feq "tail of 100 keeps ten beyond" 90. (Bstats.tail (up_to 100));
  Alcotest.check feq "tail of 5 is the median" 3. (Bstats.tail (up_to 5))

(* Reference values from Python's statistics.quantiles(values, n=4). *)
let quartiles () =
  let check name values (a, b, c) =
    let q1, q2, q3 = Bstats.quartiles values in
    Alcotest.check feq (name ^ " q1") a q1;
    Alcotest.check feq (name ^ " q2") b q2;
    Alcotest.check feq (name ^ " q3") c q3
  in
  check "1..4" [| 1.; 2.; 3.; 4. |] (1.25, 2.5, 3.75);
  check "ten" [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6.; 5.; 3. |] (1.75, 3.5, 5.25);
  check "two" [| 7.; 3. |] (2.0, 5.0, 8.0);
  Alcotest.check feq "spread" (3.5 /. 3.5) (Bstats.spread [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6.; 5.; 3. |])

let side ?(failed = 0) values = { Verdict.values; attempted = 100 * Array.length values; failed }
let around base = Array.init 10 (fun i -> base +. float_of_int (i mod 3))
let verdict = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Verdict.to_string v)) ( = )

let judge ?(better_higher = false) parent change =
  Verdict.judge ~better_higher ~bound:0.08 ~parent ~change

let verdicts () =
  let parent = side (around 100.) in
  Alcotest.check verdict "faster on every pair" Verdict.Improved (judge parent (side (around 90.)));
  Alcotest.check verdict "same" Verdict.Unchanged (judge parent (side (around 100.)));
  Alcotest.check verdict "within the bound" Verdict.Unchanged (judge parent (side (around 105.)));
  Alcotest.check verdict "beyond the bound" Verdict.Regressed (judge parent (side (around 120.)));
  Alcotest.check verdict "higher is better" Verdict.Regressed
    (judge ~better_higher:true parent (side (around 90.)));
  Alcotest.check verdict "too few pairs to claim a gain" Verdict.Unchanged
    (judge (side (Array.sub (around 100.) 0 5)) (side (Array.sub (around 90.) 0 5)));
  Alcotest.check verdict "gap inside the parent's spread" Verdict.Unchanged
    (judge (side (Array.init 10 (fun i -> 100. +. float_of_int (i mod 5))))
       (side (Array.init 10 (fun i -> 99. +. float_of_int (i mod 5)))));
  let wide = side (Array.init 10 (fun i -> 50. +. (10. *. float_of_int i))) in
  Alcotest.check verdict "spread wider than the bound" Verdict.Unresolved (judge wide (side (around 101.)));
  Alcotest.check verdict "far worse than a wide parent" Verdict.Regressed (judge wide (side (around 200.)));
  Alcotest.check verdict "more failures per attempt" Verdict.Regressed
    (judge parent (side ~failed:1 (around 90.)))

let journal_with sweeps =
  let path = Filename.temp_file "unrollml_bench" ".journal" in
  Sys.remove path;
  (match Label_store.open_ path with
  | Ok j ->
    List.iter (fun (key, cycles) -> Label_store.append_sweep j ~key cycles) sweeps;
    Label_store.close j
  | Error e -> Alcotest.fail e);
  path

let golden_check () =
  let a = Array.init 8 (fun i -> 1000 + i) and b = Array.init 8 (fun i -> 2000 - i) in
  let path = journal_with [ ("a", a); ("b", b) ] in
  let journal =
    match Golden.read_journal path with Ok j -> j | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  let o = Golden.check journal [ ("a", a); ("b", b); ("absent", a) ] in
  Alcotest.(check int) "both journalled sweeps match" 2 o.Golden.matched;
  Alcotest.(check (list string)) "nothing mismatched" [] o.Golden.mismatched;
  let tampered = Array.copy b in
  tampered.(5) <- tampered.(5) + 1;
  let o = Golden.check journal [ ("a", a); ("b", tampered) ] in
  Alcotest.(check int) "one still matches" 1 o.Golden.matched;
  Alcotest.(check (list string)) "one cycle count off is rejected" [ "b" ] o.Golden.mismatched

let span ~id ~parent start stop = { Spans.id; parent; name = "s"; key = -1; start; stop }

let self_time () =
  let spans =
    [
      span ~id:0 ~parent:(-1) 0. 10.;
      span ~id:1 ~parent:0 1. 3.;
      span ~id:2 ~parent:0 2. 5.;
      (* runs past its parent's end: only the part inside counts *)
      span ~id:3 ~parent:0 9. 12.;
      span ~id:4 ~parent:2 2. 4.;
    ]
  in
  let self = List.map (fun (s, t) -> (s.Spans.id, t)) (Spans.self_times spans) in
  Alcotest.check feq "root: 10 minus [1,5] and [9,10]" 5. (List.assoc 0 self);
  Alcotest.check feq "leaf" 2. (List.assoc 1 self);
  Alcotest.check feq "inner: 3 minus its child's 2" 1. (List.assoc 2 self);
  Alcotest.check feq "child past the parent" 3. (List.assoc 3 self)

let nesting () =
  let b = Spans.buffer () in
  Spans.record b "outer" (fun () -> Spans.record b ~key:7 "inner" (fun () -> ()));
  match Spans.collect () with
  | [ outer; inner ] ->
    Alcotest.(check int) "root" (-1) outer.Spans.parent;
    Alcotest.(check int) "inner's parent" outer.Spans.id inner.Spans.parent;
    Alcotest.(check int) "key" 7 inner.Spans.key
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l)

let json_round_trip () =
  let v =
    Jsonv.Obj
      [
        ("correct", Jsonv.Bool true);
        ("n", Jsonv.Num 1000.);
        ("x", Jsonv.Num 0.1);
        ("s", Jsonv.Str "a \"q\"\n");
        ("l", Jsonv.Arr [ Jsonv.Null; Jsonv.Num (-2.5e-7) ]);
      ]
  in
  Alcotest.(check bool) "parse (print v) = v" true (Jsonv.parse (Jsonv.to_string v) = Ok v);
  Alcotest.(check string) "integers print bare" "1000" (Jsonv.to_string (Jsonv.Num 1000.))

let () =
  Alcotest.run "unrollml_bench"
    [
      ("stats", [ Alcotest.test_case "nearest-rank percentiles and tails" `Quick percentiles;
                  Alcotest.test_case "quartiles as Python computes them" `Quick quartiles ]);
      ("compare", [ Alcotest.test_case "verdicts on synthetic runs" `Quick verdicts ]);
      ("golden", [ Alcotest.test_case "tampered cycle count rejected" `Quick golden_check ]);
      ("spans", [ Alcotest.test_case "self time" `Quick self_time;
                  Alcotest.test_case "nesting" `Quick nesting ]);
      ("json", [ Alcotest.test_case "round trip" `Quick json_round_trip ]);
    ]
