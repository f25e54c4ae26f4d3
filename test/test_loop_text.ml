(* Tests for the textual loop format: round-tripping, hand-written
   programs, and error reporting. *)

let structurally_equal = Fuzz.Oracle.structurally_equal

let test_roundtrip_kernels () =
  List.iter
    (fun (name, maker) ->
      let l = maker ~name ~trip:48 in
      let text = Loop_text.to_string l in
      match Loop_text.parse text with
      | Error e -> Alcotest.failf "%s: parse failed: %s\n%s" name e text
      | Ok l' ->
        if not (structurally_equal l l') then
          Alcotest.failf "%s: roundtrip not structurally equal\n%s" name text)
    Kernels.all

let test_roundtrip_synthetic () =
  for seed = 0 to 150 do
    let l = Fuzz.Gen.synth_loop ~prefix:"rt" seed in
    match Loop_text.parse (Loop_text.to_string l) with
    | Error e -> Alcotest.failf "seed %d: %s" seed e
    | Ok l' ->
      if not (structurally_equal l l') then Alcotest.failf "seed %d: not equal" seed
  done

(* The same property over the fuzzer's adversarial generator, whose loops
   reach corners Synth never emits (rotation chains, indirect stores,
   trip 0): parse ∘ print is the identity up to register numbering, and
   the parse-renumbered form prints to a true fixed point. *)
let prop_roundtrip_fuzz_gen =
  QCheck.Test.make ~count:120 ~name:"parse/print round-trip on fuzzed loops"
    QCheck.(make Gen.(0 -- 3000))
    (fun id ->
      let c = Fuzz.Gen.case ~seed:11 ~id () in
      let l = c.Fuzz.Gen.loop in
      let text = Loop_text.to_string l in
      match Loop_text.parse text with
      | Error e -> QCheck.Test.fail_reportf "case %d: %s" id e
      | Ok l' ->
        if not (structurally_equal l l') then
          QCheck.Test.fail_reportf "case %d: not structurally equal" id
        else begin
          let normal = Loop_text.to_string l' in
          match Loop_text.parse normal with
          | Error e -> QCheck.Test.fail_reportf "case %d: normal form: %s" id e
          | Ok l'' ->
            Loop_text.to_string l'' = normal
            || QCheck.Test.fail_reportf "case %d: normal form not a fixed point" id
        end)

let test_roundtrip_preserves_semantics () =
  (* Stronger than structural equality: the parsed loop must behave
     identically under the reference interpreter. *)
  List.iter
    (fun (name, maker) ->
      let l = maker ~name ~trip:20 in
      match Loop_text.parse (Loop_text.to_string l) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok l' ->
        let s1 = Interp.fresh_state () and s2 = Interp.fresh_state () in
        ignore (Interp.run s1 l ~trips:20 ~phase:0);
        ignore (Interp.run s2 l' ~trips:20 ~phase:0);
        Alcotest.(check bool) (name ^ " same memory") true
          (Interp.memory_image s1 = Interp.memory_image s2))
    [ ("daxpy", Kernels.daxpy); ("stencil5", Kernels.stencil5); ("ddot", Kernels.ddot) ]

let test_parse_handwritten () =
  let text =
    {|
# a hand-written daxpy
loop my_loop {
  lang fortran
  trip 128
  outer 4
  array x 144 elem=8
  array y 144 elem=8
  reg f a
  f xv = load x [1*i+0]
  f yv = load y [1*i+0]
  f r = fmadd a xv yv
  store y [1*i+0] r
}
|}
  in
  match Loop_text.parse text with
  | Error e -> Alcotest.fail e
  | Ok l ->
    Alcotest.(check string) "name" "my_loop" l.Loop.name;
    Alcotest.(check int) "trip" 128 l.Loop.trip_actual;
    Alcotest.(check int) "outer" 4 l.Loop.outer_trip;
    Alcotest.(check int) "arrays" 2 (Array.length l.Loop.arrays);
    Alcotest.(check int) "ops incl overhead" 7 (Loop.op_count l);
    Alcotest.(check bool) "fortran no alias" false l.Loop.aliased

let test_parse_predication_and_exit () =
  let text =
    {|
loop guarded {
  lang c
  trip 64
  exit_prob 0.01
  array x 80 elem=4
  i v = load x [1*i+0]
  i p = cmp v
  (p) i w = ialu v v
  store x [1*i+1] w
  exit p
}
|}
  in
  match Loop_text.parse text with
  | Error e -> Alcotest.fail e
  | Ok l ->
    Alcotest.(check bool) "has exit" true (Loop.has_early_exit l);
    Alcotest.(check int) "one predicated op" 1
      (Array.fold_left
         (fun acc (op : Op.t) -> if op.Op.pred <> None then acc + 1 else acc)
         0 l.Loop.body)

let test_parse_indirect () =
  let text =
    {|
loop gather {
  lang c
  trip 32
  array idx 48 elem=4
  array tbl 512 elem=8
  array out 48 elem=8
  i k = load idx [1*i+0]
  f v = load! tbl [0*i+0] k
  store out [1*i+0] v
}
|}
  in
  match Loop_text.parse text with
  | Error e -> Alcotest.fail e
  | Ok l -> Alcotest.(check int) "one indirect ref" 1 (Loop.indirect_ref_count l)

let test_parse_many () =
  let one = Loop_text.to_string (Kernels.daxpy ~name:"a" ~trip:16) in
  let two = Loop_text.to_string (Kernels.ddot ~name:"b" ~trip:16) in
  match Loop_text.parse_many (one ^ "\n" ^ two) with
  | Error e -> Alcotest.fail e
  | Ok loops -> Alcotest.(check int) "two loops" 2 (List.length loops)

let expect_error what text =
  match Loop_text.parse text with
  | Ok _ -> Alcotest.failf "%s should not parse" what
  | Error _ -> ()

let test_parse_errors () =
  expect_error "empty" "";
  expect_error "missing trip" "loop l {\n lang c\n}";
  expect_error "unknown register" "loop l {\n trip 4\n f y = mov nosuch\n}";
  expect_error "unknown array" "loop l {\n trip 4\n f v = load a [1*i+0]\n}";
  expect_error "unknown opcode" "loop l {\n trip 4\n reg f a\n f v = frobnicate a\n}";
  expect_error "unterminated" "loop l {\n trip 4";
  expect_error "bad bracket" "loop l {\n trip 4\n array a 8 elem=8\n f v = load a [oops]\n}";
  expect_error "double declaration" "loop l {\n trip 4\n reg f a\n reg f a\n}";
  (* Malformed numbers and booleans are parse errors, not exceptions. *)
  expect_error "bad trip" "loop l {\n trip abc\n}";
  expect_error "bad nest" "loop l {\n trip 4\n nest x\n}";
  expect_error "bad exit_prob" "loop l {\n trip 4\n exit_prob x\n}";
  expect_error "bad aliased" "loop l {\n trip 4\n aliased maybe\n}";
  expect_error "bad array length" "loop l {\n trip 4\n array a n\n}";
  expect_error "bad element size" "loop l {\n trip 4\n array a 8 elem=z\n}";
  expect_error "negative array length" "loop l {\n trip 4\n array a -5\n}";
  expect_error "zero element size" "loop l {\n trip 4\n array a 8 elem=0\n}"

let test_error_carries_line () =
  match Loop_text.parse "loop l {\n trip 4\n f v = mov nosuch\n}" with
  | Ok _ -> Alcotest.fail "should fail"
  | Error e ->
    Alcotest.(check bool) "mentions line 3" true
      (let n = "line 3" in
       let h = String.length e in
       let rec go i = i + 6 <= h && (String.sub e i 6 = n || go (i + 1)) in
       go 0)

let suite =
  [
    ("roundtrip kernels", `Quick, test_roundtrip_kernels);
    ("roundtrip synthetic", `Quick, test_roundtrip_synthetic);
    QCheck_alcotest.to_alcotest prop_roundtrip_fuzz_gen;
    ("roundtrip semantics", `Quick, test_roundtrip_preserves_semantics);
    ("parse handwritten", `Quick, test_parse_handwritten);
    ("parse predication/exit", `Quick, test_parse_predication_and_exit);
    ("parse indirect", `Quick, test_parse_indirect);
    ("parse many", `Quick, test_parse_many);
    ("parse errors", `Quick, test_parse_errors);
    ("error line numbers", `Quick, test_error_carries_line);
  ]
