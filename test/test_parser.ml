(* Parser unit tests: expression shapes, precedence, statements,
   declarations, error cases, and pretty-print round-trips. *)

open Jir.Ast

(* A braced block, parsed as the body of a method. *)
let parse_b src =
  match Jir.Parser.parse_program ("class T { void m() " ^ src ^ " }") with
  | [ { c_methods = [ m ]; _ } ] -> m.m_body
  | _ -> Alcotest.failf "not a single method body: %s" src

let parse_e src =
  match parse_b ("{ return " ^ src ^ "; }") with
  | [ { sdesc = Sreturn (Some e); _ } ] -> e
  | _ -> Alcotest.failf "not a single expression: %s" src

let pp_e e = Jir.Pretty.expr_to_string e

let check_expr name src expected =
  Alcotest.(check string) name expected (pp_e (parse_e src))

let test_precedence () =
  check_expr "mul binds tighter" "1 + 2 * 3" "1 + 2 * 3";
  check_expr "parens preserved where needed" "(1 + 2) * 3" "(1 + 2) * 3";
  check_expr "left assoc" "1 - 2 - 3" "1 - 2 - 3";
  check_expr "right operand parens" "1 - (2 - 3)" "1 - (2 - 3)";
  check_expr "cmp vs arith" "a + 1 < b * 2" "a + 1 < b * 2";
  check_expr "and-or" "a || b && c" "a || b && c";
  check_expr "or-and parens" "(a || b) && c" "(a || b) && c";
  check_expr "not" "!a && b" "!a && b";
  check_expr "neg" "-x + y" "-x + y"

let test_postfix () =
  check_expr "field chain" "a.b.c" "a.b.c";
  check_expr "index" "a[i + 1]" "a[i + 1]";
  check_expr "call chain" "a.f().g(1, 2)" "a.f().g(1, 2)";
  check_expr "mixed" "a.b[0].c(x)" "a.b[0].c(x)";
  check_expr "length" "xs.length" "xs.length"

let test_static_refs () =
  (match (parse_e "Sys.print(1)").desc with
  | Estatic_call ("Sys", "print", [ _ ]) -> ()
  | _ -> Alcotest.fail "expected static call");
  (match (parse_e "Foo.bar").desc with
  | Estatic_field ("Foo", "bar") -> ()
  | _ -> Alcotest.fail "expected static field");
  match (parse_e "foo.bar").desc with
  | Efield ({ desc = Evar "foo"; _ }, "bar") -> ()
  | _ -> Alcotest.fail "expected instance field"

let test_new () =
  (match (parse_e "new Foo(1, x)").desc with
  | Enew ("Foo", [ _; _ ]) -> ()
  | _ -> Alcotest.fail "expected new");
  match (parse_e "new int[10]").desc with
  | Enew_array (Tint, _) -> ()
  | _ -> Alcotest.fail "expected new array"

let test_statements () =
  let b =
    parse_b
      "{ int x = 1; x = x + 1; Foo f; f = new Foo(); if (x > 0) { x = 0; } \
       else { x = 1; } while (x < 3) { x = x + 1; } return x; }"
  in
  Alcotest.(check int) "statement count" 7 (List.length b)

let test_sync_stmt () =
  match parse_b "{ synchronized (this.mutex) { this.c = 1; } }" with
  | [ { sdesc = Ssync (_, [ _ ]); _ } ] -> ()
  | _ -> Alcotest.fail "expected synchronized block"

let test_spawn_join () =
  match parse_b "{ thread t = spawn obj.run(1); join t; }" with
  | [ { sdesc = Sspawn ("t", _, "run", [ _ ]); _ }; { sdesc = Sjoin _; _ } ] -> ()
  | _ -> Alcotest.fail "expected spawn/join"

let test_array_decl () =
  match parse_b "{ int[] a = new int[4]; Foo[] fs; a[0] = 1; }" with
  | [
   { sdesc = Sdecl (Tarray Tint, "a", Some _); _ };
   { sdesc = Sdecl (Tarray (Tclass "Foo"), "fs", None); _ };
   { sdesc = Sassign (Lindex _, _); _ };
  ] ->
    ()
  | _ -> Alcotest.fail "expected array declarations"

let test_class_decl () =
  let prog =
    Jir.Parser.parse_program
      "interface I { void m(int x); } class A extends B implements I, J { \
       int f = 0; static int g; A(int x) { this.f = x; } synchronized void \
       m(int x) { } static int h() { return 1; } }"
  in
  match prog with
  | [ iface; cls ] ->
    Alcotest.(check bool) "iface kind" true (iface.c_kind = Kinterface);
    Alcotest.(check (option string)) "super" (Some "B") cls.c_super;
    Alcotest.(check (list string)) "impls" [ "I"; "J" ] cls.c_impls;
    Alcotest.(check int) "fields" 2 (List.length cls.c_fields);
    Alcotest.(check int) "methods" 3 (List.length cls.c_methods);
    let ctor = List.find is_ctor cls.c_methods in
    Alcotest.(check int) "ctor params" 1 (List.length ctor.m_params);
    let m = List.find (fun m -> m.m_name = "m") cls.c_methods in
    Alcotest.(check bool) "m sync" true m.m_sync;
    let h = List.find (fun m -> m.m_name = "h") cls.c_methods in
    Alcotest.(check bool) "h static" true h.m_static
  | _ -> Alcotest.fail "expected two declarations"

let expect_syntax_error name src =
  match Jir.Parser.parse_program src with
  | _ -> Alcotest.fail (name ^ ": expected a syntax error")
  | exception Jir.Diag.Error _ -> ()

let test_errors () =
  expect_syntax_error "missing semi" "class A { void m() { int x = 1 } }";
  expect_syntax_error "bad lvalue" "class A { void m() { 1 + 2 = 3; } }";
  expect_syntax_error "lowercase class" "class a { }";
  expect_syntax_error "spawn non-call" "class A { void m() { thread t = spawn x; } }";
  expect_syntax_error "unbalanced brace" "class A { void m() { }";
  expect_syntax_error "throw non-string" "class A { void m() { throw 1; } }"

(* Round-trip: parse, print, parse, print — the two printed forms agree. *)
let roundtrip name src =
  let p1 = Jir.Pretty.program_to_string (Jir.Parser.parse_program src) in
  let p2 = Jir.Pretty.program_to_string (Jir.Parser.parse_program p1) in
  Alcotest.(check string) name p1 p2

let test_roundtrip_fixtures () =
  roundtrip "fig1" Testlib.Fixtures.fig1;
  roundtrip "fig8" Testlib.Fixtures.fig8;
  roundtrip "fig13" Testlib.Fixtures.fig13;
  roundtrip "safe counter" Testlib.Fixtures.safe_counter;
  roundtrip "deadlock" Testlib.Fixtures.deadlock

let test_roundtrip_corpus () =
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      roundtrip e.Corpus.Corpus_def.e_id e.Corpus.Corpus_def.e_source)
    Corpus.Registry.all

let () =
  Alcotest.run "parser"
    [
      ( "expressions",
        [
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "postfix" `Quick test_postfix;
          Alcotest.test_case "static refs" `Quick test_static_refs;
          Alcotest.test_case "new" `Quick test_new;
        ] );
      ( "statements",
        [
          Alcotest.test_case "basic" `Quick test_statements;
          Alcotest.test_case "synchronized" `Quick test_sync_stmt;
          Alcotest.test_case "spawn/join" `Quick test_spawn_join;
          Alcotest.test_case "arrays" `Quick test_array_decl;
        ] );
      ( "declarations",
        [ Alcotest.test_case "class" `Quick test_class_decl ] );
      ("errors", [ Alcotest.test_case "syntax errors" `Quick test_errors ]);
      ( "roundtrip",
        [
          Alcotest.test_case "fixtures" `Quick test_roundtrip_fixtures;
          Alcotest.test_case "corpus" `Quick test_roundtrip_corpus;
        ] );
    ]
