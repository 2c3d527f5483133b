(* Compiler structure tests: the lowering invariants the rest of the
   system depends on. *)

open Jir

let compile_one src ~cls ~meth =
  let cu = Compile.compile_source src in
  match Code.find_virtual cu cls meth with
  | Some cm -> cm
  | None -> (
    match Code.find_static cu cls meth with
    | Some cm -> cm
    | None -> Alcotest.failf "no method %s.%s" cls meth)

let count_instr pred (cm : Code.meth) =
  Array.fold_left (fun n i -> if pred i then n + 1 else n) 0 cm.Code.cm_code

let is_enter = function Code.Ienter _ -> true | _ -> false
let is_exit = function Code.Iexit _ -> true | _ -> false
let is_ret = function Code.Iret _ -> true | _ -> false

let test_sync_method_wrapping () =
  let cm =
    compile_one
      "class A { synchronized int m(bool b) { if (b) { return 1; } return 2; } }"
      ~cls:"A" ~meth:"m"
  in
  Alcotest.(check bool) "starts with monitorenter" true (is_enter cm.Code.cm_code.(0));
  (* every return is preceded by a monitorexit *)
  Array.iteri
    (fun i instr ->
      if is_ret instr then
        Alcotest.(check bool)
          (Printf.sprintf "exit before ret at %d" i)
          true
          (i > 0 && is_exit cm.Code.cm_code.(i - 1)))
    cm.Code.cm_code;
  Alcotest.(check int) "exits match returns" (count_instr is_ret cm)
    (count_instr is_exit cm)

let test_sync_block_balance () =
  let cm =
    compile_one
      "class A { int v; void m(bool b) { synchronized (this) { if (b) { \
       return; } this.v = 1; } } }"
      ~cls:"A" ~meth:"m"
  in
  (* enter once; exits: one on the early return and one at fall-through *)
  Alcotest.(check int) "one enter" 1 (count_instr is_enter cm);
  Alcotest.(check int) "two exits" 2 (count_instr is_exit cm)

let test_unsync_has_no_monitors () =
  let cm = compile_one "class A { int m() { return 1; } }" ~cls:"A" ~meth:"m" in
  Alcotest.(check int) "no enters" 0 (count_instr is_enter cm);
  Alcotest.(check int) "no exits" 0 (count_instr is_exit cm)

let test_short_circuit_compiles_to_branch () =
  let cm =
    compile_one "class A { bool m(bool a, bool b) { return a && b; } }"
      ~cls:"A" ~meth:"m"
  in
  Alcotest.(check bool) "contains a branch" true
    (count_instr (function Code.Ibr _ -> true | _ -> false) cm > 0);
  (* and never a strict And instruction *)
  Alcotest.(check int) "no eager And" 0
    (count_instr
       (function Code.Ibinop (_, Ast.And, _, _) -> true | _ -> false)
       cm)

let test_field_access_is_single_instr () =
  let cm =
    compile_one "class A { int f; int m(A o) { return o.f; } }" ~cls:"A"
      ~meth:"m"
  in
  Alcotest.(check int) "one Iget" 1
    (count_instr (function Code.Iget _ -> true | _ -> false) cm)

let test_fieldinit_synthesized () =
  let cu = Compile.compile_source "class A { int x = 7; int y; }" in
  let cc = Option.get (Code.find_cls cu "A") in
  match cc.Code.cc_fieldinit with
  | Some init ->
    Alcotest.(check int) "one field write" 1
      (count_instr (function Code.Iset (_, "x", _) -> true | _ -> false) init)
  | None -> Alcotest.fail "expected a field initializer"

let test_no_fieldinit_when_trivial () =
  let cu = Compile.compile_source "class A { int x; }" in
  let cc = Option.get (Code.find_cls cu "A") in
  Alcotest.(check bool) "no initializer" true (cc.Code.cc_fieldinit = None)

let test_clinit_synthesized () =
  let cu = Compile.compile_source "class A { static int x = 3; }" in
  let cc = Option.get (Code.find_cls cu "A") in
  Alcotest.(check bool) "clinit present" true
    (List.mem_assoc "<clinit>" cc.Code.cc_static_methods)

let test_register_conventions () =
  let cm =
    compile_one "class A { int m(int p, int q) { return p + q; } }" ~cls:"A"
      ~meth:"m"
  in
  Alcotest.(check bool) "instance method reserves this + params" true
    (cm.Code.cm_nregs >= 3);
  let sm =
    compile_one "class A { static int s(int p) { return p; } }" ~cls:"A"
      ~meth:"s"
  in
  Alcotest.(check bool) "static params from reg 0" true (sm.Code.cm_nregs >= 1);
  Alcotest.(check bool) "static flag" true sm.Code.cm_static

let test_ctor_registered_by_arity () =
  let cu =
    Compile.compile_source "class A { A() { } A(int x) { } A(int x, int y) { } }"
  in
  List.iter
    (fun arity ->
      Alcotest.(check bool)
        (Printf.sprintf "ctor/%d" arity)
        true
        (Code.find_ctor cu "A" ~arity <> None))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "no ctor/3" true (Code.find_ctor cu "A" ~arity:3 = None)

let test_inherited_methods_compiled_once () =
  let cu =
    Compile.compile_source
      "class B { int f() { return 1; } } class A extends B { }"
  in
  let cc = Option.get (Code.find_cls cu "A") in
  match List.assoc_opt "f" cc.Code.cc_methods with
  | Some cm -> Alcotest.(check string) "defining class" "B" cm.Code.cm_cls
  | None -> Alcotest.fail "inherited method not resolved"

let test_while_loop_shape () =
  let cm =
    compile_one
      "class A { int m() { int i = 0; while (i < 3) { i = i + 1; } return i; } }"
      ~cls:"A" ~meth:"m"
  in
  (* a loop needs one conditional branch and one back jump *)
  Alcotest.(check bool) "has Ibr" true
    (count_instr (function Code.Ibr _ -> true | _ -> false) cm >= 1);
  Alcotest.(check bool) "has back jump" true
    (count_instr (function Code.Ijmp _ -> true | _ -> false) cm >= 1)

let () =
  Alcotest.run "compile"
    [
      ( "synchronization",
        [
          Alcotest.test_case "sync method wrapping" `Quick test_sync_method_wrapping;
          Alcotest.test_case "sync block balance" `Quick test_sync_block_balance;
          Alcotest.test_case "unsync clean" `Quick test_unsync_has_no_monitors;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "short circuit" `Quick test_short_circuit_compiles_to_branch;
          Alcotest.test_case "single access instr" `Quick test_field_access_is_single_instr;
          Alcotest.test_case "while shape" `Quick test_while_loop_shape;
          Alcotest.test_case "registers" `Quick test_register_conventions;
        ] );
      ( "class structure",
        [
          Alcotest.test_case "fieldinit" `Quick test_fieldinit_synthesized;
          Alcotest.test_case "no trivial fieldinit" `Quick test_no_fieldinit_when_trivial;
          Alcotest.test_case "clinit" `Quick test_clinit_synthesized;
          Alcotest.test_case "ctor arity" `Quick test_ctor_registered_by_arity;
          Alcotest.test_case "inherited methods" `Quick test_inherited_methods_compiled_once;
        ] );
    ]
