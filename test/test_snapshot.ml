(* Heap snapshot tests: canonicalization must be stable, isomorphic
   across address renaming, sensitive to value changes, and terminate on
   cycles. *)

open Runtime

let set_field heap a f v = Heap.set_field_cached heap (Heap.new_field_cache ()) a f v

let build_machine src =
  Machine.create (Jir.Compile.compile_source src)

let pair_src =
  "class P { int v; P next; P(int v) { this.v = v; } }"

let construct m ~cls ~args =
  match Machine.construct m ~cls ~args () with
  | Ok v -> v
  | Error e -> Alcotest.fail e

let test_stable () =
  let m = build_machine pair_src in
  let p = construct m ~cls:"P" ~args:[ Value.Vint 3 ] in
  let s1 = Snapshot.canonical (Machine.heap m) ~roots:[ p ] in
  let s2 = Snapshot.canonical (Machine.heap m) ~roots:[ p ] in
  Alcotest.(check bool) "same snapshot" true (s1 = s2)

let test_isomorphic_across_allocations () =
  (* Two machines allocate different addresses for structurally equal
     heaps; snapshots must agree. *)
  let mk () =
    let m = build_machine pair_src in
    (* burn a few allocations on the second machine to shift addresses *)
    m
  in
  let m1 = mk () in
  let p1 = construct m1 ~cls:"P" ~args:[ Value.Vint 3 ] in
  let m2 = mk () in
  let _burn = construct m2 ~cls:"P" ~args:[ Value.Vint 9 ] in
  let p2 = construct m2 ~cls:"P" ~args:[ Value.Vint 3 ] in
  let s1 = Snapshot.canonical (Machine.heap m1) ~roots:[ p1 ] in
  let s2 = Snapshot.canonical (Machine.heap m2) ~roots:[ p2 ] in
  Alcotest.(check bool) "isomorphic snapshots equal" true (s1 = s2)

let test_value_sensitive () =
  let m = build_machine pair_src in
  let p3 = construct m ~cls:"P" ~args:[ Value.Vint 3 ] in
  let p4 = construct m ~cls:"P" ~args:[ Value.Vint 4 ] in
  let s3 = Snapshot.canonical (Machine.heap m) ~roots:[ p3 ] in
  let s4 = Snapshot.canonical (Machine.heap m) ~roots:[ p4 ] in
  Alcotest.(check bool) "different values differ" false (s3 = s4)

let test_cycles_terminate () =
  let m = build_machine pair_src in
  let a = construct m ~cls:"P" ~args:[ Value.Vint 1 ] in
  let b = construct m ~cls:"P" ~args:[ Value.Vint 2 ] in
  let heap = Machine.heap m in
  (match (Value.addr_of a, Value.addr_of b) with
  | Some aa, Some ab ->
    set_field heap aa "next" b;
    set_field heap ab "next" a
  | _ -> Alcotest.fail "no addrs");
  let s = Snapshot.canonical heap ~roots:[ a ] in
  Alcotest.(check bool) "cycle snapshot nonempty" true
    (String.length (Snapshot.to_string s) > 0);
  (* shape-sensitive: a 2-cycle differs from a self-loop *)
  let m2 = build_machine pair_src in
  let c = construct m2 ~cls:"P" ~args:[ Value.Vint 1 ] in
  (match Value.addr_of c with
  | Some ac -> set_field (Machine.heap m2) ac "next" c
  | None -> Alcotest.fail "no addr");
  let s2 = Snapshot.canonical (Machine.heap m2) ~roots:[ c ] in
  Alcotest.(check bool) "different cycle shapes differ" false (s = s2)

let test_sharing_sensitive () =
  (* x->z<-y (diamond) differs from x->z1, y->z2 with equal values. *)
  let src = "class N { P l; P r; } class P { int v; }" in
  let m1 = build_machine src in
  let n1 = construct m1 ~cls:"N" ~args:[] in
  let z = construct m1 ~cls:"P" ~args:[] in
  let h1 = Machine.heap m1 in
  (match Value.addr_of n1 with
  | Some a ->
    set_field h1 a "l" z;
    set_field h1 a "r" z
  | None -> Alcotest.fail "addr");
  let m2 = build_machine src in
  let n2 = construct m2 ~cls:"N" ~args:[] in
  let z1 = construct m2 ~cls:"P" ~args:[] in
  let z2 = construct m2 ~cls:"P" ~args:[] in
  let h2 = Machine.heap m2 in
  (match Value.addr_of n2 with
  | Some a ->
    set_field h2 a "l" z1;
    set_field h2 a "r" z2
  | None -> Alcotest.fail "addr");
  let s1 = Snapshot.canonical h1 ~roots:[ n1 ] in
  let s2 = Snapshot.canonical h2 ~roots:[ n2 ] in
  Alcotest.(check bool) "sharing detected" false (s1 = s2)

let test_arrays_in_snapshot () =
  let src = "class A { int[] xs; A() { this.xs = new int[3]; } }" in
  let m = build_machine src in
  let a = construct m ~cls:"A" ~args:[] in
  let s1 = Snapshot.canonical (Machine.heap m) ~roots:[ a ] in
  (match Machine.deref_path m a [ "xs" ] with
  | Some (Value.Vref arr) -> Heap.array_set (Machine.heap m) arr 1 (Value.Vint 9)
  | _ -> Alcotest.fail "no array");
  let s2 = Snapshot.canonical (Machine.heap m) ~roots:[ a ] in
  Alcotest.(check bool) "array mutation visible" false (s1 = s2)

(* Regression: [canonical] used to rewrite the whole entries list once
   per visited node (O(n^2)); a 20k-node list made triage unusable.
   The budget below is generous for the fixed table-based version and
   hopeless for the quadratic one. *)
let large_list_heap n =
  let m = build_machine pair_src in
  let heap = Machine.heap m in
  let nodes =
    Array.init n (fun i -> construct m ~cls:"P" ~args:[ Value.Vint i ])
  in
  Array.iteri
    (fun i v ->
      if i + 1 < n then
        match Value.addr_of v with
        | Some a -> set_field heap a "next" nodes.(i + 1)
        | None -> Alcotest.fail "no addr")
    nodes;
  (heap, nodes)

let test_large_heap_subquadratic () =
  let n = 20_000 in
  let heap, nodes = large_list_heap n in
  let t0 = Obs.Clock.ticks () in
  let s = Snapshot.canonical heap ~roots:[ nodes.(0) ] in
  let elapsed = Obs.Clock.elapsed_s ~since:t0 in
  Alcotest.(check bool) "all nodes reached" true
    (String.length (Snapshot.to_string s) > n);
  Alcotest.(check bool)
    (Printf.sprintf "canonicalized %d nodes in %.2fs (< 5s)" n elapsed)
    true (elapsed < 5.0)

let test_large_cyclic_heap () =
  let n = 20_000 in
  let heap, nodes = large_list_heap n in
  (* close the loop and add a chord back to the middle *)
  (match (Value.addr_of nodes.(n - 1), Value.addr_of nodes.(n / 2)) with
  | Some last, Some mid ->
    set_field heap last "next" nodes.(0);
    set_field heap mid "next" nodes.(0)
  | _ -> Alcotest.fail "no addrs");
  let t0 = Obs.Clock.ticks () in
  let s1 = Snapshot.canonical heap ~roots:[ nodes.(0) ] in
  let s2 = Snapshot.canonical heap ~roots:[ nodes.(0) ] in
  let elapsed = Obs.Clock.elapsed_s ~since:t0 in
  Alcotest.(check bool) "cyclic snapshot stable" true (s1 = s2);
  Alcotest.(check bool)
    (Printf.sprintf "cyclic %d nodes in %.2fs (< 5s)" n elapsed)
    true (elapsed < 5.0)

let test_thread_handles_opaque () =
  (* thread ids must not leak into snapshots *)
  let m = build_machine pair_src in
  let p = construct m ~cls:"P" ~args:[ Value.Vint 1 ] in
  let s1 =
    Snapshot.canonical (Machine.heap m) ~roots:[ p; Value.Vthread 1 ]
  in
  let s2 =
    Snapshot.canonical (Machine.heap m) ~roots:[ p; Value.Vthread 42 ]
  in
  Alcotest.(check bool) "tids canonicalized" true (s1 = s2)

(* [to_string] is pinned byte for byte over every kind of leaf: null,
   ints, booleans, strings (empty, digit-only, with a quote and a
   newline), thread handles (opaque), and a cycle through an array. *)
let leaves_src =
  "class H { H self; H nul; int zero; int neg; bool yes; bool no; str \
   empty; str one; str quoted; thread th; int[] xs; }"

let leaves () =
  let m = build_machine leaves_src in
  let h = construct m ~cls:"H" ~args:[] in
  let heap = Machine.heap m in
  let a = match Value.addr_of h with Some a -> a | None -> Alcotest.fail "no addr" in
  let set f v = set_field heap a f v in
  set "self" h;
  set "zero" (Value.Vint 0);
  set "neg" (Value.Vint (-1));
  set "yes" (Value.Vbool true);
  set "no" (Value.Vbool false);
  set "empty" (Value.Vstr "");
  set "one" (Value.Vstr "1");
  set "quoted" (Value.Vstr "say \"hi\"\nbye");
  set "th" (Value.Vthread 3);
  let arr = Heap.alloc_array heap ~elt:Jir.Ast.Tint ~len:2 in
  Heap.array_set heap arr 0 h;
  Heap.array_set heap arr 1 (Value.Vstr "1");
  set "xs" (Value.Vref arr);
  (heap, h)

let test_to_string_pinned () =
  let heap, h = leaves () in
  Alcotest.(check string) "printout"
    {|#0 = H{empty=#1, neg=#2, no=#3, nul=#4, one=#5, quoted=#6, self=#0, th=#7, xs=#8, yes=#10, zero=#11}
#1 = ""
#2 = -1
#3 = false
#4 = null
#5 = "1"
#6 = "say \"hi\"\nbye"
#7 = <thread>
#8 = [#0; #9]
#9 = "1"
#10 = true
#11 = 0
#12 = <thread>
#13 = null
|}
    (Snapshot.to_string
       (Snapshot.canonical heap ~roots:[ h; Value.Vthread 1; Value.Vnull ]))

(* Leaves that print alike without quoting must still differ. *)
let test_leaves_injective () =
  let m = build_machine "class B { int i; bool b; str s; }" in
  let heap = Machine.heap m in
  let snap v = Snapshot.canonical heap ~roots:[ v ] in
  List.iter
    (fun (x, y) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s vs %s" (Value.to_string x) (Value.to_string y))
        false
        (snap x = snap y))
    [
      (Value.Vint 1, Value.Vstr "1");
      (Value.Vbool true, Value.Vstr "true");
      (Value.Vnull, Value.Vstr "null");
      (Value.Vthread 0, Value.Vstr "<thread>");
    ];
  (* and inside an object, through its fields *)
  let obj i s =
    let v = construct m ~cls:"B" ~args:[] in
    (match Value.addr_of v with
    | Some a ->
      set_field heap a "i" i;
      set_field heap a "s" s
    | None -> Alcotest.fail "no addr");
    snap v
  in
  Alcotest.(check bool) "field of an object" false
    (obj (Value.Vint 1) (Value.Vstr "1") = obj (Value.Vint 1) (Value.Vstr "\"1\""))

let () =
  Alcotest.run "snapshot"
    [
      ( "canonicalization",
        [
          Alcotest.test_case "stable" `Quick test_stable;
          Alcotest.test_case "isomorphic" `Quick test_isomorphic_across_allocations;
          Alcotest.test_case "value sensitive" `Quick test_value_sensitive;
          Alcotest.test_case "cycles" `Quick test_cycles_terminate;
          Alcotest.test_case "sharing" `Quick test_sharing_sensitive;
          Alcotest.test_case "arrays" `Quick test_arrays_in_snapshot;
          Alcotest.test_case "large heap subquadratic" `Quick
            test_large_heap_subquadratic;
          Alcotest.test_case "large cyclic heap" `Quick test_large_cyclic_heap;
          Alcotest.test_case "thread handles" `Quick test_thread_handles_opaque;
          Alcotest.test_case "to_string pinned" `Quick test_to_string_pinned;
          Alcotest.test_case "leaves injective" `Quick test_leaves_injective;
        ] );
    ]
