(* Unit tests for the heap abstraction H: controllability, lock state
   and src() I-path resolution, driven by hand-built event sequences. *)

open Narada_core
open Runtime

let mk_invoke ~label ~frame ?(client = true) ~qname ~cls ~meth () =
  Event.Invoke
    {
      label;
      tid = 0;
      caller = None;
      frame;
      qname;
      cls;
      meth;
      static = false;
      recv = None;
      args = [];
      client;
    }

let mk_param ~label ~frame ~pos ~addr =
  Event.Param { label; tid = 0; frame; pos; v = Value.Vref addr }

let site = { Event.s_meth = "X.m"; s_pc = 0 }

let mk_write ~label ~frame ~obj ~field ~v =
  Event.Write { label; tid = 0; frame; site; obj; field; idx = None; src = None; v }

let mk_read ~label ~frame ~obj ~field ~v =
  Event.Read { label; tid = 0; frame; site; dst = 0; obj; field; idx = None; v }

let mk_alloc ~label ~frame ~addr ~cls =
  Event.Alloc { label; tid = 0; frame; dst = 0; addr; cls }

let mk_lock ~label ~addr = Event.Lock { label; tid = 0; frame = 0; addr }
let mk_unlock ~label ~addr = Event.Unlock { label; tid = 0; frame = 0; addr }

let h_with events =
  let h = Absheap.create ~client_classes:[ "Seed" ] in
  List.iter (Absheap.consume h) events;
  h

let test_param_controllable () =
  let h =
    h_with
      [
        mk_invoke ~label:0 ~frame:1 ~qname:"A.m" ~cls:"A" ~meth:"m" ();
        mk_param ~label:1 ~frame:1 ~pos:0 ~addr:100;
      ]
  in
  Alcotest.(check bool) "receiver controllable" true (Absheap.controllable h 100);
  Alcotest.(check bool) "unknown address not" false (Absheap.controllable h 999)

let test_library_alloc_not_controllable () =
  let h =
    h_with
      [
        mk_invoke ~label:0 ~frame:1 ~qname:"A.m" ~cls:"A" ~meth:"m" ();
        mk_alloc ~label:1 ~frame:1 ~addr:200 ~cls:"O";
      ]
  in
  Alcotest.(check bool) "library alloc NC" false (Absheap.controllable h 200)

let test_client_alloc_controllable () =
  let h =
    h_with
      [
        mk_invoke ~label:0 ~frame:1 ~client:false ~qname:"Seed.main" ~cls:"Seed"
          ~meth:"main" ();
        mk_alloc ~label:1 ~frame:1 ~addr:200 ~cls:"O";
      ]
  in
  Alcotest.(check bool) "client alloc C" true (Absheap.controllable h 200)

let test_lazy_inheritance () =
  (* A field target first seen through a read inherits the owner flag. *)
  let h =
    h_with
      [
        mk_invoke ~label:0 ~frame:1 ~qname:"A.m" ~cls:"A" ~meth:"m" ();
        mk_param ~label:1 ~frame:1 ~pos:0 ~addr:100;
        mk_read ~label:2 ~frame:1 ~obj:100 ~field:"f" ~v:(Value.Vref 300);
      ]
  in
  Alcotest.(check bool) "inherited C" true (Absheap.controllable h 300)

let test_deep_marking_at_invoke () =
  (* Known structure reachable from a param is promoted at invocation. *)
  let h =
    h_with
      [
        (* library builds 100 -> 400 while 100 is NC *)
        mk_invoke ~label:0 ~frame:1 ~client:false ~qname:"A.i" ~cls:"A" ~meth:"i" ();
        mk_alloc ~label:1 ~frame:1 ~addr:100 ~cls:"A";
        mk_alloc ~label:2 ~frame:1 ~addr:400 ~cls:"O";
        mk_write ~label:3 ~frame:1 ~obj:100 ~field:"f" ~v:(Value.Vref 400);
        (* now the client passes 100 in *)
        mk_invoke ~label:4 ~frame:2 ~qname:"A.m" ~cls:"A" ~meth:"m" ();
        mk_param ~label:5 ~frame:2 ~pos:0 ~addr:100;
      ]
  in
  Alcotest.(check bool) "root promoted" true (Absheap.controllable h 100);
  Alcotest.(check bool) "reachable promoted" true (Absheap.controllable h 400)

let test_lock_depth () =
  let h = h_with [ mk_lock ~label:0 ~addr:7; mk_lock ~label:1 ~addr:7 ] in
  Alcotest.(check bool) "locked" true (Absheap.locked h 7);
  Absheap.consume h (mk_unlock ~label:2 ~addr:7);
  Alcotest.(check bool) "still locked (reentrant)" true (Absheap.locked h 7);
  Absheap.consume h (mk_unlock ~label:3 ~addr:7);
  Alcotest.(check bool) "unlocked" false (Absheap.locked h 7)

let test_src_shortest_path () =
  let h =
    h_with
      [
        mk_invoke ~label:0 ~frame:1 ~qname:"A.m" ~cls:"A" ~meth:"m" ();
        mk_param ~label:1 ~frame:1 ~pos:0 ~addr:100;
        mk_param ~label:2 ~frame:1 ~pos:1 ~addr:101;
        (* 100.x -> 102; 102.y -> 103; and also 101.z -> 103 (shorter) *)
        mk_write ~label:3 ~frame:1 ~obj:100 ~field:"x" ~v:(Value.Vref 102);
        mk_write ~label:4 ~frame:1 ~obj:102 ~field:"y" ~v:(Value.Vref 103);
        mk_write ~label:5 ~frame:1 ~obj:101 ~field:"z" ~v:(Value.Vref 103);
      ]
  in
  let fi = Option.get (Absheap.frame_info h 1) in
  (match Absheap.src h fi 103 with
  | Some p -> Alcotest.(check string) "shortest wins" "I1.z" (Sym.to_string p)
  | None -> Alcotest.fail "no path");
  (match Absheap.src h fi 102 with
  | Some p -> Alcotest.(check string) "deep path" "I0.x" (Sym.to_string p)
  | None -> Alcotest.fail "no path");
  match Absheap.src h fi 999 with
  | None -> ()
  | Some _ -> Alcotest.fail "unreachable address has no src"

let test_src_roots_themselves () =
  let h =
    h_with
      [
        mk_invoke ~label:0 ~frame:1 ~qname:"A.m" ~cls:"A" ~meth:"m" ();
        mk_param ~label:1 ~frame:1 ~pos:0 ~addr:100;
        mk_param ~label:2 ~frame:1 ~pos:2 ~addr:101;
      ]
  in
  let fi = Option.get (Absheap.frame_info h 1) in
  (match Absheap.src h fi 100 with
  | Some p -> Alcotest.(check string) "receiver" "I0" (Sym.to_string p)
  | None -> Alcotest.fail "no path");
  match Absheap.src h fi 101 with
  | Some p -> Alcotest.(check string) "second arg" "I2" (Sym.to_string p)
  | None -> Alcotest.fail "no path"

let test_client_anchor_chain () =
  let h =
    h_with
      [
        mk_invoke ~label:0 ~frame:1 ~qname:"A.outer" ~cls:"A" ~meth:"outer" ();
        Event.Invoke
          {
            label = 1;
            tid = 0;
            caller = Some 1;
            frame = 2;
            qname = "B.inner";
            cls = "B";
            meth = "inner";
            static = false;
            recv = None;
            args = [];
            client = false;
          };
      ]
  in
  match Absheap.client_anchor h 2 with
  | Some fi -> Alcotest.(check string) "anchor is outer" "A.outer" fi.Absheap.fi_qname
  | None -> Alcotest.fail "no anchor"

let test_occurrences_counted () =
  let h =
    h_with
      [
        mk_invoke ~label:0 ~frame:1 ~qname:"A.m" ~cls:"A" ~meth:"m" ();
        mk_invoke ~label:1 ~frame:2 ~qname:"A.m" ~cls:"A" ~meth:"m" ();
        mk_invoke ~label:2 ~frame:3 ~qname:"A.n" ~cls:"A" ~meth:"n" ();
      ]
  in
  let occ f = (Option.get (Absheap.frame_info h f)).Absheap.fi_occurrence in
  Alcotest.(check int) "first A.m" 0 (occ 1);
  Alcotest.(check int) "second A.m" 1 (occ 2);
  Alcotest.(check int) "first A.n" 0 (occ 3)

let test_sym_helpers () =
  let p = Sym.make (Sym.Arg 2) [ "a"; "b" ] in
  Alcotest.(check string) "render" "I2.a.b" (Sym.to_string p);
  Alcotest.(check int) "depth" 2 (Sym.depth p);
  Alcotest.(check bool) "equal" true (Sym.equal p (Sym.append (Sym.make (Sym.Arg 2) [ "a" ]) "b"))

let () =
  Alcotest.run "absheap"
    [
      ( "controllability",
        [
          Alcotest.test_case "params" `Quick test_param_controllable;
          Alcotest.test_case "library alloc" `Quick test_library_alloc_not_controllable;
          Alcotest.test_case "client alloc" `Quick test_client_alloc_controllable;
          Alcotest.test_case "lazy inherit" `Quick test_lazy_inheritance;
          Alcotest.test_case "deep marking" `Quick test_deep_marking_at_invoke;
        ] );
      ("locks", [ Alcotest.test_case "depth" `Quick test_lock_depth ]);
      ( "src",
        [
          Alcotest.test_case "shortest path" `Quick test_src_shortest_path;
          Alcotest.test_case "roots" `Quick test_src_roots_themselves;
          Alcotest.test_case "anchor chain" `Quick test_client_anchor_chain;
          Alcotest.test_case "occurrences" `Quick test_occurrences_counted;
        ] );
      ("sym", [ Alcotest.test_case "helpers" `Quick test_sym_helpers ]);
    ]
