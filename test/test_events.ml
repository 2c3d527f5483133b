(* Trace/event correctness: the canonical trace of §3.1 as produced by
   the machine, checked on the paper's Figure 1 example. *)

open Runtime

let record src =
  let cu = Jir.Compile.compile_source src in
  let _m, trace, res =
    Interp.record cu ~client_classes:[ "Seed" ] ~cls:"Seed" ~meth:"main"
  in
  (match res with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed failed: %s" e);
  trace

let test_labels_strictly_increasing () =
  let trace = record Testlib.Fixtures.fig1 in
  let last = ref (-1) in
  Array.iter
    (fun e ->
      let l = Event.label_of e in
      Alcotest.(check bool) "monotonic" true (l > !last);
      last := l)
    trace

let test_client_invokes () =
  let trace = record Testlib.Fixtures.fig1 in
  let qnames =
    List.concat_map
      (function Event.Invoke { client = true; qname; _ } -> [ qname ] | _ -> [])
      (Array.to_list trace)
  in
  (* Seed calls: new Lib (ctor), new Counter (no ctor), set, update, get *)
  Alcotest.(check (list string)) "client boundary invocations"
    [ "Lib.<init>"; "Lib.set"; "Lib.update"; "Counter.get" ]
    qnames

let test_params_follow_invokes () =
  let trace = record Testlib.Fixtures.fig1 in
  (* every client Invoke with a receiver is followed by Param pos=0 with
     the same value *)
  Array.iteri
    (fun i e ->
      match e with
      | Event.Invoke { client = true; recv = Some r; frame; _ } -> (
        match trace.(i + 1) with
        | Event.Param { pos = 0; v; frame = pframe; _ } ->
          Alcotest.(check bool) "same frame" true (frame = pframe);
          Alcotest.(check bool) "same value" true (Value.equal r v)
        | _ -> Alcotest.fail "Invoke not followed by Param 0")
      | _ -> ())
    trace

let test_lock_unlock_balanced () =
  let trace = record Testlib.Fixtures.fig1 in
  let depth = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      match e with
      | Event.Lock { addr; _ } ->
        Hashtbl.replace depth addr
          (1 + Option.value ~default:0 (Hashtbl.find_opt depth addr))
      | Event.Unlock { addr; _ } ->
        let d = Option.value ~default:0 (Hashtbl.find_opt depth addr) in
        Alcotest.(check bool) "never negative" true (d > 0);
        Hashtbl.replace depth addr (d - 1)
      | _ -> ())
    trace;
  Hashtbl.iter
    (fun _ d -> Alcotest.(check int) "all released" 0 d)
    depth

let test_update_write_under_receiver_lock () =
  (* In fig1, the count++ write happens while the Lib receiver (not the
     Counter) is locked: exactly the unprotected-access situation. *)
  let trace = record Testlib.Fixtures.fig1 in
  let locked = Hashtbl.create 8 in
  let found = ref false in
  Array.iter
    (fun e ->
      match e with
      | Event.Lock { addr; _ } -> Hashtbl.replace locked addr ()
      | Event.Unlock { addr; _ } -> Hashtbl.remove locked addr
      | Event.Write { obj; field = "count"; _ } ->
        found := true;
        Alcotest.(check bool) "counter itself unlocked" false
          (Hashtbl.mem locked obj);
        Alcotest.(check bool) "some other lock held" true
          (Hashtbl.length locked > 0)
      | _ -> ())
    trace;
  Alcotest.(check bool) "count write seen" true !found

let test_reads_carry_values () =
  let trace = record Testlib.Fixtures.fig1 in
  let ok = ref false in
  Array.iter
    (fun e ->
      match e with
      | Event.Read { field = "count"; v = Value.Vint _; _ } -> ok := true
      | _ -> ())
    trace;
  Alcotest.(check bool) "count read with int value" true !ok

let test_return_to_client_flag () =
  let trace = record Testlib.Fixtures.fig1 in
  let client_returns =
    Array.to_list trace
    |> List.filter (fun e ->
           match e with Event.Return { to_client = true; _ } -> true | _ -> false)
  in
  (* one per client invocation *)
  Alcotest.(check int) "client returns" 4 (List.length client_returns)

let test_alloc_events () =
  let trace = record Testlib.Fixtures.fig1 in
  let allocs =
    Array.to_list trace
    |> List.filter_map (fun e ->
           match e with Event.Alloc { cls; _ } -> Some cls | _ -> None)
  in
  (* Seed allocates Lib and Counter; Lib's ctor allocates a Counter. *)
  Alcotest.(check (list string)) "alloc order" [ "Lib"; "Counter"; "Counter" ]
    allocs

let test_trace_determinism () =
  let t1 = record Testlib.Fixtures.fig13 and t2 = record Testlib.Fixtures.fig13 in
  Alcotest.(check string) "identical traces" (Trace.to_string t1)
    (Trace.to_string t2)

let () =
  Alcotest.run "events"
    [
      ( "trace shape",
        [
          Alcotest.test_case "labels increase" `Quick test_labels_strictly_increasing;
          Alcotest.test_case "client invokes" `Quick test_client_invokes;
          Alcotest.test_case "param binding" `Quick test_params_follow_invokes;
          Alcotest.test_case "lock balance" `Quick test_lock_unlock_balanced;
          Alcotest.test_case "allocs" `Quick test_alloc_events;
          Alcotest.test_case "determinism" `Quick test_trace_determinism;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "unprotected write shape" `Quick
            test_update_write_under_receiver_lock;
          Alcotest.test_case "reads carry values" `Quick test_reads_carry_values;
          Alcotest.test_case "return boundary" `Quick test_return_to_client_flag;
        ] );
    ]
