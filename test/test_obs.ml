(* Observability layer tests: the clock must be monotonic, spans must
   nest and record deterministically, and the exporter's stable section
   must not depend on which domain recorded what. *)

let test_clock_monotonic () =
  let prev = ref (Obs.Clock.ticks ()) in
  for _ = 1 to 10_000 do
    let now = Obs.Clock.ticks () in
    if Int64.compare now !prev < 0 then
      Alcotest.failf "clock went backwards: %Ld after %Ld" now !prev;
    prev := now
  done

let stable_lines reg = List.filter Obs.Export.is_stable_line (Obs.Export.to_lines reg)

let test_span_nesting () =
  let reg = Obs.Metrics.create () in
  Obs.Span.with_ ~registry:reg "outer" (fun () ->
      Obs.Span.with_ ~registry:reg "inner" (fun () -> ());
      Obs.Span.with_ ~registry:reg "inner" (fun () -> ()));
  let paths = List.map (fun (p, _, _) -> p) (Obs.Metrics.spans reg) in
  Alcotest.(check (list string)) "nested paths" [ "outer"; "outer/inner" ] paths;
  Alcotest.(check int) "inner called twice" 2 (Obs.Metrics.span_calls reg "outer/inner");
  Alcotest.(check int) "outer called once" 1 (Obs.Metrics.span_calls reg "outer")

let test_span_root_escapes_nesting () =
  let reg = Obs.Metrics.create () in
  Obs.Span.with_ ~registry:reg "ambient" (fun () ->
      Obs.Span.with_ ~registry:reg ~root:true "anchored" (fun () ->
          Obs.Span.with_ ~registry:reg "child" (fun () -> ())));
  let paths = List.map (fun (p, _, _) -> p) (Obs.Metrics.spans reg) in
  Alcotest.(check (list string)) "root span not nested"
    [ "ambient"; "anchored"; "anchored/child" ] paths

let test_span_exit_idempotent () =
  let reg = Obs.Metrics.create () in
  let sp = Obs.Span.enter ~registry:reg "once" in
  Obs.Span.exit sp;
  Obs.Span.exit sp;
  Alcotest.(check int) "one call recorded" 1 (Obs.Metrics.span_calls reg "once")

let test_span_unwinds_missed_exit () =
  let reg = Obs.Metrics.create () in
  let outer = Obs.Span.enter ~registry:reg "outer" in
  let _inner = Obs.Span.enter ~registry:reg "inner" in
  (* exit the outer span without exiting the inner one: the stack must
     unwind so later spans do not nest under a dead path *)
  Obs.Span.exit outer;
  Obs.Span.with_ ~registry:reg "after" (fun () -> ());
  Alcotest.(check int) "after is top-level" 1 (Obs.Metrics.span_calls reg "after")

(* The same samples recorded from 4 domains in any interleaving must
   export the same stable section as a sequential recording. *)
let test_stable_lines_domain_independent () =
  let record reg ~domains =
    let work d =
      for i = 0 to 99 do
        Obs.Metrics.incr reg "c";
        Obs.Metrics.observe reg "h" ((d * 100) + i);
        Obs.Metrics.record_span reg "s" ~ns:(Int64.of_int (i + 1))
      done
    in
    if domains = 1 then List.iter work [ 0; 1; 2; 3 ]
    else
      List.iter Domain.join
        (List.map (fun d -> Domain.spawn (fun () -> work d)) [ 0; 1; 2; 3 ])
  in
  let r1 = Obs.Metrics.create () and r4 = Obs.Metrics.create () in
  record r1 ~domains:1;
  record r4 ~domains:4;
  Alcotest.(check (list string))
    "stable sections agree"
    (stable_lines r1) (stable_lines r4)

let test_export_shape () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.incr reg "a/count";
  Obs.Metrics.observe reg "a/hist" 3;
  Obs.Metrics.gauge_add reg "a/gauge" 1.5;
  Obs.Metrics.record_span reg "a/span" ~ns:42L;
  let lines = Obs.Export.to_lines ~meta:[ ("cmd", Obs.Export.json_str "t") ] reg in
  (match lines with
  | meta :: _ ->
    Alcotest.(check bool) "meta first" true
      (String.length meta > 0 && String.sub meta 0 15 = "{\"kind\": \"meta\"")
  | [] -> Alcotest.fail "no lines");
  let stable = List.filter Obs.Export.is_stable_line lines in
  Alcotest.(check int) "counter+hist+span call lines" 3 (List.length stable);
  (* volatile lines: span ns + gauge *)
  Alcotest.(check int) "total lines" 6 (List.length lines)

let test_record_gc () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.incr reg "a/count";
  let stable = stable_lines reg in
  ignore (Sys.opaque_identity (List.init 1000 Fun.id));
  Obs.Metrics.record_gc reg;
  let gauges = Obs.Metrics.gauges reg in
  List.iter
    (fun name ->
      match List.assoc_opt name gauges with
      | Some v -> Alcotest.(check bool) (name ^ " set") true (v >= 0.0)
      | None -> Alcotest.failf "no %s gauge" name)
    [ "gc/minor_collections"; "gc/minor_words" ];
  Alcotest.(check bool) "words counted" true
    (List.assoc "gc/minor_words" gauges > 0.0);
  Alcotest.(check (list string)) "stable section unchanged" stable
    (stable_lines reg)

let test_json_escaping () =
  Alcotest.(check string)
    "quotes and newlines escaped" "\"a\\\"b\\nc\""
    (Obs.Export.json_str "a\"b\nc")

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "root escapes nesting" `Quick
            test_span_root_escapes_nesting;
          Alcotest.test_case "exit idempotent" `Quick test_span_exit_idempotent;
          Alcotest.test_case "unwinds missed exit" `Quick
            test_span_unwinds_missed_exit;
        ] );
      ( "export",
        [
          Alcotest.test_case "stable lines domain independent" `Quick
            test_stable_lines_domain_independent;
          Alcotest.test_case "shape" `Quick test_export_shape;
          Alcotest.test_case "minor-GC gauges" `Quick test_record_gc;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
        ] );
    ]
