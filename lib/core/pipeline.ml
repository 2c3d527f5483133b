(* End-to-end Narada pipeline (Fig. 6): sequential seed execution →
   access analysis → pair generation → context derivation → test
   synthesis, with monotonic timing for the Table 4 reproduction and
   per-stage spans for `narada profile`. *)

type analysis = {
  an_cu : Jir.Code.unit_;
  an_client_classes : Jir.Ast.id list;
  an_seed_cls : Jir.Ast.id;
  an_seed_meth : Jir.Ast.id;
  an_trace_len : int;
  an_access : Access.result;
  an_pairs : Pairs.pair list;
  an_pairs_pruned : int;
  an_static_filter : bool;
  an_tests : Synth.test list;
  an_seconds : float;
  an_backend : Backend.t; (* the compiled code of [an_cu] *)
}

(* Intersect dynamically generated pairs with the static candidate set
   at the (field, unordered method pair) granularity.  The static set
   over-approximates dynamic races (Crucible machine-checks this), so
   pruned pairs cannot be confirmable races. *)
let static_prune ?cache (cu : Jir.Code.unit_) (pairs : Pairs.pair list) =
  let an = Static.Analyze.run ~open_world:true ?cache cu.Jir.Code.cu_program in
  List.partition
    (fun (p : Pairs.pair) ->
      Static.Analyze.covers an ~field:p.Pairs.p_field
        ~m1:p.Pairs.p_a.Pairs.ep_site.Runtime.Event.s_meth
        ~m2:p.Pairs.p_b.Pairs.ep_site.Runtime.Event.s_meth)
    pairs

(* The stages after the recording, in the open root span [sp] entered
   at [t0]: access analysis → pairs → static filter → synthesis. *)
let stages sp ~t0 ~static_filter ?static_cache ~code (cu : Jir.Code.unit_)
    ~client_classes ~seed_cls ~seed_meth trace =
  Obs.Span.observe sp "trace_events" (Runtime.Trace.length trace);
  let access =
    Obs.Span.with_ "analyze" (fun () -> Access.analyze cu ~client_classes trace)
  in
  let all_pairs = Obs.Span.with_ "pairs" (fun () -> Pairs.generate access) in
  let pairs, pruned =
    if static_filter then
      Obs.Span.with_ "static-filter" (fun () ->
          static_prune ?cache:static_cache cu all_pairs)
    else (all_pairs, [])
  in
  let tests =
    Obs.Span.with_ "synth" (fun () ->
        Synth.plan cu.Jir.Code.cu_program access.Access.summary ~seed_cls
          ~seed_meth pairs)
  in
  Obs.Span.observe sp "pairs" (List.length pairs);
  Obs.Span.observe sp "tests" (List.length tests);
  let seconds = Obs.Clock.elapsed_s ~since:t0 in
  Obs.Span.exit sp;
  {
    an_cu = cu;
    an_client_classes = client_classes;
    an_seed_cls = seed_cls;
    an_seed_meth = seed_meth;
    an_trace_len = Runtime.Trace.length trace;
    an_access = access;
    an_pairs = pairs;
    an_pairs_pruned = List.length pruned;
    an_static_filter = static_filter;
    an_tests = tests;
    an_seconds = seconds;
    an_backend = code;
  }

(* ~root: analyses may run on a Par worker domain; the span paths must
   not depend on where the work was scheduled. *)
let of_trace ~backend cu ~client_classes ~seed_cls ~seed_meth trace =
  let code = Backend.prepare backend cu in
  let sp = Obs.Span.enter ~root:true "pipeline" in
  stages sp ~t0:(Obs.Clock.ticks ()) ~static_filter:false ~code cu
    ~client_classes ~seed_cls ~seed_meth trace

let analyze ?(seed = Runtime.Machine.default_seed) ?(static_filter = false)
    ?static_cache ?(backend = Backend.Compiled) (cu : Jir.Code.unit_)
    ~client_classes ~seed_cls ~seed_meth : (analysis, string) result =
  let code = Backend.prepare backend cu in
  let sp = Obs.Span.enter ~root:true "pipeline" in
  let t0 = Obs.Clock.ticks () in
  let _m, trace, res =
    Obs.Span.with_ "trace" (fun () ->
        Runtime.Interp.record ~seed cu ~client_classes ~cls:seed_cls ~meth:seed_meth)
  in
  match res with
  | Error e ->
    Obs.Span.exit sp;
    Error (Printf.sprintf "seed test failed: %s" e)
  | Ok _ ->
    Ok
      (stages sp ~t0 ~static_filter ?static_cache ~code cu ~client_classes
         ~seed_cls ~seed_meth trace)

let analyze_source ?static_filter src ~client_classes ~seed_cls ~seed_meth :
    (analysis, string) result =
  match Jir.Compile.compile_source src with
  | cu ->
    analyze ?static_filter cu ~client_classes ~seed_cls ~seed_meth
  | exception Jir.Diag.Error e -> Error (Jir.Diag.to_string e)

let instantiator (an : analysis) : Synth.test -> Detect.Racefuzzer.instantiator =
  Synth.instantiator an.an_cu ~client_classes:an.an_client_classes

let summary_to_string (an : analysis) =
  Printf.sprintf
    "trace=%d events, accesses=%d, setters=%d, pairs=%d%s, tests=%d (%.2fs)"
    an.an_trace_len
    (List.length an.an_access.Access.accesses)
    (Summary.count an.an_access.Access.summary)
    (List.length an.an_pairs)
    (if an.an_static_filter then
       Printf.sprintf " (static filter pruned %d)" an.an_pairs_pruned
     else "")
    (List.length an.an_tests) an.an_seconds
