(* Par subsystem tests: the deterministic spawn-and-join fan-out/merge
   combinator, per-index seed derivation, the chunked trace recorder,
   and cross-job-count determinism of the evaluation campaign. *)

(* Force real multi-domain execution even on single-core hosts: the
   core-count clamp would otherwise route every map through the
   sequential path and leave the workers untested. *)
let () = Par.set_max_domains 8

let test_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 3 in
  Alcotest.(check (list int))
    "jobs:4 = List.map" (List.map f xs)
    (Par.map ~jobs:4 xs f);
  Alcotest.(check (list int))
    "jobs:1 = List.map" (List.map f xs)
    (Par.map ~jobs:1 xs f)

let test_mapi_passes_indices () =
  let xs = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] in
  let expected = List.mapi (fun i s -> Printf.sprintf "%d:%s" i s) xs in
  Alcotest.(check (list string))
    "indices in input order" expected
    (Par.mapi ~jobs:3 xs (fun i s -> Printf.sprintf "%d:%s" i s))

let test_map_deterministic_failure () =
  (* The smallest failing index's exception must surface regardless of
     which worker finishes first. *)
  let xs = List.init 10 Fun.id in
  let f i = if i mod 2 = 1 then failwith (string_of_int i) else i in
  for _ = 1 to 5 do
    match Par.map ~jobs:4 xs f with
    | _ -> Alcotest.fail "expected a failure"
    | exception Failure msg -> Alcotest.(check string) "first failing index" "1" msg
  done

let test_mapi_deterministic_across_widths () =
  let xs = List.init 1000 (fun i -> (i * 17) mod 101) in
  let f i x = (i * 31) lxor (x * x) in
  let expected = List.mapi f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d = List.mapi" jobs)
        expected (Par.mapi ~jobs xs f))
    [ 1; 2; 4; 8 ];
  (* Workers claim one index at a time, so lengths below, at and above
     the width all run every index exactly once. *)
  List.iter
    (fun (jobs, n) ->
      let xs = List.init n Fun.id in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d n=%d" jobs n)
        (List.mapi f xs) (Par.mapi ~jobs xs f))
    [ (2, 2); (2, 3); (4, 17); (4, 63); (4, 64); (4, 65); (3, 1000); (8, 127) ]

let test_smallest_failing_index_chunked () =
  (* Every index >= 37 fails; whichever inputs finish first, the
     surfaced exception must be index 37's, at widths 2, 4 and 8 and
     with many more failing inputs than workers (320 at width 8). *)
  let f i = if i >= 37 then failwith (string_of_int i) else i in
  List.iter
    (fun (jobs, n) ->
      match Par.map ~jobs (List.init n Fun.id) f with
      | _ -> Alcotest.fail "expected a failure"
      | exception Failure msg ->
        Alcotest.(check string) (Printf.sprintf "jobs=%d n=%d" jobs n) "37" msg)
    [ (2, 100); (4, 100); (8, 100); (8, 320) ]

let test_stress_tiny_tasks () =
  (* 10k near-empty tasks: dominated by scheduling overhead, so this is
     the hot path for cursor contention. *)
  let n = 10_000 in
  let xs = List.init n Fun.id in
  let got = Par.map ~jobs:4 xs (fun x -> x + 1) in
  Alcotest.(check int) "length" n (List.length got);
  Alcotest.(check bool) "values" true (got = List.init n (fun i -> i + 1))

let test_edge_empty_singleton () =
  Alcotest.(check (list int)) "empty" [] (Par.map ~jobs:4 [] Fun.id);
  Alcotest.(check (list int)) "singleton" [ 99 ]
    (Par.map ~jobs:4 [ 42 ] (fun x -> x + 57));
  Alcotest.(check (list int)) "two" [ 1; 2 ] (Par.map ~jobs:8 [ 0; 1 ] succ)

let test_max_domains_clamp () =
  Par.set_max_domains 1;
  Fun.protect ~finally:(fun () -> Par.set_max_domains 8) @@ fun () ->
  Alcotest.(check int) "max_domains override" 1 (Par.max_domains ());
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "clamped width-1 map = sequential" (List.map succ xs)
    (Par.map ~jobs:8 xs succ)

(* The clamp is what keeps a campaign from running more domains than
   cores, where stop-the-world minor collections convoy every domain.
   Under a cap of 2, a jobs:8 map over 64 inputs runs exactly 2
   workers: on a fresh registry the per-worker gauges name workers 0
   and 1 only, and they ran all 64 inputs, one claim each, between
   them. *)
let test_max_domains_width () =
  Par.set_max_domains 2;
  Fun.protect ~finally:(fun () -> Par.set_max_domains 8) @@ fun () ->
  let reg = Obs.Metrics.global () in
  Obs.Metrics.reset reg;
  let xs = List.init 64 Fun.id in
  Alcotest.(check (list int)) "clamped map = List.map" (List.map succ xs)
    (Par.map ~jobs:8 xs succ);
  let tasks =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"par/pool/worker" name
        && String.ends_with ~suffix:"/tasks" name)
      (Obs.Metrics.gauges reg)
  in
  Alcotest.(check (list string)) "exactly two workers"
    [ "par/pool/worker0/tasks"; "par/pool/worker1/tasks" ]
    (List.map fst tasks);
  Alcotest.(check (float 0.)) "64 inputs between them" 64.
    (List.fold_left (fun acc (_, n) -> acc +. n) 0. tasks)

let test_seed_derivation () =
  let seeds = List.init 100 (fun i -> Par.seed ~base:7L ~index:i) in
  Alcotest.(check int) "distinct per index" 100
    (List.length (List.sort_uniq Int64.compare seeds));
  Alcotest.(check bool) "pure" true
    (Par.seed ~base:7L ~index:42 = Par.seed ~base:7L ~index:42);
  Alcotest.(check bool) "base matters" false
    (Par.seed ~base:7L ~index:0 = Par.seed ~base:8L ~index:0)

(* ---- chunked trace recorder ---- *)

let mk_event i : Runtime.Event.t =
  Runtime.Event.Const { label = i; tid = 0; frame = 0; dst = i mod 4 }

(* The old list-cons recorder, as the reference behaviour. *)
let reference_snapshot events = Array.of_list events

let check_recorder ~chunk_size n =
  let r = Runtime.Trace.recorder ~chunk_size () in
  let events = List.init n mk_event in
  List.iter (Runtime.Trace.observer r) events;
  Alcotest.(check int)
    (Printf.sprintf "count (chunk=%d n=%d)" chunk_size n)
    n (Runtime.Trace.length (Runtime.Trace.snapshot r));
  Alcotest.(check bool)
    (Printf.sprintf "snapshot = reference (chunk=%d n=%d)" chunk_size n)
    true
    (Runtime.Trace.snapshot r = reference_snapshot events)

let test_recorder_empty () = check_recorder ~chunk_size:4 0

let test_recorder_chunking () =
  (* Below, at, and across chunk boundaries, including multi-chunk. *)
  List.iter (check_recorder ~chunk_size:4) [ 1; 3; 4; 5; 8; 9; 11; 17 ];
  check_recorder ~chunk_size:1 5;
  check_recorder ~chunk_size:4096 3

let test_recorder_snapshot_twice () =
  let r = Runtime.Trace.recorder ~chunk_size:3 () in
  List.iter (Runtime.Trace.observer r) (List.init 7 mk_event);
  let s1 = Runtime.Trace.snapshot r in
  (* Snapshot is non-destructive and appending continues afterwards. *)
  Runtime.Trace.observer r (mk_event 7);
  let s2 = Runtime.Trace.snapshot r in
  Alcotest.(check int) "first snapshot" 7 (Runtime.Trace.length s1);
  Alcotest.(check bool) "second extends first" true
    (s2 = reference_snapshot (List.init 8 mk_event))

(* ---- cross-job-count determinism of the evaluation campaign ---- *)

let entries ids =
  List.map
    (fun id ->
      match Corpus.Registry.find id with
      | Some e -> e
      | None -> Alcotest.failf "no corpus entry %s" id)
    ids

let outcome_signature (ce : Eval.Evaluate.class_eval) =
  List.map
    (fun (te : Eval.Evaluate.test_eval) ->
      List.map
        (fun (ro : Eval.Evaluate.race_outcome) ->
          ( Detect.Race.key_to_string ro.Eval.Evaluate.ro_key,
            ro.Eval.Evaluate.ro_reproduced,
            Option.map Detect.Triage.verdict_to_string ro.Eval.Evaluate.ro_verdict ))
        te.Eval.Evaluate.te_races)
    ce.Eval.Evaluate.cl_test_evals

let campaign ~jobs ids =
  let opts = { Eval.Evaluate.default_options with opt_jobs = jobs } in
  List.map
    (fun (e, r) ->
      match r with
      | Ok ce -> ce
      | Error msg -> Alcotest.failf "%s failed: %s" e.Corpus.Corpus_def.e_id msg)
    (Eval.Evaluate.evaluate_corpus ~opts (entries ids))

let test_campaign_determinism () =
  let seq = campaign ~jobs:1 [ "C3"; "C9" ] in
  let par = campaign ~jobs:4 [ "C3"; "C9" ] in
  Alcotest.(check string)
    "table5 identical" (Eval.Tables.table5 seq) (Eval.Tables.table5 par);
  Alcotest.(check string)
    "fig14 identical" (Eval.Tables.fig14 seq) (Eval.Tables.fig14 par);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "race outcomes identical" true
        (outcome_signature a = outcome_signature b))
    seq par

let test_class_width_determinism () =
  (* [evaluate_class] fans C9's tests out over [opt_jobs] domains. *)
  let e = List.hd (entries [ "C9" ]) in
  let eval jobs =
    let opts = { Eval.Evaluate.default_options with opt_jobs = jobs } in
    match Eval.Evaluate.evaluate_class ~opts e with
    | Ok ce -> ce
    | Error msg -> Alcotest.failf "C9 failed: %s" msg
  in
  let seq = eval 1 and par = eval 3 in
  Alcotest.(check int) "detected" seq.Eval.Evaluate.cl_detected
    par.Eval.Evaluate.cl_detected;
  Alcotest.(check int) "harmful" seq.Eval.Evaluate.cl_harmful
    par.Eval.Evaluate.cl_harmful;
  Alcotest.(check bool) "outcomes" true
    (outcome_signature seq = outcome_signature par)

let () =
  Alcotest.run "par"
    [
      ( "map",
        [
          Alcotest.test_case "matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "mapi indices" `Quick test_mapi_passes_indices;
          Alcotest.test_case "deterministic failure" `Quick test_map_deterministic_failure;
          Alcotest.test_case "widths 1/2/4/8 identical" `Quick
            test_mapi_deterministic_across_widths;
          Alcotest.test_case "smallest failing index, chunked" `Quick
            test_smallest_failing_index_chunked;
          Alcotest.test_case "10k tiny tasks" `Quick test_stress_tiny_tasks;
          Alcotest.test_case "empty and singleton" `Quick test_edge_empty_singleton;
          Alcotest.test_case "max_domains clamp" `Quick test_max_domains_clamp;
          Alcotest.test_case "clamped width runs exactly 2 workers" `Quick
            test_max_domains_width;
        ] );
      ( "pool",
        [
          Alcotest.test_case "seed derivation" `Quick test_seed_derivation;
        ] );
      ( "trace-recorder",
        [
          Alcotest.test_case "empty" `Quick test_recorder_empty;
          Alcotest.test_case "chunk boundaries" `Quick test_recorder_chunking;
          Alcotest.test_case "snapshot twice" `Quick test_recorder_snapshot_twice;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "campaign jobs 1 = 4" `Slow test_campaign_determinism;
          Alcotest.test_case "class jobs 1 = 3" `Slow test_class_width_determinism;
        ] );
    ]
