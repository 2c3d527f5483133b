(* End-to-end, layer-by-layer benchmark of narada.

     perfbench --workload W --seed N --seconds S --trace 0|1
               [--size full|tiny] [--plant race|block]
               [--scratch DIR] [--emit-reference]

   One process runs one workload (Campaign, Lintgen, Repaircorpus) as a
   closed loop: the next verdict starts when the previous one finished,
   on at most [Par.max_domains ()] worker domains.  It prints every
   metric by name and unit; the last line of standard output is one
   JSON object {correct, attempted, failed, metrics}, and the exit code
   is 1 when an output fails the correctness check.

   [--trace 0] times only the workload's public entry calls and reports
   the end-to-end metrics.  [--trace 1] alternates each untraced pass
   with a traced pass in which the benchmark calls each layer's public
   functions itself inside spans (Tracer); per-layer self times come
   from those spans, work nested inside another layer's call is read
   from the spans and counters the program records, and every traced
   answer must equal the untraced one (the decomposition check). *)

(* Per-layer metric names and units, in BENCHMARK.json order.  A layer a
   workload does not exercise, or whose work that workload hides inside
   another layer's call, reports 0. *)
let layer_metrics =
  [ ("jir.parse_s", "s"); ("jir.typecheck_s", "s"); ("jir.compile_s", "s");
    ("jir.source_bytes", "bytes"); ("jir.instrs", "count"); ("static.lint_s", "s");
    ("static.analyze_s", "s"); ("static.summarized", "count"); ("static.cache_hits", "count");
    ("static.cache_misses", "count"); ("static.candidates", "count");
    ("backend.prepare_s", "s"); ("backend.prepares", "count");
    ("backend.compiled_instrs", "count"); ("runtime.seed_trace_s", "s");
    ("runtime.trace_events", "count"); ("core.access_s", "s"); ("core.pairs_s", "s");
    ("core.synth_s", "s"); ("core.pairs", "count"); ("core.tests", "count");
    ("core.instantiate_s", "s"); ("core.instantiations", "count");
    ("core.uninstantiable", "count"); ("detect.lockset_s", "s"); ("detect.schedules", "count");
    ("detect.candidates", "count"); ("detect.confirm_s", "s"); ("detect.confirm_runs", "count");
    ("detect.confirm_steps", "count"); ("detect.confirm_yield", "ratio");
    ("detect.triage_s", "s"); ("detect.triage_replays", "count"); ("detect.harmful", "count");
    ("detect.benign", "count"); ("detect.replay_share", "ratio"); ("repair.session_s", "s");
    ("repair.repaired", "count"); ("repair.attempts", "count");
    ("repair.attempts_per_race", "ratio"); ("repair.rejected", "count");
    ("repair.reanalysis_s", "s"); ("par.steals", "count"); ("par.chunks", "count");
    ("par.queue_hwm", "count"); ("par.idle_s", "s"); ("trace.overhead_frac", "ratio");
    ("trace.unattributed_frac", "ratio"); ("failed_frac", "ratio");
    ("verdict_s.samples", "count") ]

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let () =
  let a = Args.parse Sys.argv in
  let run =
    match a.Args.workload with
    | "corpus-campaign" -> Campaign.run
    | "lint-generated" -> Lintgen.run
    | "repair-corpus" -> Repaircorpus.run
    | w -> Args.die "unknown workload %S (corpus-campaign, lint-generated, repair-corpus)" w
  in
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error _ -> ())
    [ Filename.dirname a.Args.scratch; a.Args.scratch ];
  let r = run a in
  let failed_frac = float_of_int r.Harness.failed /. float_of_int (max 1 r.Harness.attempted) in
  let metrics =
    if not a.Args.trace then
      [ ("setup_s", "s", r.Harness.setup_s);
        ("verdicts_per_s", "1/s", r.Harness.rate);
        ("verdict_s.p50", "s", Harness.percentile 0.5 r.Harness.samples);
        ("verdict_s.p90", "s", Harness.percentile 0.9 r.Harness.samples);
        ("peak_rss_mb", "MB", r.Harness.rss_mb); ("ok_frac", "ratio", 1.0 -. failed_frac);
        ("races_confirmed", "count", float_of_int r.Harness.races) ]
    else
      List.map
        (fun (name, unit) ->
          ( name,
            unit,
            match name with
            | "failed_frac" -> failed_frac
            | "verdict_s.samples" -> float_of_int (List.length r.Harness.samples)
            | _ -> Option.value (List.assoc_opt name r.Harness.layers) ~default:0.0 ))
        layer_metrics
  in
  Printf.printf "workload %s size %s seed %d trace %d: %d passes, %d verdicts (%d failed)\n"
    a.Args.workload (Args.size_name a.Args.size) a.Args.seed
    (if a.Args.trace then 1 else 0)
    r.Harness.passes r.Harness.attempted r.Harness.failed;
  Printf.printf "races_confirmed %d at budget %s\n" r.Harness.races r.Harness.budget;
  Printf.printf "host steal time during the passes: %.2f s over all CPUs\n" r.Harness.steal;
  Printf.printf
    "host speed during the passes: %.3f of the reference (times below are scaled to it)\n"
    r.Harness.speed;
  Printf.printf "verdict_s over %d samples\n" (List.length r.Harness.samples);
  List.iter (fun (n, u, v) -> Printf.printf "  %-26s %16.6f %s\n" n v u) metrics;
  List.iter (fun p -> prerr_endline ("perfbench: INCORRECT: " ^ p)) r.Harness.problems;
  let correct = r.Harness.problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.Harness.attempted r.Harness.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_num v) u)
          metrics));
  exit (if correct then 0 else 1)
