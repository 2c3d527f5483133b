(* The narada command-line tool: parse/run/trace Jir programs, run the
   synthesis pipeline, execute the detection stack, and regenerate the
   paper's tables.  See `narada --help`. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let or_die = function
  | Ok x -> x
  | Error msg ->
    prerr_endline ("narada: " ^ msg);
    exit 1

(* A corpus entry by id (C1..C9, X1..X3). *)
let find_corpus id =
  match Corpus.Registry.find id with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown corpus id %s (have: %s)" id
         (String.concat ", " Corpus.Registry.ids))

(* Source selection shared by several commands: either a .jir file, run
   from [client.entry], or a corpus entry (C1..C9), run from its own
   seed test.  Returns the source, the client class, the entry method
   and the corpus entry. *)
let load_source ?(client = "Seed") ?(entry = "main") ~file ~corpus () =
  match (file, corpus) with
  | Some f, None -> Ok (read_file f, client, entry, None)
  | None, Some id ->
    Result.map
      (fun (e : Corpus.Corpus_def.entry) ->
        (e.e_source, e.e_seed_cls, e.e_seed_meth, Some e))
      (find_corpus id)
  | Some _, Some _ -> Error "give either FILE or --corpus, not both"
  | None, None -> Error "give a FILE or --corpus ID"

let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Jir source file.")

let corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"ID" ~doc:"Benchmark corpus entry (C1..C9).")

let client_arg =
  Arg.(
    value & opt string "Seed"
    & info [ "client" ] ~docv:"CLASS" ~doc:"Client (seed test) class name.")

let entry_arg =
  Arg.(
    value & opt string "main"
    & info [ "entry" ] ~docv:"METHOD" ~doc:"Static entry method on the client class.")

let seed_arg =
  Arg.(
    value
    & opt int64 Runtime.Machine.default_seed
    & info [ "seed" ] ~docv:"N" ~doc:"Deterministic seed (VM and schedulers).")

let jobs_arg =
  Arg.(
    value
    & opt int (Par.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Width of the command's one fan-out over its outermost independent \
           units (synthesized tests, races to repair, generated programs, \
           lint entries, serve requests), capped at the core count (default: \
           the recommended domain count). Results are identical for every \
           job count.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the observability registry (counters, histograms, spans, \
           gauges) to FILE as JSONL after the command finishes.  The \
           $(i,stable) section is byte-identical for every --jobs value; \
           timings, pool gauges and minor-GC totals are in the \
           $(i,volatile) section.")

(* Dump the global registry after a command body ran, with the run's
   minor-GC totals as volatile gauges.  [meta] values are pre-rendered
   JSON. *)
let write_metrics path ~meta =
  match path with
  | None -> ()
  | Some path ->
    let reg = Obs.Metrics.global () in
    Obs.Metrics.record_gc reg;
    Obs.Export.write_jsonl ~path ~meta reg

let compile_or_die ?entry src =
  (* Corpus entries go through the registry's shared compile cache. *)
  let compile () =
    match entry with
    | Some e -> Corpus.Registry.compiled_unit e
    | None -> Jir.Compile.compile_source src
  in
  match compile () with
  | cu -> cu
  | exception Jir.Diag.Error d ->
    prerr_endline ("narada: " ^ Jir.Diag.to_string d);
    exit 1

(* ---- corpus ---- *)

let corpus_cmd =
  let run () = print_string (Eval.Tables.table3 ()) in
  Cmd.v (Cmd.info "corpus" ~doc:"List the benchmark corpus (Table 3).")
    Term.(const run $ const ())

(* ---- parse ---- *)

let parse_cmd =
  let run file corpus =
    let src, _, _, _ = or_die (load_source ~file ~corpus ()) in
    match Jir.Parser.parse_program src with
    | ast -> print_string (Jir.Pretty.program_to_string ast)
    | exception Jir.Diag.Error d ->
      prerr_endline ("narada: " ^ Jir.Diag.to_string d);
      exit 1
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse a Jir program and pretty-print it.")
    Term.(const run $ file_arg $ corpus_arg)

(* ---- run ---- *)

let run_cmd =
  let run file corpus client entry seed =
    let src, client, entry, centry =
      or_die (load_source ~client ~entry ~file ~corpus ())
    in
    let cu = compile_or_die ?entry:centry src in
    let r, m =
      Conc.Exec.run_program cu ~seed ~client_classes:[ client ] ~cls:client
        ~meth:entry
        (Conc.Scheduler.random ~seed)
    in
    print_string (Runtime.Machine.output m);
    (match r.Conc.Exec.outcome with
    | Conc.Exec.All_finished -> Printf.printf "finished in %d steps\n" r.Conc.Exec.steps
    | Conc.Exec.Deadlock tids ->
      Printf.printf "DEADLOCK involving threads %s\n"
        (String.concat "," (List.map string_of_int tids))
    | Conc.Exec.Fuel_exhausted -> print_endline "fuel exhausted");
    List.iter
      (fun (tid, msg) -> Printf.printf "thread %d crashed: %s\n" tid msg)
      r.Conc.Exec.crashes
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a Jir program under a seeded random scheduler.")
    Term.(const run $ file_arg $ corpus_arg $ client_arg $ entry_arg $ seed_arg)

(* ---- trace ---- *)

let trace_cmd =
  let run file corpus client entry seed =
    let src, client, entry, centry =
      or_die (load_source ~client ~entry ~file ~corpus ())
    in
    let cu = compile_or_die ?entry:centry src in
    let _m, trace, res =
      Runtime.Interp.record ~seed cu ~client_classes:[ client ] ~cls:client
        ~meth:entry
    in
    print_string (Runtime.Trace.to_string trace);
    match res with
    | Ok _ -> ()
    | Error e -> Printf.printf "(execution failed: %s)\n" e
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the sequential seed test and dump the labelled trace (§3.1).")
    Term.(const run $ file_arg $ corpus_arg $ client_arg $ entry_arg $ seed_arg)

(* ---- analyze ---- *)

let analyze_cmd =
  let run file corpus client entry verbose metrics_out =
    let src, client, entry, _ =
      or_die (load_source ~client ~entry ~file ~corpus ())
    in
    let an =
      or_die
        (Narada_core.Pipeline.analyze_source src ~client_classes:[ client ]
           ~seed_cls:client ~seed_meth:entry)
    in
    write_metrics metrics_out ~meta:[ ("cmd", Obs.Export.json_str "analyze") ];
    Printf.printf "%s\n" (Narada_core.Pipeline.summary_to_string an);
    if verbose then begin
      print_endline "-- accesses (A) --";
      List.iter
        (fun a -> print_endline ("  " ^ Narada_core.Access.acc_to_string a))
        an.Narada_core.Pipeline.an_access.Narada_core.Access.accesses
    end;
    print_endline "-- setters (D) --";
    List.iter
      (fun s -> print_endline ("  " ^ Narada_core.Summary.to_string s))
      (Narada_core.Summary.setters
         an.Narada_core.Pipeline.an_access.Narada_core.Access.summary);
    print_endline "-- potential racy pairs --";
    List.iter
      (fun p -> print_endline ("  " ^ Narada_core.Pairs.pair_to_string p))
      an.Narada_core.Pipeline.an_pairs
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also print every access.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the trace analysis: accesses, setters, racy pairs (§3.1-3.3).")
    Term.(
      const run $ file_arg $ corpus_arg $ client_arg $ entry_arg $ verbose
      $ metrics_out_arg)

(* ---- lint ---- *)

let lint_cmd =
  let run file corpus all jobs cache_dir strict metrics_out =
    let cache = Option.map Static.Cache.open_dir cache_dir in
    let errors = ref 0 in
    if all then begin
      (* Without a cache, compile sequentially up front: the fan-out
         below then reads the registry's published snapshot without
         ever taking a lock.  With a cache, compile lazily — warm
         units never need their compiled form at all. *)
      if cache = None then Corpus.Registry.warm Corpus.Registry.all;
      let blocks =
        Par.map ~jobs:(max 1 jobs) Corpus.Registry.all (fun e ->
            Static.Lint.block ?cache ~label:e.Corpus.Corpus_def.e_id
              ~source:e.Corpus.Corpus_def.e_source
              ~compile:(fun () -> Corpus.Registry.compiled_unit e)
              ())
      in
      let texts =
        List.map2
          (fun (e : Corpus.Corpus_def.entry) (b : Static.Lint.block) ->
            errors := !errors + b.Static.Lint.bl_errors;
            Printf.sprintf "== %s %s ==\n%s" e.Corpus.Corpus_def.e_id
              e.Corpus.Corpus_def.e_name b.Static.Lint.bl_text)
          Corpus.Registry.all blocks
      in
      print_string (String.concat "\n" texts)
    end
    else begin
      let src, _, _, centry = or_die (load_source ~file ~corpus ()) in
      let label =
        match (file, centry) with
        | _, Some e -> e.Corpus.Corpus_def.e_id
        | Some f, None -> f
        | None, None -> "<input>"
      in
      let b =
        Static.Lint.block ?cache ~label ~source:src
          ~compile:(fun () -> compile_or_die ?entry:centry src)
          ()
      in
      errors := b.Static.Lint.bl_errors;
      print_string b.Static.Lint.bl_text
    end;
    write_metrics metrics_out ~meta:[ ("cmd", Obs.Export.json_str "lint") ];
    if strict && !errors > 0 then exit 1
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Lint every corpus entry (fans out over --jobs).")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Persistent static-analysis cache.  Rendered lint blocks are \
             keyed by unit source bytes and per-class summaries by content \
             digest, so a warm re-lint only re-links and an edited unit only \
             re-summarizes its changed classes.  The directory is created on \
             demand; stale or corrupt entries are evicted automatically.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit nonzero when any error-severity finding is reported.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static race analysis and lock-discipline lint: points-to + lockset \
          race candidates, unguarded writes to fields guarded elsewhere, \
          dead sync regions, and bytecode monitor-balance checks, with \
          source positions.  Exit status reflects analyzer crashes only — \
          and, under $(b,--strict), error-severity findings; output is \
          byte-identical for every --jobs and for cold vs. warm --cache \
          runs.")
    Term.(
      const run $ file_arg $ corpus_arg $ all $ jobs_arg $ cache_dir $ strict
      $ metrics_out_arg)

(* ---- synthesize ---- *)

let synthesize_cmd =
  let run file corpus client entry =
    let src, client, entry, _ =
      or_die (load_source ~client ~entry ~file ~corpus ())
    in
    let an =
      or_die
        (Narada_core.Pipeline.analyze_source src ~client_classes:[ client ]
           ~seed_cls:client ~seed_meth:entry)
    in
    Printf.printf "// %d multithreaded tests synthesized from %d racy pairs\n\n"
      (List.length an.Narada_core.Pipeline.an_tests)
      (List.length an.Narada_core.Pipeline.an_pairs);
    List.iter
      (fun t -> print_endline (Narada_core.Synth.to_source t))
      an.Narada_core.Pipeline.an_tests
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:"Synthesize multithreaded racy tests (§3.4) and print them.")
    Term.(const run $ file_arg $ corpus_arg $ client_arg $ entry_arg)

(* ---- detect ---- *)

let detect_cmd =
  let run corpus_id jobs metrics_out =
    let e = or_die (find_corpus corpus_id) in
    let opts = { Eval.Evaluate.default_options with opt_jobs = max 1 jobs } in
    match Eval.Evaluate.evaluate_class ~opts e with
    | Error msg ->
      prerr_endline ("narada: " ^ msg);
      exit 1
    | Ok ce ->
      Printf.printf
        "%s %s: pairs=%d tests=%d detected=%d reproduced=%d harmful=%d benign=%d (synthesis %.3fs, detection %.3fs)\n"
        ce.Eval.Evaluate.cl_entry.Corpus.Corpus_def.e_id
        ce.Eval.Evaluate.cl_entry.Corpus.Corpus_def.e_name
        ce.Eval.Evaluate.cl_pairs
        ce.Eval.Evaluate.cl_tests
        ce.Eval.Evaluate.cl_detected ce.Eval.Evaluate.cl_reproduced
        ce.Eval.Evaluate.cl_harmful ce.Eval.Evaluate.cl_benign
        ce.Eval.Evaluate.cl_seconds ce.Eval.Evaluate.cl_detect_seconds;
      List.iter
        (fun (te : Eval.Evaluate.test_eval) ->
          List.iter
            (fun (ro : Eval.Evaluate.race_outcome) ->
              Printf.printf "  test %d: %s%s%s\n"
                te.Eval.Evaluate.te_test.Narada_core.Synth.st_id
                (Detect.Race.key_to_string ro.Eval.Evaluate.ro_key)
                (if ro.Eval.Evaluate.ro_reproduced then " [reproduced]" else "")
                (match ro.Eval.Evaluate.ro_verdict with
                | Some v -> " [" ^ Detect.Triage.verdict_to_string v ^ "]"
                | None -> ""))
            te.Eval.Evaluate.te_races)
        ce.Eval.Evaluate.cl_test_evals;
      write_metrics metrics_out
        ~meta:
          [
            ("cmd", Obs.Export.json_str "detect");
            ("corpus", Obs.Export.json_str corpus_id);
            ("jobs", string_of_int (max 1 jobs));
          ]
  in
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Corpus id (C1..C9).")
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:
         "Synthesize tests for a corpus class, run them under the detection \
          stack and report every race (detected / reproduced / triaged). \
          The detection time is summed over the tests, so with $(b,--jobs) \
          above 1 it is total work rather than elapsed time.")
    Term.(const run $ id $ jobs_arg $ metrics_out_arg)

(* ---- eval ---- *)

(* The smoke campaign: a three-class subset with a lighter detection
   budget, small enough for CI to run at several job counts. *)
let smoke_ids = [ "C1"; "C3"; "C9" ]

let eval_cmd =
  let run with_contege budget jobs smoke metrics_out =
    let opts =
      if smoke then
        {
          Eval.Evaluate.default_options with
          opt_schedules = 2;
          opt_confirm_runs = 3;
          opt_jobs = max 1 jobs;
        }
      else { Eval.Evaluate.default_options with opt_jobs = max 1 jobs }
    in
    let entries =
      if smoke then
        List.filter
          (fun e -> List.mem e.Corpus.Corpus_def.e_id smoke_ids)
          Corpus.Registry.all
      else Corpus.Registry.all
    in
    let evals =
      List.filter_map
        (fun (e, r) ->
          match r with
          | Ok ce -> Some ce
          | Error msg ->
            Printf.eprintf "narada: %s failed: %s\n" e.Corpus.Corpus_def.e_id msg;
            None)
        (Eval.Evaluate.evaluate_corpus ~opts entries)
    in
    print_string (Eval.Tables.table3 ());
    print_newline ();
    print_string (Eval.Tables.table4 evals);
    print_newline ();
    print_string (Eval.Tables.table5 evals);
    print_newline ();
    print_string (Eval.Tables.fig14 evals);
    if with_contege then begin
      print_newline ();
      print_string (Eval.Tables.contege_table (Eval.Tables.contege_rows ~budget evals))
    end;
    write_metrics metrics_out
      ~meta:
        [
          ("cmd", Obs.Export.json_str "eval");
          ("smoke", if smoke then "true" else "false");
          ("jobs", string_of_int (max 1 jobs));
        ];
    (* The ablation re-synthesizes every class, so it runs after the
       metrics dump: the artifact stays the campaign's. *)
    print_newline ();
    print_string
      (Eval.Evaluate.ablation_table
         (List.filter_map
            (fun e -> Result.to_option (Eval.Evaluate.ablation e))
            entries))
  in
  let with_contege =
    Arg.(value & flag & info [ "contege" ] ~doc:"Also run the ConTeGe baseline.")
  in
  let budget =
    Arg.(
      value & opt int Contege.default_budget
      & info [ "budget" ] ~docv:"N" ~doc:"Random tests per class for the baseline.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Bounded smoke campaign: classes C1, C3, C9 with a reduced \
             detection budget (CI uses this to cross-check metrics across \
             job counts).")
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Reproduce Tables 3-5 and Figure 14 over the whole corpus.")
    Term.(
      const run $ with_contege $ budget $ jobs_arg $ smoke $ metrics_out_arg)

(* ---- contege ---- *)

let contege_cmd =
  let run corpus_id budget seed =
    let e = or_die (find_corpus corpus_id) in
    let c = Contege.campaign e ~budget ~schedules:5 ~seed in
    Printf.printf "%s: random tests=%d valid=%d violations=%d first=%s\n"
      corpus_id c.Contege.ca_tests c.Contege.ca_valid c.Contege.ca_violations
      (match c.Contege.ca_first_violation with
      | Some i -> string_of_int i
      | None -> "-");
    (match c.Contege.ca_example with
    | Some src ->
      print_endline "-- first violating test --";
      print_string src
    | None -> ())
  in
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Corpus id.")
  in
  let budget =
    Arg.(
      value & opt int Contege.default_budget
      & info [ "budget" ] ~docv:"N" ~doc:"Number of random tests.")
  in
  Cmd.v
    (Cmd.info "contege"
       ~doc:"Run the ConTeGe-style random baseline against a corpus class.")
    Term.(const run $ id $ budget $ seed_arg)

(* ---- explore ---- *)

let explore_cmd =
  let run corpus_id test_id bound =
    if bound < 0 then begin
      Printf.eprintf "narada: --bound must be non-negative (got %d)\n" bound;
      exit 1
    end;
    let e = or_die (find_corpus corpus_id) in
    match Eval.Evaluate.analyze_entry e with
    | Error msg ->
      prerr_endline ("narada: " ^ msg);
      exit 1
    | Ok (_, an) -> (
      match
        List.find_opt
          (fun (t : Narada_core.Synth.test) -> t.Narada_core.Synth.st_id = test_id)
          an.Narada_core.Pipeline.an_tests
      with
      | None ->
        Printf.eprintf "narada: no synthesized test #%d (have 0..%d)\n" test_id
          (List.length an.Narada_core.Pipeline.an_tests - 1);
        exit 1
      | Some t ->
        print_string (Narada_core.Synth.to_source t);
        let instantiate = Narada_core.Pipeline.instantiator an t in
        (* FastTrack runs on every execution; its reports are read once,
           when the execution ends, and keys are kept in first-seen order. *)
        let ft = ref (Detect.Fasttrack.create ()) in
        let restart () =
          match instantiate () with
          | Error e -> Error e
          | Ok inst ->
            ft := Detect.Fasttrack.attach inst.Detect.Racefuzzer.ri_machine;
            Ok inst.Detect.Racefuzzer.ri_machine
        in
        let seen = Hashtbl.create 16 and races = ref [] in
        let on_execution _ _ =
          List.iter
            (fun r ->
              let k = Detect.Race.key_of r in
              if not (Hashtbl.mem seen k) then begin
                Hashtbl.add seen k ();
                races := k :: !races
              end)
            (Detect.Fasttrack.reports !ft)
        in
        let config =
          {
            Conc.Systematic.default_config with
            Conc.Systematic.sc_preemption_bound = bound;
          }
        in
        (match Conc.Systematic.explore ~config ~restart ~on_execution () with
        | Error msg ->
          prerr_endline ("narada: " ^ msg);
          exit 1
        | Ok stats ->
          Printf.printf
            "\nsystematic exploration: %d executions (preemption bound %d)%s, %d deadlocks\n"
            stats.Conc.Systematic.st_executions bound
            (if stats.Conc.Systematic.st_exhausted then " [budget hit]" else "")
            stats.Conc.Systematic.st_deadlocks;
          Printf.printf "races observed across all explored schedules:\n";
          List.iter
            (fun k -> Printf.printf "  %s\n" (Detect.Race.key_to_string k))
            (List.rev !races)))
  in
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Corpus id.")
  in
  let test_id =
    Arg.(value & opt int 0 & info [ "test" ] ~docv:"N" ~doc:"Synthesized test id.")
  in
  let bound =
    Arg.(value & opt int 2 & info [ "bound" ] ~docv:"K" ~doc:"Preemption bound.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore a synthesized test's schedules (CHESS-style \
          preemption-bounded search) and report every race observed.")
    Term.(const run $ id $ test_id $ bound)

(* ---- fuzz ---- *)

(* "30s" or "30" → seconds. *)
let parse_budget s =
  let s = String.trim s in
  let num =
    if String.length s > 1 && s.[String.length s - 1] = 's' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  match float_of_string_opt num with
  | Some f when f >= 0.0 -> Ok f
  | Some _ | None ->
    Error (Printf.sprintf "bad --budget %S (want e.g. 30s)" s)

let fuzz_cmd =
  let run count seed jobs smoke mutate guided budget corpus_in corpus_out
      metrics_out =
    let mutate =
      match mutate with
      | None -> None
      | Some m -> Some (or_die (Fuzz.Oracle.mutation_of_string m))
    in
    let jobs = max 1 jobs in
    let opts =
      {
        Fuzz.Crucible.o_count = (if smoke then 30 else count);
        o_seed = seed;
        o_jobs = jobs;
        o_mutate = mutate;
      }
    in
    let meta =
      [ ("cmd", Obs.Export.json_str "fuzz"); ("jobs", string_of_int jobs) ]
    in
    if guided || budget <> None || corpus_in <> None || corpus_out <> None
    then begin
      let corpus =
        match corpus_in with
        | None -> Cov.Corpus.create ()
        | Some p -> or_die (Cov.Corpus.load p)
      in
      let budget_s =
        match budget with None -> None | Some b -> Some (or_die (parse_budget b))
      in
      let report = Fuzz.Crucible.run_guided ?budget_s ~corpus opts in
      print_string (Fuzz.Crucible.guided_report_to_string report);
      (match corpus_out with
      | None -> ()
      | Some p ->
        Cov.Corpus.save corpus p;
        Printf.printf "corpus snapshot: %s (digest %s)\n" p
          (Cov.Corpus.digest corpus));
      write_metrics metrics_out ~meta;
      if not (Fuzz.Crucible.guided_ok report) then exit 1
    end
    else begin
      let report = Fuzz.Crucible.run opts in
      print_string (Fuzz.Crucible.report_to_string report);
      write_metrics metrics_out ~meta;
      if not (Fuzz.Crucible.ok report) then exit 1
    end
  in
  let count =
    Arg.(
      value & opt int Fuzz.Crucible.default_options.Fuzz.Crucible.o_count
      & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Bounded smoke campaign (30 programs; overrides $(b,--count)).")
  in
  let mutate =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"M"
          ~doc:
            "Self-test the harness: inject a fault (drop-join, drop-release \
             corrupt the event stream FastTrack observes; static-drop-sync \
             plants an unsoundness in the static race analyzer; \
             static-stale-cache keys its summary cache by class name instead \
             of content digest; repair-overlock makes repair try candidates \
             in reverse cost order; instance-alias hands out a synthesized \
             test's template machine instead of a copy; test-alias hands \
             every synthesized test the first test's campaign triage \
             state; late-attach loses \
             the events of the step where a run becomes observed; \
             guided-seed hands blind Guided a seed one higher \
             than Evaluate's and repair's) and check \
             that the differential oracles catch it.")
  in
  let guided =
    Arg.(
      value & flag
      & info [ "guided" ]
          ~doc:
            "Coverage-guided campaign: schedule fresh programs and \
             schedule-mutations of the novelty-ranked corpus by interleaving \
             coverage instead of blind uniform sampling.")
  in
  let budget =
    Arg.(
      value
      & opt (some string) None
      & info [ "budget" ] ~docv:"SPAN"
          ~doc:
            "Wall-clock bound for the guided campaign, e.g. 30s (checked at \
             round boundaries; implies $(b,--guided)).")
  in
  let corpus_in =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-in" ] ~docv:"FILE"
          ~doc:"Resume the guided campaign from a corpus checkpoint.")
  in
  let corpus_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-out" ] ~docv:"FILE"
          ~doc:"Write the final corpus checkpoint (narada.covcorpus/1).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Crucible: generate random well-typed Jir programs and cross-check \
          the whole stack with differential oracles (pretty/parse \
          round-trip, VM determinism, FastTrack vs Djit+ vs a naive \
          happens-before oracle, lockset coverage, static race-analyzer \
          soundness, synthesis replay, observed vs mid-run-observed runs, \
          incremental vs from-scratch static analysis, minimal repair \
          closure of every confirmed race).  \
          Deterministic: the report is \
          byte-identical for every --jobs; with $(b,--guided) it is also \
          reproducible from (seed, corpus snapshot).")
    Term.(
      const run $ count $ seed_arg $ jobs_arg $ smoke $ mutate $ guided $ budget
      $ corpus_in $ corpus_out $ metrics_out_arg)

(* ---- cov ---- *)

let cov_cmd =
  let run corpus jobs seed metrics_out =
    let jobs = max 1 jobs in
    let entries =
      match corpus with
      | None -> Corpus.Registry.all
      | Some id -> [ or_die (find_corpus id) ]
    in
    let rows = Eval.Coverage.coverage_corpus ~seed ~jobs entries in
    print_string (Eval.Coverage.table rows);
    write_metrics metrics_out
      ~meta:
        [ ("cmd", Obs.Export.json_str "cov"); ("jobs", string_of_int jobs) ]
  in
  Cmd.v
    (Cmd.info "cov"
       ~doc:
         "Interleaving coverage of the synthesized tests: racy pairs actually \
          co-scheduled, HB edges and lock orders exercised, Racefuzzer \
          postponed-set states.  The table and the stable cov/* counters are \
          byte-identical for every --jobs value.")
    Term.(const run $ corpus_arg $ jobs_arg $ seed_arg $ metrics_out_arg)

(* ---- serve ---- *)

(* A persistent work-queue daemon over stdin/stdout.  Requests are
   line-oriented; a blank line (or EOF) closes a batch.  Within a batch,
   read-only requests (analyze / cov / confirm) are deduplicated and
   fanned out once per batch with Par; stateful requests (fuzz / stats /
   checkpoint / quit) run in order at their position against the
   on-disk-checkpointed corpus.  Responses come back one line per
   request line, in request order — so a session transcript is
   deterministic and cram-testable. *)
let serve_cmd =
  let run state jobs seed =
    let jobs = max 1 jobs in
    let reg = Obs.Metrics.global () in
    (* Two daemons may be pointed at the same (not yet existing) state
       dir: losing the mkdir race, or finding a half-written checkpoint
       from a concurrently initializing peer, is recoverable — start
       from the recoverable pieces and count the incident. *)
    if not (Sys.file_exists state) then (
      try Sys.mkdir state 0o755 with
      | Sys_error _ when Sys.file_exists state && Sys.is_directory state ->
        (* lost the mkdir race to a concurrently starting daemon *)
        Obs.Metrics.incr reg "serve/recovered"
      | Sys_error msg ->
        prerr_endline ("narada: cannot create state dir: " ^ msg);
        exit 1)
    else if not (Sys.is_directory state) then begin
      prerr_endline
        ("narada: state path exists and is not a directory: " ^ state);
      exit 1
    end;
    let ckpt = Filename.concat state "corpus.nar" in
    let corpus =
      if Sys.file_exists ckpt then
        match Cov.Corpus.load ckpt with
        | Ok c -> c
        | Error msg ->
          Printf.eprintf "narada: ignoring bad checkpoint %s: %s\n%!" ckpt msg;
          Obs.Metrics.incr reg "serve/recovered";
          Cov.Corpus.create ()
      else Cov.Corpus.create ()
    in
    Printf.printf "ready state=%s entries=%d features=%d\n%!" state
      (Cov.Corpus.size corpus)
      (Cov.Set.total (Cov.Corpus.coverage corpus));
    let checkpoint () =
      Cov.Corpus.save corpus ckpt;
      Printf.sprintf "checkpoint ok %s entries=%d digest=%s" ckpt
        (Cov.Corpus.size corpus) (Cov.Corpus.digest corpus)
    in
    let handle_pure line =
      let fail fmt = Printf.sprintf fmt in
      match String.split_on_char ' ' line with
      | [ "analyze"; id ] -> (
        match Corpus.Registry.find id with
        | None -> fail "error unknown corpus id %s" id
        | Some e -> (
          match Eval.Evaluate.analyze_entry e with
          | Error msg -> fail "error analyze %s: %s" id msg
          | Ok (_, an) ->
            Printf.sprintf "analyze %s ok pairs=%d tests=%d" id
              (List.length an.Narada_core.Pipeline.an_pairs)
              (List.length an.Narada_core.Pipeline.an_tests)))
      | [ "cov"; id ] -> (
        match Corpus.Registry.find id with
        | None -> fail "error unknown corpus id %s" id
        | Some e -> (
          match Eval.Coverage.class_coverage ~seed e with
          | Error msg -> fail "error cov %s: %s" id msg
          | Ok cc ->
            let c k = Cov.Set.count k cc.Eval.Coverage.cc_cov in
            Printf.sprintf
              "cov %s ok racy_pair=%d hb_edge=%d lock_order=%d postponed=%d \
               total=%d"
              id (c Cov.Racy_pair) (c Cov.Hb_edge) (c Cov.Lock_order)
              (c Cov.Postponed)
              (Cov.Set.total cc.Eval.Coverage.cc_cov)))
      | [ "confirm"; id ] -> (
        match Corpus.Registry.find id with
        | None -> fail "error unknown corpus id %s" id
        | Some e -> (
          match Eval.Guided.confirm_class ~seed ~mode:Eval.Guided.Guided e with
          | Error msg -> fail "error confirm %s: %s" id msg
          | Ok gc ->
            Printf.sprintf "confirm %s ok candidates=%d confirmed=%d schedules=%d"
              id gc.Eval.Guided.gc_candidates
              (List.length gc.Eval.Guided.gc_confirmed)
              gc.Eval.Guided.gc_schedules))
      | _ -> fail "error unparseable request %S" line
    in
    let is_pure line =
      match String.split_on_char ' ' line with
      | ("analyze" | "cov" | "confirm") :: _ -> true
      | _ -> false
    in
    let quit = ref false in
    let handle_stateful line =
      match String.split_on_char ' ' line with
      | "fuzz" :: count :: rest -> (
        let fseed =
          match rest with
          | [ s ] -> Int64.of_string_opt s
          | [] -> Some seed
          | _ -> None
        in
        match (int_of_string_opt count, fseed) with
        | Some n, Some fseed when n > 0 ->
          let report =
            Fuzz.Crucible.run_guided ~corpus
              {
                Fuzz.Crucible.o_count = n;
                o_seed = fseed;
                o_jobs = jobs;
                o_mutate = None;
              }
          in
          Printf.sprintf "fuzz ok checked=%d novelty=%d corpus=%d failures=%d"
            report.Fuzz.Crucible.gr_checked report.Fuzz.Crucible.gr_novelty
            (Cov.Corpus.size corpus)
            (List.length report.Fuzz.Crucible.gr_failures)
        | _ -> Printf.sprintf "error bad fuzz request %S" line)
      | [ "stats" ] ->
        let reg = Obs.Metrics.global () in
        let c name = Obs.Metrics.counter_value reg name in
        Printf.sprintf
          "stats entries=%d features=%d digest=%s recovered=%d\n\
           static/cache hits=%d misses=%d evictions=%d summarized=%d"
          (Cov.Corpus.size corpus)
          (Cov.Set.total (Cov.Corpus.coverage corpus))
          (Cov.Corpus.digest corpus)
          (c "serve/recovered")
          (c "static/cache/hits") (c "static/cache/misses")
          (c "static/cache/evictions")
          (c "static/summarized")
      | [ "checkpoint" ] -> checkpoint ()
      | [ "quit" ] ->
        quit := true;
        ignore (checkpoint ());
        "bye"
      | _ -> Printf.sprintf "error unparseable request %S" line
    in
    (* Read one batch: lines until a blank line or EOF. *)
    let read_batch () =
      let rec go acc =
        match input_line stdin with
        | exception End_of_file ->
          if acc = [] then None else Some (List.rev acc)
        | "" -> if acc = [] then go [] else Some (List.rev acc)
        | line -> go (String.trim line :: acc)
      in
      go []
    in
    let rec serve () =
      match read_batch () with
      | None -> ignore (checkpoint ())
      | Some batch ->
        let pure =
          List.sort_uniq String.compare (List.filter is_pure batch)
        in
        let answers = Par.map ~jobs pure handle_pure in
        let table = List.combine pure answers in
        List.iter
          (fun line ->
            let resp =
              if is_pure line then
                match List.assoc_opt line table with
                | Some r -> r
                | None ->
                  (* unreachable: [table] indexes every pure line of the
                     batch — but a daemon must answer, not die *)
                  Printf.sprintf "error internal: no answer for %S" line
              else handle_stateful line
            in
            print_endline resp)
          batch;
        flush stdout;
        if not !quit then serve ()
    in
    serve ()
  in
  let state =
    Arg.(
      value & opt string ".narada-serve"
      & info [ "state" ] ~docv:"DIR"
          ~doc:"State directory holding the corpus checkpoint (corpus.nar).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Persistent work-queue daemon: accepts line-oriented analyze / cov / \
          confirm / fuzz / stats / checkpoint requests on stdin (blank line \
          closes a batch), deduplicates and fans each batch's read-only \
          requests out over --jobs domains, answers one line per request \
          in order, and keeps a coverage corpus checkpointed on disk across \
          sessions.")
    Term.(const run $ state $ jobs_arg $ seed_arg)

(* ---- profile ---- *)

let profile_cmd =
  let run metrics_out =
    let reg = Obs.Metrics.global () in
    let ms ns = Int64.to_float ns /. 1e6 in
    Printf.printf "%-4s %7s %6s %6s | %9s %10s %9s %11s %9s %9s\n" "Cls" "events"
      "pairs" "tests" "trace_ms" "analyze_ms" "pairs_ms" "context_ms" "synth_ms"
      "total_ms";
    print_endline (String.make 97 '-');
    List.iter
      (fun (e : Corpus.Corpus_def.entry) ->
        Obs.Metrics.reset reg;
        match Eval.Evaluate.analyze_entry e with
        | Error msg ->
          Printf.printf "%-4s analysis failed: %s\n" e.Corpus.Corpus_def.e_id msg
        | Ok (_, an) ->
          let span p = Obs.Metrics.span_ns reg p in
          let context_ns = span "pipeline/synth/context" in
          (* synth self-time: the synthesis span minus its context child *)
          let synth_ns = Int64.sub (span "pipeline/synth") context_ns in
          Printf.printf
            "%-4s %7d %6d %6d | %9.2f %10.2f %9.2f %11.2f %9.2f %9.2f\n"
            e.Corpus.Corpus_def.e_id an.Narada_core.Pipeline.an_trace_len
            (List.length an.Narada_core.Pipeline.an_pairs)
            (List.length an.Narada_core.Pipeline.an_tests)
            (ms (span "pipeline/trace"))
            (ms (span "pipeline/analyze"))
            (ms (span "pipeline/pairs"))
            (ms context_ns) (ms synth_ns)
            (ms (span "pipeline")))
      Corpus.Registry.all;
    write_metrics metrics_out ~meta:[ ("cmd", Obs.Export.json_str "profile") ]
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the synthesis pipeline over every corpus class and print a \
          per-stage breakdown (trace, analysis, pair generation, context \
          derivation, synthesis) from the observability spans.  The count \
          columns are deterministic; timings are wall-clock (monotonic).")
    Term.(const run $ metrics_out_arg)

(* ---- repair ---- *)

let repair_cmd =
  let run file corpus client entry seed jobs schedules confirm_runs attempts
      metrics_out =
    let src, client, entry, centry =
      or_die (load_source ~client ~entry ~file ~corpus ())
    in
    let cu = compile_or_die ?entry:centry src in
    let sub =
      Repair.Engine.subject_of_unit cu ~client_classes:[ client ]
        ~seed_cls:client ~seed_meth:entry
    in
    let opts =
      {
        Repair.Engine.default_options with
        eo_seed = seed;
        eo_jobs = max 1 jobs;
        eo_schedules = schedules;
        eo_confirm_runs = confirm_runs;
      }
    in
    match Repair.Engine.repair_all ~opts sub with
    | Error msg ->
      prerr_endline ("narada: " ^ msg);
      exit 1
    | Ok rp ->
      print_string (Repair.Engine.report_to_string ~show_attempts:attempts sub rp);
      write_metrics metrics_out
        ~meta:
          [
            ("cmd", Obs.Export.json_str "repair");
            ("jobs", string_of_int (max 1 jobs));
          ];
      (* A confirmed race the grammar cannot repair is itself a finding,
         not a tool failure; exit 1 only then, so scripts can tell. *)
      let unrepaired =
        List.exists
          (fun rr -> not (Repair.Engine.constructive rr))
          rp.Repair.Engine.rp_races
      in
      if unrepaired then exit 1
  in
  let schedules =
    Arg.(
      value
      & opt int Repair.Engine.default_options.Repair.Engine.eo_schedules
      & info [ "schedules" ] ~docv:"N"
          ~doc:"Random schedules per test during (re-)detection.")
  in
  let confirm_runs =
    Arg.(
      value
      & opt int Repair.Engine.default_options.Repair.Engine.eo_confirm_runs
      & info [ "confirm-runs" ] ~docv:"N"
          ~doc:"Directed confirmation runs per candidate race.")
  in
  let attempts =
    Arg.(
      value & flag
      & info [ "attempts" ]
          ~doc:
            "Also print every rejected candidate with the validation stage \
             that killed it (compile / behavior / deadlock / re-detection).")
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Synthesize a minimal synchronization fix for every confirmed race: \
          enumerate patch candidates (synchronize method / wrap statements / \
          widen an existing mutex) in added-sync cost order and keep the \
          first one that compiles, preserves the sequential seed behavior, \
          introduces no lock-order inversion, and eliminates the race under \
          full re-detection.  Prints the applied patch as a \
          unified diff with the race's harmful/benign triage verdict.")
    Term.(
      const run $ file_arg $ corpus_arg $ client_arg $ entry_arg $ seed_arg
      $ jobs_arg $ schedules $ confirm_runs $ attempts $ metrics_out_arg)

(* ---- deadlock ---- *)

let deadlock_cmd =
  let run file corpus client entry =
    let src, client, entry, centry =
      or_die (load_source ~client ~entry ~file ~corpus ())
    in
    let cu = compile_or_die ?entry:centry src in
    match
      Deadlock.Dlsynth.run cu ~client_classes:[ client ] ~seed_cls:client
        ~seed_meth:entry
    with
    | Error e ->
      prerr_endline ("narada: " ^ e);
      exit 1
    | Ok rows ->
      if rows = [] then print_endline "no ABBA lock-order pairs found"
      else
        List.iter
          (fun (r : Deadlock.Dlsynth.result_row) ->
            print_endline (Deadlock.Lockorder.pair_to_string r.Deadlock.Dlsynth.rr_pair);
            (match r.Deadlock.Dlsynth.rr_confirmed with
            | Some c when c.Deadlock.Dlsynth.co_deadlocked ->
              Printf.printf "  => DEADLOCK confirmed (%s)\n" c.Deadlock.Dlsynth.co_schedule
            | Some _ -> print_endline "  => did not deadlock"
            | None -> print_endline "  => not instantiable"))
          rows
  in
  Cmd.v
    (Cmd.info "deadlock"
       ~doc:
         "Extract lock orders from the sequential seed trace, synthesize           ABBA deadlock tests and confirm them (the companion OOPSLA'14           technique).")
    Term.(const run $ file_arg $ corpus_arg $ client_arg $ entry_arg)

let main_cmd =
  let doc =
    "Synthesizing racy tests: an executable reproduction of Narada (PLDI 2015)"
  in
  Cmd.group (Cmd.info "narada" ~version:"1.0.0" ~doc)
    [
      corpus_cmd;
      parse_cmd;
      run_cmd;
      trace_cmd;
      analyze_cmd;
      lint_cmd;
      synthesize_cmd;
      detect_cmd;
      eval_cmd;
      contege_cmd;
      deadlock_cmd;
      explore_cmd;
      fuzz_cmd;
      cov_cmd;
      repair_cmd;
      serve_cmd;
      profile_cmd;
    ]

(* Command-line and input errors exit 2 with a single stderr line — no
   usage dump, no backtrace.  Cmdliner's own parse errors (unknown
   subcommand / flag, exit code [Cmd.Exit.cli_error]) are captured and
   reduced to their first line; [Sys_error] (unreadable input file)
   escapes every command body and is caught here. *)
let () =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let code =
    match Cmd.eval ~catch:false ~err main_cmd with
    | code -> code
    | exception Sys_error msg ->
      prerr_endline ("narada: " ^ msg);
      2
  in
  Format.pp_print_flush err ();
  let captured = Buffer.contents buf in
  if code = Cmd.Exit.cli_error then begin
    (match String.split_on_char '\n' captured with
    | first :: _ when not (String.equal (String.trim first) "") ->
      prerr_endline first
    | _ -> prerr_endline "narada: invalid command line");
    exit 2
  end
  else begin
    prerr_string captured;
    exit code
  end
