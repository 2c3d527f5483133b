(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) and times the pipeline stages with Bechamel.

     dune exec bench/main.exe                      # tables + timing
     dune exec bench/main.exe -- quick             # tables only
     dune exec bench/main.exe -- quick --jobs 4    # parallel campaign
     dune exec bench/main.exe -- sweep             # jobs=1/2/4/8 scaling curve
     dune exec bench/main.exe -- par-smoke         # CI inversion guard
     dune exec bench/main.exe -- static-bench      # summary-cache cold/warm/edit
     dune exec bench/main.exe -- static-bench --smoke   # CI-sized corpus

   The campaign fans out over a domain pool (--jobs, default
   Domain.recommended_domain_count); tables are bit-identical for every
   job count.  Each run upserts its configuration's wall-clock into
   BENCH_parallel.json so sequential-vs-parallel speedups are tracked.

   Artifacts regenerated:
   - Table 3 (benchmark information)
   - Table 4 (race pairs, synthesized tests, synthesis time per class)
   - Table 5 (races detected / reproduced / harmful / benign)
   - Figure 14 (distribution of tests w.r.t. detected races)
   - the §5 ConTeGe comparison

   Bechamel micro-benchmarks, one group per reproduced artifact:
   - table4-synthesis/<Ci>: the full §3 pipeline (trace, analysis, pair
     generation, context derivation, test planning) for each class
   - table5-detection/<Ci>: test instantiation + hybrid detection +
     directed confirmation + triage for three representative classes
   - contege-campaign-C1x20: the random baseline's cost
   - substrate-trace-C6: raw tracing throughput of the VM *)

let cu_of = Corpus.Registry.compiled_unit

let pipeline_once (e : Corpus.Corpus_def.entry) =
  match Eval.Evaluate.analyze_entry e with
  | Ok (_, an) -> an
  | Error err -> failwith (e.Corpus.Corpus_def.e_id ^ ": " ^ err)

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate the tables                                       *)
(* ------------------------------------------------------------------ *)

let regenerate_tables ~with_contege ~jobs =
  print_endline
    "==================================================================";
  print_endline
    " Reproduction of 'Synthesizing Racy Tests' (PLDI 2015) -- results";
  print_endline
    "==================================================================\n";
  let t0 = Obs.Clock.ticks () in
  let evals =
    List.filter_map
      (fun (e, r) ->
        match r with
        | Ok ce -> Some ce
        | Error msg ->
          Printf.eprintf "bench: %s failed: %s\n" e.Corpus.Corpus_def.e_id msg;
          None)
      (Eval.Evaluate.evaluate_corpus ~jobs Corpus.Registry.all)
  in
  let wall_s = Obs.Clock.elapsed_s ~since:t0 in
  print_string (Eval.Tables.table3 ());
  print_newline ();
  print_string (Eval.Tables.table4 evals);
  print_newline ();
  print_string (Eval.Tables.table5 evals);
  print_newline ();
  print_string (Eval.Tables.fig14 evals);
  print_newline ();
  if with_contege then begin
    let rows = Eval.Tables.contege_rows ~budget:200 ~schedules:5 evals in
    print_string (Eval.Tables.contege_table rows);
    print_newline ()
  end;
  (* Ablation: the shareObjects phase is what exposes the races. *)
  let ab_rows =
    List.filter_map
      (fun e -> Result.to_option (Eval.Evaluate.ablation e))
      Corpus.Registry.all
  in
  print_string (Eval.Evaluate.ablation_table ab_rows);
  print_newline ();
  Printf.printf
    "full evaluation wall-clock: %.2fs (paper: 201.3s synthesis on a 3.5GHz \
     i7 against the real JVM classes)\n\n"
    wall_s;
  (evals, wall_s)

(* ------------------------------------------------------------------ *)
(* BENCH_parallel.json: wall-clock of the full campaign per jobs        *)
(* configuration, so the sequential-vs-parallel trajectory is tracked   *)
(* across PRs.  The file is an upsert: each run records its own jobs    *)
(* count and speedups are recomputed against the jobs=1 baseline.       *)
(* ------------------------------------------------------------------ *)

let bench_parallel_file = "BENCH_parallel.json"

(* Parse back the configurations we wrote earlier; the gauge-line format
   below is the only producer, so a minimal scan suffices (no JSON
   dependency). *)
let read_bench_parallel () : (int * float) list =
  match open_in bench_parallel_file with
  | exception Sys_error _ -> []
  | ic ->
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let configs = ref [] in
    String.split_on_char '\n' content
    |> List.iter (fun line ->
           match
             Scanf.sscanf line
               "{\"kind\": \"volatile\", \"type\": \"gauge\", \"name\": \
                \"campaign/wall_s\", \"value\": %f, \"jobs\": %d"
               (fun w j -> (j, w))
           with
           | cfg -> configs := cfg :: !configs
           | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ());
    List.rev !configs

(* BENCH files share the observability export schema: one meta line,
   then one gauge line per jobs configuration. *)
let write_bench_parallel_configs new_configs =
  let configs =
    List.fold_left
      (fun acc (j, w) -> (j, w) :: List.remove_assoc j acc)
      (read_bench_parallel ()) new_configs
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let baseline = List.assoc_opt 1 configs in
  let oc = open_out bench_parallel_file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Obs.Export.meta_line
           ~fields:
             [
               ( "benchmark",
                 Obs.Export.json_str "parallel detection campaign, whole corpus"
               );
             ]
           ());
      output_char oc '\n';
      List.iter
        (fun (j, w) ->
          let speedup =
            match baseline with Some b when w > 0.0 -> b /. w | _ -> 1.0
          in
          output_string oc
            (Obs.Export.gauge_line ~name:"campaign/wall_s" ~value:w
               ~fields:
                 [
                   ("jobs", string_of_int j);
                   ("speedup", Printf.sprintf "%.2f" speedup);
                 ]
               ());
          output_char oc '\n')
        configs);
  List.iter
    (fun (j, w) ->
      Printf.printf "wrote %s (campaign wall-clock at jobs=%d: %.2fs)\n"
        bench_parallel_file j w)
    new_configs;
  print_newline ()

let write_bench_parallel ~jobs ~wall_s =
  write_bench_parallel_configs [ (jobs, wall_s) ]

(* ------------------------------------------------------------------ *)
(* BENCH_static.json: the static race analyzer's cost profile.  Two     *)
(* sections: open-world whole-corpus analysis at jobs=1/2/4/8, and the  *)
(* incremental summary-cache benchmark — a Crucible-generated corpus    *)
(* of 1000+ classes (120+ with --smoke) linted cold (empty cache),      *)
(* warm (nothing changed) and after a one-statement edit to a single    *)
(* class.  Acceptance, checked here: warm is at least                   *)
(* NARADA_STATIC_MIN_SPEEDUP x faster than cold (default 10, or 2 with  *)
(* --smoke; set 0 to record without gating), the warm run summarizes    *)
(* nothing, and the edit re-summarizes exactly one class.               *)
(* ------------------------------------------------------------------ *)

let bench_static_file = "BENCH_static.json"

(* Deterministic Crucible corpus: consecutive generator seeds until the
   class count crosses the target.  Units are kept as ASTs so the edit
   phase can drop a statement structurally and re-print. *)
let static_units ~target_classes =
  let rec go i acc classes =
    if classes >= target_classes then (List.rev acc, classes)
    else
      let p = Fuzz.Gen.generate ~seed:(Int64.of_int (1000 + i)) in
      go (i + 1)
        ((Printf.sprintf "P%03d" i, p) :: acc)
        (classes + List.length p)
  in
  go 0 [] 0

(* Drop the last statement of the last non-empty method body of the
   last class that has one.  Editing at the very end keeps the printed
   source of every other class byte-identical (no line shifts), so
   exactly one class digest changes. *)
let drop_last_stmt (prog : Jir.Ast.program) : Jir.Ast.program =
  let rec edit_meths = function
    | [] -> None
    | (m : Jir.Ast.method_decl) :: ms ->
      if m.Jir.Ast.m_body = [] then
        Option.map (fun ms' -> m :: ms') (edit_meths ms)
      else
        let n = List.length m.Jir.Ast.m_body in
        Some
          ({
             m with
             Jir.Ast.m_body =
               List.filteri (fun i _ -> i < n - 1) m.Jir.Ast.m_body;
           }
          :: ms)
  in
  let rec edit_classes = function
    | [] -> []
    | (c : Jir.Ast.class_decl) :: rest -> (
      match edit_meths (List.rev c.Jir.Ast.c_methods) with
      | Some mrev -> { c with Jir.Ast.c_methods = List.rev mrev } :: rest
      | None -> c :: edit_classes rest)
  in
  List.rev (edit_classes (List.rev prog))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let counter name = Obs.Metrics.counter_value (Obs.Metrics.global ()) name

let static_cache_bench ~smoke =
  let target = if smoke then 120 else 1000 in
  let units, classes = static_units ~target_classes:target in
  let sources =
    List.map (fun (l, p) -> (l, Fuzz.Gen.to_source p)) units
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "narada-static-bench-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then rm_rf dir;
  let cache = Static.Cache.open_dir dir in
  let lint_all sources =
    List.iter
      (fun (label, source) ->
        ignore
          (Static.Lint.block ~cache ~label ~source
             ~compile:(fun () -> Jir.Compile.compile_source source)
             ()))
      sources
  in
  let phase f =
    let s0 = counter "static/summarized" in
    let t0 = Obs.Clock.ticks () in
    f ();
    (Obs.Clock.elapsed_s ~since:t0, counter "static/summarized" - s0)
  in
  let cold_s, cold_sum = phase (fun () -> lint_all sources) in
  let warm_s, warm_sum = phase (fun () -> lint_all sources) in
  let edited_sources =
    match units with
    | (label, p) :: _ ->
      let src = Fuzz.Gen.to_source (drop_last_stmt p) in
      (label, src) :: List.tl sources
    | [] -> sources
  in
  let edit_s, edit_sum = phase (fun () -> lint_all edited_sources) in
  rm_rf dir;
  let speedup w = if w > 0.0 then cold_s /. w else 1.0 in
  Printf.printf
    "static-bench: %d units, %d classes (%s)\n\
    \  cold %.3fs (%d summarized), warm %.3fs (%d, %.1fx), one-class edit \
     %.3fs (%d re-summarized)\n"
    (List.length units) classes
    (if smoke then "smoke" else "full")
    cold_s cold_sum warm_s warm_sum (speedup warm_s) edit_s edit_sum;
  let bar =
    match
      Option.bind
        (Sys.getenv_opt "NARADA_STATIC_MIN_SPEEDUP")
        float_of_string_opt
    with
    | Some b -> b
    | None -> if smoke then 2.0 else 10.0
  in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
  if warm_sum <> 0 then
    fail "static-bench: FAIL -- warm run re-summarized %d classes (want 0)"
      warm_sum;
  if edit_sum <> 1 then
    fail
      "static-bench: FAIL -- one-class edit re-summarized %d classes (want 1)"
      edit_sum;
  if speedup warm_s < bar then
    fail "static-bench: FAIL -- warm speedup %.1fx below the %.1fx bar"
      (speedup warm_s) bar;
  ( classes,
    List.length units,
    [ ("cold", cold_s, cold_sum); ("warm", warm_s, warm_sum);
      ("edit", edit_s, edit_sum) ] )

let static_bench ?(smoke = false) () =
  (* Warm the shared compilation cache so only the analyzer is timed. *)
  List.iter (fun e -> ignore (cu_of e)) Corpus.Registry.all;
  let analyze_all ~jobs =
    Par.map ~jobs Corpus.Registry.all (fun e ->
        let cu = cu_of e in
        let an = Static.Analyze.run ~open_world:true cu.Jir.Code.cu_program in
        ( e.Corpus.Corpus_def.e_id,
          List.length (Static.Analyze.candidates an) ))
  in
  let wall_at jobs =
    (* best of three: the analyzer is millisecond-scale, so a single
       sample is mostly scheduler noise *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Obs.Clock.ticks () in
      ignore (analyze_all ~jobs);
      best := Float.min !best (Obs.Clock.elapsed_s ~since:t0)
    done;
    !best
  in
  let counts = analyze_all ~jobs:1 in
  let walls = List.map (fun j -> (j, wall_at j)) [ 1; 2; 4; 8 ] in
  let w1 = List.assoc 1 walls in
  let incr_classes, incr_units, incr_phases = static_cache_bench ~smoke in
  let incr_cold =
    match incr_phases with (_, w, _) :: _ -> w | [] -> 0.0
  in
  let oc = open_out bench_static_file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line l =
        output_string oc l;
        output_char oc '\n'
      in
      line
        (Obs.Export.meta_line
           ~fields:
             [
               ( "benchmark",
                 Obs.Export.json_str
                   "open-world static race analysis, whole corpus" );
             ]
           ());
      (* candidate counts are deterministic: stable counter lines *)
      List.iter
        (fun (id, n) ->
          line
            (Obs.Export.counter_line
               ~name:(Printf.sprintf "static/%s/candidates" id)
               ~value:n))
        counts;
      let config ~jobs ~w ~speedup =
        line
          (Obs.Export.gauge_line ~name:"static/wall_s" ~value:w
             ~fields:
               [
                 ("jobs", string_of_int jobs);
                 ("speedup", Printf.sprintf "%.2f" speedup);
               ]
             ())
      in
      List.iter
        (fun (j, w) ->
          config ~jobs:j ~w
            ~speedup:(if j <> 1 && w > 0.0 then w1 /. w else 1.0))
        walls;
      (* incremental summary-cache section *)
      line
        (Obs.Export.counter_line ~name:"static/incr/classes"
           ~value:incr_classes);
      line
        (Obs.Export.counter_line ~name:"static/incr/units" ~value:incr_units);
      List.iter
        (fun (name, w, summarized) ->
          line
            (Obs.Export.counter_line
               ~name:(Printf.sprintf "static/incr/%s/summarized" name)
               ~value:summarized);
          line
            (Obs.Export.gauge_line ~name:"static/incr/wall_s" ~value:w
               ~fields:
                 [
                   ("phase", Obs.Export.json_str name);
                   ( "speedup",
                     Printf.sprintf "%.2f"
                       (if w > 0.0 then incr_cold /. w else 1.0) );
                 ]
               ()))
        incr_phases);
  Printf.printf "wrote %s (static analyzer wall-clock: %s)\n"
    bench_static_file
    (String.concat ", "
       (List.map
          (fun (j, w) -> Printf.sprintf "%.1fms at jobs=%d" (1000.0 *. w) j)
          walls));
  print_endline "static-bench: OK\n"

(* ------------------------------------------------------------------ *)
(* Scheduler shootout: how often does each scheduler expose the C1      *)
(* motivating race on one execution of the synthesized Fig. 3 test?     *)
(* ------------------------------------------------------------------ *)

let scheduler_shootout () =
  match Corpus.Registry.find "C1" with
  | None -> ()
  | Some e -> (
    match Eval.Evaluate.analyze_entry e with
    | Error _ -> ()
    | Ok (_, an) -> (
      let test =
        List.find_opt
          (fun (t : Narada_core.Synth.test) ->
            t.Narada_core.Synth.st_pair.Narada_core.Pairs.p_a.Narada_core.Pairs.ep_qname
            = "SynchronizedWriteBehindQueue.removeFirst"
            && t.Narada_core.Synth.st_pair.Narada_core.Pairs.p_field = "count")
          an.Narada_core.Pipeline.an_tests
      in
      match test with
      | None -> ()
      | Some t ->
        let instantiate = Narada_core.Pipeline.instantiator an t in
        let trials = 50 in
        (* "hit" = the corrupting interleaving manifested: the final
           observable state differs from the serialized execution's
           (detectors flag every schedule of this test — there is no
           happens-before edge between the threads — so only the damage
           discriminates schedulers). *)
        let snapshot_of (inst : Detect.Racefuzzer.instance) =
          Runtime.Snapshot.canonical
            (Runtime.Machine.heap inst.Detect.Racefuzzer.ri_machine)
            ~roots:inst.Detect.Racefuzzer.ri_roots
        in
        let serialized_snapshot =
          match instantiate () with
          | Error _ -> None
          | Ok inst ->
            let serial =
              Conc.Scheduler.of_fun ~name:"serial" (fun _ runnable ->
                  List.hd runnable)
            in
            ignore (Conc.Exec.run inst.Detect.Racefuzzer.ri_machine serial);
            Some (snapshot_of inst)
        in
        let hit_with sched_of_seed =
          let hits = ref 0 in
          for i = 1 to trials do
            match instantiate () with
            | Error _ -> ()
            | Ok inst ->
              ignore
                (Conc.Exec.run inst.Detect.Racefuzzer.ri_machine
                   (sched_of_seed (Int64.of_int i)));
              if Some (snapshot_of inst) <> serialized_snapshot then incr hits
          done;
          !hits
        in
        let directed_hits =
          let hits = ref 0 in
          for i = 1 to trials do
            let c =
              {
                Detect.Racefuzzer.c_field = "count";
                c_sites = None;
              }
            in
            let r =
              Detect.Racefuzzer.confirm ~instantiate ~cand:c ~runs:1
                ~seed:(Int64.of_int i) ()
            in
            if r.Detect.Racefuzzer.confirmed <> None then incr hits
          done;
          !hits
        in
        print_endline
          "Scheduler shootout on the synthesized C1 test (one execution per\n\
           seed; 'hit' = the corrupting interleaving manifested, i.e. the\n\
           final state differs from the serialized execution's):";
        Printf.printf "  %-28s %d/%d
" "random (fine-grained)"
          (hit_with (fun s -> Conc.Scheduler.random ~seed:s))
          trials;
        Printf.printf "  %-28s %d/%d
" "random (coarse, 1/8 switch)"
          (hit_with (fun s -> Conc.Scheduler.random_coarse ~seed:s ~switch_denominator:8))
          trials;
        Printf.printf "  %-28s %d/%d
" "pct (depth 3)"
          (hit_with (fun s -> Conc.Scheduler.pct ~seed:s ~depth:3 ~expected_steps:300))
          trials;
        Printf.printf "  %-28s %d/%d  (simultaneous-enable confirmation)
"
          "directed (RaceFuzzer)" directed_hits trials;
        print_newline ()))

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timing                                             *)
(* ------------------------------------------------------------------ *)

let detection_once (e : Corpus.Corpus_def.entry) =
  match Eval.Evaluate.evaluate_class e with
  | Ok ce -> ce
  | Error err -> failwith err

let bechamel_tests () =
  let open Bechamel in
  let synthesis =
    Test.make_grouped ~name:"table4-synthesis"
      (List.map
         (fun (e : Corpus.Corpus_def.entry) ->
           Test.make ~name:e.Corpus.Corpus_def.e_id
             (Staged.stage (fun () -> ignore (pipeline_once e))))
         Corpus.Registry.all)
  in
  let detection =
    Test.make_grouped ~name:"table5-detection"
      (List.filter_map
         (fun id ->
           Option.map
             (fun e ->
               Test.make ~name:id
                 (Staged.stage (fun () -> ignore (detection_once e))))
             (Corpus.Registry.find id))
         [ "C3"; "C7"; "C9" ])
  in
  let contege =
    match Corpus.Registry.find "C1" with
    | Some e ->
      [
        Test.make ~name:"contege-campaign-C1x20"
          (Staged.stage (fun () ->
               ignore (Contege.campaign e ~budget:20 ~schedules:3 ~seed:11L)));
      ]
    | None -> []
  in
  let substrate =
    match Corpus.Registry.find "C6" with
    | Some e ->
      [
        Test.make ~name:"substrate-trace-C6"
          (Staged.stage (fun () ->
               ignore
                 (Runtime.Interp.record (cu_of e)
                    ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
                    ~cls:e.Corpus.Corpus_def.e_seed_cls
                    ~meth:e.Corpus.Corpus_def.e_seed_meth)));
      ]
    | None -> []
  in
  Test.make_grouped ~name:"narada" ([ synthesis; detection ] @ contege @ substrate)

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:1500 ~quota:(Time.second 0.6) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results =
    Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  print_endline "Bechamel timings (monotonic clock):";
  Hashtbl.iter
    (fun _name tbl ->
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
      List.iter
        (fun (test, result) ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some (est :: _) -> Printf.printf "  %-45s %14.0f ns/run\n" test est
          | Some [] | None -> Printf.printf "  %-45s (no estimate)\n" test)
        (List.sort (fun (a, _) (b, _) -> String.compare a b) rows))
    results

(* ------------------------------------------------------------------ *)
(* sweep: time the full campaign at jobs=1/2/4/8 and record every       *)
(* configuration in BENCH_parallel.json (plus BENCH_static.json) in one *)
(* run, so the scaling curve is regenerated atomically.                 *)
(* ------------------------------------------------------------------ *)

let campaign_wall ~jobs =
  let t0 = Obs.Clock.ticks () in
  let evals = Eval.Evaluate.evaluate_corpus ~jobs Corpus.Registry.all in
  List.iter
    (fun ((e : Corpus.Corpus_def.entry), r) ->
      match r with
      | Ok _ -> ()
      | Error msg ->
        Printf.eprintf "bench: %s failed: %s\n" e.Corpus.Corpus_def.e_id msg)
    evals;
  Obs.Clock.elapsed_s ~since:t0

let sweep () =
  Printf.printf
    "campaign sweep: full detection campaign at jobs=1/2/4/8 \
     (max_domains=%d, effective width is clamped to it)\n%!"
    (Par.max_domains ());
  (* Warm the compile cache so the jobs=1 run is not charged for it. *)
  Corpus.Registry.warm_all ();
  let configs =
    List.map
      (fun j ->
        (* best of two: one seconds-scale sample swings by 10-20% *)
        let w = Float.min (campaign_wall ~jobs:j) (campaign_wall ~jobs:j) in
        Printf.printf "  jobs=%d: %.2fs\n%!" j w;
        (j, w))
      [ 1; 2; 4; 8 ]
  in
  write_bench_parallel_configs configs;
  static_bench ()

(* ------------------------------------------------------------------ *)
(* fuzz-bench: blind vs coverage-guided confirmation over C1-C9.        *)
(* Both modes enumerate the same candidates; blind spends the fixed     *)
(* Evaluate budget (6 directed runs) per candidate, guided shares one   *)
(* coverage corpus per class and stops at the novelty plateau.  The     *)
(* acceptance bar: identical confirmed-race sets, guided schedules      *)
(* <= 50% of blind.  Results land in BENCH_fuzz.json as stable counter  *)
(* lines (both modes are jobs-deterministic).                           *)
(* ------------------------------------------------------------------ *)

let bench_fuzz_file = "BENCH_fuzz.json"

let fuzz_bench ~jobs =
  Corpus.Registry.warm_all ();
  let blind_mode = Eval.Guided.Blind { runs = 6 } in
  let guided_mode = Eval.Guided.Guided { budget = 6; batch = 2; plateau = 1 } in
  let rows =
    List.filter_map
      (fun (e : Corpus.Corpus_def.entry) ->
        let blind = Eval.Guided.confirm_class ~jobs ~mode:blind_mode e in
        let corpus = Cov.Corpus.create () in
        let guided =
          Eval.Guided.confirm_class ~jobs ~corpus ~mode:guided_mode e
        in
        match (blind, guided) with
        | Ok b, Ok g -> Some (e, b, g)
        | (Error msg, _ | _, Error msg) ->
          Printf.eprintf "fuzz-bench: %s failed: %s\n" e.Corpus.Corpus_def.e_id
            msg;
          None)
      Corpus.Registry.all
  in
  let same_set b g =
    List.length b.Eval.Guided.gc_confirmed
    = List.length g.Eval.Guided.gc_confirmed
    && List.for_all2
         (fun k k' -> Detect.Race.compare_key k k' = 0)
         b.Eval.Guided.gc_confirmed g.Eval.Guided.gc_confirmed
  in
  print_endline
    "fuzz-bench: blind (6 runs/candidate) vs coverage-guided confirmation";
  Printf.printf "%-4s %6s %10s %10s %10s %10s %6s %5s\n" "Cls" "Cands"
    "ConfBlind" "ConfGuided" "SchedBlind" "SchedGuided" "Ratio" "Set";
  print_endline (String.make 68 '-');
  let tb = ref 0 and tg = ref 0 and all_equal = ref true in
  List.iter
    (fun ((e : Corpus.Corpus_def.entry), b, g) ->
      let eq = same_set b g in
      if not eq then all_equal := false;
      tb := !tb + b.Eval.Guided.gc_schedules;
      tg := !tg + g.Eval.Guided.gc_schedules;
      Printf.printf "%-4s %6d %10d %10d %10d %10d %5.0f%% %5s\n"
        e.Corpus.Corpus_def.e_id b.Eval.Guided.gc_candidates
        (List.length b.Eval.Guided.gc_confirmed)
        (List.length g.Eval.Guided.gc_confirmed)
        b.Eval.Guided.gc_schedules g.Eval.Guided.gc_schedules
        (if b.Eval.Guided.gc_schedules = 0 then 0.0
         else
           100.0
           *. float_of_int g.Eval.Guided.gc_schedules
           /. float_of_int b.Eval.Guided.gc_schedules)
        (if eq then "=" else "DIFF"))
    rows;
  let ratio =
    if !tb = 0 then 0.0 else float_of_int !tg /. float_of_int !tb
  in
  Printf.printf "total schedules: blind %d, guided %d (%.0f%%); confirmed \
                 sets %s\n\n"
    !tb !tg (100.0 *. ratio)
    (if !all_equal then "identical" else "DIFFER");
  let oc = open_out bench_fuzz_file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line l =
        output_string oc l;
        output_char oc '\n'
      in
      line
        (Obs.Export.meta_line
           ~fields:
             [
               ( "benchmark",
                 Obs.Export.json_str
                   "blind vs coverage-guided race confirmation, whole corpus"
               );
             ]
           ());
      List.iter
        (fun ((e : Corpus.Corpus_def.entry), b, g) ->
          let id = e.Corpus.Corpus_def.e_id in
          let c name v =
            line
              (Obs.Export.counter_line
                 ~name:(Printf.sprintf "fuzz/confirm/%s/%s" id name)
                 ~value:v)
          in
          c "candidates" b.Eval.Guided.gc_candidates;
          c "confirmed_blind" (List.length b.Eval.Guided.gc_confirmed);
          c "confirmed_guided" (List.length g.Eval.Guided.gc_confirmed);
          c "schedules_blind" b.Eval.Guided.gc_schedules;
          c "schedules_guided" g.Eval.Guided.gc_schedules)
        rows;
      line
        (Obs.Export.counter_line ~name:"fuzz/confirm/total/schedules_blind"
           ~value:!tb);
      line
        (Obs.Export.counter_line ~name:"fuzz/confirm/total/schedules_guided"
           ~value:!tg));
  Printf.printf "wrote %s (guided/blind schedule ratio %.2f)\n" bench_fuzz_file
    ratio;
  if not !all_equal then begin
    prerr_endline
      "fuzz-bench: FAIL -- guided confirmed-race set differs from blind";
    exit 1
  end;
  if ratio > 0.5 then begin
    Printf.eprintf
      "fuzz-bench: FAIL -- guided used %.0f%% of blind schedules (bar: 50%%)\n"
      (100.0 *. ratio);
    exit 1
  end;
  print_endline "fuzz-bench: OK"

(* ------------------------------------------------------------------ *)
(* par-smoke: CI guard against the parallel-slower-than-sequential      *)
(* inversion.  Times a three-class campaign at jobs=1 and jobs=2 and    *)
(* fails when the speedup drops below a threshold:                      *)
(* NARADA_SMOKE_MIN_SPEEDUP if set, else 1.0 on multi-core hosts and    *)
(* 0.8 (parity within noise; width is clamped to 1) on single-core.     *)
(* ------------------------------------------------------------------ *)

let par_smoke () =
  let entries = List.filter_map Corpus.Registry.find [ "C1"; "C3"; "C9" ] in
  Corpus.Registry.warm entries;
  let wall ~jobs =
    (* best of two: a seconds-scale sample on a shared CI runner is
       noisy enough to flip a parity check *)
    let once () =
      let t0 = Obs.Clock.ticks () in
      ignore (Eval.Evaluate.evaluate_corpus ~jobs entries);
      Obs.Clock.elapsed_s ~since:t0
    in
    Float.min (once ()) (once ())
  in
  let w1 = wall ~jobs:1 in
  let w2 = wall ~jobs:2 in
  let speedup = if w2 > 0.0 then w1 /. w2 else 1.0 in
  let md = Par.max_domains () in
  let threshold =
    match
      Option.bind (Sys.getenv_opt "NARADA_SMOKE_MIN_SPEEDUP") float_of_string_opt
    with
    | Some t -> t
    | None -> if md > 1 then 1.0 else 0.8
  in
  Printf.printf
    "par-smoke: jobs=1 %.2fs, jobs=2 %.2fs, speedup %.2fx (max_domains=%d, \
     threshold %.2f)\n"
    w1 w2 speedup md threshold;
  if md <= 1 then
    print_endline
      "par-smoke: single-core host; fan-out width is clamped to 1, so this \
       checks clamping overhead, not scaling.";
  if speedup < threshold then begin
    Printf.eprintf
      "par-smoke: FAIL -- jobs=2 is slower than allowed (speedup %.2fx < \
       %.2fx)\n"
      speedup threshold;
    exit 1
  end;
  print_endline "par-smoke: OK"

let parse_jobs argv =
  let jobs = ref (Par.default_jobs ()) in
  Array.iteri
    (fun i a ->
      if String.equal a "--jobs" && i + 1 < Array.length argv then
        match int_of_string_opt argv.(i + 1) with
        | Some j when j >= 1 -> jobs := j
        | Some _ | None ->
          prerr_endline "bench: --jobs expects a positive integer";
          exit 2)
    argv;
  !jobs

let () =
  let has s = Array.exists (String.equal s) Sys.argv in
  if has "par-smoke" then par_smoke ()
  else if has "static-bench" then static_bench ~smoke:(has "--smoke") ()
  else if has "fuzz-bench" then fuzz_bench ~jobs:(parse_jobs Sys.argv)
  else if has "sweep" then sweep ()
  else begin
    let quick = has "quick" in
    let jobs = parse_jobs Sys.argv in
    let evals, wall_s = regenerate_tables ~with_contege:true ~jobs in
    ignore (evals : Eval.Evaluate.class_eval list);
    write_bench_parallel ~jobs ~wall_s;
    static_bench ();
    scheduler_shootout ();
    if not quick then run_bechamel ()
  end
