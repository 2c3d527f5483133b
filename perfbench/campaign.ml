(* corpus-campaign: C1-C9 plus X1-X3 through the paper's full pipeline
   at the default Evaluate budget, detection fanned out over
   [Par.max_domains ()] worker domains.  A verdict is one synthesized
   test through [Eval.Evaluate.evaluate_test]; each pass also runs the
   per-class analysis ([Pipeline.analyze]) that produces the tests.

   One pass runs the campaign at [seeds] scheduler seeds, the workload
   seed first: how much confirmation and triage work a campaign does
   depends on its schedules, and several seeds per pass keep that
   variation from deciding the spread between runs. *)

module E = Eval.Evaluate
module P = Narada_core.Pipeline
module Rf = Detect.Racefuzzer
open Harness

let entries = function
  | Args.Full -> Corpus.Registry.all @ Corpus.Registry.extras
  | Args.Tiny -> List.filter_map Corpus.Registry.find [ "C3"; "C7"; "C9" ]

let seeds = 8

(* One campaign: per class, the analysis error or every test's
   (seconds, outcome). *)
type campaign =
  (Corpus.Corpus_def.entry * ((float * (E.test_eval, string) result) list, string) result)
  list

(* One campaign per scheduler seed. *)
type pass = campaign list

let guard f = match f () with v -> v | exception ex -> Error (Printexc.to_string ex)

let wall () = Int64.to_float (now ()) /. 1e9

(* Before every [probe_every]th verdict of an untraced pass, and before
   a domain's first, the domain that runs it times one probe
   ([Speed.sample]); the verdict is scaled by the mean of that domain's
   recent probes.  [probed] holds the last untraced pass's probe
   seconds and the speed factor of all its probes, [speeds] the factor
   of every untraced pass. *)
let probe_every = 4
let probed = ref (0.0, 1.0)
let speeds = ref []

(* Analyses run sequentially (they do not depend on the scheduler seed),
   then the flat (seed, class, test) work list fans out, as in
   [Eval.Evaluate.evaluate_corpus]. *)
let fan_out ?(probe = false) ~jobs analyzed
    (verdict : int -> int -> P.analysis -> Narada_core.Synth.test -> _) : pass =
  let items =
    List.concat_map
      (fun j ->
        List.concat
          (List.mapi
             (fun ci (_, r) ->
               match r with
               | Error _ -> []
               | Ok an -> List.map (fun t -> (j, ci, an, t)) an.P.an_tests)
             analyzed))
      (List.init seeds Fun.id)
  in
  let results =
    Par.mapi ~jobs items (fun i (j, ci, an, t) ->
        let p =
          if probe && (i mod probe_every = 0 || Speed.unsampled ()) then [ Speed.sample wall ]
          else []
        in
        let factor = if probe then Speed.local_factor () else 1.0 in
        let t0 = now () in
        let r = guard (fun () -> Ok (verdict j ci an t)) in
        ((j, ci), (since ~since:t0 *. factor, r), p))
  in
  let ps = List.concat_map (fun (_, _, p) -> p) results in
  if ps <> [] then begin
    let total = List.fold_left ( +. ) 0.0 ps in
    let factor = Speed.reference_s *. float_of_int (List.length ps) /. total in
    probed := (total, factor);
    speeds := factor :: !speeds
  end;
  List.init seeds (fun j ->
      List.mapi
        (fun ci (e, r) ->
          ( e,
            Result.map
              (fun _ ->
                List.filter_map (fun (k, v, _) -> if k = (j, ci) then Some v else None) results)
              r ))
        analyzed)

let untraced ~opts ~jobs entries : pass =
  let analyzed =
    List.map
      (fun (e : Corpus.Corpus_def.entry) ->
        ( e,
          guard (fun () ->
              P.analyze (Corpus.Registry.compiled_unit e) ~backend:(opts 0).E.opt_backend
                ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
                ~seed_cls:e.Corpus.Corpus_def.e_seed_cls
                ~seed_meth:e.Corpus.Corpus_def.e_seed_meth) ))
      entries
  in
  fan_out ~probe:true ~jobs analyzed (fun j _ an t -> E.evaluate_test (opts j) an t)

(* ---- the traced decomposition ---- *)

type campaign_counts = {
  k_trace_events : int Atomic.t;
  k_pairs : int Atomic.t;
  k_tests : int Atomic.t;
  k_prepares : int Atomic.t;
  k_instantiations : int Atomic.t;
  k_uninstantiable : int Atomic.t;
  k_schedules : int Atomic.t;
  k_candidates : int Atomic.t;
  k_confirm_runs : int Atomic.t;
  k_confirm_steps : int Atomic.t;
  k_confirmed : int Atomic.t;
  k_harmful : int Atomic.t;
  k_benign : int Atomic.t;
}

let new_counts () =
  let z () = Atomic.make 0 in
  {
    k_trace_events = z (); k_pairs = z (); k_tests = z (); k_prepares = z ();
    k_instantiations = z (); k_uninstantiable = z (); k_schedules = z ();
    k_candidates = z (); k_confirm_runs = z (); k_confirm_steps = z ();
    k_confirmed = z (); k_harmful = z (); k_benign = z ();
  }

let bump ?(n = 1) a = ignore (Atomic.fetch_and_add a n)

(* [Pipeline.analyze], stage by stage through the public functions it
   composes. *)
let analyze_traced k ~backend ~req (e : Corpus.Corpus_def.entry) =
  Tracer.request ~req "core.analysis" (fun () ->
      let cu = Corpus.Registry.compiled_unit e in
      let cls = e.Corpus.Corpus_def.e_seed_cls in
      let meth = e.Corpus.Corpus_def.e_seed_meth in
      let client_classes = [ cls ] in
      let be = Tracer.span "backend.prepare" (fun () -> Backend.prepare backend cu) in
      bump k.k_prepares;
      let _m, trace, res =
        Tracer.span "runtime.seed_trace" (fun () ->
            Runtime.Interp.record ~seed:Runtime.Machine.default_seed
              ~on_machine:(Backend.on_machine be) cu ~client_classes ~cls ~meth)
      in
      match res with
      | Error err -> Error ("seed test failed: " ^ err)
      | Ok _ ->
        bump ~n:(Runtime.Trace.length trace) k.k_trace_events;
        let access =
          Tracer.span "core.access" (fun () ->
              Narada_core.Access.analyze cu ~client_classes trace)
        in
        let pairs = Tracer.span "core.pairs" (fun () -> Narada_core.Pairs.generate access) in
        let tests =
          Tracer.span "core.synth" (fun () ->
              Narada_core.Synth.plan cu.Jir.Code.cu_program
                access.Narada_core.Access.summary ~seed_cls:cls ~seed_meth:meth pairs)
        in
        bump ~n:(List.length pairs) k.k_pairs;
        bump ~n:(List.length tests) k.k_tests;
        Ok
          {
            P.an_cu = cu;
            an_client_classes = client_classes;
            an_seed_cls = cls;
            an_seed_meth = meth;
            an_trace_len = Runtime.Trace.length trace;
            an_access = access;
            an_pairs = pairs;
            an_pairs_pruned = 0;
            an_static_filter = false;
            an_tests = tests;
            an_seconds = 0.0;
            an_backend = be;
          })

let detect_once (inst : Rf.instance) ~seed =
  let ls = Detect.Lockset.attach inst.Rf.ri_machine in
  ignore (Conc.Exec.run inst.Rf.ri_machine (Conc.Scheduler.random ~seed));
  Detect.Lockset.candidates ls

(* [Evaluate.evaluate_test], layer by layer: lockset schedules, directed
   confirmation and triage driven here, with the [instantiate] closure
   they share wrapped so instantiation is its own layer. *)
let evaluate_traced k (opts : E.options) ~req an (t : Narada_core.Synth.test) =
  Tracer.request ~req "eval.verdict" (fun () ->
      let inner = P.instantiator an t in
      let instantiate () =
        Tracer.span "core.instantiate" (fun () ->
            bump k.k_instantiations;
            inner ())
      in
      match instantiate () with
      | Error _ ->
        bump k.k_uninstantiable;
        { E.te_test = t; te_instantiated = false; te_races = [] }
      | Ok first ->
        let tbl = Hashtbl.create 8 in
        for i = 0 to opts.E.opt_schedules - 1 do
          let reports =
            Tracer.span "detect.lockset" (fun () ->
                if i = 0 then detect_once first ~seed:opts.E.opt_seed
                else
                  match instantiate () with
                  | Ok inst ->
                    detect_once inst
                      ~seed:(Int64.add opts.E.opt_seed (Int64.of_int (i * 1299709)))
                  | Error _ -> [])
          in
          List.iter
            (fun r ->
              let key = Detect.Race.key_of r in
              if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key r)
            reports
        done;
        bump ~n:opts.E.opt_schedules k.k_schedules;
        let cands =
          List.sort
            (fun (a, _) (b, _) -> Detect.Race.compare_key a b)
            (Hashtbl.fold (fun key r acc -> (key, r) :: acc) tbl [])
        in
        bump ~n:(List.length cands) k.k_candidates;
        let races =
          List.map
            (fun (key, r) ->
              let cand = Rf.candidate_of_report r in
              let c =
                Tracer.span "detect.confirm" (fun () ->
                    Rf.confirm ~instantiate ~cand ~runs:opts.E.opt_confirm_runs
                      ~seed:opts.E.opt_seed ~jobs:opts.E.opt_jobs ())
              in
              bump ~n:c.Rf.runs_used k.k_confirm_runs;
              bump ~n:c.Rf.steps k.k_confirm_steps;
              let reproduced = c.Rf.confirmed <> None in
              let verdict =
                if not reproduced then None
                else begin
                  bump k.k_confirmed;
                  match
                    Tracer.span "detect.triage" (fun () ->
                        Detect.Triage.triage ~instantiate ~cand ~seed:opts.E.opt_seed ())
                  with
                  | Ok v ->
                    bump (if v = Detect.Triage.Harmful then k.k_harmful else k.k_benign);
                    Some v
                  | Error _ -> None
                end
              in
              { E.ro_key = key; ro_reproduced = reproduced; ro_verdict = verdict })
            cands
        in
        {
          E.te_test = t;
          te_instantiated = true;
          te_races =
            List.sort (fun a b -> Detect.Race.compare_key a.E.ro_key b.E.ro_key) races;
        })

let traced k ~opts ~jobs entries : pass * float * float =
  let t0 = now () in
  let analyzed =
    List.mapi
      (fun ci e ->
        (e, guard (fun () -> analyze_traced k ~backend:(opts 0).E.opt_backend ~req:ci e)))
      entries
  in
  let seq = since ~since:t0 in
  let t1 = now () in
  let p = fan_out ~jobs analyzed (fun j ci an t -> evaluate_traced k (opts j) ~req:ci an t) in
  (p, seq, since ~since:t1)

(* ---- answers ---- *)

type row = {
  id : string;
  detected : int;
  confirmed : int;
  harmful : int;
  benign : int;
  keys : string list;  (** confirmed race keys, sorted *)
  tests : string;  (** digest of every test's outcome *)
}

let test_line (te : E.test_eval) =
  let a, b, f = Narada_core.Synth.dedup_key te.E.te_test.Narada_core.Synth.st_pair in
  String.concat " "
    (a :: b :: f :: string_of_bool te.E.te_instantiated
    :: List.map
         (fun ro ->
           Printf.sprintf "[%s %b %s]" (Detect.Race.key_to_string ro.E.ro_key) ro.E.ro_reproduced
             (match ro.E.ro_verdict with
             | Some v -> Detect.Triage.verdict_to_string v
             | None -> "-"))
         te.E.te_races)

(* Per-class dedup by race key keeping the best outcome, as the paper
   counts and as [Eval.Evaluate] assembles Table 5. *)
let row_of id (tests : (float * (E.test_eval, string) result) list) =
  let tes = List.filter_map (fun (_, r) -> Result.to_option r) tests in
  let best = Hashtbl.create 32 in
  List.iter
    (fun te ->
      List.iter
        (fun ro ->
          match Hashtbl.find_opt best ro.E.ro_key with
          | None -> Hashtbl.replace best ro.E.ro_key ro
          | Some prev ->
            if
              (ro.E.ro_reproduced && not prev.E.ro_reproduced)
              || ro.E.ro_verdict = Some Detect.Triage.Harmful
                 && prev.E.ro_verdict <> Some Detect.Triage.Harmful
            then Hashtbl.replace best ro.E.ro_key ro)
        te.E.te_races)
    tes;
  let outs = Hashtbl.fold (fun _ ro acc -> ro :: acc) best [] in
  let count p = List.length (List.filter p outs) in
  {
    id;
    detected = List.length outs;
    confirmed = count (fun ro -> ro.E.ro_reproduced);
    harmful = count (fun ro -> ro.E.ro_verdict = Some Detect.Triage.Harmful);
    benign = count (fun ro -> ro.E.ro_verdict = Some Detect.Triage.Benign);
    keys =
      List.sort String.compare
        (List.filter_map
           (fun ro ->
             if ro.E.ro_reproduced then Some (Detect.Race.key_to_string ro.E.ro_key) else None)
           outs);
    tests =
      md5
        (String.concat "\n"
           (List.map
              (fun (_, r) -> match r with Ok te -> test_line te | Error e -> "error " ^ e)
              tests));
  }

let rows (p : campaign) =
  List.map
    (fun ((e : Corpus.Corpus_def.entry), r) ->
      let id = e.Corpus.Corpus_def.e_id in
      match r with
      | Error err -> { (row_of id []) with tests = "analysis error: " ^ err }
      | Ok tests -> row_of id tests)
    p

let row_line r =
  Printf.sprintf "%-3s detected %4d confirmed %4d harmful %4d benign %4d" r.id r.detected
    r.confirmed r.harmful r.benign

(* Per class, its rows at every scheduler seed. *)
let answer (by_seed : row list list) =
  match by_seed with
  | [] -> []
  | first :: _ ->
    List.mapi
      (fun ci r ->
        ( r.id,
          md5
            (String.concat "\n"
               (List.concat_map
                  (fun rows ->
                    let r = List.nth rows ci in
                    row_line r :: r.tests :: r.keys)
                  by_seed)) ))
      first

(* Distinct confirmed races per class over every seed, by race key. *)
let distinct_races (by_seed : row list list) =
  match by_seed with
  | [] -> 0
  | first :: _ ->
    List.fold_left ( + ) 0
      (List.mapi
         (fun ci _ ->
           List.length
             (List.sort_uniq String.compare
                (List.concat_map (fun rows -> (List.nth rows ci).keys) by_seed)))
         first)

(* Structural facts that hold for any seed. *)
let invariants rows =
  List.concat_map
    (fun r ->
      (if r.harmful + r.benign > r.confirmed then
         [ r.id ^ ": harmful + benign exceeds confirmed" ]
       else [])
      @ (if r.confirmed > r.detected then [ r.id ^ ": more races confirmed than detected" ]
         else [])
      @
      if r.confirmed <> List.length r.keys then [ r.id ^ ": confirmed count and key set disagree" ]
      else [])
    rows

(* The paper's Table 5 budget over C1-C9 at the default seed 7 gives
   660 reproduced races, 538 harmful and 122 benign (EXPERIMENTS.md). *)
let table5 (a : Args.t) rows =
  let paper = List.filter (fun r -> String.length r.id = 2 && r.id.[0] = 'C') rows in
  let sum f = List.fold_left (fun s r -> s + f r) 0 paper in
  let c = sum (fun r -> r.confirmed) and h = sum (fun r -> r.harmful) in
  let b = sum (fun r -> r.benign) in
  Printf.printf "Table 5 classes (%d of C1-C9): confirmed %d harmful %d benign %d\n"
    (List.length paper) c h b;
  if a.Args.size = Args.Full && a.Args.seed = 7 && (c, h, b) <> (660, 538, 122) then
    [ Printf.sprintf "corpus-campaign: C1-C9 give %d/%d/%d, Table 5 at seed 7 is 660/538/122" c h b ]
  else []

(* Drop one confirmed race from the first class that has one. *)
let plant rows =
  let dropped = ref false in
  List.map
    (fun r ->
      if !dropped || r.keys = [] then r
      else begin
        dropped := true;
        { r with confirmed = r.confirmed - 1; keys = List.tl r.keys }
      end)
    rows

(* ---- per-layer metrics ---- *)

let per_class_table entries (res : _ measured) spans =
  let t = Tracer.by_req_name spans in
  let np = float_of_int (max 1 res.traced_passes) in
  let get ci name = Option.value (Hashtbl.find_opt t (ci, name)) ~default:0.0 /. np in
  let cols =
    [ ( "analysis",
        fun ci ->
          List.fold_left (fun s n -> s +. get ci n) 0.0
            [ "core.analysis"; "backend.prepare"; "runtime.seed_trace"; "core.access";
              "core.pairs"; "core.synth" ] );
      ("instant", fun ci -> get ci "core.instantiate");
      ("lockset", fun ci -> get ci "detect.lockset");
      ("confirm", fun ci -> get ci "detect.confirm");
      ("triage", fun ci -> get ci "detect.triage");
      ("glue", fun ci -> get ci "eval.verdict") ]
  in
  Printf.printf
    "\nPer-class x per-layer self time (s per pass of %d campaigns, summed over domains) beside \
     the paper's Table 4 Time(s)\n%-4s" seeds "Cls";
  List.iter (fun (n, _) -> Printf.printf " %9s" n) cols;
  Printf.printf " %9s %9s\n" "total" "paper";
  List.iteri
    (fun ci (e : Corpus.Corpus_def.entry) ->
      Printf.printf "%-4s" e.Corpus.Corpus_def.e_id;
      let tot =
        List.fold_left
          (fun s (_, f) ->
            Printf.printf " %9.4f" (f ci);
            s +. f ci)
          0.0 cols
      in
      let paper = e.Corpus.Corpus_def.e_paper.Corpus.Corpus_def.pr_seconds in
      Printf.printf " %9.4f %9s\n" tot (if paper > 0.0 then Printf.sprintf "%.1f" paper else "-"))
    entries

let layers k (res : _ measured) ~entries ~jobs ~seq ~fan spans =
  let np = float_of_int (max 1 res.traced_passes) in
  let by = Tracer.by_name spans in
  let self = self res by in
  let cnt at = float_of_int (Atomic.get at) /. np in
  let per = per_pass res in
  let twall = res.traced_time /. np in
  let attributed = Hashtbl.fold (fun _ (s, _) acc -> acc +. s) by 0.0 /. np in
  let idle = per "par/pool/idle_s" in
  let seq = seq /. np and fan = fan /. np in
  let available = seq +. (float_of_int jobs *. fan) in
  let unattributed = available -. attributed -. idle in
  per_class_table entries res spans;
  Printf.printf
    "accounting per traced pass: wall %.3f s = sequential analysis %.3f s + fan-out %.3f s on \
     %d domains = %.3f domain-s; layer self time %.3f (%.1f%%) + par idle %.3f (%.1f%%) + \
     unattributed %.3f (%.1f%%)\n"
    twall seq fan jobs available attributed
    (100.0 *. attributed /. available)
    idle
    (100.0 *. idle /. available)
    unattributed
    (100.0 *. unattributed /. available);
  let replay = self "detect.lockset" +. self "detect.confirm" +. self "detect.triage" in
  let conf = cnt k.k_confirmed and cands = cnt k.k_candidates in
  [ ("backend.prepare_s", self "backend.prepare"); ("backend.prepares", cnt k.k_prepares);
    ("backend.compiled_instrs", per "backend/compiled/instrs");
    ("runtime.seed_trace_s", self "runtime.seed_trace");
    ("runtime.trace_events", cnt k.k_trace_events); ("core.access_s", self "core.access");
    ("core.pairs_s", self "core.pairs"); ("core.synth_s", self "core.synth");
    ("core.pairs", cnt k.k_pairs); ("core.tests", cnt k.k_tests);
    ("core.instantiate_s", self "core.instantiate");
    ("core.instantiations", cnt k.k_instantiations);
    ("core.uninstantiable", cnt k.k_uninstantiable);
    ("detect.lockset_s", self "detect.lockset"); ("detect.schedules", cnt k.k_schedules);
    ("detect.candidates", cands); ("detect.confirm_s", self "detect.confirm");
    ("detect.confirm_runs", cnt k.k_confirm_runs);
    ("detect.confirm_steps", cnt k.k_confirm_steps);
    ("detect.confirm_yield", if cands > 0.0 then conf /. cands else 0.0);
    ("detect.triage_s", self "detect.triage"); ("detect.triage_replays", per "triage/replays");
    ("detect.harmful", cnt k.k_harmful); ("detect.benign", cnt k.k_benign);
    ("detect.replay_share", replay /. available); ("par.steals", per "par/pool/steals");
    ("par.chunks", per "par/pool/chunks"); ("par.queue_hwm", queue_hwm ());
    ("par.idle_s", idle); ("trace.overhead_frac", overhead res);
    ("trace.unattributed_frac", unattributed /. available) ]

let run (a : Args.t) : report =
  let entries = entries a.Args.size in
  let opts j =
    { E.default_options with E.opt_seed = scheduler_seed a.Args.seed j; opt_jobs = 1 }
  in
  let jobs = Par.max_domains () in
  (* Set-up runs before any worker domain exists, so it is timed in
     CPU time, at the speed of probes on this domain. *)
  Speed.start cpu;
  let setup_s, () =
    timed_setup (fun () ->
        List.iter
          (fun (e : Corpus.Corpus_def.entry) ->
            ignore (Jir.Compile.compile_source e.Corpus.Corpus_def.e_source))
          entries;
        Corpus.Registry.warm entries)
  in
  Speed.stop ();
  let budget =
    Printf.sprintf "schedules=%d directed_runs=%d seed=%d scheduler_seeds=%s jobs=%d backends=%s"
      (opts 0).E.opt_schedules (opts 0).E.opt_confirm_runs a.Args.seed
      (String.concat "," (List.init seeds (fun j -> Int64.to_string (scheduler_seed a.Args.seed j))))
      jobs
      (Backend.to_string (opts 0).E.opt_backend)
  in
  let k = new_counts () in
  let seq = ref 0.0 and fan = ref 0.0 in
  let verdicts (p : pass) =
    List.concat_map
      (fun (_, r) ->
        match r with
        | Error _ -> [ (None, true) ]
        | Ok tests ->
          List.map
            (fun (s, r) ->
              (Some s, match r with Ok te -> not te.E.te_instantiated | Error _ -> true))
            tests)
      (List.concat p)
  in
  let res =
    Harness.run ~seconds:a.Args.seconds ~trace:a.Args.trace ~clock:wall
      ~adjust:(fun t ->
        let s, factor = !probed in
        let raw = t -. (s /. float_of_int jobs) in
        (raw, raw *. factor))
      {
        untraced = (fun () -> untraced ~opts ~jobs entries);
        traced =
          (fun () ->
            let p, s, f = traced k ~opts ~jobs entries in
            seq := !seq +. s;
            fan := !fan +. f;
            p);
        verdicts;
        answer = (fun p -> answer (List.map rows p));
      }
  in
  let rate, samples = all_passes res in
  let by_seed = List.map rows res.first in
  let by_seed =
    match by_seed with
    | first :: rest when a.Args.plant = Some "race" -> plant first :: rest
    | _ -> by_seed
  in
  let own = List.hd by_seed in
  Printf.printf "campaign at the workload seed %d:\n" a.Args.seed;
  List.iter (fun r -> print_endline (row_line r)) own;
  let races = distinct_races by_seed in
  Printf.printf "distinct confirmed races over the %d scheduler seeds: %d\n" seeds races;
  let problems =
    reference_problems a ~answer:(answer by_seed) ~races
    @ table5 a own
    @ List.concat_map invariants by_seed
    @ res.problems
  in
  let layers =
    if not a.Args.trace then []
    else begin
      let spans = Tracer.collect () in
      write_spans ~scratch:a.Args.scratch ~workload:a.Args.workload ~seed:a.Args.seed
        ~meta:[ ("budget", Printf.sprintf "%S" budget) ]
        spans;
      layers k res ~entries ~jobs ~seq:!seq ~fan:!fan spans
    end
  in
  {
    setup_s;
    attempted = res.attempted;
    failed = res.failed;
    rate;
    samples;
    passes = List.length res.pass_stats;
    races;
    rss_mb = res.peak_rss_mb;
    steal = res.steal_s;
    speed = median !speeds;
    budget;
    problems;
    layers;
  }
