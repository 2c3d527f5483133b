(* Evaluation harness: reproduces the measurements of §5.

   For one corpus entry it runs the full pipeline (Table 4 columns) and
   then drives every synthesized test through the detection stack
   (Table 5 columns):

   1. instantiate the test and execute it under a few random schedules
      with the hybrid lockset detector attached — the distinct racy
      pairs it reports are the *detected* races;
   2. for every detected race, run the RaceFuzzer-style directed
      scheduler; success means the race is *reproduced*;
   3. triage each reproduced race into harmful/benign by state diffing
      (serialized vs race-forced executions).

   Steps 1-3 are [Detect.Campaign]'s; this harness adds the budget, the
   counters and the per-class fold.  Race identities are static (site
   pair + field), deduplicated per class exactly like the paper counts
   them. *)

type race_outcome = {
  ro_key : Detect.Race.key;
  ro_reproduced : bool;
  ro_verdict : Detect.Triage.verdict option; (* for reproduced races *)
}

type test_eval = {
  te_test : Narada_core.Synth.test;
  te_instantiated : bool;
  te_races : race_outcome list; (* distinct races this test detected *)
}

type class_eval = {
  cl_entry : Corpus.Corpus_def.entry;
  cl_methods : int;
  cl_loc : int;
  cl_pairs : int;
  cl_tests : int;
  cl_seconds : float; (* synthesis time (pipeline) *)
  cl_detect_seconds : float; (* detection stage *)
  cl_test_evals : test_eval list;
  cl_detected : int; (* distinct races across all tests *)
  cl_reproduced : int;
  cl_harmful : int;
  cl_benign : int;
}

type options = {
  opt_schedules : int; (* random schedules per test for detection *)
  opt_confirm_runs : int; (* directed runs per candidate *)
  opt_seed : int64;
  opt_jobs : int; (* width of the fan-out over (class, test) units *)
  opt_backend : Backend.kind; (* the one engine *)
}

let default_options =
  {
    opt_schedules = 3;
    opt_confirm_runs = 6;
    opt_seed = 7L;
    opt_jobs = 1;
    opt_backend = Backend.Compiled;
  }

let rec evaluate_test (opts : options) (an : Narada_core.Pipeline.analysis)
    (t : Narada_core.Synth.test) : test_eval =
  (* ~root: the (class, test) units run on Par worker domains; the span
     path must not depend on the fan-out. *)
  Obs.Span.with_ ~root:true "detect/test" (fun () -> evaluate_test_body opts an t)

and evaluate_test_body (opts : options) (an : Narada_core.Pipeline.analysis)
    (t : Narada_core.Synth.test) : test_eval =
  let reg = Obs.Metrics.global () in
  let instantiate = Narada_core.Pipeline.instantiator an t in
  match
    Detect.Campaign.candidates ~instantiate ~schedules:opts.opt_schedules
      ~seed:opts.opt_seed ()
  with
  | Error _ ->
    Obs.Metrics.incr reg "detect/uninstantiable_tests";
    { te_test = t; te_instantiated = false; te_races = [] }
  | Ok candidates ->
    Obs.Metrics.incr reg ~n:opts.opt_schedules "detect/schedules";
    Obs.Metrics.incr reg ~n:(List.length candidates) "detect/candidates";
    let test = Detect.Campaign.test instantiate in
    let outcomes =
      Detect.Campaign.confirm_and_triage ~test ~runs:opts.opt_confirm_runs
        ~seed:opts.opt_seed (List.map snd candidates)
    in
    let races =
      List.map2
        (fun (k, _) { Detect.Campaign.o_confirm; o_evidence; o_verdict } ->
          let reproduced = o_confirm.Detect.Racefuzzer.confirmed <> None in
          if reproduced then Obs.Metrics.incr reg "detect/reproduced";
          (match o_verdict with
          | Some Detect.Triage.Harmful -> Obs.Metrics.incr reg "triage/harmful"
          | Some Detect.Triage.Benign -> Obs.Metrics.incr reg "triage/benign"
          | None -> ());
          (* The serial orders decided the verdict. *)
          (match o_evidence with
          | Some { Detect.Triage.e_forced = None; _ } ->
            Obs.Metrics.incr reg "triage/serial_decided"
          | Some _ | None -> ());
          { ro_key = k; ro_reproduced = reproduced; ro_verdict = o_verdict })
        candidates outcomes
    in
    { te_test = t; te_instantiated = true; te_races = races }

(* Compile (through the shared registry cache) and analyze one entry. *)
let analyze_entry ?backend (e : Corpus.Corpus_def.entry) :
    (Jir.Code.unit_ * Narada_core.Pipeline.analysis, string) result =
  match Corpus.Registry.compiled_unit e with
  | exception Jir.Diag.Error d -> Error (Jir.Diag.to_string d)
  | cu -> (
    match
      Narada_core.Pipeline.analyze cu ?backend
        ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
        ~seed_cls:e.Corpus.Corpus_def.e_seed_cls
        ~seed_meth:e.Corpus.Corpus_def.e_seed_meth
    with
    | Error err -> Error err
    | Ok an -> Ok (cu, an))

(* Fold per-test evaluations into the class-level record, deduplicating
   races across tests (a race found by two tests counts once, keeping
   its best outcome). *)
let assemble_class (e : Corpus.Corpus_def.entry) (cu : Jir.Code.unit_)
    (an : Narada_core.Pipeline.analysis) ~(test_evals : test_eval list)
    ~(detect_seconds : float) : class_eval =
  let prog = cu.Jir.Code.cu_program in
  let best : (Detect.Race.key, race_outcome) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun te ->
      List.iter
        (fun ro ->
          match Hashtbl.find_opt best ro.ro_key with
          | None -> Hashtbl.replace best ro.ro_key ro
          | Some prev ->
            let better =
              (ro.ro_reproduced && not prev.ro_reproduced)
              || (ro.ro_verdict = Some Detect.Triage.Harmful
                 && prev.ro_verdict <> Some Detect.Triage.Harmful)
            in
            if better then Hashtbl.replace best ro.ro_key ro)
        te.te_races)
    test_evals;
  let outcomes = Hashtbl.fold (fun _ ro acc -> ro :: acc) best [] in
  let count p = List.length (List.filter p outcomes) in
  {
    cl_entry = e;
    cl_methods = Corpus.Corpus_def.method_count prog e;
    cl_loc = Corpus.Corpus_def.loc_count prog e;
    cl_pairs = List.length an.Narada_core.Pipeline.an_pairs;
    cl_tests = List.length an.Narada_core.Pipeline.an_tests;
    cl_seconds = an.Narada_core.Pipeline.an_seconds;
    cl_detect_seconds = detect_seconds;
    cl_test_evals = test_evals;
    cl_detected = List.length outcomes;
    cl_reproduced = count (fun ro -> ro.ro_reproduced);
    cl_harmful = count (fun ro -> ro.ro_verdict = Some Detect.Triage.Harmful);
    cl_benign = count (fun ro -> ro.ro_verdict = Some Detect.Triage.Benign);
  }

(* The flat (class, test) work list load-balances much better than
   class-granular parallelism (test counts per class differ by an order
   of magnitude), and merging results back by input index makes the
   sweep's output bit-identical for every job count. *)
let map_tests ~jobs analyzed f =
  let items =
    List.concat
      (List.mapi
         (fun ci (_, r) ->
           match r with
           | Error _ -> []
           | Ok (_, an) ->
             List.map (fun t -> (ci, an, t)) an.Narada_core.Pipeline.an_tests)
         analyzed)
  in
  let results = Par.map ~jobs items (fun (ci, an, t) -> (ci, f an t)) in
  List.mapi
    (fun ci (e, r) ->
      ( e,
        Result.map
          (fun (cu, an) ->
            let mine =
              List.filter_map (fun (ci', x) -> if ci' = ci then Some x else None) results
            in
            (cu, an, mine))
          r ))
    analyzed

(* The parallel campaign: analyses run sequentially (they are cheap and
   memoize compilation), then every (class, test) detection unit — the
   dominant cost, and fully independent — fans out once, [opt_jobs]
   wide. *)
let evaluate_corpus ?(opts = default_options) (entries : Corpus.Corpus_def.entry list)
    : (Corpus.Corpus_def.entry * (class_eval, string) result) list =
  (* Pre-warm the shared compile cache before any fan-out so worker
     domains only ever take the registry's lock-free read path.  A
     failing compile is not dropped here: [analyze_entry] below reports
     it per entry. *)
  List.iter
    (fun e ->
      try ignore (Corpus.Registry.compiled_unit e) with Jir.Diag.Error _ -> ())
    entries;
  let analyzed =
    List.map (fun e -> (e, analyze_entry ~backend:opts.opt_backend e)) entries
  in
  List.map
    (fun (e, r) ->
      ( e,
        Result.map
          (fun (cu, an, mine) ->
            let test_evals = List.map fst mine in
            (* Aggregate per-test detection time: total work, not wall. *)
            let detect_seconds = List.fold_left (fun a (_, dt) -> a +. dt) 0.0 mine in
            assemble_class e cu an ~test_evals ~detect_seconds)
          r ))
    (map_tests ~jobs:opts.opt_jobs analyzed (fun an t ->
         let t0 = Obs.Clock.ticks () in
         let te = evaluate_test opts an t in
         (te, Obs.Clock.elapsed_s ~since:t0)))

let evaluate_class ?opts (e : Corpus.Corpus_def.entry) : (class_eval, string) result =
  match evaluate_corpus ?opts [ e ] with
  | (_, r) :: _ -> r
  | [] -> Error "evaluate_corpus: no result for the entry" (* one per entry *)

(* Figure 14 buckets: races detected per test, as a percentage of the
   class's tests. *)
let fig14_buckets = [ "0"; "1"; "2"; "3-5"; "5-10"; ">10" ]

let fig14_distribution (ce : class_eval) : (string * float) list =
  let bucket n =
    if n = 0 then "0"
    else if n = 1 then "1"
    else if n = 2 then "2"
    else if n <= 5 then "3-5"
    else if n <= 10 then "5-10"
    else ">10"
  in
  let total = max 1 (List.length ce.cl_test_evals) in
  List.map
    (fun b ->
      let k =
        List.length
          (List.filter
             (fun te -> String.equal (bucket (List.length te.te_races)) b)
             ce.cl_test_evals)
      in
      (b, 100.0 *. float_of_int k /. float_of_int total))
    fig14_buckets

(* ------------------------------------------------------------------ *)
(* Ablation: how much does context derivation (shareObjects) matter?   *)
(* ------------------------------------------------------------------ *)

type ablation_row = {
  ab_id : string;
  ab_with_context : int; (* tests whose execution shows >=1 candidate race *)
  ab_without_context : int;
  ab_tests : int;
}

(* Count tests that expose at least one candidate race on a single
   seeded execution, with and without the shareObjects phase. *)
let ablation (e : Corpus.Corpus_def.entry) : (ablation_row, string) result =
  match analyze_entry e with
  | Error err -> Error err
  | Ok (cu, an) ->
      let racy_tests ~apply_context =
        List.length
          (List.filter
             (fun t ->
               let instantiate () =
                 Narada_core.Synth.instantiate ~apply_context cu
                   ~client_classes:[ e.Corpus.Corpus_def.e_seed_cls ]
                   t
               in
               match
                 Detect.Campaign.candidates ~instantiate ~schedules:1 ~seed:7L ()
               with
               | Ok (_ :: _) -> true
               | Ok [] | Error _ -> false)
             an.Narada_core.Pipeline.an_tests)
      in
      Ok
        {
          ab_id = e.Corpus.Corpus_def.e_id;
          ab_with_context = racy_tests ~apply_context:true;
          ab_without_context = racy_tests ~apply_context:false;
          ab_tests = List.length an.Narada_core.Pipeline.an_tests;
        }

let ablation_table (rows : ablation_row list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Ablation: tests exposing a race, with vs without the shareObjects\n\
     context phase (the paper's central mechanism, \xc2\xa73.3-3.4)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-4s %8s %14s %18s\n" "Cls" "Tests" "WithContext"
       "WithoutContext");
  Buffer.add_string buf (String.make 50 '-' ^ "\n");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-4s %8d %14d %18d\n" r.ab_id r.ab_tests
           r.ab_with_context r.ab_without_context))
    rows;
  Buffer.contents buf
