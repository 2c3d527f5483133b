(* Per-class interleaving coverage: what the synthesized tests of a
   corpus entry actually exercised.

   For every synthesized test the unit of work is:

   1. one seeded random-schedule execution with the hybrid lockset
      detector and a trace recorder attached — candidate pairs that
      were co-scheduled become racy-pair features, the trace yields
      HB-edge and lock-order features;
   2. a bounded number of coverage-collecting directed runs (one per
      candidate, capped) for postponed-set state features.

   The (class, test) units are independent and fan out over [Par];
   per-class coverage is the union of its tests' sets in test order.
   Union is commutative, so the result — and the stable [cov/...]
   counters derived from it — is identical for every job count. *)

type class_cov = {
  cc_entry : Corpus.Corpus_def.entry;
  cc_tests : int;
  cc_cov : Cov.Set.t;
}

(* Directed runs per test are capped: coverage is a signal, not an
   exhaustive search, and the cram test wants bounded runtime. *)
let max_directed_candidates = 2

let report_feature (r : Detect.Race.report) =
  Cov.racy_pair
    ~field:r.Detect.Race.r_first.Detect.Race.a_field
    r.Detect.Race.r_first.Detect.Race.a_site
    r.Detect.Race.r_second.Detect.Race.a_site

let test_coverage (an : Narada_core.Pipeline.analysis)
    (t : Narada_core.Synth.test) ~seed ~fuel : Cov.Set.t =
  let instantiate = Narada_core.Pipeline.instantiator an t in
  match instantiate () with
  | Error _ -> Cov.Set.empty
  | Ok inst ->
    let rec_ = Runtime.Trace.attach inst.Detect.Racefuzzer.ri_machine in
    let lockset = Detect.Lockset.attach inst.Detect.Racefuzzer.ri_machine in
    let sched = Conc.Scheduler.random ~seed in
    ignore (Conc.Exec.run inst.Detect.Racefuzzer.ri_machine sched);
    let cov = Cov.of_trace (Runtime.Trace.snapshot rec_) in
    Runtime.Trace.recycle rec_;
    (* The racing threads are created by the harness before any observer
       attaches, so their spawn edges never reach the trace — credit
       them from the instance itself. *)
    let cov =
      List.fold_left
        (fun acc tid ->
          Cov.Set.add Cov.Hb_edge (Cov.hb_edge Cov.Spawn ~src:0 ~dst:tid 0) acc)
        cov inst.Detect.Racefuzzer.ri_threads
    in
    let cands =
      List.sort
        (fun a b ->
          Detect.Race.compare_key (Detect.Race.key_of a) (Detect.Race.key_of b))
        (Detect.Lockset.candidates lockset)
    in
    let cov =
      List.fold_left
        (fun acc r -> Cov.Set.add Cov.Racy_pair (report_feature r) acc)
        cov cands
    in
    let directed =
      List.filteri (fun i _ -> i < max_directed_candidates) cands
    in
    List.fold_left
      (fun acc r ->
        match instantiate () with
        | Error _ -> acc
        | Ok inst ->
          let rc =
            Detect.Racefuzzer.directed_run_cov
              inst.Detect.Racefuzzer.ri_machine
              ~cand:(Detect.Racefuzzer.candidate_of_report r)
              ~seed ~fuel ()
          in
          Cov.Set.union acc rc.Detect.Racefuzzer.rc_cov)
      cov directed

let class_coverage ?(seed = 7L) ?(fuel = 200_000) ?(jobs = 1)
    (e : Corpus.Corpus_def.entry) : (class_cov, string) result =
  match Evaluate.analyze_entry e with
  | Error err -> Error err
  | Ok (_, an) ->
    let tests = an.Narada_core.Pipeline.an_tests in
    let sets =
      Par.mapi ~jobs tests (fun _ t ->
          Obs.Span.with_ ~root:true "cov/test" (fun () ->
              test_coverage an t ~seed ~fuel))
    in
    let cov = List.fold_left Cov.Set.union Cov.Set.empty sets in
    Ok { cc_entry = e; cc_tests = List.length tests; cc_cov = cov }

(* Whole-corpus sweep; records the stable per-class counters
   [cov/<id>/<kind>] used by the cov.t determinism cram. *)
let coverage_corpus ?(seed = 7L) ?(fuel = 200_000) ?(jobs = 1)
    (entries : Corpus.Corpus_def.entry list) :
    (Corpus.Corpus_def.entry * (class_cov, string) result) list =
  List.iter
    (fun e ->
      try ignore (Corpus.Registry.compiled_unit e) with Jir.Diag.Error _ -> ())
    entries;
  let rows =
    List.map (fun e -> (e, class_coverage ~seed ~fuel ~jobs e)) entries
  in
  List.iter
    (fun (e, r) ->
      match r with
      | Error _ -> ()
      | Ok cc ->
        Cov.record ~prefix:("cov/" ^ e.Corpus.Corpus_def.e_id) cc.cc_cov)
    rows;
  rows

let table (rows : (Corpus.Corpus_def.entry * (class_cov, string) result) list) :
    string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Interleaving coverage per class (distinct features)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-4s %6s %10s %8s %11s %10s %7s\n" "Cls" "Tests"
       "RacyPair" "HbEdge" "LockOrder" "Postponed" "Total");
  Buffer.add_string buf (String.make 62 '-' ^ "\n");
  List.iter
    (fun ((e : Corpus.Corpus_def.entry), r) ->
      match r with
      | Error err ->
        Buffer.add_string buf
          (Printf.sprintf "%-4s  error: %s\n" e.Corpus.Corpus_def.e_id err)
      | Ok cc ->
        let c k = Cov.Set.count k cc.cc_cov in
        Buffer.add_string buf
          (Printf.sprintf "%-4s %6d %10d %8d %11d %10d %7d\n"
             e.Corpus.Corpus_def.e_id cc.cc_tests (c Cov.Racy_pair)
             (c Cov.Hb_edge) (c Cov.Lock_order) (c Cov.Postponed)
             (Cov.Set.total cc.cc_cov)))
    rows;
  Buffer.contents buf
