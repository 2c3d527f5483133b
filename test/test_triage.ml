(* Triage from state the campaign already holds equals triage from
   scratch.

   [Detect.Campaign.confirm_and_triage] confirms a test's candidates
   together, computes the test's serialized baselines once and, only
   while they agree, forks both forced orders from where each
   candidate's confirmation run 0 stopped.  For every race it confirms
   on C1-C9 and X1-X3 at seed 7 and the default Evaluate budget, the
   verdict must equal that of the reference below, which runs each of
   the four executions on its own fresh instance: the serialized ones
   by priority, the forced ones as a whole directed run at the campaign
   seed that executes the poised accesses in the given order and
   finishes under the run's own random scheduling.  The serialized
   outcomes must equal the reference's, the forced ones must be present
   exactly when the reference's serialized outcomes agree, and equal
   the reference's then. *)

open Detect
module Pipeline = Narada_core.Pipeline

let seed = 7L
let fuel = Racefuzzer.fuel
let schedules = Eval.Evaluate.default_options.Eval.Evaluate.opt_schedules
let runs = Eval.Evaluate.default_options.Eval.Evaluate.opt_confirm_runs

(* ---- the four-replay reference ---- *)

let step m tid = ignore (Runtime.Machine.step_th m (Runtime.Machine.find_thread m tid))

(* First runnable of [order], else first runnable in creation order.
   The reference walks [all_threads], suspended and finished threads
   included, where the campaign's loops walk the live list: so it also
   checks those loops against a walk of every thread. *)
let run_by_priority m ~order ~fuel =
  let rec go fuel =
    if fuel > 0 then
      match
        List.find_opt (Runtime.Machine.runnable_th m)
          (List.map (Runtime.Machine.find_thread m) order @ Runtime.Machine.all_threads m)
      with
      | Some th ->
        ignore (Runtime.Machine.step_th m th);
        go (fuel - 1)
      | None -> ()
  in
  go fuel

(* Uniform random completion over the runnable threads, creation order;
   over [all_threads] too, for the same reason. *)
let run_random m rng ~fuel =
  let rec go fuel =
    if fuel > 0 then
      match
        List.filter (Runtime.Machine.runnable_th m) (Runtime.Machine.all_threads m)
      with
      | [] -> ()
      | ths ->
        ignore (Runtime.Machine.step_th m (List.nth ths (Rng.below rng (List.length ths))));
        go (fuel - 1)
  in
  go fuel

let fresh instantiate =
  match instantiate () with Ok inst -> inst | Error e -> Alcotest.fail e

let serialized instantiate ~rev =
  let inst = fresh instantiate in
  let order = inst.Racefuzzer.ri_threads in
  run_by_priority inst.Racefuzzer.ri_machine
    ~order:(if rev then List.rev order else order)
    ~fuel;
  Triage.observe inst

let forced instantiate ~cand ~rev =
  let inst = fresh instantiate in
  let m = inst.Racefuzzer.ri_machine in
  let re, _ = Racefuzzer.directed_run inst ~cand ~seed ~fuel in
  (match re.Racefuzzer.re_report with
  | Some r ->
    let t1 = r.Race.r_first.Race.a_tid and t2 = r.Race.r_second.Race.a_tid in
    if rev then (step m t2; step m t1) else (step m t1; step m t2);
    run_random m re.Racefuzzer.re_rng ~fuel:re.Racefuzzer.re_fuel
  | None -> ());
  run_by_priority m ~order:[] ~fuel;
  Triage.observe inst

type reference = {
  serial : Triage.outcome * Triage.outcome;  (* in order, reversed *)
  forced : Triage.outcome * Triage.outcome;  (* first access first, reversed *)
}

let reference instantiate ~cand =
  {
    serial = (serialized instantiate ~rev:false, serialized instantiate ~rev:true);
    forced = (forced instantiate ~cand ~rev:false, forced instantiate ~cand ~rev:true);
  }

let serial_orders_differ r = fst r.serial <> snd r.serial

let reference_verdict r =
  let s, s_rev = r.serial and f, f_rev = r.forced in
  if List.for_all (( = ) s) [ s_rev; f; f_rev ] then Triage.Benign else Triage.Harmful

(* ---- the campaign against it ---- *)

let analysis (e : Corpus.Corpus_def.entry) =
  match Eval.Evaluate.analyze_entry e with
  | Ok (_, an) -> an
  | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg

(* [f e an t instantiate cands] for every test of every entry, with its
   candidates at the Evaluate budget ([Error] when uninstantiable). *)
let each_test entries f =
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      let an = analysis e in
      List.iter
        (fun t ->
          let instantiate = Pipeline.instantiator an t in
          f e an t instantiate (Campaign.candidates ~instantiate ~schedules ~seed ()))
        an.Pipeline.an_tests)
    entries

let check_outcome what (a : Triage.outcome) (b : Triage.outcome) =
  Alcotest.(check bool) (what ^ " snapshot") true (a.o_snapshot = b.o_snapshot);
  Alcotest.(check (list string)) (what ^ " crashes") a.o_crashes b.o_crashes;
  Alcotest.(check (list string)) (what ^ " returns") a.o_returns b.o_returns

let check_evidence what (r : reference) (e : Triage.evidence) =
  check_outcome (what ^ " serial") (fst r.serial) e.e_serial;
  check_outcome (what ^ " serial rev") (snd r.serial) e.e_serial_rev;
  Alcotest.(check bool)
    (what ^ " forced orders absent iff the serial orders differ")
    (serial_orders_differ r) (e.e_forced = None);
  Option.iter
    (fun (f, f_rev) ->
      check_outcome (what ^ " forced") (fst r.forced) f;
      check_outcome (what ^ " forced rev") (snd r.forced) f_rev)
    e.e_forced

type tally = {
  mutable races : int;
  mutable late : int;  (* confirmed at run >= 1, run 0 unconfirmed *)
  mutable harmful : int;
  mutable serial_decided : int;  (* the reference's serial orders differ *)
  mutable uninstantiable : int;
}

let test_equivalence () =
  let reg = Obs.Metrics.global () in
  let n = { races = 0; late = 0; harmful = 0; serial_decided = 0; uninstantiable = 0 } in
  each_test (Corpus.Registry.all @ Corpus.Registry.extras) (fun e an t instantiate -> function
    | Error _ -> n.uninstantiable <- n.uninstantiable + 1
    | Ok cands ->
      let test = Campaign.test instantiate in
      let replays0 = Obs.Metrics.counter_value reg "triage/replays" in
      let confirmed = ref 0 and decided = ref 0 in
      List.iter2
        (fun (k, r) (o : Campaign.outcome) ->
          let c = o.Campaign.o_confirm in
          match (c.Racefuzzer.confirmed, o.Campaign.o_evidence, o.Campaign.o_verdict) with
          | None, None, None -> ()
          | Some _, Some ev, Some v ->
            incr confirmed;
            n.races <- n.races + 1;
            if c.Racefuzzer.runs_used > 1 then n.late <- n.late + 1;
            if v = Triage.Harmful then n.harmful <- n.harmful + 1;
            let what =
              Printf.sprintf "%s #%d %s" e.Corpus.Corpus_def.e_id t.Narada_core.Synth.st_id
                (Race.key_to_string k)
            in
            let reference = reference instantiate ~cand:(Racefuzzer.candidate_of_report r) in
            if serial_orders_differ reference then incr decided;
            check_evidence what reference ev;
            Alcotest.(check string) (what ^ " verdict")
              (Triage.verdict_to_string (reference_verdict reference))
              (Triage.verdict_to_string v)
          | _ -> Alcotest.fail "verdict, evidence and confirmation disagree")
        cands
        (Campaign.confirm_and_triage ~test ~runs ~seed (List.map snd cands));
      (* Baselines: two instances per test with a confirmed race,
         however many races it has, and none otherwise. *)
      Alcotest.(check int) "baseline replays per test"
        (if !confirmed > 0 then 2 else 0)
        (Obs.Metrics.counter_value reg "triage/replays" - replays0);
      (* Evaluate counts the races whose serial orders decided. *)
      let decided0 = Obs.Metrics.counter_value reg "triage/serial_decided" in
      ignore (Eval.Evaluate.evaluate_test Eval.Evaluate.default_options an t);
      Alcotest.(check int) "triage/serial_decided per test" !decided
        (Obs.Metrics.counter_value reg "triage/serial_decided" - decided0);
      n.serial_decided <- n.serial_decided + !decided);
  Alcotest.(check bool) "races compared" true (n.races > 1000);
  Alcotest.(check bool) "both verdicts seen" true (n.harmful > 0 && n.harmful < n.races);
  Alcotest.(check bool) "harmful races decided either way" true
    (n.serial_decided > 0 && n.serial_decided < n.harmful);
  Alcotest.(check bool) "some race confirmed only after run 0" true (n.late > 0);
  Alcotest.(check bool) "some test uninstantiable" true (n.uninstantiable > 0)

(* A race confirmed only at run >= 1: run 0 ended unconfirmed, so its
   end state is both forced outcomes, as the from-scratch forced runs
   at the campaign seed do not confirm either; the confirmation is
   standalone [confirm_all]'s, and standalone triage agrees with the
   campaign. *)
let test_late_confirmation () =
  let found = ref 0 in
  each_test (List.filter_map Corpus.Registry.find [ "C1"; "C4"; "C6" ])
    (fun _ _ _ instantiate cands ->
      let cands = Result.value ~default:[] cands in
      let test = Campaign.test instantiate in
      List.iter2
        (fun (_, r) (o : Campaign.outcome) ->
          let c = o.Campaign.o_confirm in
          match (c.Racefuzzer.confirmed, o.Campaign.o_evidence, o.Campaign.o_verdict) with
          | Some _, Some ev, Some v when c.Racefuzzer.runs_used > 1 ->
            incr found;
            let cand = Racefuzzer.candidate_of_report r in
            Alcotest.(check bool) "standalone confirm agrees" true
              (fst
                 (Racefuzzer.confirm_all ~instantiate ~cands:[| cand |] ~runs ~seed
                    ~settle:ignore).(0)
              = c);
            Option.iter
              (fun (f, f_rev) -> check_outcome "one outcome for both orders" f f_rev)
              ev.e_forced;
            check_evidence "late" (reference instantiate ~cand) ev;
            Alcotest.(check bool) "standalone triage agrees" true
              (Triage.triage ~instantiate ~cand ~seed () = Ok v)
          | Some _, _, _ when c.Racefuzzer.runs_used > 1 ->
            Alcotest.fail "confirmed race without evidence"
          | _ -> ())
        cands
        (Campaign.confirm_and_triage ~test ~runs ~seed (List.map snd cands)));
  Alcotest.(check bool) "late confirmations found" true (!found > 0)

(* C3's uninstantiable test: standalone triage returns the
   instantiator's error, and the campaign confirms and triages
   nothing. *)
let test_uninstantiable () =
  let tests = ref [] in
  each_test (List.filter_map Corpus.Registry.find [ "C3" ]) (fun _ _ _ instantiate cands ->
      tests := (instantiate, cands) :: !tests);
  let report =
    List.find_map (function _, Ok ((_, r) :: _) -> Some r | _ -> None) !tests
  in
  let bad = List.filter_map (function i, Error _ -> Some i | _, Ok _ -> None) !tests in
  match (report, bad) with
  | None, _ | _, [] -> Alcotest.fail "C3 has a candidate race and an uninstantiable test"
  | Some report, _ :: _ ->
    let cand = Racefuzzer.candidate_of_report report in
    List.iter
      (fun instantiate ->
        Alcotest.(check bool) "standalone triage: the instantiator's error" true
          (Triage.triage ~instantiate ~cand ~seed ()
          = Error "no context recipe for endpoint A");
        let test = Campaign.test instantiate in
        let o =
          match Campaign.confirm_and_triage ~test ~runs ~seed [ report ] with
          | [ o ] -> o
          | _ -> Alcotest.fail "one outcome per report"
        in
        Alcotest.(check bool) "nothing confirmed" true
          (o.Campaign.o_confirm.Racefuzzer.confirmed = None
          && o.Campaign.o_confirm.Racefuzzer.runs_used = 0);
        Alcotest.(check bool) "nothing triaged" true
          (o.Campaign.o_evidence = None && o.Campaign.o_verdict = None))
      bad

let () =
  Alcotest.run "triage"
    [
      ( "shared state",
        [
          Alcotest.test_case "C1-C9, X1-X3 = four-replay reference" `Slow test_equivalence;
          Alcotest.test_case "confirmed after run 0" `Quick test_late_confirmation;
          Alcotest.test_case "uninstantiable test" `Quick test_uninstantiable;
        ] );
    ]
