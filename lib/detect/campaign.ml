(* The detection campaign of §5: lockset candidates over a few random
   schedules, then directed confirmation and triage of each. *)

let lockset_run (inst : Racefuzzer.instance) ~seed : Race.report list =
  let lockset = Lockset.attach inst.Racefuzzer.ri_machine in
  ignore (Conc.Exec.run inst.Racefuzzer.ri_machine (Conc.Scheduler.random ~seed));
  Lockset.candidates lockset

let schedule_seed seed i = Int64.add seed (Int64.of_int (i * 1299709))

(* Every schedule is an independent seeded execution of a fresh
   instance; merging the reports in schedule order keeps the first
   witness of each key. *)
let candidates ~(instantiate : Racefuzzer.instantiator) ~schedules ~seed () =
  match instantiate () with
  | Error e -> Error e
  | Ok first ->
    let per_schedule =
      List.init schedules (fun i ->
          if i = 0 then lockset_run first ~seed
          else
            match instantiate () with
            | Ok inst -> lockset_run inst ~seed:(schedule_seed seed i)
            | Error _ -> [])
    in
    let tbl : (Race.key, Race.report) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (List.iter (fun r ->
           let k = Race.key_of r in
           if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k r))
      per_schedule;
    Ok
      (List.sort
         (fun (k1, _) (k2, _) -> Race.compare_key k1 k2)
         (Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl []))

(* Per-test state: the serialized baselines depend on the test alone,
   so they are computed once, on the first confirmed race, and shared by
   every later one; an [Error] is memoized too.  A test is confirmed on
   one domain, so a plain [Lazy.t] suffices. *)
type test = {
  t_instantiate : Racefuzzer.instantiator;
  t_baselines : (Triage.baselines, string) result Lazy.t;
}

let test instantiate =
  { t_instantiate = instantiate; t_baselines = lazy (Triage.baselines ~instantiate) }

type outcome = {
  o_confirm : Racefuzzer.confirm_result;
  o_evidence : Triage.evidence option;
  o_verdict : Triage.verdict option;
}

(* Confirmation shares each directed run among the test's candidates
   ([Racefuzzer.confirm_all]).  Run 0 ran at [seed] and
   [Racefuzzer.fuel], like the forced runs of a from-scratch triage, so
   both forced orders fork from where it stopped, as soon as it stops;
   only the two outcomes are kept, so no run-0 machine outlives its own
   settling.  The verdict needs them only while the test's serial
   orders agree, so a run 0 that confirmed computes the baselines first
   (its race needs them anyway), and no run 0 is settled once they are
   known to differ or to have failed.  A run 0 that did not confirm is
   settled while they are unknown, since a later run may confirm the
   race; candidates that never matched share one settling.  Baselines
   are paired with the outcomes of confirmed races only, and
   [Triage.evidence] drops a pair settled before they turned out to
   differ. *)
let confirm_and_triage ~(test : test) ~runs ~seed
    (reports : Race.report list) : outcome list =
  let decided () =
    Lazy.is_val test.t_baselines
    && Result.fold ~ok:Triage.serial_orders_differ ~error:(fun _ -> true)
         (Lazy.force test.t_baselines)
  in
  let settle (re : Racefuzzer.run_end) =
    if re.Racefuzzer.re_report <> None then ignore (Lazy.force test.t_baselines);
    if decided () then None else Some (Triage.forced re)
  in
  let results =
    Racefuzzer.confirm_all ~instantiate:test.t_instantiate
      ~cands:(Array.of_list (List.map Racefuzzer.candidate_of_report reports))
      ~runs ~seed ~settle
  in
  List.map
    (fun (c, forced) ->
      let evidence =
        match (c.Racefuzzer.confirmed, forced) with
        | Some _, Some forced ->
          Result.to_option
            (Result.map
               (fun b -> Triage.evidence b forced)
               (Lazy.force test.t_baselines))
        | _ -> None
      in
      {
        o_confirm = c;
        o_evidence = evidence;
        o_verdict = Option.map Triage.judge evidence;
      })
    (Array.to_list results)
