(* The detection campaign of §5: lockset candidates over a few random
   schedules, then directed confirmation and triage of each. *)

let lockset_run (inst : Racefuzzer.instance) ~seed : Race.report list =
  let lockset = Lockset.attach inst.Racefuzzer.ri_machine in
  ignore (Conc.Exec.run inst.Racefuzzer.ri_machine (Conc.Scheduler.random ~seed));
  Lockset.candidates lockset

let schedule_seed seed i = Int64.add seed (Int64.of_int (i * 1299709))

(* Every schedule is an independent seeded execution of a fresh
   instance, so they fan out freely; merging the reports in schedule
   order keeps the first witness of each key for every job count. *)
let candidates ?(jobs = 1) ~(instantiate : Racefuzzer.instantiator) ~schedules
    ~seed () =
  match instantiate () with
  | Error e -> Error e
  | Ok first ->
    let per_schedule =
      Par.mapi ~jobs (List.init schedules Fun.id) (fun _ i ->
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

type outcome = {
  o_confirm : Racefuzzer.confirm_result;
  o_verdict : Triage.verdict option;
  o_confirm_s : float;
  o_triage_s : float;
}

let confirm_and_triage ?(jobs = 1) ?(fuel = 200_000) ~instantiate ~runs ~seed
    (r : Race.report) : outcome =
  let cand = Racefuzzer.candidate_of_report r in
  let t0 = Obs.Clock.ticks () in
  let c = Racefuzzer.confirm ~instantiate ~cand ~runs ~fuel ~seed ~jobs () in
  let o_confirm_s = Obs.Clock.elapsed_s ~since:t0 in
  if c.Racefuzzer.confirmed = None then
    { o_confirm = c; o_verdict = None; o_confirm_s; o_triage_s = 0.0 }
  else
    let t1 = Obs.Clock.ticks () in
    let v = Triage.triage ~instantiate ~cand ~seed ~fuel () in
    {
      o_confirm = c;
      o_verdict = Result.to_option v;
      o_confirm_s;
      o_triage_s = Obs.Clock.elapsed_s ~since:t1;
    }
