(* Race confirmation over a corpus class, each race key confirmed once.

   The same static race key recurs in many synthesized tests of a
   class.  Each test enumerates its candidates
   ([Detect.Campaign.candidates]) and confirms, together, those whose
   key no earlier test confirmed ([Racefuzzer.confirm_all]); a key that
   failed in one test is tried again in the next.  Within a batch every
   candidate runs exactly as it would alone ([Racefuzzer.directed_runs]),
   so leaving confirmed keys out changes no other candidate's result:
   the confirmed set is that of confirming every candidate of every
   test, at fewer schedules.  test_campaign.ml pins both on C1-C9 at
   seeds 7 and 42; the serve daemon's confirm requests and Crucible's
   campaign-agreement oracle run it. *)

type class_confirm = {
  gc_tests : int;
  gc_candidates : int;
  gc_confirmed : Detect.Race.key list; (* distinct, sorted *)
  gc_schedules : int; (* directed runs executed *)
}

(* Evaluate's 6 directed runs, over 2 lockset schedules rather than 3. *)
let schedules = 2
let runs = 6

let confirm_analysis ?(seed = 7L) (an : Narada_core.Pipeline.analysis) : class_confirm =
  let confirmed = ref [] and candidates = ref 0 and spent = ref 0 in
  let known k = List.exists (fun k' -> Detect.Race.compare_key k k' = 0) !confirmed in
  List.iter
    (fun t ->
      let instantiate = Narada_core.Pipeline.instantiator an t in
      let cands =
        Result.value ~default:[]
          (Detect.Campaign.candidates ~instantiate ~schedules ~seed ())
      in
      candidates := !candidates + List.length cands;
      (* A test's keys are distinct, so none is confirmed twice here. *)
      let fresh = List.filter (fun (k, _) -> not (known k)) cands in
      let results =
        Detect.Racefuzzer.confirm_all ~instantiate
          ~cands:
            (Array.of_list
               (List.map (fun (_, r) -> Detect.Racefuzzer.candidate_of_report r) fresh))
          ~runs ~seed ~settle:ignore
      in
      List.iteri
        (fun i (k, _) ->
          let c = fst results.(i) in
          spent := !spent + c.Detect.Racefuzzer.runs_used;
          if c.Detect.Racefuzzer.confirmed <> None then confirmed := k :: !confirmed)
        fresh)
    an.Narada_core.Pipeline.an_tests;
  {
    gc_tests = List.length an.Narada_core.Pipeline.an_tests;
    gc_candidates = !candidates;
    gc_confirmed = List.sort Detect.Race.compare_key !confirmed;
    gc_schedules = !spent;
  }

let confirm_class ?seed (e : Corpus.Corpus_def.entry) : (class_confirm, string) result =
  Result.map (fun (_, an) -> confirm_analysis ?seed an) (Evaluate.analyze_entry e)
