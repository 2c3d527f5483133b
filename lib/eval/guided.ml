(* Blind vs coverage-guided confirmation sweeps over a corpus class.

   Both modes enumerate exactly the same candidate set
   ([Detect.Campaign.candidates] per synthesized test) and then spend
   directed runs confirming each candidate.  Blind mode gives every
   occurrence the fixed budget, a test's candidates together
   ([Racefuzzer.confirm_all]).  Guided mode shares one coverage
   corpus across the class and exploits the fact that the same static
   race key recurs in many tests: the first occurrence of a key gets
   the full blind budget (same derived seeds — nothing blind can
   confirm is lost), a recurrence of a confirmed pair is skipped
   outright (its racy-pair feature is already in the corpus), and a
   recurrence of a key that failed its full-budget attempt only gets
   [Racefuzzer.confirm_guided]'s novelty-plateau runs.  The budget is
   [Racefuzzer.guided_budget] in both cases.  The
   confirmed-set / schedule comparison over C1-C9 is pinned in
   test_campaign.ml; the serve daemon's confirm requests run it too. *)

type mode = Blind of { runs : int } | Guided

type class_confirm = {
  gc_tests : int;
  gc_candidates : int;
  gc_confirmed : Detect.Race.key list; (* distinct, sorted *)
  gc_schedules : int; (* directed runs executed *)
}

let confirm_analysis ?(schedules = 2) ?(seed = 7L) ~(mode : mode)
    (an : Narada_core.Pipeline.analysis) : class_confirm =
  let corpus = Cov.Corpus.create () in
  let total_schedules = ref 0 in
  let confirmed = ref [] in
  let candidates = ref 0 in
  let note k ok =
    if ok && not (List.exists (fun k' -> Detect.Race.compare_key k k' = 0) !confirmed)
    then confirmed := k :: !confirmed
  in
  (* Guided mode: keys whose first occurrence already spent the full
     budget without confirming.  Their later occurrences get the
     cheap novelty-plateau treatment instead of the full budget. *)
  let attempted_failed : Detect.Race.key list ref = ref [] in
  List.iter
    (fun t ->
      let instantiate = Narada_core.Pipeline.instantiator an t in
      let cands =
        Result.value ~default:[]
          (Detect.Campaign.candidates ~instantiate ~schedules ~seed ())
      in
      candidates := !candidates + List.length cands;
      match mode with
      | Blind { runs } ->
        (* A test's keys are distinct, so its candidates are confirmed
           together, each over exactly its own blind runs. *)
        let results =
          Detect.Racefuzzer.confirm_all ~instantiate
            ~cands:
              (Array.of_list
                 (List.map (fun (_, r) -> Detect.Racefuzzer.candidate_of_report r) cands))
            ~runs ~seed ~settle:ignore
        in
        List.iter2
          (fun (k, _) ((c : Detect.Racefuzzer.confirm_result), _) ->
            total_schedules := !total_schedules + c.Detect.Racefuzzer.runs_used;
            note k (c.Detect.Racefuzzer.confirmed <> None))
          cands (Array.to_list results)
      | Guided ->
        List.iter
          (fun (k, r) ->
            let cand = Detect.Racefuzzer.candidate_of_report r in
            let cand_fp =
              Cov.racy_pair ~field:r.Detect.Race.r_first.Detect.Race.a_field
                r.Detect.Race.r_first.Detect.Race.a_site
                r.Detect.Race.r_second.Detect.Race.a_site
            in
            let note_confirmed () =
              (* Record the *candidate's* pair fingerprint, not just
                 the confirming run's (the postponed pair can sit at
                 the same site twice, yielding a different
                 fingerprint than the candidate's site pair). *)
              ignore
                (Cov.Corpus.note corpus ~seed ~prefix:[]
                   (Cov.Set.add Cov.Racy_pair cand_fp Cov.Set.empty))
            in
            let seen_key ks =
              List.exists
                (fun k' -> Detect.Race.compare_key k k' = 0)
                ks
            in
            (* A racy-pair feature in the corpus means this exact
               pair was already confirmed by an earlier candidate
               of the class — the point of sharing the corpus:
               zero further schedules. *)
            note k
              (if Cov.Set.mem Cov.Racy_pair cand_fp (Cov.Corpus.coverage corpus)
               then true
               else if not (seen_key !attempted_failed) then begin
                 (* First occurrence of this key: spend the full
                    budget, with the same derived seeds blind mode
                    uses, so nothing blind can confirm is missed. *)
                 let c =
                   Detect.Racefuzzer.confirm ~instantiate ~cand
                     ~runs:Detect.Racefuzzer.guided_budget ~seed ()
                 in
                 total_schedules :=
                   !total_schedules + c.Detect.Racefuzzer.runs_used;
                 (match c.Detect.Racefuzzer.confirmed with
                 | Some _ -> note_confirmed ()
                 | None -> attempted_failed := k :: !attempted_failed);
                 c.Detect.Racefuzzer.confirmed <> None
               end
               else begin
                 (* Repeat occurrence of a key that already failed a
                    full-budget attempt: novelty-plateau runs only. *)
                 let g =
                   Detect.Racefuzzer.confirm_guided ~instantiate ~cand ~seed
                     ~corpus ()
                 in
                 total_schedules :=
                   !total_schedules + g.Detect.Racefuzzer.g_schedules;
                 (match g.Detect.Racefuzzer.g_confirmed with
                 | Some _ -> note_confirmed ()
                 | None -> ());
                 g.Detect.Racefuzzer.g_confirmed <> None
               end))
          cands)
    an.Narada_core.Pipeline.an_tests;
  {
    gc_tests = List.length an.Narada_core.Pipeline.an_tests;
    gc_candidates = !candidates;
    gc_confirmed = List.sort Detect.Race.compare_key !confirmed;
    gc_schedules = !total_schedules;
  }

let confirm_class ?seed ~mode (e : Corpus.Corpus_def.entry) :
    (class_confirm, string) result =
  Result.map
    (fun (_, an) -> confirm_analysis ?seed ~mode an)
    (Evaluate.analyze_entry e)
