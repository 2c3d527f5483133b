(* repair-corpus: [Repair.Engine.repair_all] over C1-C9 with the
   engine's default options (2 schedules, both backends, jobs 1) at
   [seeds] scheduler seeds, the workload seed first.  A verdict is one
   class at one seed; with nine classes of very different cost, one
   seed alone left the median verdict to a single class's schedules.  Every
   grammar candidate is a fresh program, so this workload pays for
   compilation, backend preparation, re-analysis and re-detection on
   both engines; its detection and instantiation run inside the engine,
   where only the program's own spans and counters see them.

   A run makes one pass: a second would find the compiled code of every
   patched program in the backend's process-wide digest cache.  With
   --trace 1 the traced pass goes first, so the per-layer numbers are
   those of a cold process. *)

module R = Repair.Engine
open Harness

let entries = function
  | Args.Full -> Corpus.Registry.all
  | Args.Tiny -> List.filter_map Corpus.Registry.find [ "C3"; "C7"; "C9" ]

let seeds = 2

(* Per class and seed ("C1", then "C1@1"): seconds and report. *)
type pass = (string * float * (R.report, string) result) list

let pass ~traced ~opts subjects : pass =
  List.concat_map
    (fun j ->
      List.mapi
        (fun ci (id, sub) ->
          let m = Speed.mark () in
          let call () = R.repair_all ~opts:(opts j) sub in
          let r =
            match if traced then Tracer.request ~req:ci "repair.session" call else call () with
            | r -> r
            | exception ex -> Error (Printexc.to_string ex)
          in
          ((if j = 0 then id else Printf.sprintf "%s@%d" id j), snd (Speed.since m), r))
        subjects)
    (List.init seeds Fun.id)

type row = {
  id : string;
  confirmed : int;
  repaired : int;
  rids : string list;  (** the confirmed races *)
  patches : string list;
}

let rows (p : pass) =
  List.map
    (fun (id, _, r) ->
      match r with
      | Error e -> { id; confirmed = 0; repaired = 0; rids = []; patches = [ "error: " ^ e ] }
      | Ok rp ->
        {
          id;
          confirmed = rp.R.rp_confirmed;
          repaired = List.length (List.filter R.constructive rp.R.rp_races);
          rids =
            List.map (fun (rr : R.race_repair) -> Repair.Grammar.race_id_to_string rr.R.rr_id)
              rp.R.rp_races;
          patches =
            List.map
              (fun (rr : R.race_repair) ->
                Repair.Grammar.race_id_to_string rr.R.rr_id
                ^ " => "
                ^
                match rr.R.rr_outcome with
                | R.Repaired { rc_cand; _ } -> Repair.Grammar.candidate_to_string rc_cand
                | R.No_candidates -> "no candidates"
                | R.Not_repairable -> "not repairable")
              rp.R.rp_races;
        })
    p

let answer rows =
  List.map
    (fun r ->
      (r.id, md5 (String.concat "\n" (Printf.sprintf "%d %d" r.confirmed r.repaired :: r.patches))))
    rows

(* `narada repair`'s default seed 42 closes 437/437 races over C1-C9
   (DESIGN.md section 16). *)
let closes_437 (a : Args.t) rows =
  let c = List.fold_left (fun s r -> s + r.confirmed) 0 rows in
  let rep = List.fold_left (fun s r -> s + r.repaired) 0 rows in
  if a.Args.size = Args.Full && a.Args.seed = 42 && (c, rep) <> (437, 437) then
    [ Printf.sprintf "repair-corpus: repaired %d of %d, 437/437 at seed 42" rep c ]
  else []

(* The rows of the workload seed itself. *)
let own rows = List.filter (fun r -> not (String.contains r.id '@')) rows

(* Distinct confirmed races per class over every seed. *)
let distinct_races rows =
  List.fold_left
    (fun acc r ->
      let cls = List.hd (String.split_on_char '@' r.id) in
      let prev = Option.value (List.assoc_opt cls acc) ~default:[] in
      (cls, List.sort_uniq String.compare (r.rids @ prev)) :: List.remove_assoc cls acc)
    [] rows
  |> List.fold_left (fun n (_, l) -> n + List.length l) 0

let run (a : Args.t) : report =
  let opts j = { R.default_options with R.eo_seed = scheduler_seed a.Args.seed j } in
  Speed.start cpu;
  let setup_s, subjects =
    timed_setup (fun () ->
        List.map
          (fun (e : Corpus.Corpus_def.entry) ->
            let cls = e.Corpus.Corpus_def.e_seed_cls in
            ( e.Corpus.Corpus_def.e_id,
              R.subject_of_unit
                (Jir.Compile.compile_source e.Corpus.Corpus_def.e_source)
                ~client_classes:[ cls ] ~seed_cls:cls ~seed_meth:e.Corpus.Corpus_def.e_seed_meth ))
          (entries a.Args.size))
  in
  let budget =
    Printf.sprintf "schedules=%d directed_runs=%d seed=%d scheduler_seeds=%s jobs=%d backends=%s"
      (opts 0).R.eo_schedules (opts 0).R.eo_confirm_runs a.Args.seed
      (String.concat "," (List.init seeds (fun j -> Int64.to_string (scheduler_seed a.Args.seed j))))
      (opts 0).R.eo_jobs
      (String.concat "+" (List.map Backend.to_string (opts 0).R.eo_backends))
  in
  let res =
    Harness.run ~max_passes:1 ~traced_first:true ~seconds:a.Args.seconds ~trace:a.Args.trace
      ~clock:cpu
      {
        untraced = (fun () -> pass ~traced:false ~opts subjects);
        traced = (fun () -> pass ~traced:true ~opts subjects);
        verdicts =
          List.map (fun (_, s, r) ->
              ( Some s,
                match r with
                | Error _ -> true
                | Ok rp -> not (List.for_all R.constructive rp.R.rp_races) ));
        answer = (fun p -> answer (rows p));
      }
  in
  Speed.stop ();
  let rate, samples = all_passes res in
  let observed = rows res.first in
  let observed =
    match (a.Args.plant, observed) with
    | Some "race", r :: rest ->
      { r with repaired = r.repaired - 1; rids = List.tl r.rids; patches = List.tl r.patches }
      :: rest
    | _ -> observed
  in
  Printf.printf "repair at the workload seed %d:\n" a.Args.seed;
  List.iter
    (fun r -> Printf.printf "%-3s confirmed %4d repaired %4d\n" r.id r.confirmed r.repaired)
    (own observed);
  let races = distinct_races observed in
  Printf.printf "distinct confirmed races over the %d scheduler seeds: %d\n" seeds races;
  let problems =
    reference_problems a ~answer:(answer observed) ~races
    @ closes_437 a (own observed)
    @ List.filter_map
        (fun r ->
          if r.repaired = r.confirmed then None
          else
            Some
              (Printf.sprintf "repair-corpus: %s repaired %d of %d confirmed races" r.id
                 r.repaired r.confirmed))
        observed
    @ res.problems
  in
  let layers =
    if not a.Args.trace then []
    else begin
      let spans = Tracer.collect () in
      write_spans ~scratch:a.Args.scratch ~workload:a.Args.workload ~seed:a.Args.seed
        ~meta:[ ("budget", Printf.sprintf "%S" budget) ]
        spans;
      let by = Tracer.by_name spans in
      let self = self res by and per = per_pass res in
      (* Deterministic facts of one pass, from its reports. *)
      let reports = List.filter_map (fun (_, _, r) -> Result.to_option r) res.first in
      let rsum f = float_of_int (List.fold_left (fun s rp -> s + f rp) 0 reports) in
      let verdicts v =
        rsum (fun rp ->
            List.length (List.filter (fun rr -> rr.R.rr_verdict = Some v) rp.R.rp_races))
      in
      let detected = rsum (fun rp -> rp.R.rp_detected) in
      let attempts = per "repair/attempts" and repaired = per "repair/repaired" in
      let session = self "repair.session" in
      let visible = per "pipeline" +. per "backend/compile" in
      [ ("backend.prepare_s", per "backend/compile");
        ("backend.prepares", per "backend/compiled/units");
        ("backend.compiled_instrs", per "backend/compiled/instrs");
        ("runtime.seed_trace_s", per "pipeline/trace");
        ("runtime.trace_events", per "pipeline#trace_events.sum");
        ("core.access_s", per "pipeline/analyze"); ("core.pairs_s", per "pipeline/pairs");
        ("core.synth_s", per "pipeline/synth"); ("core.pairs", per "pipeline#pairs.sum");
        ("core.tests", per "pipeline#tests.sum"); ("detect.candidates", detected);
        ("detect.confirm_runs", per "racefuzzer/steps.count");
        ("detect.confirm_steps", per "racefuzzer/steps.sum");
        ( "detect.confirm_yield",
          if detected > 0.0 then rsum (fun rp -> rp.R.rp_confirmed) /. detected else 0.0 );
        ("detect.triage_replays", per "triage/replays");
        ("detect.harmful", verdicts Detect.Triage.Harmful);
        ("detect.benign", verdicts Detect.Triage.Benign); ("repair.session_s", session);
        ("repair.repaired", repaired); ("repair.attempts", attempts);
        ( "repair.attempts_per_race",
          if per "repair/races" > 0.0 then attempts /. per "repair/races" else 0.0 );
        ("repair.rejected", attempts -. repaired); ("repair.reanalysis_s", per "pipeline");
        ("trace.overhead_frac", overhead res);
        ("trace.unattributed_frac", if session > 0.0 then (session -. visible) /. session else 0.0) ]
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
    speed = Speed.index ();
    budget;
    problems;
    layers;
  }
