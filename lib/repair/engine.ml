(* The repair loop.  Counterexample-guided in the ferrite mold: the
   grammar proposes, the full dynamic pipeline disposes.  Because
   candidates arrive in added-sync cost order and validation is a pure
   accept/reject, the first survivor is minimal w.r.t. the grammar. *)

module Ast = Jir.Ast
module Pipeline = Narada_core.Pipeline
module Synth = Narada_core.Synth
module Rf = Detect.Racefuzzer

type subject = {
  sj_prog : Ast.program;
  sj_cu : Jir.Code.unit_;
  sj_client_classes : Ast.id list;
  sj_seed_cls : Ast.id;
  sj_seed_meth : Ast.id;
}

let subject_of_unit cu ~client_classes ~seed_cls ~seed_meth =
  {
    sj_prog = Jir.Program.classes cu.Jir.Code.cu_program;
    sj_cu = cu;
    sj_client_classes = client_classes;
    sj_seed_cls = seed_cls;
    sj_seed_meth = seed_meth;
  }

type options = {
  eo_schedules : int;
  eo_confirm_runs : int;
  eo_seed : int64;
  eo_jobs : int;
  eo_backends : Backend.kind list;
  eo_max_candidates : int;
  eo_overlock : bool;
}

let default_options =
  {
    eo_schedules = 2;
    eo_confirm_runs = 6;
    eo_seed = 7L;
    eo_jobs = 1;
    eo_backends = [ Backend.Compiled ];
    eo_max_candidates = 16;
    eo_overlock = false;
  }

type reject =
  | R_compile of string
  | R_behavior of string
  | R_deadlock of string
  | R_race_survives
  | R_new_race of string

let reject_to_string = function
  | R_compile msg -> "does not compile: " ^ msg
  | R_behavior msg -> "changes sequential behavior: " ^ msg
  | R_deadlock p -> "introduces lock-order inversion: " ^ p
  | R_race_survives -> "race still confirmed under re-detection"
  | R_new_race rid -> "introduces a new confirmed race: " ^ rid

(* ---- baseline facts about the original program ---- *)

type baseline = {
  bl_output : string;  (** printed output of the sequential seed run *)
  bl_result : string;  (** canonical rendering of the seed result *)
  bl_pairs : string list;  (** lock-order ABBA pairs, canonical strings *)
  bl_detected : Grammar.race_id list;
      (** every race id the lockset pass reported on the original
          program — patched programs may show these, but nothing new *)
  bl_tests_of : Grammar.race_id -> (string * string * string) list;
      (** dedup keys of the tests that detected the race *)
}

let render_result = function
  | Ok None -> "ok"
  | Ok (Some v) -> "ok " ^ Runtime.Value.to_string v
  | Error msg -> "error " ^ msg

(* The one execution of a program's seed test, at [eo_seed] and
   [Racefuzzer.fuel]: its printed output and result are the behaviour
   check's, its trace holds the lock, unlock and invoke events the
   lock-order check reads and is what the race analysis analyzes. *)
type recording = {
  rec_output : string;
  rec_result : (Runtime.Value.t option, string) result;
  rec_trace : Runtime.Trace.t;
}

let record (opts : options) sub cu =
  let m, trace, res =
    Runtime.Interp.record ~seed:opts.eo_seed ~fuel:Rf.fuel cu
      ~client_classes:sub.sj_client_classes ~cls:sub.sj_seed_cls
      ~meth:sub.sj_seed_meth
  in
  (* [record] captures printed output on the machine. *)
  { rec_output = Runtime.Machine.output m; rec_result = res; rec_trace = trace }

let lock_pairs sub trace =
  Deadlock.Lockorder.edges_of_trace ~client_classes:sub.sj_client_classes trace
  |> Deadlock.Lockorder.pairs_of_edges
  |> List.map Deadlock.Lockorder.pair_to_string
  |> List.sort_uniq String.compare

let analysis_of ~backend sub cu (rc : recording) =
  Pipeline.of_trace ~backend cu ~client_classes:sub.sj_client_classes
    ~seed_cls:sub.sj_seed_cls ~seed_meth:sub.sj_seed_meth rc.rec_trace

(* ---- validation ---- *)

let compile_patched prog =
  match Jir.Compile.compile_unit prog with
  | cu -> Ok cu
  | exception Jir.Diag.Error d -> Error (Jir.Diag.to_string d)

(* Tests of a (re)analysis that are relevant to the race: the ones whose
   dedup key detected it originally, plus every test targeting the racy
   field (re-synthesis can renumber tests, dedup keys are stable). *)
let relevant_tests (bl : baseline) (rid : Grammar.race_id) ~all
    (an : Pipeline.analysis) =
  if all then an.Pipeline.an_tests
  else
    let keys = bl.bl_tests_of rid in
    List.filter
      (fun t ->
        let k = Synth.dedup_key t.Synth.st_pair in
        List.mem k keys
        || String.equal t.Synth.st_pair.Narada_core.Pairs.p_field rid.Grammar.rid_field)
      an.Pipeline.an_tests

let rid_of_key_opt k =
  match Grammar.race_id_of_key k with Ok r -> Some r | Error _ -> None

(* Re-detection of one relevant test: its lockset candidates that are
   the race under repair ([ours]) or, after a mutex replacement, a race
   the original program never showed ([fresh]) are confirmed together
   ([Racefuzzer.confirm_all] gives each exactly its own runs), and the
   first confirmed one in candidate order decides the reject. *)
let redetect_test (opts : options) (bl : baseline) (rid : Grammar.race_id)
    ~has_replace ~instantiate =
  let cands =
    Result.value ~default:[]
      (Detect.Campaign.candidates ~instantiate ~schedules:opts.eo_schedules
         ~seed:opts.eo_seed ())
  in
  let watched =
    List.filter_map
      (fun (k, r) ->
        let ours = Grammar.key_matches rid k in
        let fresh =
          has_replace && (not ours)
          &&
          match rid_of_key_opt k with
          | None -> false
          | Some r' ->
            not (List.exists (fun b -> Grammar.compare_race_id b r' = 0) bl.bl_detected)
        in
        if ours || fresh then Some (k, ours, r) else None)
      cands
  in
  let results =
    Rf.confirm_all ~instantiate
      ~cands:(Array.of_list (List.map (fun (_, _, r) -> Rf.candidate_of_report r) watched))
      ~runs:opts.eo_confirm_runs ~seed:opts.eo_seed ~settle:ignore
  in
  match
    List.find_opt
      (fun (_, (c, _)) -> c.Rf.confirmed <> None)
      (List.combine watched (Array.to_list results))
  with
  | None -> Ok ()
  | Some ((_, true, _), _) -> Error R_race_survives
  | Some ((k, false, _), _) ->
    Error
      (R_new_race
         (match rid_of_key_opt k with
         | Some r' -> Grammar.race_id_to_string r'
         | None -> Detect.Race.key_to_string k))

(* Each stage runs in its own span under [repair/race], so a metrics
   export shows where re-validation time goes. *)
let validate (opts : options) (sub : subject) (bl : baseline)
    (rid : Grammar.race_id) (cand : Grammar.candidate) :
    (Ast.program, reject) result =
  Obs.Span.with_ "validate" @@ fun () ->
  let reg = Obs.Metrics.global () in
  let ( let* ) = Result.bind in
  let* patched, cu =
    Obs.Span.with_ "compile" (fun () ->
        let* patched =
          Result.map_error (fun m -> R_compile m) (Grammar.apply sub.sj_prog cand)
        in
        let* cu = Result.map_error (fun m -> R_compile m) (compile_patched patched) in
        Ok (patched, cu))
  in
  (* Sequential behavior must be preserved. *)
  let rc = Obs.Span.with_ "seed" (fun () -> record opts sub cu) in
  let* () =
    let res = render_result rc.rec_result in
    if not (String.equal res bl.bl_result) then
      Error (R_behavior (Printf.sprintf "seed result %s (was %s)" res bl.bl_result))
    else if not (String.equal rc.rec_output bl.bl_output) then
      Error (R_behavior "seed output differs")
    else Ok ()
  in
  (* No new ABBA lock-order pair. *)
  let pairs = Obs.Span.with_ "lockorder" (fun () -> lock_pairs sub rc.rec_trace) in
  let* () =
    match List.find_opt (fun p -> not (List.mem p bl.bl_pairs)) pairs with
    | Some p ->
      Obs.Metrics.incr reg "repair/rejected_deadlock";
      Error (R_deadlock p)
    | None -> Ok ()
  in
  (* Only a mutex replacement can REMOVE protection, so only then must
     the whole test suite be rescanned for new races. *)
  let has_replace =
    List.exists
      (function Grammar.Replace_mutex _ -> true | _ -> false)
      cand.Grammar.ca_actions
  in
  (* Re-detection: the race must no longer be confirmable. *)
  let check_backend backend =
    let an = Obs.Span.with_ "analyze" (fun () -> analysis_of ~backend sub cu rc) in
    Obs.Span.with_ "redetect" (fun () ->
        (* One endpoint-A replay memo for the scan: relevant tests that
           share an endpoint A share its seed replay. *)
        let instantiator = Pipeline.instantiator an in
        let rec scan = function
          | [] -> Ok ()
          | t :: rest ->
            let* () =
              redetect_test opts bl rid ~has_replace ~instantiate:(instantiator t)
            in
            scan rest
        in
        scan (relevant_tests bl rid ~all:has_replace an))
  in
  let rec over_backends = function
    | [] -> Ok patched
    | b :: rest -> (
      match check_backend b with Ok () -> over_backends rest | Error e -> Error e)
  in
  over_backends opts.eo_backends

(* ---- baseline construction ---- *)

(* The original program's recording gives both its baseline and the
   trace discovery analyzes; a seed test that fails leaves nothing to
   analyze, so it fails the subject. *)
let record_original (opts : options) (sub : subject) :
    (baseline * recording, string) result =
  let rc = record opts sub sub.sj_cu in
  match rc.rec_result with
  | Error e -> Error (Printf.sprintf "seed test failed: %s" e)
  | Ok _ ->
    Ok
      ( {
          bl_output = rc.rec_output;
          bl_result = render_result rc.rec_result;
          bl_pairs = lock_pairs sub rc.rec_trace;
          bl_detected = [];
          bl_tests_of = (fun _ -> []);
        },
        rc )

let baseline_of opts sub = Result.map fst (record_original opts sub)

type attempt = { at_cand : Grammar.candidate; at_result : (unit, reject) result }

type outcome =
  | Repaired of { rc_cand : Grammar.candidate; rc_patched : Ast.program }
  | No_candidates
  | Not_repairable

type race_repair = {
  rr_id : Grammar.race_id;
  rr_key : Detect.Race.key;
  rr_verdict : Detect.Triage.verdict option;
  rr_outcome : outcome;
  rr_attempts : attempt list;
}

let repair_race (opts : options) (sub : subject) (bl : baseline)
    (rid : Grammar.race_id) ~key ~verdict : race_repair =
  (* ~root: races run on Par worker domains; the span path must not
     depend on the fan-out. *)
  Obs.Span.with_ ~root:true "repair/race" (fun () ->
      let reg = Obs.Metrics.global () in
      let cands = Grammar.candidates sub.sj_prog rid in
      let cands = if opts.eo_overlock then List.rev cands else cands in
      let cands =
        List.filteri (fun i _ -> i < opts.eo_max_candidates) cands
      in
      let rec loop attempts = function
        | [] ->
          let rr_outcome =
            if attempts = [] then No_candidates else Not_repairable
          in
          { rr_id = rid; rr_key = key; rr_verdict = verdict; rr_outcome;
            rr_attempts = List.rev attempts }
        | c :: rest -> (
          Obs.Metrics.incr reg "repair/attempts";
          match validate opts sub bl rid c with
          | Ok patched ->
            Obs.Metrics.incr reg "repair/repaired";
            {
              rr_id = rid;
              rr_key = key;
              rr_verdict = verdict;
              rr_outcome = Repaired { rc_cand = c; rc_patched = patched };
              rr_attempts =
                List.rev ({ at_cand = c; at_result = Ok () } :: attempts);
            }
          | Error e ->
            loop ({ at_cand = c; at_result = Error e } :: attempts) rest)
      in
      loop [] cands)

(* ---- discovery + whole-subject loop ---- *)

type report = {
  rp_subject_classes : Ast.id list;
  rp_tests : int;
  rp_detected : int;
  rp_confirmed : int;
  rp_races : race_repair list;
  rp_seconds : float;
}

type discovered = {
  d_rid : Grammar.race_id;
  d_key : Detect.Race.key;
  d_verdict : Detect.Triage.verdict option;
}

let repair_all ?(opts = default_options) (sub : subject) :
    (report, string) result =
  Obs.Span.with_ ~root:true "repair/subject" (fun () ->
      let reg = Obs.Metrics.global () in
      let t0 = Obs.Clock.ticks () in
      match opts.eo_backends with
      | [] -> Error "repair: no backends configured"
      | discover_backend :: _ -> (
        match record_original opts sub with
        | Error msg -> Error msg
        | Ok (bl, rc) ->
          let an = analysis_of ~backend:discover_backend sub sub.sj_cu rc in
          (* Discovery: every confirmed race, its triage verdict, and —
             for the baseline — every detected race id with the tests
             that showed it. *)
          let detected : (Grammar.race_id * (string * string * string)) list ref =
            ref []
          in
          let confirmed : (Detect.Race.key * discovered) list ref = ref [] in
          let instantiator = Pipeline.instantiator an in
          List.iter
            (fun t ->
              let instantiate = instantiator t in
              let cands =
                Result.value ~default:[]
                  (Detect.Campaign.candidates ~instantiate
                     ~schedules:opts.eo_schedules ~seed:opts.eo_seed ())
              in
              let test = Detect.Campaign.test instantiate in
              (* A test's keys are distinct, so filtering by the keys
                 earlier tests confirmed is filtering by every key
                 confirmed before each candidate. *)
              let unconfirmed =
                List.filter_map
                  (fun (k, r) ->
                    match rid_of_key_opt k with
                    | None -> None
                    | Some rid ->
                      detected := (rid, Synth.dedup_key t.Synth.st_pair) :: !detected;
                      if List.mem_assoc k !confirmed then None else Some (rid, k, r))
                  cands
              in
              let outcomes =
                Detect.Campaign.confirm_and_triage ~test
                  ~runs:opts.eo_confirm_runs ~seed:opts.eo_seed
                  (List.map (fun (_, _, r) -> r) unconfirmed)
              in
              List.iter2
                (fun (rid, k, _) (o : Detect.Campaign.outcome) ->
                  if o.Detect.Campaign.o_confirm.Rf.confirmed <> None then
                    confirmed :=
                      (k, { d_rid = rid; d_key = k; d_verdict = o.Detect.Campaign.o_verdict })
                      :: !confirmed)
                unconfirmed outcomes)
            an.Pipeline.an_tests;
          let detected = !detected in
          let detected_rids =
            List.sort_uniq Grammar.compare_race_id (List.map fst detected)
          in
          (* Distinct repair targets, one per race id (a race id can show
             under several keys when pcs shift between tests). *)
          let targets =
            List.fold_left
              (fun acc (_, d) ->
                if
                  List.exists
                    (fun d' -> Grammar.compare_race_id d'.d_rid d.d_rid = 0)
                    acc
                then acc
                else d :: acc)
              [] (List.rev !confirmed)
          in
          let targets =
            List.sort (fun a b -> Grammar.compare_race_id a.d_rid b.d_rid) targets
          in
          Obs.Metrics.incr reg ~n:(List.length targets) "repair/races";
          let bl =
            {
              bl with
              bl_detected = detected_rids;
              bl_tests_of =
                (fun rid ->
                  List.filter_map
                    (fun (r, k) ->
                      if Grammar.compare_race_id r rid = 0 then Some k else None)
                    detected);
            }
          in
          (* Each race is repaired against the original program, so
             the races are the fan-out's independent units. *)
          let races =
            Par.map ~jobs:opts.eo_jobs targets (fun d ->
                repair_race opts sub bl d.d_rid ~key:d.d_key
                  ~verdict:d.d_verdict)
          in
          Ok
            {
              rp_subject_classes = sub.sj_client_classes;
              rp_tests = List.length an.Pipeline.an_tests;
              rp_detected = List.length detected_rids;
              rp_confirmed = List.length targets;
              rp_races = races;
              rp_seconds = Obs.Clock.elapsed_s ~since:t0;
            }))

let constructive (rr : race_repair) =
  match rr.rr_outcome with Repaired _ -> true | _ -> false

let diff_of (sub : subject) (patched : Ast.program) =
  Diff.unified
    ~original:(Jir.Pretty.program_to_string sub.sj_prog)
    ~patched:(Jir.Pretty.program_to_string patched)

(* ---- rendering ---- *)

let verdict_to_string = function
  | Some v -> Detect.Triage.verdict_to_string v
  | None -> "unknown"

let report_to_string ?(show_attempts = false) (sub : subject) (rp : report) :
    string =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "repair: %s\n" (String.concat ", " rp.rp_subject_classes);
  pf "  tests driven        %d\n" rp.rp_tests;
  pf "  races detected      %d\n" rp.rp_detected;
  pf "  races confirmed     %d\n" rp.rp_confirmed;
  let repaired = List.filter constructive rp.rp_races in
  pf "  races repaired      %d\n" (List.length repaired);
  pf "  seconds             %.2f\n" rp.rp_seconds;
  List.iter
    (fun rr ->
      pf "\n%s [%s]\n" (Grammar.race_id_to_string rr.rr_id)
        (verdict_to_string rr.rr_verdict);
      (match rr.rr_outcome with
      | Repaired { rc_cand; rc_patched } ->
        pf "  repaired (constructively confirmed real): %s\n"
          (Grammar.candidate_to_string rc_cand);
        pf "  deadlock check: clean (no new lock-order pair)\n";
        let d = diff_of sub rc_patched in
        String.split_on_char '\n' d
        |> List.iter (fun l -> if l <> "" then pf "  %s\n" l)
      | No_candidates -> pf "  no repair candidates expressible in the grammar\n"
      | Not_repairable ->
        pf "  not repairable: all %d candidates rejected\n"
          (List.length rr.rr_attempts));
      if show_attempts then
        List.iter
          (fun a ->
            pf "    tried %s -> %s\n"
              (Grammar.candidate_to_string a.at_cand)
              (match a.at_result with
              | Ok () -> "accepted"
              | Error e -> reject_to_string e))
          rr.rr_attempts)
    rp.rp_races;
  Buffer.contents buf
