(* Differential oracles over one generated program.

   The detectors are run against each other (FastTrack vs Djit+ vs a
   naive full-history happens-before recomputation vs lockset) on the
   same recorded execution, the VM is run against itself (determinism),
   the front-end against itself (round-trip) and the synthesis pipeline
   against replay.  Any disagreement is a substrate bug by construction:
   generated programs are well-typed and crash-free. *)

open Detect

type verdict = Pass | Fail of string

type mutation =
  | Drop_join
  | Drop_release
  | Static_drop_sync
  | Static_stale_cache
  | Repair_overlock
  | Instance_alias
  | Test_alias
  | Late_attach
  | Mask_drop_write
  | Guided_seed

let mutation_of_string = function
  | "drop-join" -> Ok Drop_join
  | "drop-release" -> Ok Drop_release
  | "static-drop-sync" -> Ok Static_drop_sync
  | "static-stale-cache" -> Ok Static_stale_cache
  | "repair-overlock" -> Ok Repair_overlock
  | "instance-alias" -> Ok Instance_alias
  | "test-alias" -> Ok Test_alias
  | "late-attach" -> Ok Late_attach
  | "mask-drop-write" -> Ok Mask_drop_write
  | "guided-seed" -> Ok Guided_seed
  | s ->
    Error
      (Printf.sprintf
         "unknown mutation %S (have: drop-join, drop-release, \
          static-drop-sync, static-stale-cache, repair-overlock, \
          instance-alias, test-alias, late-attach, mask-drop-write, \
          guided-seed)"
         s)

let mutation_to_string = function
  | Drop_join -> "drop-join"
  | Drop_release -> "drop-release"
  | Static_drop_sync -> "static-drop-sync"
  | Static_stale_cache -> "static-stale-cache"
  | Repair_overlock -> "repair-overlock"
  | Instance_alias -> "instance-alias"
  | Test_alias -> "test-alias"
  | Late_attach -> "late-attach"
  | Mask_drop_write -> "mask-drop-write"
  | Guided_seed -> "guided-seed"

(* Seed roles, derived from the per-program base seed so every oracle is
   a pure function of (program, seed). *)
let vm_seed base = Par.seed ~base ~index:1
let sched_seed base = Par.seed ~base ~index:2
let replay_seed base = Par.seed ~base ~index:3

let client_classes = [ Gen.seed_cls ]

(* ---- the naive O(n²) happens-before oracle ---- *)

(* Recompute vector clocks event by event with the same edge semantics
   as FastTrack/Djit+ (release→acquire, spawn, join), but keep the full
   clock history of every access and compare all conflicting pairs. *)
let naive_hb_racy_vars (trace : Runtime.Trace.t) : (int * string * int option) list =
  let clocks : (int, Vclock.t) Hashtbl.t = Hashtbl.create 8 in
  let clock tid =
    match Hashtbl.find_opt clocks tid with
    | Some c -> c
    | None ->
      let c = Vclock.inc Vclock.empty tid in
      Hashtbl.replace clocks tid c;
      c
  in
  let lock_clocks : (int, Vclock.t) Hashtbl.t = Hashtbl.create 8 in
  let history : (int * string * int option, (int * Vclock.t * bool) list) Hashtbl.t =
    Hashtbl.create 32
  in
  let access tid ~obj ~field ~idx ~write =
    let key = (obj, field, idx) in
    let prev = Option.value ~default:[] (Hashtbl.find_opt history key) in
    Hashtbl.replace history key ((tid, clock tid, write) :: prev)
  in
  Array.iter
    (fun (ev : Runtime.Event.t) ->
      match ev with
      | Runtime.Event.Lock { tid; addr; _ } -> (
        match Hashtbl.find_opt lock_clocks addr with
        | Some lc -> Hashtbl.replace clocks tid (Vclock.join (clock tid) lc)
        | None -> ignore (clock tid))
      | Runtime.Event.Unlock { tid; addr; _ } ->
        Hashtbl.replace lock_clocks addr (clock tid);
        Hashtbl.replace clocks tid (Vclock.inc (clock tid) tid)
      | Runtime.Event.Spawned { tid; new_tid; _ } ->
        Hashtbl.replace clocks new_tid (Vclock.join (clock new_tid) (clock tid));
        Hashtbl.replace clocks tid (Vclock.inc (clock tid) tid)
      | Runtime.Event.Joined { tid; joined; _ } ->
        Hashtbl.replace clocks tid (Vclock.join (clock tid) (clock joined))
      | Runtime.Event.Read { tid; obj; field; idx; _ } ->
        access tid ~obj ~field ~idx ~write:false
      | Runtime.Event.Write { tid; obj; field; idx; _ } ->
        access tid ~obj ~field ~idx ~write:true
      | Runtime.Event.Const _ | Runtime.Event.Move _ | Runtime.Event.Alloc _
      | Runtime.Event.Invoke _ | Runtime.Event.Param _ | Runtime.Event.Return _
      | Runtime.Event.Thrown _ ->
        ())
    trace;
  Hashtbl.fold
    (fun key accs acc ->
      let arr = Array.of_list accs in
      let racy = ref false in
      for i = 0 to Array.length arr - 1 do
        for j = i + 1 to Array.length arr - 1 do
          let t1, c1, w1 = arr.(i) and t2, c2, w2 = arr.(j) in
          if t1 <> t2 && (w1 || w2) && not (Vclock.leq c1 c2 || Vclock.leq c2 c1) then
            racy := true
        done
      done;
      if !racy then key :: acc else acc)
    history []
  |> List.sort_uniq compare

let vars_of_reports reports =
  reports
  |> List.map (fun (r : Race.report) ->
         (r.Race.r_first.Race.a_obj, r.Race.r_first.Race.a_field, r.Race.r_first.Race.a_idx))
  |> List.sort_uniq compare

let var_to_string (obj, field, idx) =
  Printf.sprintf "@%d.%s%s" obj field
    (match idx with Some i -> Printf.sprintf "[%d]" i | None -> "")

let vars_to_string vars =
  "{" ^ String.concat ", " (List.map var_to_string vars) ^ "}"

(* ---- shared multithreaded run for the detector oracles ---- *)

type mt_run = {
  mt_trace : Runtime.Trace.t;
  mt_ft_reports : Race.report list;
  mt_ft_vars : (int * string * int option) list;
  mt_djit_vars : (int * string * int option) list;
  mt_lockset_vars : (int * string * int option) list;
}

let run_multithreaded ?mutate ~seed cu : mt_run =
  let ft = Fasttrack.create () in
  let dj = Djit.create () in
  let ls = Lockset.create () in
  let recorder = Runtime.Trace.recorder () in
  let feed_ft ev =
    match (mutate, ev) with
    | Some Drop_join, Runtime.Event.Joined _ -> ()
    | Some Drop_release, Runtime.Event.Unlock _ -> ()
    | _ -> Fasttrack.observer ft ev
  in
  let _res, _m =
    Conc.Exec.run_program ~seed:(vm_seed seed) cu ~client_classes
      ~cls:Gen.seed_cls ~meth:Gen.main_meth
      ~on_machine:(fun m ->
        let open Runtime.Machine in
        add_observer m Every_event (Runtime.Trace.observer recorder);
        add_observer m Sync_and_access feed_ft;
        add_observer m Sync_and_access (Djit.observer dj);
        add_observer m Sync_and_access (Lockset.observer ls))
      (Conc.Scheduler.random ~seed:(sched_seed seed))
  in
  let r =
    {
      mt_trace = Runtime.Trace.snapshot recorder;
      mt_ft_reports = Fasttrack.reports ft;
      mt_ft_vars = vars_of_reports (Fasttrack.reports ft);
      mt_djit_vars = vars_of_reports (Djit.reports dj);
      mt_lockset_vars = vars_of_reports (Lockset.candidates ls);
    }
  in
  (* The machine is dropped here, so its backing chunks can feed the
     next execution on this domain. *)
  Runtime.Trace.recycle recorder;
  r

(* Interleaving coverage of one seeded multithreaded execution: HB-edge
   and lock-order features from the trace, racy-pair features from the
   lockset candidates.  The guided campaign's novelty signal — a
   dedicated (cheap) execution so the blind oracle path stays
   untouched. *)
let coverage ~seed program : Cov.Set.t =
  match Jir.Compile.compile_source (Gen.to_source program) with
  | exception Jir.Diag.Error _ -> Cov.Set.empty
  | cu ->
    let ls = Lockset.create () in
    let recorder = Runtime.Trace.recorder () in
    let _res, _m =
      Conc.Exec.run_program ~seed:(vm_seed seed) cu ~client_classes
        ~cls:Gen.seed_cls ~meth:Gen.main_meth
        ~on_machine:(fun m ->
          let open Runtime.Machine in
          add_observer m Every_event (Runtime.Trace.observer recorder);
          add_observer m Sync_and_access (Lockset.observer ls))
        (Conc.Scheduler.random ~seed:(sched_seed seed))
    in
    let cov = Cov.of_trace (Runtime.Trace.snapshot recorder) in
    Runtime.Trace.recycle recorder;
    List.fold_left
      (fun acc (r : Race.report) ->
        Cov.Set.add Cov.Racy_pair
          (Cov.racy_pair ~field:r.Race.r_first.Race.a_field
             r.Race.r_first.Race.a_site r.Race.r_second.Race.a_site)
          acc)
      cov (Lockset.candidates ls)

(* ---- individual oracles ---- *)

let roundtrip program =
  let p1 = Gen.to_source program in
  match Jir.Parser.parse_program p1 with
  | exception Jir.Diag.Error d -> Fail ("printed program does not parse: " ^ Jir.Diag.to_string d)
  | reparsed ->
    let p2 = Gen.to_source reparsed in
    if String.equal p1 p2 then Pass
    else
      let n = min (String.length p1) (String.length p2) in
      let i = ref 0 in
      while !i < n && p1.[!i] = p2.[!i] do incr i done;
      Fail (Printf.sprintf "pretty/parse round-trip diverges at byte %d" !i)

let typecheck program =
  match Jir.Compile.compile_source (Gen.to_source program) with
  | _ -> Pass
  | exception Jir.Diag.Error d -> Fail (Jir.Diag.to_string d)

let vm_determinism ~seed cu =
  let run () =
    let recorder = Runtime.Trace.recorder () in
    let res, m =
      Conc.Exec.run_program ~seed:(vm_seed seed) cu ~client_classes
        ~cls:Gen.seed_cls ~meth:Gen.main_meth
        ~on_machine:(fun m ->
          Runtime.Machine.add_observer m Runtime.Machine.Every_event
            (Runtime.Trace.observer recorder))
        (Conc.Scheduler.random ~seed:(sched_seed seed))
    in
    let out =
      ( res.Conc.Exec.outcome,
        res.Conc.Exec.steps,
        res.Conc.Exec.crashes,
        Runtime.Machine.output m,
        Runtime.Trace.to_string (Runtime.Trace.snapshot recorder) )
    in
    Runtime.Trace.recycle recorder;
    out
  in
  let (o1, s1, c1, out1, t1) = run () in
  let (o2, s2, c2, out2, t2) = run () in
  if o1 = o2 && s1 = s2 && c1 = c2 && String.equal out1 out2 && String.equal t1 t2
  then Pass
  else
    Fail
      (Printf.sprintf
         "two identically-seeded runs differ: steps %d vs %d, output %S vs %S%s"
         s1 s2 out1 out2
         (if String.equal t1 t2 then "" else ", traces differ"))

let detectors_agree ?mutate ~seed cu =
  let r = run_multithreaded ?mutate ~seed cu in
  let naive = naive_hb_racy_vars r.mt_trace in
  if r.mt_ft_vars <> naive then
    Fail
      (Printf.sprintf "fasttrack=%s naive-hb=%s"
         (vars_to_string r.mt_ft_vars) (vars_to_string naive))
  else if r.mt_djit_vars <> naive then
    Fail
      (Printf.sprintf "djit=%s naive-hb=%s"
         (vars_to_string r.mt_djit_vars) (vars_to_string naive))
  else Pass

let lockset_superset ?mutate ~seed cu =
  (* the superset is checked against the un-mutated HB verdicts *)
  ignore mutate;
  let r = run_multithreaded ~seed cu in
  let naive = naive_hb_racy_vars r.mt_trace in
  let missing = List.filter (fun v -> not (List.mem v r.mt_lockset_vars)) naive in
  if missing = [] then Pass
  else
    Fail
      (Printf.sprintf "HB races %s not covered by lockset candidates %s"
         (vars_to_string missing)
         (vars_to_string r.mt_lockset_vars))

(* The static race analyzer must over-approximate every dynamic race:
   each FastTrack report's (field, unordered method pair) identity must
   be covered by some static candidate.  Checked against an un-mutated
   FastTrack run — feed mutations corrupt the detector's input, not the
   program — while the [static-drop-sync] mutation plants a real
   unsoundness in the analyzer itself to prove this oracle has teeth. *)
let static_superset ?mutate ~seed cu =
  let static_mutate =
    match mutate with
    | Some Static_drop_sync -> Some Static.Analyze.Drop_sync
    | Some
        ( Drop_join | Drop_release | Static_stale_cache | Repair_overlock
        | Instance_alias | Test_alias | Late_attach | Mask_drop_write | Guided_seed )
    | None ->
      None
  in
  let an = Static.Analyze.run ?mutate:static_mutate cu.Jir.Code.cu_program in
  let r = run_multithreaded ~seed cu in
  let uncovered (rep : Race.report) =
    let m1 = rep.Race.r_first.Race.a_site.Runtime.Event.s_meth in
    let m2 = rep.Race.r_second.Race.a_site.Runtime.Event.s_meth in
    let field = rep.Race.r_first.Race.a_field in
    if Static.Analyze.covers an ~field ~m1 ~m2 then None
    else Some (Printf.sprintf ".%s: %s <-> %s" field m1 m2)
  in
  match List.sort_uniq compare (List.filter_map uncovered r.mt_ft_reports) with
  | [] -> Pass
  | missing ->
    Fail
      (Printf.sprintf
         "dynamic races not covered by the %d static candidates: %s"
         (List.length (Static.Analyze.candidates an))
         (String.concat "; " missing))

(* ---- incremental static analysis vs. from-scratch ---- *)

(* Deterministic one-statement edit: drop the last statement of the
   first non-empty method body, in declaration order.  Structure-only —
   the edited program still passes class-table validation. *)
let drop_one_stmt (prog : Jir.Ast.program) : Jir.Ast.program =
  let hit = ref false in
  let edit_meth (m : Jir.Ast.method_decl) =
    if !hit || m.Jir.Ast.m_body = [] then m
    else begin
      hit := true;
      let n = List.length m.Jir.Ast.m_body in
      {
        m with
        Jir.Ast.m_body = List.filteri (fun i _ -> i < n - 1) m.Jir.Ast.m_body;
      }
    end
  in
  List.map
    (fun (c : Jir.Ast.class_decl) ->
      { c with Jir.Ast.c_methods = List.map edit_meth c.Jir.Ast.c_methods })
    prog

(* Incremental reanalysis through the digest-keyed summary cache must be
   indistinguishable from a from-scratch run.  The cache is warmed on a
   deterministically edited variant of the program (one statement
   dropped), then the original is analyzed against the warm cache —
   unchanged classes hit, the edited class re-summarizes — and the
   rendered candidate list must be byte-identical to an uncached run,
   in both the closed and the open world.  The [static-stale-cache]
   mutation keys summaries by class name instead of content digest, so
   the warm run reuses the stale summary of the edited class — exactly
   the invalidation bug this oracle exists to catch. *)
let static_incremental ?mutate (cu : Jir.Code.unit_) =
  let static_mutate =
    match mutate with
    | Some Static_stale_cache -> Some Static.Analyze.Stale_cache
    | Some
        ( Drop_join | Drop_release | Static_drop_sync | Repair_overlock
        | Instance_alias | Test_alias | Late_attach | Mask_drop_write | Guided_seed )
    | None ->
      None
  in
  let prog = cu.Jir.Code.cu_program in
  let edited =
    Jir.Program.of_ast (drop_one_stmt (Jir.Program.classes prog))
  in
  let render an =
    List.map Static.Dom.cand_to_string (Static.Analyze.candidates an)
  in
  let diverged =
    List.filter_map
      (fun open_world ->
        let cache = Static.Cache.in_memory () in
        ignore
          (Static.Analyze.run ?mutate:static_mutate ~open_world ~cache edited);
        let warm =
          render (Static.Analyze.run ?mutate:static_mutate ~open_world ~cache prog)
        in
        let cold = render (Static.Analyze.run ~open_world prog) in
        if warm = cold then None
        else
          Some
            (Printf.sprintf "%s world: %d warm vs %d cold candidates"
               (if open_world then "open" else "closed")
               (List.length warm) (List.length cold)))
      [ false; true ]
  in
  match diverged with
  | [] -> Pass
  | ds -> Fail ("incremental /= from-scratch: " ^ String.concat "; " ds)

let max_replayed_tests = 3

let race_keys ft =
  List.sort Race.compare_key (List.map Race.key_of (Fasttrack.reports ft))

(* Priority completion: the first runnable of [order], else the first
   runnable in creation order.  The reference walks [all_threads], not
   the machine's live list that [Conc.Exec.run] hands every scheduler,
   so the oracle also checks the live-list loop against a walk of every
   thread. *)
let run_prioritized m ~order =
  let rec go fuel =
    if fuel > 0 then
      match
        List.find_opt
          (Runtime.Machine.runnable_th m)
          (List.map (Runtime.Machine.find_thread m) order
          @ Runtime.Machine.all_threads m)
      with
      | Some th ->
        ignore (Runtime.Machine.step_th m th);
        go (fuel - 1)
      | None -> ()
  in
  go Racefuzzer.fuel

(* The four triage outcomes of a race, each run on its own fresh
   instance: the serialized executions, and whole directed runs at the
   campaign seed that execute the poised accesses in one order and then
   finish under the run's own random scheduling.  The serialized pair,
   then the forced pair. *)
let replayed_evidence fresh ~cand ~seed =
  let ( let* ) = Result.bind in
  let run k =
    Result.map
      (fun inst ->
        k inst;
        Triage.observe inst)
      (fresh ())
  in
  let serial reorder (inst : Racefuzzer.instance) =
    run_prioritized inst.Racefuzzer.ri_machine
      ~order:(reorder inst.Racefuzzer.ri_threads)
  in
  let forced rev (inst : Racefuzzer.instance) =
    let m = inst.Racefuzzer.ri_machine in
    let re, _ = Racefuzzer.directed_run inst ~cand ~seed ~fuel:Racefuzzer.fuel in
    (match re.Racefuzzer.re_report with
    | Some r ->
      let t1 = r.Race.r_first.Race.a_tid and t2 = r.Race.r_second.Race.a_tid in
      List.iter
        (fun tid ->
          ignore (Runtime.Machine.step_th m (Runtime.Machine.find_thread m tid)))
        (if rev then [ t2; t1 ] else [ t1; t2 ]);
      ignore
        (Conc.Exec.run ~fuel:re.Racefuzzer.re_fuel m
           (Conc.Scheduler.of_rng re.Racefuzzer.re_rng))
    | None -> ());
    run_prioritized m ~order:[]
  in
  let* s = run (serial Fun.id) in
  let* s_rev = run (serial List.rev) in
  let* f = run (forced false) in
  let* f_rev = run (forced true) in
  Ok ((s, s_rev), (f, f_rev))

(* A candidate's confirmation from scratch: run [i] is a whole directed
   run at the campaign's seed for it, on its own fresh instance, until
   the first confirmation or instantiation failure.  The confirmed
   report, the runs used and their steps. *)
let replayed_confirmation instantiate ~cand ~runs ~seed =
  let rec go i steps =
    if i >= runs then (None, runs, steps)
    else
      match instantiate () with
      | Error _ -> (None, i, steps)
      | Ok inst -> (
        let re, st =
          Racefuzzer.directed_run inst ~cand
            ~seed:(Int64.add seed (Int64.of_int (i * 7919)))
            ~fuel:Racefuzzer.fuel
        in
        let steps = steps + st.Racefuzzer.rs_steps in
        match re.Racefuzzer.re_report with
        | Some r -> (Some r, i + 1, steps)
        | None -> go (i + 1) steps)
  in
  go 0 0

let confirmation = function None -> "unconfirmed" | Some r -> Race.to_string r

let confirm_runs = 3

(* Every synthesized test instantiates, and the instances its
   instantiator hands out are interchangeable with a fresh build: copy 1
   and copy 2 — the latter taken after copy 1 ran to completion — must
   each match a fresh [Synth.instantiate] in their initial state (heap
   from the roots, labels used, output) and under one seeded schedule
   (outcome, steps, output, race keys).  The [instance-alias] mutation
   makes the oracle's instantiator hand out its template itself, so copy
   2 is copy 1 after its run.  The instantiators are staged once per
   program, so a test whose endpoint A an earlier test already replayed
   builds its template on a copy of that replay's machine, and the fresh
   build is the reference for that sharing too.

   The campaign confirms a test's candidates together, each directed run
   shared until a candidate's first matching access.  Each candidate's
   confirmation (report, runs used, steps) must equal that of its own
   directed runs, each on a fresh instance of the instantiator the
   campaign was given.  The campaign's triage, which shares each test's
   serialized baselines across its races and, while they agree, forks
   the forced orders from the confirmation's run 0, must agree with four
   fresh replays on every race it confirms: both serialized outcomes,
   the forced pair exactly when the serialized outcomes agree, and the
   verdict.  The [test-alias] mutation hands every test the first
   test's campaign state, so later tests are confirmed and triaged on
   the first test's instances. *)
let synthesis_replay ?mutate ?(strict = true) ~seed cu =
  match
    Narada_core.Pipeline.analyze ~seed:(vm_seed seed) cu ~client_classes
      ~seed_cls:Gen.seed_cls ~seed_meth:Gen.seed_meth
  with
  | Error msg ->
    (* Generated programs have crash-free sequential seed tests, so a
       pipeline error is a finding — but shrinking can manufacture
       programs whose seed test legitimately diverges (e.g. a dropped
       loop update), and those are not counterexamples. *)
    if strict then Fail ("pipeline failed on a crash-free seed test: " ^ msg) else Pass
  | Ok an ->
    let tests =
      List.filteri (fun i _ -> i < max_replayed_tests)
        an.Narada_core.Pipeline.an_tests
    in
    let fresh (t : Narada_core.Synth.test) () =
      Narada_core.Synth.instantiate an.Narada_core.Pipeline.an_cu
        ~client_classes:an.Narada_core.Pipeline.an_client_classes t
    in
    let instantiator = Narada_core.Pipeline.instantiator an in
    let replay (t : Narada_core.Synth.test) =
      let instantiate =
        if mutate = Some Instance_alias then
          let template = lazy (fresh t ()) in
          fun () -> Lazy.force template
        else instantiator t
      in
      let shot = function
        | Error e -> Error e
        | Ok inst ->
          let m = inst.Detect.Racefuzzer.ri_machine in
          let initial =
            ( Runtime.Snapshot.canonical (Runtime.Machine.heap m)
                ~roots:inst.Detect.Racefuzzer.ri_roots,
              Runtime.Machine.labels_used m,
              Runtime.Machine.output m )
          in
          let ft = Fasttrack.attach m in
          let res = Conc.Exec.run m (Conc.Scheduler.random ~seed:(replay_seed seed)) in
          Ok
            ( initial,
              res.Conc.Exec.outcome,
              res.Conc.Exec.steps,
              Runtime.Machine.output m,
              race_keys ft )
      in
      let reference = shot (fresh t ()) in
      let first = shot (instantiate ()) in
      let second = shot (instantiate ()) in
      let diverges what =
        Some
          (Printf.sprintf "test #%d replay diverges: %s differs from a fresh instantiation"
             t.Narada_core.Synth.st_id what)
      in
      if first <> reference then diverges "copy 1"
      else if second <> reference then diverges "copy 2 (taken after copy 1 ran)"
      else None
    in
    let first_test = ref None in
    let triage (t : Narada_core.Synth.test) =
      let instantiate = instantiator t in
      let own = (Campaign.test instantiate, instantiate) in
      (* The campaign's state and the instantiator it was given. *)
      let test, test_instantiate =
        match (mutate, !first_test) with
        | Some Test_alias, Some first -> first
        | _ ->
          first_test := Some own;
          own
      in
      let seed = replay_seed seed in
      let check (k, r) (o : Campaign.outcome) =
        let cand = Racefuzzer.candidate_of_report r in
        let c = o.Campaign.o_confirm in
        let rc, ru, rs =
          replayed_confirmation test_instantiate ~cand ~runs:confirm_runs ~seed
        in
        let differs what =
          Some
            (Printf.sprintf
               "test #%d race %s: shared-state triage differs from four fresh \
                replays: %s"
               t.Narada_core.Synth.st_id (Race.key_to_string k) what)
        in
        if
          c.Racefuzzer.confirmed <> rc
          || c.Racefuzzer.runs_used <> ru
          || c.Racefuzzer.steps <> rs
        then
          Some
            (Printf.sprintf
               "test #%d race %s: shared-prefix confirmation differs from its own \
                directed runs: %s in %d runs, %d steps, not %s in %d runs, %d steps"
               t.Narada_core.Synth.st_id (Race.key_to_string k)
               (confirmation c.Racefuzzer.confirmed)
               c.Racefuzzer.runs_used c.Racefuzzer.steps (confirmation rc) ru rs)
        else
        match o.Campaign.o_evidence with
        | None -> None
        | Some ev -> (
          match replayed_evidence (fresh t) ~cand ~seed with
          | Error e -> differs ("fresh instantiation failed: " ^ e)
          | Ok (((s, s_rev) as serial), ((f, f_rev) as forced)) ->
            let verdict =
              if List.for_all (( = ) s) [ s_rev; f; f_rev ] then Triage.Benign
              else Triage.Harmful
            in
            (* The forced orders are evidence exactly when the serial
               orders leave the verdict open. *)
            let expected_forced = if s = s_rev then Some forced else None in
            if serial <> (ev.Triage.e_serial, ev.Triage.e_serial_rev) then
              differs "serialized baselines"
            else if ev.Triage.e_forced <> expected_forced then differs "forced orders"
            else if o.Campaign.o_verdict <> Some verdict then differs "verdict"
            else None)
      in
      match Campaign.candidates ~instantiate ~schedules:2 ~seed () with
      | Error _ -> None
      | Ok cands ->
        let outcomes =
          Campaign.confirm_and_triage ~test ~runs:confirm_runs ~seed (List.map snd cands)
        in
        List.find_map (fun (c, o) -> check c o) (List.combine cands outcomes)
    in
    (match List.find_map replay tests with
    | Some detail -> Fail detail
    | None -> (
      match List.find_map triage tests with
      | Some detail -> Fail detail
      | None -> Pass))

(* ---- the observed/unobserved differential ---- *)

(* One engine runs both observed and unobserved, so observing must not
   change a run, and an observer attached at any step must see exactly
   what a run observed from the start shows from that step on.  Run 1
   is observed from the start by a trace recorder and FastTrack; run 2,
   under the same seeds and schedule, runs unobserved for half of run
   1's steps and then gets the same two observers.  Outcome, steps,
   crashes, output and labels used must agree; run 2's trace must be
   the suffix of run 1's from the label where the observers attached,
   and FastTrack must find the same race keys on it.  Run 3 runs the
   same unobserved half and then gets one synchronization-and-access
   recorder alone, so the machine builds only those kinds: it must
   agree with run 1 too, and see exactly the events of those kinds in
   run 1's suffix.  The [late-attach] mutation lets one more step of
   run 2 run unobserved after the label the oracle compares from, so
   that step's events are lost: the bug class of a switch between the
   two modes that drops events.  The [mask-drop-write] mutation hides
   [Write] events from run 3's recorder: the bug class of an interest
   that leaves out a kind its observers read. *)
let observer_diff ?mutate ~seed cu =
  let start ?fuel ?on_machine sched =
    Conc.Exec.run_program ?fuel ?on_machine ~seed:(vm_seed seed) cu ~client_classes
      ~cls:Gen.seed_cls ~meth:Gen.main_meth sched
  in
  let observe () =
    let recorder = Runtime.Trace.recorder () in
    let ft = Fasttrack.create () in
    let attach m =
      let open Runtime.Machine in
      add_observer m Every_event (Runtime.Trace.observer recorder);
      add_observer m Sync_and_access (Fasttrack.observer ft)
    in
    let finish () =
      let trace = Runtime.Trace.snapshot recorder in
      Runtime.Trace.recycle recorder;
      (trace, race_keys ft)
    in
    (attach, finish)
  in
  let facts (r : Conc.Exec.run_result) ~steps m =
    ( r.Conc.Exec.outcome,
      steps,
      r.Conc.Exec.crashes,
      Runtime.Machine.output m,
      Runtime.Machine.labels_used m )
  in
  let attach1, finish1 = observe () in
  let r1, m1 = start ~on_machine:attach1 (Conc.Scheduler.random ~seed:(sched_seed seed)) in
  let trace1, _ = finish1 () in
  let sched = Conc.Scheduler.random ~seed:(sched_seed seed) in
  let head, m2 = start ~fuel:(max 1 (r1.Conc.Exec.steps / 2)) sched in
  let from = Runtime.Machine.labels_used m2 in
  let late =
    if mutate = Some Late_attach then (Conc.Exec.run ~fuel:1 m2 sched).Conc.Exec.steps
    else 0
  in
  let attach2, finish2 = observe () in
  attach2 m2;
  let tail = Conc.Exec.run m2 sched in
  let trace2, keys2 = finish2 () in
  let ((_, steps1, _, _, labels1) as f1) = facts r1 ~steps:r1.Conc.Exec.steps m1 in
  let ((_, steps2, _, _, labels2) as f2) =
    facts tail ~steps:(head.Conc.Exec.steps + late + tail.Conc.Exec.steps) m2
  in
  let suffix =
    Array.of_list
      (List.filter
         (fun ev -> Runtime.Event.label_of ev >= from)
         (Array.to_list trace1))
  in
  let sched3 = Conc.Scheduler.random ~seed:(sched_seed seed) in
  let head3, m3 = start ~fuel:(max 1 (r1.Conc.Exec.steps / 2)) sched3 in
  let from3 = Runtime.Machine.labels_used m3 in
  let recorder3 = Runtime.Trace.recorder () in
  Runtime.Machine.add_observer m3 Runtime.Machine.Sync_and_access (fun ev ->
      match (mutate, ev) with
      | Some Mask_drop_write, Runtime.Event.Write _ -> ()
      | _ -> Runtime.Trace.observer recorder3 ev);
  let tail3 = Conc.Exec.run m3 sched3 in
  let trace3 = Runtime.Trace.snapshot recorder3 in
  Runtime.Trace.recycle recorder3;
  let ((_, steps3, _, _, labels3) as f3) =
    facts tail3 ~steps:(head3.Conc.Exec.steps + tail3.Conc.Exec.steps) m3
  in
  let sync_suffix =
    Array.of_list
      (List.filter
         (fun ev ->
           Runtime.Event.label_of ev >= from3
           &&
           match ev with
           | Runtime.Event.Read _ | Runtime.Event.Write _ | Runtime.Event.Lock _
           | Runtime.Event.Unlock _ | Runtime.Event.Spawned _ | Runtime.Event.Joined _ ->
             true
           | Runtime.Event.Const _ | Runtime.Event.Move _ | Runtime.Event.Alloc _
           | Runtime.Event.Invoke _ | Runtime.Event.Param _ | Runtime.Event.Return _
           | Runtime.Event.Thrown _ ->
             false)
         (Array.to_list trace1))
  in
  if f1 <> f2 then
    Fail
      (Printf.sprintf "observed and mid-run-observed runs differ: steps %d vs %d, labels %d vs %d"
         steps1 steps2 labels1 labels2)
  else if suffix <> trace2 then
    Fail
      (Printf.sprintf "events observed from label %d differ: %d in the observed run, %d after the attach"
         from (Array.length suffix) (Array.length trace2))
  else
    let ft = Fasttrack.create () in
    Array.iter (Fasttrack.observer ft) suffix;
    if race_keys ft <> keys2 then Fail "race keys on the events after the attach differ"
    else if f1 <> f3 then
      Fail
        (Printf.sprintf
           "observed and mid-run synchronization-observed runs differ: steps %d vs %d, labels %d vs %d"
           steps1 steps3 labels1 labels3)
    else if sync_suffix <> trace3 then
      Fail
        (Printf.sprintf
           "synchronization and access events observed from label %d differ: %d in the observed \
            run, %d after the attach"
           from3 (Array.length sync_suffix) (Array.length trace3))
    else Pass

(* ---- the repair oracle ---- *)

(* Every race the detection pipeline confirms on a generated program
   must be closed by the repair engine: the synthesized patch eliminates
   the race under re-detection and introduces no new
   lock-order pair (all of which [Engine.validate] enforces before a
   candidate is accepted) — and the accepted patch must be minimal:
   every grammar candidate cheaper than the chosen one was tried and
   rejected.  The [repair-overlock] mutation makes the engine try
   candidates in reverse cost order, so it returns a needlessly coarse
   repair whose cheaper alternatives were never ruled out — exactly the
   discipline violation the minimality audit flags. *)
let repair_closes ?mutate ~seed cu =
  let sub =
    Repair.Engine.subject_of_unit cu ~client_classes ~seed_cls:Gen.seed_cls
      ~seed_meth:Gen.seed_meth
  in
  let opts =
    {
      Repair.Engine.default_options with
      Repair.Engine.eo_seed = replay_seed seed;
      eo_schedules = 1;
      eo_confirm_runs = 3;
      eo_overlock = mutate = Some Repair_overlock;
    }
  in
  match Repair.Engine.repair_all ~opts sub with
  | Error _ ->
    (* a pipeline failure is the synthesis-replay oracle's finding, not
       a repair verdict (shrinking can break the seed test) *)
    Pass
  | Ok rp ->
    let audit (rr : Repair.Engine.race_repair) =
      let id = Repair.Grammar.race_id_to_string rr.Repair.Engine.rr_id in
      match rr.Repair.Engine.rr_outcome with
      | Repair.Engine.No_candidates ->
        Some (Printf.sprintf "%s: no repair candidates" id)
      | Repair.Engine.Not_repairable ->
        Some (Printf.sprintf "%s: every repair candidate rejected" id)
      | Repair.Engine.Repaired { rc_cand; _ } ->
        let tried =
          List.map
            (fun (a : Repair.Engine.attempt) ->
              Repair.Grammar.candidate_to_string a.Repair.Engine.at_cand)
            rr.Repair.Engine.rr_attempts
        in
        let cheaper_untried =
          Repair.Grammar.candidates sub.Repair.Engine.sj_prog
            rr.Repair.Engine.rr_id
          |> List.filteri (fun i _ ->
                 i < opts.Repair.Engine.eo_max_candidates)
          |> List.find_opt (fun (c : Repair.Grammar.candidate) ->
                 c.Repair.Grammar.ca_cost < rc_cand.Repair.Grammar.ca_cost
                 && not
                      (List.mem (Repair.Grammar.candidate_to_string c) tried))
        in
        Option.map
          (fun (c : Repair.Grammar.candidate) ->
            Printf.sprintf
              "%s: non-minimal repair [cost %d] — cheaper candidate never \
               ruled out: %s"
              id rc_cand.Repair.Grammar.ca_cost
              (Repair.Grammar.candidate_to_string c))
          cheaper_untried
    in
    (match List.find_map audit rp.Repair.Engine.rp_races with
    | Some detail -> Fail detail
    | None -> Pass)

(* ---- one answer across entry points ---- *)

(* Evaluate, Guided and repair discovery all confirm races through
   [Detect.Campaign], so at one seed and one budget (2 lockset
   schedules, 6 directed runs) they must confirm the same races:
   Evaluate's confirmed keys, Guided's (which confirms each key once),
   and repair's targets, which are those keys folded to race ids.  They
   must enumerate the same candidates too: Evaluate's and Guided's
   per-test counts sum to the same total, and repair detects Evaluate's
   candidate keys folded to race ids.  On generated programs other
   lockset schedules change a test's candidates more often than the
   confirmed set, so the counts are the sharper check.  The analysis,
   the lockset schedules and the directed runs all use the one derived
   seed, as repair does.  The [guided-seed] mutation hands Guided that
   seed plus one: the bug class of an entry point that derives its own
   seeds. *)
let campaign_agreement ?mutate ~seed cu =
  let seed = replay_seed seed and schedules = 2 and runs = 6 in
  match
    Narada_core.Pipeline.analyze ~seed cu ~client_classes ~seed_cls:Gen.seed_cls
      ~seed_meth:Gen.seed_meth
  with
  | Error _ ->
    (* a pipeline failure is the synthesis-replay oracle's finding *)
    Pass
  | Ok an -> (
    let opts =
      {
        Eval.Evaluate.default_options with
        opt_schedules = schedules;
        opt_confirm_runs = runs;
        opt_seed = seed;
      }
    in
    (* Per test, the candidates and whether each was confirmed. *)
    let outcomes =
      List.map
        (fun t -> (Eval.Evaluate.evaluate_test opts an t).Eval.Evaluate.te_races)
        an.Narada_core.Pipeline.an_tests
    in
    let keys_where p =
      List.sort_uniq Race.compare_key
        (List.concat_map
           (List.filter_map (fun (ro : Eval.Evaluate.race_outcome) ->
                if p ro then Some ro.ro_key else None))
           outcomes)
    in
    let evaluated = keys_where (fun ro -> ro.ro_reproduced) in
    let guided_seed = if mutate = Some Guided_seed then Int64.succ seed else seed in
    let guided =
      Eval.Guided.confirm_analysis ~seed:guided_seed an
    in
    let only a b = List.filter (fun x -> not (List.mem x b)) a in
    let differ what a b =
      Fail
        (Printf.sprintf "%s: %d vs %d; only the first: {%s}; only the second: {%s}" what
           (List.length a) (List.length b)
           (String.concat ", " (only a b))
           (String.concat ", " (only b a)))
    in
    let keys = List.map Race.key_to_string in
    let fold ks =
      List.sort_uniq String.compare
        (List.filter_map
           (fun k ->
             Result.to_option
               (Result.map Repair.Grammar.race_id_to_string
                  (Repair.Grammar.race_id_of_key k)))
           ks)
    in
    let candidates = List.fold_left (fun n races -> n + List.length races) 0 outcomes in
    if keys evaluated <> keys guided.Eval.Guided.gc_confirmed then
      differ "Evaluate and Guided confirm different races" (keys evaluated)
        (keys guided.Eval.Guided.gc_confirmed)
    else if candidates <> guided.Eval.Guided.gc_candidates then
      Fail
        (Printf.sprintf "Evaluate and Guided enumerate different candidates: %d vs %d"
           candidates guided.Eval.Guided.gc_candidates)
    else
      let sub =
        Repair.Engine.subject_of_unit cu ~client_classes ~seed_cls:Gen.seed_cls
          ~seed_meth:Gen.seed_meth
      in
      let ropts =
        {
          Repair.Engine.default_options with
          eo_seed = seed;
          eo_schedules = schedules;
          eo_confirm_runs = runs;
          eo_max_candidates = 0;
        }
      in
      match Repair.Engine.repair_all ~opts:ropts sub with
      | Error e -> Fail ("repair discovery failed where Evaluate ran: " ^ e)
      | Ok rp ->
        let folded = fold evaluated in
        let detected = List.length (fold (keys_where (fun _ -> true))) in
        let targets =
          List.sort_uniq String.compare
            (List.map
               (fun (rr : Repair.Engine.race_repair) ->
                 Repair.Grammar.race_id_to_string rr.rr_id)
               rp.Repair.Engine.rp_races)
        in
        if folded <> targets then
          differ "repair targets are not Evaluate's keys folded to race ids" folded
            targets
        else if detected <> rp.Repair.Engine.rp_detected then
          Fail
            (Printf.sprintf
               "repair detects %d race ids, Evaluate's candidates fold to %d"
               rp.Repair.Engine.rp_detected detected)
        else Pass)

(* ---- the suite ---- *)

(* Oracles run arbitrary (shrunk) programs end-to-end; a candidate with
   its entry point or a referenced member deleted raises Diag.Error from
   deep inside the VM/pipeline rather than from compile_source.  Such
   exceptions are verdicts, not crashes. *)
let guarded f =
  try f () with
  | Jir.Diag.Error d -> Fail ("raised: " ^ Jir.Diag.to_string d)
  | exn -> Fail ("raised: " ^ Printexc.to_string exn)

let names =
  [
    "roundtrip";
    "typecheck";
    "vm-determinism";
    "detectors-agree";
    "lockset-superset";
    "static-superset";
    "synthesis-replay";
    "observer-diff";
    "static-incremental";
    "repair-closes";
    "campaign-agreement";
  ]

(* Oracles past the front-end need a compiled unit; if compilation
   itself fails the later oracles are reported as failing too (the
   typecheck oracle carries the diagnosis). *)

(* Per-oracle span (~root: Crucible fans programs out over Par workers,
   so paths must not depend on the fan-out).  Verdicts feed the
   pass/fail counters the campaign summary draws on. *)
let timed name f =
  let v = Obs.Span.with_ ~root:true ("fuzz/oracle/" ^ name) f in
  Obs.Metrics.incr
    (Obs.Metrics.global ())
    (match v with
    | Pass -> "fuzz/oracle/" ^ name ^ "/pass"
    | Fail _ -> "fuzz/oracle/" ^ name ^ "/fail");
  (name, v)

let check ?mutate ~seed program =
  let front =
    [
      timed "roundtrip" (fun () -> roundtrip program);
      timed "typecheck" (fun () -> typecheck program);
    ]
  in
  match Jir.Compile.compile_source (Gen.to_source program) with
  | exception Jir.Diag.Error _ ->
    front
    @ List.map
        (fun n -> (n, Fail "program does not compile"))
        [
          "vm-determinism";
          "detectors-agree";
          "lockset-superset";
          "static-superset";
          "synthesis-replay";
          "observer-diff";
          "static-incremental";
          "repair-closes";
          "campaign-agreement";
        ]
  | cu ->
    front
    @ [
        timed "vm-determinism" (fun () -> guarded (fun () -> vm_determinism ~seed cu));
        timed "detectors-agree" (fun () ->
            guarded (fun () -> detectors_agree ?mutate ~seed cu));
        timed "lockset-superset" (fun () ->
            guarded (fun () -> lockset_superset ?mutate ~seed cu));
        timed "static-superset" (fun () ->
            guarded (fun () -> static_superset ?mutate ~seed cu));
        timed "synthesis-replay" (fun () ->
            guarded (fun () -> synthesis_replay ?mutate ~seed cu));
        timed "observer-diff" (fun () ->
            guarded (fun () -> observer_diff ?mutate ~seed cu));
        timed "static-incremental" (fun () ->
            guarded (fun () -> static_incremental ?mutate cu));
        timed "repair-closes" (fun () ->
            guarded (fun () -> repair_closes ?mutate ~seed cu));
        timed "campaign-agreement" (fun () ->
            guarded (fun () -> campaign_agreement ?mutate ~seed cu));
      ]

let fails_oracle ?mutate ~seed ~oracle program =
  (* Candidates that break outright (don't compile, lost their entry
     point, raise from the pipeline) are not counterexamples for the
     oracle being shrunk — reject them so shrinking stays on-topic. *)
  let run_one () =
    match oracle with
    | "roundtrip" -> roundtrip program
    | "typecheck" -> typecheck program
    | _ -> (
      match Jir.Compile.compile_source (Gen.to_source program) with
      | exception Jir.Diag.Error _ -> Pass
      | cu -> (
        match oracle with
        | "vm-determinism" -> vm_determinism ~seed cu
        | "detectors-agree" -> detectors_agree ?mutate ~seed cu
        | "lockset-superset" -> lockset_superset ?mutate ~seed cu
        | "static-superset" -> static_superset ?mutate ~seed cu
        | "synthesis-replay" -> synthesis_replay ?mutate ~strict:false ~seed cu
        | "observer-diff" -> observer_diff ?mutate ~seed cu
        | "static-incremental" -> static_incremental ?mutate cu
        | "repair-closes" -> repair_closes ?mutate ~seed cu
        | "campaign-agreement" -> campaign_agreement ?mutate ~seed cu
        | _ -> Pass))
  in
  match (try run_one () with _ -> Pass) with Pass -> false | Fail _ -> true
