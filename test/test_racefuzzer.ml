(* RaceFuzzer-style directed scheduling and harmful/benign triage. *)

open Detect

(* Build an instantiator for a plain two-thread program (entry spawns
   both threads itself would hide them, so spawn here from the harness). *)
let instantiator_of src ~cls ~meths : Racefuzzer.instantiator =
 fun () ->
  let cu = Jir.Compile.compile_source src in
  let m = Runtime.Machine.create ~client_classes:[ "Harness" ] cu in
  match Runtime.Machine.construct m ~cls ~args:[] () with
  | Error e -> Error e
  | Ok recv ->
    let spawn meth =
      match Jir.Code.find_virtual cu cls meth with
      | Some cm ->
        Ok (Runtime.Machine.new_thread m ~cm ~recv:(Some recv) ~args:[] ())
      | None -> Error ("no method " ^ meth)
    in
    (match meths with
    | [ m1; m2 ] -> (
      match (spawn m1, spawn m2) with
      | Ok t1, Ok t2 ->
        Ok
          {
            Racefuzzer.ri_machine = m;
            ri_threads = [ t1; t2 ];
            ri_roots = [ recv ];
          }
      | Error e, _ | _, Error e -> Error e)
    | _ -> Error "need two methods")

let counter_src =
  "class C { int count; void inc() { this.count = this.count + 1; } \
   synchronized void sinc() { this.count = this.count + 1; } void reset() { \
   this.count = 0; } int get() { return this.count; } }"

let cand field = { Racefuzzer.c_field = field; c_sites = None }

(* [confirm_all] of one candidate, over 10 runs from seed 7 unless
   told otherwise. *)
let confirm_one ?(runs = 10) ?(seed = 7L) instantiate cand =
  fst (Racefuzzer.confirm_all ~instantiate ~cands:[| cand |] ~runs ~seed ~settle:ignore).(0)

let test_confirms_real_race () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "inc" ] in
  let r = confirm_one inst (cand "count") in
  match r.Racefuzzer.confirmed with
  | Some report ->
    Alcotest.(check bool) "different threads" true
      (report.Race.r_first.Race.a_tid <> report.Race.r_second.Race.a_tid);
    Alcotest.(check string) "field" "count" report.Race.r_first.Race.a_field
  | None -> Alcotest.fail "expected confirmation"

let test_no_confirm_when_synchronized () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "sinc"; "sinc" ] in
  let r = confirm_one ~runs:8 inst (cand "count") in
  Alcotest.(check bool) "no confirmation" true (r.Racefuzzer.confirmed = None)

let test_confirm_is_deterministic () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "inc" ] in
  let r1 = confirm_one ~seed:3L inst (cand "count") in
  let r2 = confirm_one ~seed:3L inst (cand "count") in
  Alcotest.(check int) "same number of runs" r1.Racefuzzer.runs_used
    r2.Racefuzzer.runs_used

(* Every directed run is bounded by [Racefuzzer.fuel]: two threads that
   spin forever on locals, watched for a field neither touches, never
   match, block or finish, so each run stops exactly at the bound, and
   an unconfirmed candidate has spent all its runs, each of them whole. *)
let spin_src =
  "class C { int count; void spin() { int i = 0; while (true) { i = i + 1; } } }"

let test_run_bound () =
  let inst = instantiator_of spin_src ~cls:"C" ~meths:[ "spin"; "spin" ] in
  let runs = 3 in
  let check what (c : Racefuzzer.confirm_result) =
    Alcotest.(check bool) (what ^ ": unconfirmed") true (c.Racefuzzer.confirmed = None);
    Alcotest.(check int) (what ^ ": runs used") runs c.Racefuzzer.runs_used;
    Alcotest.(check int) (what ^ ": steps") (runs * Racefuzzer.fuel) c.Racefuzzer.steps
  in
  match
    Racefuzzer.confirm_all ~instantiate:inst ~cands:[| cand "count" |] ~runs ~seed:7L
      ~settle:(fun re -> re.Racefuzzer.re_fuel)
  with
  | [| (c, left) |] ->
    check "confirm_all" c;
    Alcotest.(check (option int)) "confirm_all: run 0 ends with no fuel left" (Some 0) left
  | _ -> Alcotest.fail "one result per candidate"

let test_candidate_of_report () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "inc" ] in
  match inst () with
  | Error e -> Alcotest.fail e
  | Ok i ->
    let ls = Lockset.attach i.Racefuzzer.ri_machine in
    ignore (Conc.Exec.run i.Racefuzzer.ri_machine (Conc.Scheduler.random ~seed:2L));
    (match Lockset.candidates ls with
    | r :: _ ->
      let c = Racefuzzer.candidate_of_report r in
      Alcotest.(check string) "field copied" "count" c.Racefuzzer.c_field;
      Alcotest.(check bool) "sites narrowed" true (c.Racefuzzer.c_sites <> None)
    | [] -> Alcotest.fail "no candidates")

(* ------------------------------------------------------------------ *)
(* One postponing loop                                                 *)
(* ------------------------------------------------------------------ *)

let corpus_tests f =
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      let an =
        match Eval.Evaluate.analyze_entry e with
        | Ok (_, an) -> an
        | Error msg -> Alcotest.failf "%s: %s" e.Corpus.Corpus_def.e_id msg
      in
      List.iter
        (fun t -> f e (Narada_core.Pipeline.instantiator an t))
        an.Narada_core.Pipeline.an_tests)
    (Corpus.Registry.all @ Corpus.Registry.extras)

let fresh_of instantiate () =
  match instantiate () with Ok inst -> inst | Error e -> Alcotest.fail e

let run_seed seed i = Int64.add seed (Int64.of_int (i * 7919))

(* [directed_run] and [directed_run_cov] are one loop, the second with
   a coverage observer.  Over every lockset candidate of C1-C9 and
   X1-X3 at seed 7, at every run seed of the Evaluate budget, the
   coverage run is the plain run: same report, stats and final heap. *)
let test_loops_agree () =
  let seed = 7L and fuel = Racefuzzer.fuel in
  let { Eval.Evaluate.opt_schedules = schedules; opt_confirm_runs = runs; _ } =
    Eval.Evaluate.default_options
  in
  let report = function None -> "unconfirmed" | Some r -> Race.to_string r in
  let heap (inst : Racefuzzer.instance) =
    Runtime.Snapshot.canonical
      (Runtime.Machine.heap inst.Racefuzzer.ri_machine)
      ~roots:inst.Racefuzzer.ri_roots
  in
  let compared = ref 0 in
  corpus_tests (fun e instantiate ->
      let fresh = fresh_of instantiate in
      match Campaign.candidates ~instantiate ~schedules ~seed () with
      | Error _ -> ()
      | Ok cands ->
        List.iter
          (fun (k, r) ->
            let cand = Racefuzzer.candidate_of_report r in
            for i = 0 to runs - 1 do
              let seed = run_seed seed i in
              let what =
                Printf.sprintf "%s %s run %d" e.Corpus.Corpus_def.e_id
                  (Race.key_to_string k) i
              in
              let plain = fresh () in
              let re, st = Racefuzzer.directed_run plain ~cand ~seed ~fuel in
              let observed = fresh () in
              let rc =
                Racefuzzer.directed_run_cov observed.Racefuzzer.ri_machine ~cand ~seed ~fuel
              in
              if rc.Racefuzzer.rc_report <> re.Racefuzzer.re_report then
                Alcotest.failf "%s: report %s, not %s" what
                  (report rc.Racefuzzer.rc_report) (report re.Racefuzzer.re_report);
              if rc.Racefuzzer.rc_stats <> st || heap observed <> heap plain then
                Alcotest.failf "%s: stats or heap differ" what;
              incr compared
            done)
          cands);
  Alcotest.(check int) "directed runs compared" 11_970 !compared

(* The observer on the two-thread counter: a run's coverage holds the
   racy pair exactly when the run confirms the race, and a confirming
   run was poised with a postponed thread first.  The unsynchronized
   increments confirm at some of the seeds, the synchronized ones at
   none. *)
let test_cov_observer () =
  let observe meths seed =
    let inst = fresh_of (instantiator_of counter_src ~cls:"C" ~meths) () in
    Racefuzzer.directed_run_cov inst.Racefuzzer.ri_machine ~cand:(cand "count") ~seed
      ~fuel:Racefuzzer.fuel
  in
  let confirming meths =
    List.length
      (List.filter
         (fun seed ->
           let rc = observe meths (Int64.of_int seed) in
           let confirmed = rc.Racefuzzer.rc_report <> None in
           let count k = Cov.Set.count k rc.Racefuzzer.rc_cov in
           Alcotest.(check int)
             (Printf.sprintf "%s seed %d: racy pairs" (List.hd meths) seed)
             (Bool.to_int confirmed) (count Cov.Racy_pair);
           if confirmed && count Cov.Postponed = 0 then
             Alcotest.failf "%s seed %d: confirmed with no postponed state" (List.hd meths)
               seed;
           confirmed)
         (List.init 20 Fun.id))
  in
  Alcotest.(check bool) "unsynchronized increments confirm" true
    (confirming [ "inc"; "inc" ] > 0);
  Alcotest.(check int) "synchronized increments never confirm" 0
    (confirming [ "sinc"; "sinc" ])

(* ------------------------------------------------------------------ *)
(* Continued and shared directed runs                                  *)
(* ------------------------------------------------------------------ *)

(* Where a run stopped, as far as it can be compared: the report with
   its labels, the fuel left, the next draw of the scheduler's RNG (from
   a copy, so the run's own RNG is left alone) and the observable end
   state. *)
let stop_of (re : Racefuzzer.run_end) =
  ( re.Racefuzzer.re_report,
    re.Racefuzzer.re_fuel,
    Rng.bits (Rng.copy re.Racefuzzer.re_rng),
    Triage.observe re.Racefuzzer.re_inst )

let same_stop what (r1, f1, d1, o1) (r2, f2, d2, o2) =
  let report = function None -> "unconfirmed" | Some r -> Race.to_string r in
  if r1 <> r2 then Alcotest.failf "%s: report %s, not %s" what (report r2) (report r1);
  if f1 <> f2 then Alcotest.failf "%s: %d fuel left, not %d" what f2 f1;
  if d1 <> d2 then Alcotest.failf "%s: next RNG draw differs" what;
  if o1 <> o2 then Alcotest.failf "%s: end state differs" what

(* A directed run stopped after [k] steps and continued from there (same
   machine, same RNG, the fuel left of the whole budget, starting step
   [k]) is the whole run: same report with the same labels, steps, fuel
   left, next draw and end state.  Over every lockset candidate of every
   C1-C9 and X1-X3 test at seed 7, stopped at several [k] up to the
   whole run's length. *)
let test_continued_run () =
  let seed = 7L and fuel = Racefuzzer.fuel in
  let schedules = Eval.Evaluate.default_options.Eval.Evaluate.opt_schedules in
  let compared = ref 0 and confirmed_before_stop = ref 0 in
  corpus_tests (fun e instantiate ->
      let fresh = fresh_of instantiate in
      match Campaign.candidates ~instantiate ~schedules ~seed () with
      | Error _ -> ()
      | Ok cands ->
        List.iter
          (fun (key, r) ->
            let cand = Racefuzzer.candidate_of_report r in
            let whole, whole_st = Racefuzzer.directed_run (fresh ()) ~cand ~seed ~fuel in
            let n = whole_st.Racefuzzer.rs_steps in
            List.iter
              (fun k ->
                let what =
                  Printf.sprintf "%s %s stopped at %d of %d" e.Corpus.Corpus_def.e_id
                    (Race.key_to_string key) k n
                in
                let stopped, st = Racefuzzer.directed_run (fresh ()) ~cand ~seed ~fuel:k in
                let taken = st.Racefuzzer.rs_steps in
                if stopped.Racefuzzer.re_report <> None && taken < k then
                  incr confirmed_before_stop;
                let continued, cst =
                  Racefuzzer.continue_run stopped.Racefuzzer.re_inst
                    stopped.Racefuzzer.re_rng ~cand ~on_postponed:ignore ~start:taken
                    ~fuel:(fuel - taken)
                in
                Alcotest.(check int) (what ^ ": steps") n cst.Racefuzzer.rs_steps;
                same_stop what (stop_of whole) (stop_of continued);
                incr compared)
              (List.sort_uniq compare [ 0; 1; 7; 60; n / 2; max 0 (n - 1); n; n + 5 ]))
          cands);
  Alcotest.(check int) "continuations compared" 15_672 !compared;
  Alcotest.(check int) "stops after the confirmation" 2_774 !confirmed_before_stop

(* Where a plain random run at [seed] first has a runnable thread poised
   at an access matching each candidate (its fork step), or [None]:
   the test's own scan, independent of the library's shared run. *)
let first_matches instantiate cands ~seed ~fuel =
  let inst = fresh_of instantiate () in
  let m = inst.Racefuzzer.ri_machine in
  let rng = Rng.create seed in
  let at = Array.make (Array.length cands) None in
  let rec go step fuel =
    if fuel > 0 then begin
      Array.iteri
        (fun j cand ->
          if
            at.(j) = None
            && List.exists
                 (fun th ->
                   Runtime.Machine.runnable_th m th
                   &&
                   match Runtime.Machine.pending_access_th m th with
                   | Some pa -> Racefuzzer.matches cand pa
                   | None -> false)
                 (Runtime.Machine.all_threads m)
          then at.(j) <- Some step)
        cands;
      match List.filter (Runtime.Machine.runnable_th m) (Runtime.Machine.all_threads m) with
      | [] -> ()
      | ths ->
        ignore (Runtime.Machine.step_th m (List.nth ths (Rng.below rng (List.length ths))));
        go (step + 1) (fuel - 1)
    end
  in
  go 0 fuel;
  at

(* The shared prefix is exact.  For every candidate of every C1-C9 and
   X1-X3 test at seeds 7 and 11, at every run index of the Evaluate
   budget, the run [directed_runs] hands back for it equals a
   from-scratch [directed_run] at that run's seed on a fresh instance:
   report with labels, steps, postponed-set high-water mark, fuel left,
   next RNG draw and end state.  The candidates that fork at one step,
   and the last fork, which takes the shared machine, are among them.
   [confirm_all] over the same candidates then gives each the
   confirmation of its own runs, and settles each run 0 where it
   stopped. *)
let test_shared_prefix () =
  let fuel = Racefuzzer.fuel in
  let { Eval.Evaluate.opt_schedules = schedules; opt_confirm_runs = runs; _ } =
    Eval.Evaluate.default_options
  in
  let compared = ref 0 and same_step = ref 0 and took_shared = ref 0 in
  let never_matched = ref 0 in
  List.iter
    (fun seed ->
      corpus_tests (fun e instantiate ->
          let fresh = fresh_of instantiate in
          match Campaign.candidates ~instantiate ~schedules ~seed () with
          | Error _ -> ()
          | Ok cands ->
            let keys = Array.of_list (List.map fst cands) in
            let cands =
              Array.of_list (List.map (fun (_, r) -> Racefuzzer.candidate_of_report r) cands)
            in
            let n = Array.length cands in
            (* [reference.(i).(j)]: candidate [j]'s own run [i]. *)
            let reference =
              Array.init runs (fun i ->
                  Array.map
                    (fun cand ->
                      let re, st =
                        Racefuzzer.directed_run (fresh ()) ~cand ~seed:(run_seed seed i) ~fuel
                      in
                      (stop_of re, st))
                    cands)
            in
            for i = 0 to runs - 1 do
              let inst = fresh () in
              let ended = Array.make n 0 in
              ignore @@ Racefuzzer.directed_runs inst ~cands ~seed:(run_seed seed i) ~fuel
                (fun js re st ->
                  let m = re.Racefuzzer.re_inst.Racefuzzer.ri_machine in
                  if m == inst.Racefuzzer.ri_machine && st.Racefuzzer.rs_max_postponed > 0
                  then incr took_shared;
                  if st.Racefuzzer.rs_max_postponed = 0 then
                    never_matched := !never_matched + List.length js;
                  let stop = stop_of re in
                  List.iter
                    (fun j ->
                      ended.(j) <- ended.(j) + 1;
                      let what =
                        Printf.sprintf "%s seed %Ld run %d %s" e.Corpus.Corpus_def.e_id seed i
                          (Race.key_to_string keys.(j))
                      in
                      let want, want_st = reference.(i).(j) in
                      if want_st <> st then Alcotest.failf "%s: stats differ" what;
                      same_stop what want stop;
                      incr compared)
                    js);
              Array.iter (Alcotest.(check int) "every candidate ends once" 1) ended;
              let at = first_matches instantiate cands ~seed:(run_seed seed i) ~fuel in
              Array.iteri
                (fun j a ->
                  if a <> None && Array.exists (fun a' -> a' = a) (Array.sub at 0 j) then
                    incr same_step)
                at
            done;
            let settled =
              Racefuzzer.confirm_all ~instantiate ~cands ~runs ~seed
                ~settle:(fun re -> Triage.observe re.Racefuzzer.re_inst)
            in
            Array.iteri
              (fun j ((c : Racefuzzer.confirm_result), observed) ->
                let rec own i steps =
                  if i = runs then (None, runs, steps)
                  else
                    let ((report, _, _, _), st) = reference.(i).(j) in
                    let steps = steps + st.Racefuzzer.rs_steps in
                    if report <> None then (report, i + 1, steps) else own (i + 1) steps
                in
                let what =
                  Printf.sprintf "%s seed %Ld %s" e.Corpus.Corpus_def.e_id seed
                    (Race.key_to_string keys.(j))
                in
                let got = Racefuzzer.(c.confirmed, c.runs_used, c.steps) in
                Alcotest.(check bool) (what ^ ": confirmation") true (own 0 0 = got);
                let (_, _, _, run0_end), _ = reference.(0).(j) in
                Alcotest.(check bool) (what ^ ": run 0 settled where it stopped") true
                  (observed = Some run0_end))
              settled))
    [ 7L; 11L ];
  Alcotest.(check int) "runs compared" 24_078 !compared;
  Alcotest.(check int) "candidates forking at an earlier candidate's step" 6_862 !same_step;
  Alcotest.(check int) "last forks on the shared machine" 5_418 !took_shared;
  Alcotest.(check int) "runs never matched" 87 !never_matched

(* A batch gives each candidate its own result whatever else is in it:
   over every test of C1-C9 and X1-X3 at seed 7, 2 lockset schedules
   and 6 runs (1,965 candidates), confirming the even- and the
   odd-indexed candidates apart gives each the confirmation, runs used
   and steps it has in the whole batch.  [Eval.Guided] leaves a class's
   confirmed keys out of later batches on this. *)
let test_batch_subsets () =
  let seed = 7L and schedules = 2 and runs = 6 in
  let compared = ref 0 and confirmed = ref 0 in
  corpus_tests (fun e instantiate ->
      match Campaign.candidates ~instantiate ~schedules ~seed () with
      | Error _ -> ()
      | Ok cands ->
        let cands = Array.of_list cands in
        let confirm idx =
          Array.map fst
            (Racefuzzer.confirm_all ~instantiate
               ~cands:(Array.map (fun j -> Racefuzzer.candidate_of_report (snd cands.(j))) idx)
               ~runs ~seed ~settle:ignore)
        in
        let all = Array.init (Array.length cands) Fun.id in
        let whole = confirm all in
        List.iter
          (fun parity ->
            let idx =
              Array.of_list (List.filter (fun j -> j mod 2 = parity) (Array.to_list all))
            in
            Array.iteri
              (fun i (c : Racefuzzer.confirm_result) ->
                let j = idx.(i) in
                if c <> whole.(j) then
                  Alcotest.failf "%s %s: result differs outside the whole batch"
                    e.Corpus.Corpus_def.e_id
                    (Race.key_to_string (fst cands.(j)));
                if c.Racefuzzer.confirmed <> None then incr confirmed;
                incr compared)
              (confirm idx))
          [ 0; 1 ]);
  Alcotest.(check (pair int int)) "candidates compared, confirmed" (1_965, 1_769)
    (!compared, !confirmed)

(* ------------------------------------------------------------------ *)
(* The postponing loop against the full-rescan reference               *)
(* ------------------------------------------------------------------ *)

(* The postponing loop as it was before it looked only at the thread
   that stepped: before every pick it walks every live thread and
   decodes (memoized per tid) the pending access of each runnable one
   not yet postponed.  Kept verbatim, with the helpers it used, as the
   reference the library's loop is held against. *)
module Reference = struct
  open Racefuzzer

  let matches (cand : candidate) (pa : Runtime.Machine.pending_access) =
    String.equal pa.Runtime.Machine.pa_field cand.c_field
    &&
    match cand.c_sites with
    | None -> true
    | Some (s1, s2) ->
      Runtime.Event.compare_site pa.Runtime.Machine.pa_site s1 = 0
      || Runtime.Event.compare_site pa.Runtime.Machine.pa_site s2 = 0

  let access_of_pending m tid (pa : Runtime.Machine.pending_access) ~label :
      Race.access =
    {
      Race.a_tid = tid;
      a_site = pa.Runtime.Machine.pa_site;
      a_kind = pa.Runtime.Machine.pa_kind;
      a_obj = pa.Runtime.Machine.pa_obj;
      a_field = pa.Runtime.Machine.pa_field;
      a_idx = pa.Runtime.Machine.pa_idx;
      a_locks = Runtime.Machine.held_locks m tid;
      a_label = label;
      a_value = Runtime.Value.Vnull;
    }

  let conflicting (a : Runtime.Machine.pending_access)
      (b : Runtime.Machine.pending_access) =
    a.Runtime.Machine.pa_obj = b.Runtime.Machine.pa_obj
    && String.equal a.Runtime.Machine.pa_field b.Runtime.Machine.pa_field
    && Option.equal Int.equal a.Runtime.Machine.pa_idx b.Runtime.Machine.pa_idx
    && (a.Runtime.Machine.pa_kind = `Write || b.Runtime.Machine.pa_kind = `Write)

  (* Dense per-tid mirrors used by the directed loop below: tids are
     small consecutive ints, so per-step membership tests and the
     pending-access memo live in growable arrays instead of hashtables.
     The [postponed] hashtable itself is kept — its fold order decides
     which conflicting pair is reported first, and that order is pinned
     by the cram suite — but the per-step paths only touch the arrays. *)
  type 'a tidmap = { mutable slots : 'a array; default : 'a }

  let tidmap default = { slots = Array.make 8 default; default }

  let tid_slot tm tid =
    if tid >= Array.length tm.slots then begin
      let bigger =
        Array.make (max (tid + 1) (2 * Array.length tm.slots)) tm.default
      in
      Array.blit tm.slots 0 bigger 0 (Array.length tm.slots);
      tm.slots <- bigger
    end;
    tid

  (* A thread's pending access only changes when that thread itself steps
     (it reads the thread's own registers and pc), so the directed loops
     memoize it per tid and invalidate it on step instead of re-decoding
     the next instruction of every runnable thread on every scheduler
     iteration.  Returns the memoized [pending_access_th] and the step
     that invalidates. *)
  let pending_memo m =
    let memo : Runtime.Machine.pending_access option option tidmap = tidmap None in
    let pending th =
      let i = tid_slot memo (Runtime.Machine.thread_id th) in
      match memo.slots.(i) with
      | Some v -> v
      | None ->
        let v = Runtime.Machine.pending_access_th m th in
        memo.slots.(i) <- Some v;
        v
    in
    let step th =
      ignore (Runtime.Machine.step_th m th);
      memo.slots.(tid_slot memo (Runtime.Machine.thread_id th)) <- None
    in
    (pending, step)

  (* The postponed threads and their accesses, in the table's fold order:
     that order decides which conflicting pair is reported first. *)
  let poised postponed = Hashtbl.fold (fun tid pa acc -> (tid, pa) :: acc) postponed []

  let conflicting_pair poised =
    List.find_map
      (fun (t1, p1) ->
        List.find_map
          (fun (t2, p2) ->
            if t1 < t2 && conflicting p1 p2 then Some ((t1, p1), (t2, p2)) else None)
          poised)
      poised

  (* The postponing scheduler, the one copy of it: runs [m], from whatever
     state it is in, until the first simultaneously enabled conflicting
     pair, the end of the run, or [fuel] steps.  Every scheduler choice is
     [pick n], an index below the [n] options in creation order, and the
     postponed set is rebuilt from the machine (a postponed thread stays
     runnable and poised until it is released and steps, and every
     runnable thread poised at a matching access is postponed), so a
     stopped run continues its schedule from (machine, [Rng.below rng],
     fuel left), with [start] the steps it had taken: report labels and
     [rs_steps] count from the start of the run.  (A rebuilt table may
     fold three or more postponed threads in another order than the one
     built along the run, and so report another of their conflicting
     pairs.)  Every walk is over the
     machine's live threads: the refresh, the not-postponed pick and the
     postponed pick all reject a suspended, finished or crashed thread (a
     postponed thread has not stepped since it was poised, so it is
     live), and [pick_where] counts only what it accepts, so the picks are
     those of a walk over every thread.  [on_postponed] sees the
     postponed set whenever it changes.  Returns the report, the fuel
     left where the run stopped, and the run's stats. *)
  let postponing m ~(cand : candidate) ~pick ~on_postponed ~start ~fuel =
    let postponed : (Runtime.Value.tid, Runtime.Machine.pending_access) Hashtbl.t =
      Hashtbl.create 4
    in
    let in_postponed = tidmap false in
    let steps = ref start in
    let max_postponed = ref 0 in
    let result = ref None in
    let pending, step_pending = pending_memo m in
    let step_th th =
      step_pending th;
      incr steps
    in
    let is_postponed tid = in_postponed.slots.(tid_slot in_postponed tid) in
    let postponed_th th = is_postponed (Runtime.Machine.thread_id th) in
    let np_ok th = Runtime.Machine.runnable_th m th && not (postponed_th th) in
    (* Refresh the postponed set: threads poised at a matching access.
       Defined once, outside [loop], so the per-step iteration allocates
       no closure; [changed] records whether it postponed anyone. *)
    let changed = ref false in
    let refresh th =
      let tid = Runtime.Machine.thread_id th in
      if (not (is_postponed tid)) && Runtime.Machine.runnable_th m th then
        match pending th with
        | Some pa when matches cand pa ->
          Hashtbl.replace postponed tid pa;
          in_postponed.slots.(tid_slot in_postponed tid) <- true;
          changed := true
        | Some _ | None -> ()
    in
    (* Returns the fuel left where the run stopped. *)
    let rec loop fuel =
      if fuel <= 0 then fuel
      else begin
        changed := false;
        List.iter refresh (Runtime.Machine.live_threads m);
        if !changed then on_postponed postponed;
        let np = Hashtbl.length postponed in
        if np > !max_postponed then max_postponed := np;
        (* With fewer than two postponed threads there is no pair to scan
           for. *)
        match if np < 2 then None else conflicting_pair (poised postponed) with
        | Some ((t1, p1), (t2, p2)) ->
          result :=
            Some
              {
                Race.r_first = access_of_pending m t1 p1 ~label:!steps;
                r_second = access_of_pending m t2 p2 ~label:!steps;
                r_detector = "racefuzzer";
              };
          fuel
        | None -> (
          match Conc.Scheduler.pick_where np_ok pick (Runtime.Machine.live_threads m) with
          | Some th ->
            step_th th;
            loop (fuel - 1)
          | None -> (
            (* Everyone is postponed or blocked: release a postponed
               thread, drawn in tid order (creation order is tid order);
               with none postponed this is deadlock or completion. *)
            match
              Conc.Scheduler.pick_where postponed_th pick (Runtime.Machine.live_threads m)
            with
            | None -> fuel
            | Some th ->
              let tid = Runtime.Machine.thread_id th in
              Hashtbl.remove postponed tid;
              in_postponed.slots.(tid_slot in_postponed tid) <- false;
              on_postponed postponed;
              step_th th;
              loop (fuel - 1)))
      end
    in
    let fuel_left = loop fuel in
    (!result, fuel_left, { rs_steps = !steps; rs_max_postponed = !max_postponed })
end

(* One directed run from [inst] at [seed], by the library's loop or by
   the reference: where it stopped, its stats, every postponed table it
   showed [on_postponed] (in fold order), and whether a postponed table
   held a thread spawned during the run. *)
let run_by ~reference (inst : Racefuzzer.instance) ~cand ~seed =
  let before = Runtime.Machine.threads inst.Racefuzzer.ri_machine in
  let shown = ref [] in
  let on_postponed t = shown := Reference.poised t :: !shown in
  let rng = Rng.create seed in
  let fuel = Racefuzzer.fuel in
  let re, st =
    if reference then
      let report, fuel_left, st =
        Reference.postponing inst.Racefuzzer.ri_machine ~cand ~pick:(Rng.below rng)
          ~on_postponed ~start:0 ~fuel
      in
      ( { Racefuzzer.re_inst = inst; re_rng = rng; re_fuel = fuel_left; re_report = report },
        st )
    else Racefuzzer.continue_run inst rng ~cand ~on_postponed ~start:0 ~fuel
  in
  let spawned =
    List.exists (List.exists (fun (tid, _) -> not (List.mem tid before))) !shown
  in
  (stop_of re, st, List.rev !shown, spawned)

(* Counts of what [against_reference] compared. *)
type compared = { mutable runs : int; mutable shared : int; mutable spawned : int }

(* Every candidate's directed run at [seed] by the library's loop equals
   the reference's: report with labels, fuel left, next RNG draw, end
   state, stats and the sequence of postponed tables.  And
   [directed_runs] over all of them, sharing its prefix, hands each the
   reference's run. *)
let against_reference n what instantiate (cands : Racefuzzer.candidate array) ~seed =
  let fresh = fresh_of instantiate in
  let reference = Array.map (fun cand -> run_by ~reference:true (fresh ()) ~cand ~seed) cands in
  Array.iteri
    (fun j cand ->
      let what = what j in
      let want, want_st, want_shown, spawned = reference.(j) in
      let got, got_st, got_shown, _ = run_by ~reference:false (fresh ()) ~cand ~seed in
      same_stop what want got;
      if want_st <> got_st then Alcotest.failf "%s: stats differ" what;
      if want_shown <> got_shown then
        Alcotest.failf "%s: postponed tables differ (%d shown, the reference %d)" what
          (List.length got_shown) (List.length want_shown);
      if spawned then n.spawned <- n.spawned + 1;
      n.runs <- n.runs + 1)
    cands;
  let ended = Array.make (Array.length cands) 0 in
  ignore
  @@ Racefuzzer.directed_runs (fresh ()) ~cands ~seed ~fuel:Racefuzzer.fuel (fun js re st ->
         let stop = stop_of re in
         List.iter
           (fun j ->
             let what = what j ^ " (shared)" in
             let want, want_st, _, _ = reference.(j) in
             same_stop what want stop;
             if want_st <> st then Alcotest.failf "%s: stats differ" what;
             ended.(j) <- ended.(j) + 1;
             n.shared <- n.shared + 1)
           js);
  Array.iter (Alcotest.(check int) "every candidate ends once" 1) ended

(* A program's lockset candidates at [seed], narrowed to their sites,
   then each of their fields unnarrowed; none when the test cannot be
   instantiated. *)
let reference_cands instantiate ~seed =
  match Campaign.candidates ~instantiate ~schedules:3 ~seed () with
  | Error _ -> [||]
  | Ok cands ->
    let narrowed = List.map (fun (_, r) -> Racefuzzer.candidate_of_report r) cands in
    let fields =
      List.sort_uniq String.compare
        (List.map (fun c -> c.Racefuzzer.c_field) narrowed)
    in
    Array.of_list (narrowed @ List.map cand fields)

(* [against_reference] over a test's [reference_cands], if it has any. *)
let compare_test n what instantiate ~seed =
  match reference_cands instantiate ~seed with
  | [||] -> ()
  | cands -> against_reference n (fun j -> what cands.(j)) instantiate cands ~seed

let describe (c : Racefuzzer.candidate) =
  match c.Racefuzzer.c_sites with
  | None -> c.Racefuzzer.c_field
  | Some (s1, s2) ->
    Printf.sprintf "%s at %s/%s" c.Racefuzzer.c_field (Runtime.Event.site_to_string s1)
      (Runtime.Event.site_to_string s2)

let check_compared what (runs, shared, spawned) n =
  Alcotest.(check (triple int int int))
    (what ^ ": runs, shared runs, runs postponing a thread spawned mid-run")
    (runs, shared, spawned) (n.runs, n.shared, n.spawned)

(* Every test of C1-C9 and X1-X3 at seeds 7 and 11.  The corpus tests
   start their threads from the harness, so no run postpones a thread
   spawned mid-run. *)
let test_reference_corpus () =
  let n = { runs = 0; shared = 0; spawned = 0 } in
  List.iter
    (fun seed ->
      corpus_tests (fun e instantiate ->
          compare_test n
            (fun c -> Printf.sprintf "%s seed %Ld %s" e.Corpus.Corpus_def.e_id seed (describe c))
            instantiate ~seed))
    [ 7L; 11L ];
  check_compared "C1-C9, X1-X3" (5_894, 5_894, 0) n

(* Every test of the first 200 [Fuzz.Gen] programs at seeds 7 and 11. *)
let test_reference_generated () =
  let n = { runs = 0; shared = 0; spawned = 0 } in
  for p = 0 to 199 do
    let cu = Jir.Compile.compile_unit (Fuzz.Gen.generate ~seed:(Int64.of_int p)) in
    match
      Narada_core.Pipeline.analyze cu ~client_classes:[ Fuzz.Gen.seed_cls ]
        ~seed_cls:Fuzz.Gen.seed_cls ~seed_meth:Fuzz.Gen.seed_meth
    with
    | Error _ -> ()
    | Ok an ->
      List.iteri
        (fun t test ->
          let instantiate = Narada_core.Pipeline.instantiator an test in
          List.iter
            (fun seed ->
              compare_test n
                (fun c -> Printf.sprintf "Gen %d test %d seed %Ld %s" p t seed (describe c))
                instantiate ~seed)
            [ 7L; 11L ])
        an.Narada_core.Pipeline.an_tests
  done;
  check_compared "Fuzz.Gen 0-199" (6_496, 6_496, 0) n

(* Two racy threads each spawn a thread whose first instruction reads
   [other], a matching access, while they write [other] themselves:
   the live list changes mid-run, and the new thread is poised before
   it ever steps. *)
let spawn_src =
  "class C { int other; void bump() { this.other = this.other + 1; } \
   void spawner() { thread t = spawn this.bump(); this.other = 5; join t; } }"

let test_reference_spawn () =
  let instantiate = instantiator_of spawn_src ~cls:"C" ~meths:[ "spawner"; "spawner" ] in
  (match Jir.Code.find_virtual (Jir.Compile.compile_source spawn_src) "C" "bump" with
  | Some cm -> (
    match cm.Jir.Code.cm_code.(0) with
    | Jir.Code.Iget (_, _, "other") -> ()
    | _ -> Alcotest.fail "C.bump does not start with its read of other")
  | None -> Alcotest.fail "no C.bump");
  let n = { runs = 0; shared = 0; spawned = 0 } in
  for s = 0 to 49 do
    let seed = Int64.of_int s in
    compare_test n
      (fun c -> Printf.sprintf "spawner seed %Ld %s" seed (describe c))
      instantiate ~seed
  done;
  check_compared "spawner" (300, 300, 225) n

let test_triage_lost_update_harmful () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "inc" ] in
  match Triage.triage ~instantiate:inst ~cand:(cand "count") () with
  | Ok Triage.Harmful -> ()
  | Ok Triage.Benign -> Alcotest.fail "lost update must be harmful"
  | Error e -> Alcotest.fail e

let test_triage_const_reset_benign () =
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "reset"; "reset" ] in
  match Triage.triage ~instantiate:inst ~cand:(cand "count") () with
  | Ok Triage.Benign -> ()
  | Ok Triage.Harmful -> Alcotest.fail "double reset to 0 is benign"
  | Error e -> Alcotest.fail e

let test_triage_stale_read_harmful () =
  (* get() racing with inc(): the final heap is the same either way, but
     get's observed value is order-sensitive — a stale read, harmful. *)
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "inc"; "get" ] in
  match Triage.triage ~instantiate:inst ~cand:(cand "count") () with
  | Ok Triage.Harmful -> ()
  | Ok Triage.Benign -> Alcotest.fail "stale read must be harmful"
  | Error e -> Alcotest.fail e

let test_triage_read_of_constant_benign () =
  (* get() racing with reset() on an already-zero counter: every order
     reads 0 and leaves 0 — genuinely benign. *)
  let inst = instantiator_of counter_src ~cls:"C" ~meths:[ "reset"; "get" ] in
  match Triage.triage ~instantiate:inst ~cand:(cand "count") () with
  | Ok Triage.Benign -> ()
  | Ok Triage.Harmful -> Alcotest.fail "reading an unchanged constant is benign"
  | Error e -> Alcotest.fail e

let test_triage_crash_harmful () =
  (* A close/use race that null-crashes in one order only. *)
  let src =
    "class R { int[] buf; R() { this.buf = new int[2]; } int read() { return \
     this.buf[0]; } void close() { this.buf = null; } }"
  in
  let inst = instantiator_of src ~cls:"R" ~meths:[ "read"; "close" ] in
  match Triage.triage ~instantiate:inst ~cand:(cand "buf") () with
  | Ok Triage.Harmful -> ()
  | Ok Triage.Benign -> Alcotest.fail "close/read race crashes: harmful"
  | Error e -> Alcotest.fail e

(* ---- scheduler shootout on the Fig. 3 test ---- *)

(* One execution per seed 1-50 of the synthesized C1 test on
   [SynchronizedWriteBehindQueue.removeFirst] / [count].  Every
   schedule of it is flagged by the detectors (no happens-before edge
   joins the threads), so a hit is the damage: the final state differs
   from the serialized execution's.  Blind schedulers rarely produce
   it; the directed scheduler confirms the race on every seed. *)
let test_scheduler_shootout () =
  let an =
    match Corpus.Registry.find "C1" with
    | None -> Alcotest.fail "no C1"
    | Some e -> (
      match Eval.Evaluate.analyze_entry e with
      | Ok (_, an) -> an
      | Error msg -> Alcotest.fail msg)
  in
  let test =
    List.find
      (fun (t : Narada_core.Synth.test) ->
        let p = t.Narada_core.Synth.st_pair in
        p.Narada_core.Pairs.p_a.Narada_core.Pairs.ep_qname
        = "SynchronizedWriteBehindQueue.removeFirst"
        && p.Narada_core.Pairs.p_field = "count")
      an.Narada_core.Pipeline.an_tests
  in
  let instantiate = Narada_core.Pipeline.instantiator an test in
  let final_state sched =
    match instantiate () with
    | Error e -> Alcotest.fail e
    | Ok inst ->
      ignore (Conc.Exec.run inst.Racefuzzer.ri_machine sched);
      Runtime.Snapshot.canonical
        (Runtime.Machine.heap inst.Racefuzzer.ri_machine)
        ~roots:inst.Racefuzzer.ri_roots
  in
  let serialized = final_state (Conc.Scheduler.prioritized []) in
  let hits hit = List.length (List.filter hit (List.init 50 (fun i -> Int64.of_int (i + 1)))) in
  let damaged sched_of_seed seed = final_state (sched_of_seed seed) <> serialized in
  Alcotest.(check int) "random (fine-grained)" 19
    (hits (damaged (fun seed -> Conc.Scheduler.random ~seed)));
  Alcotest.(check int) "random (coarse, 1/8 switch)" 5
    (hits
       (damaged (fun seed ->
            Conc.Scheduler.random_coarse ~seed ~switch_denominator:8)));
  Alcotest.(check int) "pct (depth 3)" 2
    (hits
       (damaged (fun seed ->
            Conc.Scheduler.pct ~seed ~depth:3 ~expected_steps:300)));
  Alcotest.(check int) "directed (RaceFuzzer)" 50
    (hits (fun seed ->
         (confirm_one ~runs:1 ~seed instantiate (cand "count")).Racefuzzer.confirmed
         <> None))

let () =
  Alcotest.run "racefuzzer"
    [
      ( "confirmation",
        [
          Alcotest.test_case "real race confirmed" `Quick test_confirms_real_race;
          Alcotest.test_case "synchronized not confirmed" `Quick
            test_no_confirm_when_synchronized;
          Alcotest.test_case "deterministic" `Quick test_confirm_is_deterministic;
          Alcotest.test_case "candidate narrowing" `Quick test_candidate_of_report;
          Alcotest.test_case "every run stops at the fuel bound" `Quick test_run_bound;
        ] );
      ( "one loop",
        [
          Alcotest.test_case "C1-C9, X1-X3: cov run = plain run, 11,970 runs" `Slow
            test_loops_agree;
          Alcotest.test_case "counter: racy pair iff confirmed" `Quick test_cov_observer;
        ] );
      ( "shared runs",
        [
          Alcotest.test_case "C1-C9, X1-X3: stopped + continued = whole run" `Slow
            test_continued_run;
          Alcotest.test_case "C1-C9, X1-X3: shared runs = own runs, seeds 7 and 11" `Slow
            test_shared_prefix;
          Alcotest.test_case "C1-C9, X1-X3: batch = its halves" `Slow
            test_batch_subsets;
        ] );
      ( "reference",
        [
          Alcotest.test_case "C1-C9, X1-X3 = full-rescan loop" `Slow
            test_reference_corpus;
          Alcotest.test_case "Fuzz.Gen 0-199 = full-rescan loop" `Slow
            test_reference_generated;
          Alcotest.test_case "mid-run spawns = full-rescan loop" `Quick
            test_reference_spawn;
        ] );
      ( "shootout",
        [
          Alcotest.test_case "Fig. 3 C1 test: 19/5/2/50 of 50 seeds" `Slow
            test_scheduler_shootout;
        ] );
      ( "triage",
        [
          Alcotest.test_case "lost update harmful" `Quick
            test_triage_lost_update_harmful;
          Alcotest.test_case "const reset benign" `Quick
            test_triage_const_reset_benign;
          Alcotest.test_case "stale read harmful" `Quick
            test_triage_stale_read_harmful;
          Alcotest.test_case "constant read benign" `Quick
            test_triage_read_of_constant_benign;
          Alcotest.test_case "crash harmful" `Quick test_triage_crash_harmful;
        ] );
    ]
