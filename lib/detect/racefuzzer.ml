(* Race-directed randomized scheduling, after RaceFuzzer (Sen, PLDI'08).

   Given a candidate racy pair (from the lockset pass), run the program
   under a random scheduler that *postpones* any thread about to perform
   a matching access.  When two threads are simultaneously postponed at
   conflicting accesses to the same variable (same object and field, at
   least one write), the race is real and is reported with both accesses
   enabled, and the run stops there, poised.

   Confirmation runs every candidate of a test together: until some
   runnable thread is poised at an access matching a candidate, its
   directed run is a plain random run, the same for every candidate, so
   that prefix runs once and each candidate forks off it
   ([directed_runs]).  Triage resumes a poised run rather than replaying
   it: [confirm_all] hands each run 0's end to a settling function as
   soon as it stops, and [Conc.Exec.run] under [Conc.Scheduler.of_rng]
   of the run's RNG finishes it under the same random scheduling. *)

type instance = {
  ri_machine : Runtime.Machine.t;
  ri_threads : Runtime.Value.tid list; (* the concurrently racing threads *)
  ri_roots : Runtime.Value.t list; (* observable roots, for triage *)
}

type instantiator = unit -> (instance, string) result

(* The step bound of every directed, triage and coverage run, and of
   repair's seed recording.  Triage forks from a confirmation's run 0,
   so the two are exact only at one shared bound. *)
let fuel = 200_000

(* What to look for: the field name, optionally narrowed to two sites. *)
type candidate = {
  c_field : Jir.Ast.id;
  c_sites : (Runtime.Event.site * Runtime.Event.site) option;
}

let candidate_of_report (r : Race.report) : candidate =
  {
    c_field = r.Race.r_first.Race.a_field;
    c_sites = Some (r.Race.r_first.Race.a_site, r.Race.r_second.Race.a_site);
  }

let matches (cand : candidate) (pa : Runtime.Machine.pending_access) =
  String.equal pa.Runtime.Machine.pa_field cand.c_field
  &&
  match cand.c_sites with
  | None -> true
  | Some (s1, s2) ->
    Runtime.Event.compare_site pa.Runtime.Machine.pa_site s1 = 0
    || Runtime.Event.compare_site pa.Runtime.Machine.pa_site s2 = 0

(* Per-execution facts, schedule-independent given the seed. *)
type run_stats = { rs_steps : int; rs_max_postponed : int }

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

(* Is [th] at one of the candidate's sites?  A narrowed candidate's
   matching access is at one of its two sites, so a thread elsewhere is
   rejected on its top frame's pc and method, without decoding its
   instruction or building its pending access; a field-only candidate
   lets every thread through to the decode. *)
let at_candidate_site (cand : candidate) th =
  match cand.c_sites with
  | None -> true
  | Some (s1, s2) -> Runtime.Machine.at_site_th th s1 || Runtime.Machine.at_site_th th s2

(* The postponed set's dense per-tid mirror: tids are small consecutive
   ints, so the per-step membership tests read a growable array instead
   of the [postponed] hashtable.  The hashtable itself is kept, since
   its fold order decides which conflicting pair is reported first, and
   that order is pinned by the cram suite. *)
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

(* Where a directed run stopped: at the confirmation, with both racing
   threads poised at their accesses, or at the end of an unconfirmed
   run.  The machine, the scheduler's RNG and the fuel left are enough
   to resume it exactly. *)
type run_end = {
  re_inst : instance;
  re_rng : Rng.t;
  re_fuel : int;
  re_report : Race.report option;
}

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
   pairs.)  Every walk is over the machine's live threads: the
   not-postponed pick and the postponed pick both reject a suspended,
   finished or crashed thread (a postponed thread has not stepped since
   it was poised, so it is live), and [pick_where] counts only what it
   accepts, so the picks are those of a walk over every thread.

   A step changes the postponed set only through the thread that took
   it.  A thread's pending access reads its own top frame and registers
   (and the class objects, which only [Machine.create] writes), so it
   changes only when that thread steps; and a thread poised at an
   access is never blocked (threads block only at a monitor enter or a
   join, and stay at that instruction), so a thread that did not step
   cannot newly become runnable and poised.  The whole live list is
   scanned, in live order, when the run starts and whenever a step
   replaced it (a spawn or a retirement; the machine's list is then
   another list); after any other step only the thread that stepped is
   looked at.  Either way the threads postponed, and the order they
   enter the table, are those of a scan of every live thread before
   every pick.  [on_postponed] sees the postponed set whenever it
   changes.  Returns the report, the fuel left where the run stopped,
   and the run's stats. *)
let postponing m ~(cand : candidate) ~pick ~on_postponed ~start ~fuel =
  let postponed : (Runtime.Value.tid, Runtime.Machine.pending_access) Hashtbl.t =
    Hashtbl.create 4
  in
  let in_postponed = tidmap false in
  let max_postponed = ref 0 in
  let is_postponed tid = tid < Array.length in_postponed.slots && in_postponed.slots.(tid) in
  let postponed_th th = is_postponed (Runtime.Machine.thread_id th) in
  let runnable th = Runtime.Machine.runnable_th m th in
  let np_ok th = Runtime.Machine.runnable_th m th && not (postponed_th th) in
  (* Postpone [th] if it is runnable and poised at a matching access;
     did it?  Decodes only a thread at one of the candidate's sites. *)
  let refresh th =
    let tid = Runtime.Machine.thread_id th in
    (not (is_postponed tid))
    && Runtime.Machine.runnable_th m th
    && at_candidate_site cand th
    &&
    match Runtime.Machine.pending_access_th m th with
    | Some pa when matches cand pa ->
      Hashtbl.replace postponed tid pa;
      in_postponed.slots.(tid_slot in_postponed tid) <- true;
      true
    | Some _ | None -> false
  in
  let rec refresh_all changed = function
    | [] -> changed
    | th :: rest -> refresh_all (refresh th || changed) rest
  in
  (* Pick and step, with the postponed set up to date and [live] the
     machine's live list; [steps] counts from the start of the run.
     Returns the report, the fuel left and the steps taken. *)
  let rec decide live steps fuel =
    let np = Hashtbl.length postponed in
    if np > !max_postponed then max_postponed := np;
    (* With fewer than two postponed threads there is no pair to scan
       for. *)
    match if np < 2 then None else conflicting_pair (poised postponed) with
    | Some ((t1, p1), (t2, p2)) ->
      ( Some
          {
            Race.r_first = access_of_pending m t1 p1 ~label:steps;
            r_second = access_of_pending m t2 p2 ~label:steps;
            r_detector = "racefuzzer";
          },
        fuel,
        steps )
    | None -> (
      (* With none postponed the pick is [Exec.run]'s, and if it finds
         no thread this is deadlock or completion. *)
      match Conc.Scheduler.pick_where (if np = 0 then runnable else np_ok) pick live with
      | Some th -> step live th steps fuel
      | None when np = 0 -> (None, fuel, steps)
      | None -> (
        (* Everyone is postponed or blocked: release a postponed
           thread, drawn in tid order (creation order is tid order). *)
        match Conc.Scheduler.pick_where postponed_th pick live with
        | None -> (None, fuel, steps)
        | Some th ->
          let tid = Runtime.Machine.thread_id th in
          Hashtbl.remove postponed tid;
          in_postponed.slots.(tid_slot in_postponed tid) <- false;
          on_postponed postponed;
          step live th steps fuel))
  (* Step [th], then bring the postponed set up to date: [th] alone,
     unless the step replaced the live list. *)
  and step live th steps fuel =
    ignore (Runtime.Machine.step_th m th);
    let steps = steps + 1 and fuel = fuel - 1 in
    if fuel <= 0 then (None, fuel, steps)
    else begin
      let now = Runtime.Machine.live_threads m in
      if if now == live then refresh th else refresh_all false now then
        on_postponed postponed;
      decide now steps fuel
    end
  in
  let report, fuel_left, steps =
    if fuel <= 0 then (None, fuel, start)
    else begin
      let live = Runtime.Machine.live_threads m in
      if refresh_all false live then on_postponed postponed;
      decide live start fuel
    end
  in
  (report, fuel_left, { rs_steps = steps; rs_max_postponed = !max_postponed })

(* The directed loop from the instance's machine as it stands, drawing
   every choice from [rng]; [start] is the steps the run has taken. *)
let continue_run (inst : instance) rng ~(cand : candidate) ~on_postponed ~start ~fuel :
    run_end * run_stats =
  let report, fuel_left, stats =
    postponing inst.ri_machine ~cand ~pick:(Rng.below rng) ~on_postponed ~start ~fuel
  in
  ({ re_inst = inst; re_rng = rng; re_fuel = fuel_left; re_report = report }, stats)

(* One directed execution, stopping at the first simultaneously enabled
   conflicting pair. *)
let directed_run (inst : instance) ~(cand : candidate) ~seed ~fuel :
    run_end * run_stats =
  continue_run inst (Rng.create seed) ~cand ~on_postponed:ignore ~start:0 ~fuel

(* Does the pending access match one of the candidates [waiting]
   indexes? *)
let rec any_matches cands pa = function
  | [] -> false
  | j :: rest -> matches cands.(j) pa || any_matches cands pa rest

let rec at_any_site cands th = function
  | [] -> false
  | j :: rest -> at_candidate_site cands.(j) th || at_any_site cands th rest

(* Is [th] runnable and poised at an access matching one of the
   candidates [waiting] indexes?  Top-level and closure-free, and it
   decodes only a thread at one of their sites. *)
let poised_for m cands waiting th =
  Runtime.Machine.runnable_th m th
  && at_any_site cands th waiting
  &&
  match Runtime.Machine.pending_access_th m th with
  | Some pa -> any_matches cands pa waiting
  | None -> false

(* The directed runs of several candidates at one scheduler seed, from
   one instance.  Until a runnable thread is poised at an access
   matching a candidate, that candidate's postponed set is empty, so its
   run picks exactly as a plain random run does ([Conc.Scheduler.random]'s
   pick); that shared run is executed once.  Before each of its picks, every
   candidate some runnable thread now matches forks: a copy of the
   machine and the RNG resumes the postponing loop with the fuel left,
   counting steps from the fork.  Each fork runs to its end and is
   handed to [on_end] before the shared run continues, so at most one
   forked machine exists at a time.  The last candidate to fork takes
   the shared machine itself.  Candidates never matched share the shared
   run's end: no report, its steps, an empty postponed set throughout.

   The candidates that fork leave [waiting] at the step where they
   match, so after it no thread matches a waiting candidate, and, as in
   [postponing], only a step can change that, and only through the
   thread that took it: the whole live list is scanned when the run
   starts and whenever a step replaced it, and otherwise only the thread
   that stepped.  Returns the VM steps executed. *)
let directed_runs (inst : instance) ~(cands : candidate array) ~seed ~fuel
    (on_end : int list -> run_end -> run_stats -> unit) : int =
  let m = inst.ri_machine in
  let rng = Rng.create seed in
  let draw = Rng.below rng in
  let executed = ref 0 in
  let runnable th = Runtime.Machine.runnable_th m th in
  let rec any_poised waiting = function
    | [] -> false
    | th :: rest -> poised_for m cands waiting th || any_poised waiting rest
  in
  let matched_now j = any_poised [ j ] (Runtime.Machine.live_threads m) in
  let fork ~last j ~steps ~fuel =
    let inst, rng =
      if last then (inst, rng)
      else ({ inst with ri_machine = Runtime.Machine.copy m }, Rng.copy rng)
    in
    let re, stats =
      continue_run inst rng ~cand:cands.(j) ~on_postponed:ignore ~start:steps ~fuel
    in
    executed := !executed + stats.rs_steps - steps;
    on_end [ j ] re stats
  in
  (* The shared run stops after [steps] steps, with [fuel] left. *)
  let ended waiting ~steps ~fuel =
    executed := !executed + steps;
    if waiting <> [] then
      on_end waiting
        { re_inst = inst; re_rng = rng; re_fuel = fuel; re_report = None }
        { rs_steps = steps; rs_max_postponed = 0 }
  in
  (* [live] is the machine's live list and [poised] whether a thread on
     it now matches a waiting candidate. *)
  let rec go waiting live poised steps fuel =
    let waiting =
      if not poised then waiting
      else begin
        let forking, rest = List.partition matched_now waiting in
        let rec forks = function
          | [] -> ()
          | j :: more ->
            fork ~last:(more = [] && rest = []) j ~steps ~fuel;
            forks more
        in
        forks forking;
        rest
      end
    in
    match waiting with
    | [] -> ended [] ~steps ~fuel
    | _ :: _ -> (
      match Conc.Scheduler.pick_where runnable draw live with
      | None -> ended waiting ~steps ~fuel
      | Some th ->
        ignore (Runtime.Machine.step_th m th);
        let steps = steps + 1 and fuel = fuel - 1 in
        if fuel <= 0 then ended waiting ~steps ~fuel
        else begin
          let now = Runtime.Machine.live_threads m in
          go waiting now
            (if now == live then poised_for m cands waiting th
             else any_poised waiting now)
            steps fuel
        end)
  in
  let waiting = List.init (Array.length cands) Fun.id in
  (if fuel <= 0 then ended waiting ~steps:0 ~fuel
   else
     let live = Runtime.Machine.live_threads m in
     go waiting live (any_poised waiting live) 0 fuel);
  !executed

(* A coverage-collecting directed execution: [directed_run]'s loop at
   the same seed, with an observer.  A trace recorder is attached for
   HB-edge / lock-order features and recycled afterwards (the
   instance's machine outlives the run), postponed-set states are
   fingerprinted as they change, and a confirmed pair contributes a
   racy-pair feature. *)

type run_cov = { rc_report : Race.report option; rc_stats : run_stats; rc_cov : Cov.Set.t }

let directed_run_cov (m : Runtime.Machine.t) ~(cand : candidate) ~seed ~fuel : run_cov =
  let cov = ref Cov.Set.empty in
  let on_postponed postponed =
    if Hashtbl.length postponed > 0 then
      let state =
        List.map (fun (tid, pa) -> (tid, pa.Runtime.Machine.pa_field)) (poised postponed)
      in
      cov := Cov.Set.add Cov.Postponed (Cov.postponed_state state) !cov
  in
  let rec_ = Runtime.Trace.attach m in
  let report, _, stats =
    postponing m ~cand ~pick:(Rng.below (Rng.create seed)) ~on_postponed ~start:0 ~fuel
  in
  let trace_cov = Cov.of_trace (Runtime.Trace.snapshot rec_) in
  Runtime.Trace.recycle rec_;
  let racy =
    match report with
    | Some r ->
      Cov.Set.add Cov.Racy_pair
        (Cov.racy_pair ~field:cand.c_field r.Race.r_first.Race.a_site
           r.Race.r_second.Race.a_site)
        !cov
    | None -> !cov
  in
  { rc_report = report; rc_stats = stats; rc_cov = Cov.Set.union racy trace_cov }

type confirm_result = { confirmed : Race.report option; runs_used : int; steps : int }

(* Try to confirm candidates over several directed runs with different
   scheduler seeds, run [i] at [seed + i·7919] on a fresh instance, all
   of a run's candidates from one shared prefix ([directed_runs]).  A
   candidate leaves the batch at its first confirmation; an
   instantiation failure ends every candidate still in it.  So the runs
   executed are exactly each candidate's logical prefix (runs
   [0 .. runs_used - 1]).

   Run 0 runs at [seed] itself, and [settle] gets where it stopped,
   confirmed or not, as soon as it stops: once per distinct machine, so
   the candidates that never matched share one call.  Triage resumes
   those ends instead of replaying the same directed prefix. *)
let confirm_all ~(instantiate : instantiator) ~(cands : candidate array) ~runs
    ~seed ~(settle : run_end -> 'a) : (confirm_result * 'a option) array =
  let n = Array.length cands in
  let settled = Array.make n None in
  (* Run [i] of the candidates [active] lists: per candidate, its report
     and stats, or [None] when it sat the run out; and the VM steps
     executed. *)
  let run_index i active =
    match instantiate () with
    | Error _ -> Error ()
    | Ok inst ->
      let active = Array.of_list active in
      let out = Array.make n None in
      let on_end ks re st =
        if i = 0 then begin
          let v = Some (settle re) in
          List.iter (fun k -> settled.(active.(k)) <- v) ks
        end;
        List.iter (fun k -> out.(active.(k)) <- Some (re.re_report, st)) ks
      in
      let seed = Int64.add seed (Int64.of_int (i * 7919)) in
      let cands = Array.map (fun j -> cands.(j)) active in
      Ok (out, directed_runs inst ~cands ~seed ~fuel on_end)
  in
  let outcomes =
    let acc = ref [] in
    let rec attempt i active =
      if i < runs && active <> [] then begin
        let o = run_index i active in
        acc := o :: !acc;
        match o with
        | Error () -> ()
        | Ok (out, _) ->
          attempt (i + 1)
            (List.filter
               (fun j -> match out.(j) with Some (Some _, _) -> false | _ -> true)
               active)
      end
    in
    attempt 0 (List.init n Fun.id);
    List.rev !acc
  in
  let reg = Obs.Metrics.global () in
  Obs.Metrics.incr reg "racefuzzer/vm_steps"
    ~n:
      (List.fold_left
         (fun acc -> function Ok (_, executed) -> acc + executed | Error () -> acc)
         0 outcomes);
  Array.init n (fun j ->
      let steps = ref 0 in
      let observe (st : run_stats) =
        steps := !steps + st.rs_steps;
        Obs.Metrics.observe reg "racefuzzer/steps" st.rs_steps;
        Obs.Metrics.observe reg "racefuzzer/postponed_max" st.rs_max_postponed
      in
      let rec scan i = function
        | [] -> (None, runs)
        | Error () :: _ -> (None, i)
        | Ok (out, _) :: rest -> (
          match out.(j) with
          | Some (Some r, st) ->
            observe st;
            (Some r, i + 1)
          | Some (None, st) ->
            observe st;
            scan (i + 1) rest
          | None ->
            (* [j] sits out only the runs after its confirmation, where
               the scan has already stopped. *)
            (None, i))
      in
      let confirmed, runs_used = scan 0 outcomes in
      if confirmed <> None then
        Obs.Metrics.observe reg "racefuzzer/runs_to_confirm" runs_used;
      ({ confirmed; runs_used; steps = !steps }, settled.(j)))

let confirm ~(instantiate : instantiator) ~(cand : candidate) ?(runs = 10)
    ?(seed = 7L) ?jobs:_ () : confirm_result =
  fst (confirm_all ~instantiate ~cands:[| cand |] ~runs ~seed ~settle:ignore).(0)
