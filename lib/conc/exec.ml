(* Multithreaded executor: drives a machine's threads under a scheduler
   until quiescence, detecting deadlocks and recording the schedule for
   replay.

   Observers (race detectors, trace recorders) attach to the machine
   itself; this module only owns scheduling. *)

type outcome =
  | All_finished
  | Deadlock of Runtime.Value.tid list (* live threads, none runnable *)
  | Fuel_exhausted

type run_result = {
  outcome : outcome;
  steps : int;
  decisions : Runtime.Value.tid list; (* schedule actually taken, for replay *)
  crashes : (Runtime.Value.tid * string) list;
}

let default_fuel = 400_000

(* Run until every thread is finished/crashed, a deadlock is reached, or
   fuel runs out. *)
let run ?(fuel = default_fuel) (m : Runtime.Machine.t) (sched : Scheduler.t) :
    run_result =
  let decisions = ref [] in
  let steps = ref 0 in
  (* The loop works on thread records: one hash lookup per thread at
     query time would otherwise be paid on every one of the (often
     millions of) steps.  It walks the machine's live threads, never the
     suspended, finished or crashed ones, none of which is runnable.
     With an index-choosing scheduler the runnable set is never
     materialized: [Scheduler.pick_where] counts and fetches in two
     walks of the live list; otherwise
     [Scheduler.choose] keeps its tid-list interface and the chosen
     record is re-found in the runnable list.  Note that the scheduler
     must be consulted even when a single thread is runnable: the random
     scheduler draws from its RNG regardless, and skipping the draw
     would silently change every downstream schedule. *)
  let runnable th = Runtime.Machine.runnable_th m th in
  let rec find_rec tid = function
    | [] -> Runtime.Machine.find_thread m tid
    | th :: rest ->
      if Runtime.Machine.thread_id th = tid then th else find_rec tid rest
  in
  let next ths =
    match Scheduler.choose_idx sched with
    | Some draw -> Scheduler.pick_where runnable draw ths
    | None -> (
      match List.filter runnable ths with
      | [] -> None
      | rthreads ->
        let tid =
          Scheduler.choose sched m (List.map Runtime.Machine.thread_id rthreads)
        in
        Some (find_rec tid rthreads))
  in
  let rec loop n =
    if n <= 0 then Fuel_exhausted
    else
      match next (Runtime.Machine.live_threads m) with
      | None -> (
        match Runtime.Machine.live_threads m with
        | [] -> All_finished
        | _ :: _ -> Deadlock (Runtime.Machine.live_tids m))
      | Some th -> (
        match Runtime.Machine.step_th m th with
        | Runtime.Machine.Stepped ->
          decisions := Runtime.Machine.thread_id th :: !decisions;
          incr steps;
          loop (n - 1)
        | Runtime.Machine.Blocked | Runtime.Machine.Not_runnable ->
          (* The scheduler picked a thread that cannot move after all
             (e.g. lock was grabbed since the runnable query); just
             re-query.  Costs fuel to guarantee termination. *)
          loop (n - 1))
  in
  let outcome = loop fuel in
  let crashes =
    List.filter_map
      (fun tid ->
        match Runtime.Machine.crash_reason m tid with
        | Some msg -> Some (tid, msg)
        | None -> None)
      (Runtime.Machine.threads m)
  in
  { outcome; steps = !steps; decisions = List.rev !decisions; crashes }

(* Convenience: compile-and-run a whole program from its static main,
   scheduling any threads it spawns. *)
let run_program ?(fuel = default_fuel) ?(seed = Runtime.Machine.default_seed) ?(on_machine = fun _ -> ())
    (cu : Jir.Code.unit_) ~client_classes ~cls ~meth (sched : Scheduler.t) :
    run_result * Runtime.Machine.t =
  let m = Runtime.Machine.create ~client_classes ~seed cu in
  on_machine m;
  let cm =
    match Jir.Code.find_static cu cls meth with
    | Some cm -> cm
    | None -> Jir.Diag.error "no static entry point %s.%s" cls meth
  in
  ignore (Runtime.Machine.new_thread m ~client:true ~cm ~recv:None ~args:[] ());
  (run ~fuel m sched, m)
