(* Multithreaded executor: drives a machine's threads under a scheduler
   until quiescence, detecting deadlocks.

   Observers (race detectors, trace recorders) attach to the machine
   itself; this module only owns the loop. *)

type outcome =
  | All_finished
  | Deadlock of Runtime.Value.tid list (* live threads, none runnable *)
  | Fuel_exhausted

type run_result = {
  outcome : outcome;
  steps : int;
  crashes : (Runtime.Value.tid * string) list;
}

let default_fuel = 400_000

(* Run until every thread is finished/crashed, a deadlock is reached, or
   fuel runs out.  Each step is one pick over the machine's live threads
   (never the suspended, finished or crashed ones, none of which is
   runnable), and the scheduler is consulted even when a single thread
   is runnable: the random scheduler draws from its RNG regardless, and
   skipping the draw would silently change every downstream schedule.
   The runnability test is built once, so a step allocates nothing the
   scheduler does not. *)
let run ?(fuel = default_fuel) (m : Runtime.Machine.t) (sched : Scheduler.t) :
    run_result =
  let runnable th = Runtime.Machine.runnable_th m th in
  let rec loop n steps =
    if n <= 0 then (Fuel_exhausted, steps)
    else
      match sched m runnable (Runtime.Machine.live_threads m) with
      | None -> (
        match Runtime.Machine.live_threads m with
        | [] -> (All_finished, steps)
        | _ :: _ -> (Deadlock (Runtime.Machine.live_tids m), steps))
      | Some th -> (
        match Runtime.Machine.step_th m th with
        | Runtime.Machine.Stepped -> loop (n - 1) (steps + 1)
        | Runtime.Machine.Blocked | Runtime.Machine.Not_runnable ->
          (* The picked thread could not move after all (e.g. its next
             instruction enters a held monitor); the next pick sees its
             new state.  Costs fuel to guarantee termination. *)
          loop (n - 1) steps)
  in
  let outcome, steps = loop fuel 0 in
  let crashes =
    List.filter_map
      (fun tid ->
        match Runtime.Machine.crash_reason m tid with
        | Some msg -> Some (tid, msg)
        | None -> None)
      (Runtime.Machine.threads m)
  in
  { outcome; steps; crashes }

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
  ignore (Runtime.Machine.new_thread m ~cm ~recv:None ~args:[] ());
  (run ~fuel m sched, m)
