(** Multithreaded executor: drives a machine's threads under a scheduler
    until quiescence, detecting deadlocks.  Observers (race detectors,
    trace recorders) attach to the machine itself. *)

type outcome =
  | All_finished
  | Deadlock of Runtime.Value.tid list  (** live threads, none runnable *)
  | Fuel_exhausted

type run_result = {
  outcome : outcome;
  steps : int;
  crashes : (Runtime.Value.tid * string) list;
}

val run : ?fuel:int -> Runtime.Machine.t -> Scheduler.t -> run_result
(** Step the machine, one scheduler pick over its live threads per step,
    until no thread is runnable or [fuel] picks are spent (a pick whose
    thread turns out blocked spends fuel too).  [steps] counts the
    instructions executed.  The one undirected run loop: random,
    replayed, prioritized and continued runs differ only in the
    scheduler. *)

val run_program :
  ?fuel:int ->
  ?seed:int64 ->
  ?on_machine:(Runtime.Machine.t -> unit) ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  cls:Jir.Ast.id ->
  meth:Jir.Ast.id ->
  Scheduler.t ->
  run_result * Runtime.Machine.t
(** Compile-and-run a whole program from a static entry point,
    scheduling any threads it spawns.  [on_machine] is called with the
    fresh machine before the entry thread is created — the hook for
    attaching observers (race detectors, trace recorders) to a run. *)
