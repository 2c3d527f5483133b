(** The Jir virtual machine.

    Executes compiled {!Jir.Code} one instruction at a time so external
    schedulers can interleave threads at every instruction (the
    granularity RaceFuzzer-style directed scheduling needs).  Each
    instruction emits {!Event.t}s to registered observers; a recorded
    event sequence is exactly the trace language of the paper's §3.1.
    Every machine runs its program's {!Compiled} code from creation.

    The machine is fully deterministic given (program, seed, schedule):
    [Sys.randInt] draws from a seeded splitmix64 stream and there is no
    other hidden nondeterminism. *)

type exec
(** A compiled instruction: one closure per pc of a compiled method
    body (see {!Compiled}), the only definition of its semantics. *)

type frame = {
  fid : Event.frame_id;
  meth : Jir.Code.meth;
  regs : Value.t array;
  mutable pc : int;
  mutable entered : Value.addr list;
  ret_dst : Jir.Code.reg option;
  comp : exec array;  (** compiled body of [meth], indexed by pc *)
}

type status =
  | Runnable
  | Blocked_lock of Value.addr
  | Blocked_join of Value.tid
  | Suspended  (** frozen by the harness; never scheduled again *)
  | Finished of Value.t option
  | Crashed of string

type t

val default_seed : int64
(** Seed used when [create] (and the harness entry points built on it)
    is not given one explicitly. *)

val create :
  ?client_classes:Jir.Ast.id list -> ?seed:int64 -> Jir.Code.unit_ -> t
(** Create a machine running the unit's {!Compiled.of_unit} code:
    allocates class objects (static-field holders) and runs static
    initializers.  [client_classes] mark which classes count as
    "client" for the client/library boundary flags on events.

    @raise Failure if a static initializer crashes or does not finish
    within {!default_fuel} steps. *)

(** The instruction compiler: translates every method body of a unit
    into an array of closures once (constants materialized, access
    sites, branch targets and static call targets pre-resolved, virtual
    calls behind per-site inline caches).  A closure builds and emits
    an event only while some observer reads its kind (see
    {!add_observer}); otherwise it advances the event-label counter by
    the same count, so observers may attach mid-run and see exactly the
    labels and events of a run observed from the start.  A [code] value is immutable after
    compilation and shared across machines and domains, and it holds
    the program's field layouts, one per class: every machine of the
    program allocates its objects and class objects with them. *)
module Compiled : sig
  type code

  val digest : Jir.Code.unit_ -> string
  (** {!Jir.Code.digest}: the cache key for compiled code. *)

  val compile : Jir.Code.unit_ -> code
  (** Compile every method body of a unit, bypassing the cache. *)

  val of_unit : Jir.Code.unit_ -> code
  (** The digest-keyed compiled code of a unit, compiling on first use.
      Domain-safe: compiles at most once per distinct digest, and the
      digest itself once per unit.  Records the ["backend/compile"]
      span and the ["backend/compiled/units"] /
      ["backend/compiled/instrs"] counters on compilation. *)

  val units : code -> int
  (** Number of method bodies compiled. *)

  val instrs : code -> int
  (** Total instructions compiled. *)
end

(** The events an observer reads. *)
type interest =
  | Every_event  (** the trace recorder and Crucible's views *)
  | Sync_and_access
      (** [Read], [Write], [Lock], [Unlock], [Spawned] and [Joined]
          only: what the race detectors read. *)

val add_observer : t -> interest -> (Event.t -> unit) -> unit
(** Call the function on every event of the given interest, in label
    order; observers see each event in attach order.  The machine builds
    the other events ([Const], [Move], [Alloc], [Invoke], [Param],
    [Return], [Thrown]) and their client-boundary flags only while an
    [Every_event] observer is attached.  Either way each event consumes
    its label, so {!labels_used} and the labels an observer sees do not
    depend on who observes. *)

val copy : t -> t
(** An independent machine in the same state: stepping either one never
    affects the other.  Heap contents, monitors, threads and frames,
    counters (threads, frames, event labels), RNG states and output are
    copied; the code unit, the compiled code with its field layouts and
    the class-object and client-class tables are shared, since no run
    changes them.
    Observers are not carried over: the copy starts with no interest.
    [copy] only reads its argument, so
    several domains may copy one machine at once, provided nobody steps
    it meanwhile. *)

val new_thread :
  t ->
  cm:Jir.Code.meth ->
  recv:Value.t option ->
  args:Value.t list ->
  unit ->
  Value.tid
(** Create a thread whose initial frame invokes [cm], treated as a call
    from client code: the harness drives it.

    @raise Invalid_argument if [cm] is not a method of the machine's
    program (likewise {!call}). *)

val call :
  t ->
  cm:Jir.Code.meth ->
  recv:Value.t option ->
  args:Value.t list ->
  unit ->
  (Value.t option, string) result
(** Run a single invocation to completion on a fresh thread. *)

type step_result = Stepped | Blocked | Not_runnable

val step : t -> Value.tid -> step_result
(** Execute one instruction of the given thread.  Like every query
    below that takes a tid, raises [Invalid_argument] for a tid the
    machine never created (see {!find_thread}).  A crash (null
    dereference, failed assertion, [throw], ...) unwinds the thread,
    releases its monitors (emitting [Unlock] events) and marks it
    [Crashed]; this counts as [Stepped]. *)

val status : t -> Value.tid -> status
val runnable_tids : t -> Value.tid list
(** The live threads that can make progress right now (including a
    blocked thread whose monitor/join target has become available), in
    creation order. *)

val live_tids : t -> Value.tid list
(** The tids of {!live_threads}. *)

val threads : t -> Value.tid list
(** All threads ever created, in creation order. *)

(** {2 Record-based stepping}

    Hot driver loops (the executor, replay, directed fuzzing) run
    millions of steps; these variants take the thread record directly so
    a loop pays the tid -> record hash lookup once, not per step.  They
    are observationally identical to the tid-based functions. *)

type thread
(** Runtime state of one thread; stays valid for the machine's
    lifetime. *)

val find_thread : t -> Value.tid -> thread
(** @raise Invalid_argument for a tid the machine never created. *)

val thread_id : thread -> Value.tid
val status_th : thread -> status
val step_th : t -> thread -> step_result
val runnable_th : t -> thread -> bool
(** Can this thread make progress right now? *)

val all_threads : t -> thread list
(** Every thread ever created, in creation order — the machine's own
    list, not a copy, so a scan allocates nothing.  It keeps the
    suspended seed replays and the finished and crashed threads, which
    never step again; a loop that picks a thread to step walks
    {!live_threads} instead. *)

val live_threads : t -> thread list
(** The threads that can still step, in creation order: exactly
    {!all_threads} without the [Suspended], [Finished] and [Crashed]
    ones, record for record.  Also the machine's own list, kept as
    threads start ({!new_thread}, [spawn]) and retire (a crash, the
    return from the last frame, {!suspend}), so reading it allocates
    nothing.  Every predicate a scheduler applies ({!runnable_th},
    postponement) is false on a retired thread, so a uniform pick over
    this list draws the same bound and chooses the same thread as one
    over {!all_threads}.  A {!copy} gets its own list of its own
    records. *)

val top_frame_th : thread -> frame option

val pending_call_th :
  t -> thread -> (Jir.Code.meth * Value.t option * Value.t list) option
(** If the next instruction is a method/constructor call, its resolved
    target, receiver and argument values; [None] also when resolving
    crashes (a null receiver, say). *)

val at_call_named_th : thread -> string -> bool
(** Is the next instruction a call of a method named [name]
    ({!Jir.Ast.ctor_name} for a constructor)?  Decodes only and
    allocates nothing.  Whenever {!pending_call_th} returns a target
    [cm], this holds for [cm.cm_name], so it filters the steps worth
    resolving. *)

val at_site_th : thread -> Event.site -> bool
(** Is the next instruction at this site (the top frame's method
    qname and pc)?  Decodes nothing and allocates nothing.  Whenever
    {!pending_access_th} returns an access, this holds for its
    [pa_site], so it filters the threads worth decoding. *)

val peek_th : thread -> (Jir.Code.meth * int * Jir.Code.instr) option

val run_thread_to_completion :
  t -> Value.tid -> fuel:int -> (Value.t option, string) result

val default_fuel : int

val output : t -> string
(** Everything printed with [Sys.print] so far. *)

val heap : t -> Heap.t
val unit_of : t -> Jir.Code.unit_
val frames_of : t -> Value.tid -> frame list

val labels_used : t -> int
(** Number of event labels consumed so far.  The same for the same
    (program, seed, schedule), observed or not. *)

val crash_reason : t -> Value.tid -> string option

val is_client_frame : t -> frame -> bool
(** Does this frame belong to a class marked as client code? *)

val suspend : t -> Value.tid -> unit
(** Freeze a thread permanently (the paper's suspension of seed-test
    replays after object collection). *)

(** What memory access (if any) would the next step of a thread perform. *)
type pending_access = {
  pa_site : Event.site;
  pa_obj : Value.addr;
  pa_field : Jir.Ast.id;
  pa_idx : int option;
  pa_kind : [ `Read | `Write ];
}

val pending_access : t -> Value.tid -> pending_access option
val pending_access_th : t -> thread -> pending_access option

val held_locks : t -> Value.tid -> Value.addr list
(** Monitors currently held by a thread (reentrancy collapsed), sorted. *)

val construct :
  t ->
  cls:Jir.Ast.id ->
  args:Value.t list ->
  unit ->
  (Value.t, string) result
(** Allocate an object, run its field initializers and the
    arity-matching constructor; how the synthesizer builds fresh
    receivers. *)

val deref_path : t -> Value.t -> Jir.Ast.id list -> Value.t option
(** Follow a field path (["[]"] steps into element 0 of an array)
    through the live heap. *)
