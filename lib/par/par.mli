(** Multicore evaluation engine: a sharded work-stealing [Domain] pool
    and a deterministic fan-out/merge combinator.

    The evaluation campaign (§5) is embarrassingly parallel — every
    corpus class, every synthesized test and every schedule/confirmation
    run is an independent seeded VM execution.  [map] distributes such
    work across domains while keeping the result *bit-identical*
    regardless of the job count: inputs are split into index chunks,
    result [i] is written for input [i] whatever worker ran it, and
    seeds are derived per-index with {!seed} rather than from any
    shared mutable generator. *)

(** A fixed-size pool of worker domains.  Each worker owns a deque of
    tasks: the owner pops LIFO, idle workers steal FIFO from victims
    probed in seeded-random order, and an idle pool parks on a condvar
    (a sleeping domain does not stall minor collections).  Scheduling
    facts (queue high-water mark, steal counts, per-worker executed
    chunk/task counts, idle time) are flushed to the global metrics
    registry as volatile gauges at shutdown. *)
module Pool : sig
  type t

  type 'a future
  (** A handle for a submitted task's eventual result.  Futures share
      their pool's completion mutex/condvar — no per-future lock. *)

  val create : jobs:int -> t
  (** [create ~jobs] spawns [max 1 jobs] worker domains. *)

  val jobs : t -> int

  val submit : t -> (unit -> 'a) -> 'a future
  (** Enqueue a task (round-robin over the worker deques).
      @raise Invalid_argument after [shutdown]. *)

  val await : 'a future -> 'a
  (** Block until the task has run; re-raises the task's exception.
      Must not be called from within a task running on the same pool
      (the worker would wait on itself). *)

  val shutdown : t -> unit
  (** Drain the deques, join every worker domain, and flush the pool's
      scheduling gauges ([par/pool/steals], [par/pool/chunks],
      [par/pool/queue_depth_hwm], per-worker tasks/chunks/idle) to the
      global registry.  Idempotent. *)
end

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val max_domains : unit -> int
(** The fan-out width cap applied by {!map}/{!mapi}: requesting more
    worker domains than cores is counter-productive (OCaml minor
    collections are stop-the-world across every running domain), so
    the effective width is [min jobs (max_domains ())].  Defaults to
    [Domain.recommended_domain_count ()]; override with
    {!set_max_domains} or the NARADA_PAR_MAX_DOMAINS environment
    variable. *)

val set_max_domains : int -> unit
(** Raise or lower the {!max_domains} cap (clamped to [>= 1]).  Used by
    tests to exercise genuine multi-domain merging on small machines,
    and by operators who know better than the default. *)

val seed : base:int64 -> index:int -> int64
(** Deterministic per-index seed derivation (splitmix64 finalizer over
    [base] and [index]); independent of job count and submission order. *)

val map : ?jobs:int -> ?chunk:int -> 'a list -> ('a -> 'b) -> 'b list
(** [map ~jobs xs f] applies [f] to every element on a private pool of
    [min jobs (max_domains ())] workers (default {!default_jobs}) and
    returns the results in input order.  Inputs are submitted as index
    chunks of [?chunk] elements (default: the granularity heuristic
    [max 1 (n / (8 * width))], ~8 chunks per worker) and a single
    completion latch synchronizes the fan-out — no per-element future.
    With an effective width of 1 (or a short list) no domain is
    spawned and this is [List.map].  If tasks raise, the exception of
    the smallest failing input index is re-raised after the pool is
    shut down — output (and failure) is deterministic regardless of
    [jobs]. *)

val mapi : ?jobs:int -> ?chunk:int -> 'a list -> (int -> 'a -> 'b) -> 'b list
(** Like {!map} but the function also receives the input index — the
    hook for per-index seed derivation. *)

(** A string-keyed publish-once cache: lock-free reads of an immutable
    snapshot in the steady state, "compute at most once" on the slow
    path (racing domains wait instead of recomputing).  The corpus
    registry's compiled-unit cache is one instance; the runtime keys
    another by unit content digest for compiled code. *)
module Keyed_cache (V : sig
  type t
end) : sig
  type t

  val create : unit -> t

  val find_or_compute : t -> string -> (unit -> V.t) -> V.t
end
