(** Multicore evaluation engine: a deterministic spawn-and-join
    fan-out/merge combinator over [Domain]s.

    The evaluation campaign (§5) is embarrassingly parallel — every
    synthesized test, and every race that repair closes, is an
    independent seeded computation — so each command fans out once, at
    its outermost independent unit.  [map] distributes that work across
    domains while keeping the result *bit-identical* regardless of the
    job count: result [i] is written for input [i] whatever worker ran
    it, and seeds are derived per-index with {!seed} rather than from
    any shared mutable generator. *)

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

val map : ?jobs:int -> 'a list -> ('a -> 'b) -> 'b list
(** [map ~jobs xs f] applies [f] to every element and returns the
    results in input order.  It spawns [min jobs (max_domains ())]
    worker domains (default {!default_jobs}), capped at the list's
    length; they claim one index at a time from one shared cursor, and
    every one is joined before [map] returns.  With an effective width
    of 1 no domain is spawned and this is [List.map].  If tasks raise,
    the exception of the smallest failing input index is re-raised —
    output (and failure) is deterministic regardless of [jobs].  The
    number of inputs run, and each worker's inputs and idle tail, go
    to the global registry as the volatile gauges [par/pool/chunks],
    [par/pool/worker<i>/tasks] and [par/pool/worker<i>/idle_s]. *)

val mapi : ?jobs:int -> 'a list -> (int -> 'a -> 'b) -> 'b list
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
