(** Lockset-based race detection.

    Two detectors share the bookkeeping:
    - {!eraser_reports}: the classic Eraser state machine (Savage et al.)
      — Virgin → Exclusive → Shared → Shared-Modified with a shrinking
      candidate lockset;
    - {!candidates}: the hybrid pair collector seeding the directed
      scheduler — every conflicting access pair from different threads
      with disjoint locksets. *)

type t

val create : unit -> t

val observer : t -> Runtime.Event.t -> unit
(** Feed one machine event (access/lock/unlock; others ignored). *)

val attach : Runtime.Machine.t -> t
(** Create and register on a machine's observer list. *)

val eraser_reports : t -> Race.report list
(** Races flagged by the Eraser state machine, deduplicated, in the
    order of the accesses that triggered them.  The machine runs over
    each variable's recorded accesses when this is called, so a run
    that only asks for {!candidates} pays nothing for it. *)

val candidates : t -> Race.report list
(** All conflicting pairs with disjoint locksets, deduplicated: each
    key's first pair in (variable, first access, second access) order.
    Repeats of an access (same site, kind, tid and locks on the same
    variable) are not paired, since they add no key and no earlier
    witness. *)
