(** The hybrid lockset pair collector seeding the directed scheduler:
    every conflicting access pair from different threads with disjoint
    locksets.  The Eraser state machine is its own detector,
    {!Eraser}. *)

type t

val create : unit -> t

val observer : t -> Runtime.Event.t -> unit
(** Feed one machine event (access/lock/unlock; others ignored). *)

val attach : Runtime.Machine.t -> t
(** Create and register on a machine's observer list, for the
    synchronization and access events. *)

val candidates : t -> Race.report list
(** All conflicting pairs with disjoint locksets, deduplicated: each
    key's first pair in (variable, first access, second access) order.
    Repeats of an access (same site, kind, tid and locks on the same
    variable) are not kept, since they add no key and no earlier
    witness: the collector stores only each variable's distinct
    accesses. *)
