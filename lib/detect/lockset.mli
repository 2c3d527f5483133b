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

val record_access : t -> Race.access -> unit
(** Low-level entry point for synthetic traces. *)

val eraser_reports : t -> Race.report list
(** Races flagged by the Eraser state machine, deduplicated. *)

val candidates : t -> Race.report list
(** All conflicting pairs with disjoint locksets, deduplicated. *)
