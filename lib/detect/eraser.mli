(** The Eraser lockset detector (Savage et al., TOCS'97): per variable,
    Virgin → Exclusive → Shared → Shared-Modified with a shrinking
    candidate lockset; a race is reported when the candidate set empties
    in a (potentially) shared-modified state.  It keeps its own held
    locks and every variable's full access history, and runs the state
    machine over that history when {!reports} is called. *)

type t

val create : unit -> t

val observer : t -> Runtime.Event.t -> unit
(** Feed one machine event (access/lock/unlock; others ignored). *)

val attach : Runtime.Machine.t -> t
(** Create and register on a machine's observer list, for the
    synchronization and access events. *)

val reports : t -> Race.report list
(** Races flagged by the state machine, deduplicated, in the order of
    the accesses that triggered them. *)
