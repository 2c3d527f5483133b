(** Trace recording: the event stream of an execution captured as an
    array — the "sequence of expressions comprising the execution of a
    sequential test" of the paper's §3.1. *)

type t = Event.t array

type recorder
(** A growable chunked-array event buffer: appending is an array store,
    snapshotting a few blits — no per-event list cell and no [List.rev]
    over the whole trace on the recording hot path. *)

val recorder : ?chunk_size:int -> unit -> recorder
(** [chunk_size] (default 4096) sizes the backing chunks; exposed for
    tests that want to cross chunk boundaries cheaply. *)

val observer : recorder -> Event.t -> unit

val attach : Machine.t -> recorder
(** Attach a fresh recorder to a machine's observer list. *)

val snapshot : recorder -> t
(** The events recorded so far, in order. *)

val recycle : recorder -> unit
(** Drop the recorder's chunks and reset it to empty.  A machine keeps
    its observers, and so the recorder, alive for as long as it lives;
    recycling once the events are snapshotted lets the chunks be
    collected. *)

val length : t -> int
val to_string : t -> string
