(** Djit+-style happens-before race detection (Pozniansky & Schuster,
    PPoPP'03) — the algorithm FastTrack optimizes, kept as an executable
    reference with full per-variable read and write vector clocks.

    The test-suite checks that FastTrack flags exactly the variables
    Djit+ flags on random traces (FastTrack's correctness theorem). *)

type t

val create : unit -> t
val observer : t -> Runtime.Event.t -> unit
val reports : t -> Race.report list
