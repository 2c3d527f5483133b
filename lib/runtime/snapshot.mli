(** Canonical snapshots of the reachable heap, used by triage to decide
    whether a confirmed race is harmful.

    Addresses are canonicalized to deterministic visit order, so
    isomorphic heaps (from the given roots) compare equal even when
    concrete addresses differ.  Thread handles are opaque and monitors
    are excluded. *)

type t

val canonical : Heap.t -> roots:Value.t list -> t
(** Structural comparison ([=]) on the results is heap isomorphism from
    the roots. *)

val to_string : t -> string
