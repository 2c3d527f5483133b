(** Vector clocks and epochs: the metadata of happens-before race
    detection (Djit+/FastTrack).  Clocks are sparse int arrays indexed
    by thread id; missing entries read as 0. *)

type t = int array

val empty : t
val get : t -> int -> int
val set : t -> int -> int -> t
val inc : t -> int -> t
val join : t -> t -> t

val leq : t -> t -> bool
(** Pointwise order: [leq a b] iff a happens-before-or-equals b. *)

val equal : t -> t -> bool
val to_string : t -> string

(** FastTrack epochs: a (clock, tid) pair [c@t], representing the last
    access by one thread in O(1) space. *)
module Epoch : sig
  type e

  val none : e
  (** The bottom epoch: precedes everything. *)

  val leq_vc : e -> t -> bool
  (** [leq_vc e c]: does the epoch happen before the clock? *)

  val of_vc : t -> int -> e
  (** The epoch of thread [t] in clock [c]. *)

  val tid : e -> int
  val clock : e -> int
end
