(** Interleaving-coverage metrics: the feedback signal for
    coverage-guided schedule exploration.

    Four feature domains, each a set of hashed features:

    - {b racy pairs} — candidate access pairs that were actually
      co-scheduled (both sides observed in one execution, or confirmed
      simultaneously postponed by Racefuzzer);
    - {b HB edges} — inter-thread happens-before edges exercised
      (spawn, join, and release→acquire on a lock);
    - {b lock orders} — nested lock acquisition orders (outer, inner)
      observed, the alphabet of potential deadlock cycles;
    - {b postponed states} — distinct Racefuzzer postponed-set states,
      the scheduler-state analogue of branch coverage.

    Feature sets form a commutative monoid under {!Set.union}, so
    per-domain coverage merges deterministically regardless of worker
    interleaving — the same contract as the [Obs.Metrics] registries. *)

type kind = Racy_pair | Hb_edge | Lock_order | Postponed

(** Feature fingerprints: 64-bit hashes, stable across runs and OCaml
    versions (no [Hashtbl.hash] dependence). *)
module Fp : sig
  type t = int64
end

(** A coverage set: four fingerprint sets, one per {!kind}. *)
module Set : sig
  type t

  val empty : t
  val add : kind -> Fp.t -> t -> t
  val mem : kind -> Fp.t -> t -> bool
  val union : t -> t -> t
  val count : kind -> t -> int
  val total : t -> int

  val equal : t -> t -> bool
end

(** {2 Feature constructors} *)

val racy_pair : field:string -> Runtime.Event.site -> Runtime.Event.site -> Fp.t
(** Order-normalized: [racy_pair a b = racy_pair b a]. *)

type hb_kind = Spawn | Join | Rel_acq

val hb_edge : hb_kind -> src:Runtime.Value.tid -> dst:Runtime.Value.tid -> Runtime.Value.addr -> Fp.t
(** [addr] is the lock address for [Rel_acq] and [0] otherwise. *)

val lock_order : outer:Runtime.Value.addr -> inner:Runtime.Value.addr -> Fp.t

val postponed_state : (Runtime.Value.tid * string) list -> Fp.t
(** Fingerprint of a Racefuzzer postponed set: (tid, field) pairs,
    order-insensitive. *)

val of_trace : Runtime.Trace.t -> Set.t
(** Extract HB-edge and lock-order features from a recorded trace. *)

val record : ?registry:Obs.Metrics.t -> prefix:string -> Set.t -> unit
(** Record per-kind cardinalities as stable counters
    [<prefix>/racy_pair] etc. plus [<prefix>/total]. *)

(** {2 Corpus}

    A deterministic corpus of (seed, schedule-prefix) entries ranked by
    the coverage novelty they contributed when first observed.  The
    checkpoint format is a line-oriented text file (schema
    [narada.covcorpus/1]) so snapshots diff cleanly and replay
    byte-identically. *)
module Corpus : sig
  type entry = {
    en_id : int;
    en_seed : int64;  (** base RNG seed of the run *)
    en_prefix : int list;  (** forced schedule-choice prefix *)
    en_gain : int;  (** novelty contributed on admission *)
  }

  type t

  val create : unit -> t
  val coverage : t -> Set.t
  val entries : t -> entry list
  val size : t -> int

  val note : t -> seed:int64 -> prefix:int list -> Set.t -> int
  (** [note c ~seed ~prefix cov] folds [cov] into the accumulated
      coverage and returns its novelty; when positive the (seed,
      prefix) entry is admitted with that gain. *)

  val ranked : t -> entry list
  (** Entries by descending gain, ties by ascending id. *)

  val digest : t -> string
  (** Stable hex fingerprint of (coverage, entries); equal digests ⇔
      byte-identical checkpoints. *)

  val save : t -> string -> unit
  val load : string -> (t, string) result
end
