(** Shared deterministic RNG: one splitmix64 stream and one unbiased
    bounded draw for every component that previously carried its own
    copy (VM intrinsics, schedulers, the race-directed fuzzer, the
    ConTeGe baseline).

    All draws are rejection-sampled over the full 64-bit stream, so
    [below] is exactly uniform on [0, bound) — the historical
    [rem (logand z max_int) n] draw over-represented small residues.

    [bits] and [below] allocate nothing in native code: they sit on the
    schedulers' per-step path. *)

type t
(** A mutable generator.  Deterministic: equal seeds produce equal
    draw sequences. *)

val create : int64 -> t

val copy : t -> t
(** An independent generator at the same point of the stream: draws on
    one do not move the other. *)

val bits : t -> int64
(** The raw 64-bit splitmix64 output; advances the state once. *)

val below : t -> int -> int
(** [below t bound] draws uniformly from [0, bound).  May advance the
    state more than once (rejection sampling); exactly once when [bound]
    is a power of two, whose draw is the low bits of one {!bits}.
    @raise Invalid_argument when [bound <= 0]. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a list.
    @raise Invalid_argument on the empty list (never
    [Division_by_zero] or [Failure "nth"]). *)

val range : t -> int -> int -> int
(** [range t lo hi] draws uniformly from the inclusive range [lo, hi].
    @raise Invalid_argument when [hi < lo]. *)
