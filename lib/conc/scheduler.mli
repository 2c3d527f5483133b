(** Thread schedulers for the Jir VM.

    A scheduler is consulted at every instruction and picks which
    runnable thread steps next.  All schedulers are deterministic given
    their seed, so executions can be replayed exactly. *)

type t =
  Runtime.Machine.t ->
  (Runtime.Machine.thread -> bool) ->
  Runtime.Machine.thread list ->
  Runtime.Machine.thread option
(** [sched m runnable live] picks a thread of [live] (the machine's live
    threads, in creation order) that satisfies [runnable].  [None] only
    when none does.  {!Exec.run} makes one such call per step. *)

val pick_where : ('a -> bool) -> (int -> int) -> 'a list -> 'a option
(** [pick_where p draw l] is the uniform pick of {!random} and of the
    race-directed scheduler: with [k] elements of [l] satisfying [p],
    the [draw k]-th of them in list order.  [None], with no draw, when
    [k = 0]; [None] too when the draw falls outside [\[0, k)].
    Allocates nothing but the [Some]. *)

val round_robin : unit -> t

val random : seed:int64 -> t
(** Uniform choice at every step: [of_rng (Rng.create seed)]. *)

val of_rng : Rng.t -> t
(** Uniform choice at every step, drawing from the given stream, so a
    run stopped with its RNG in hand continues as if it never stopped. *)

val random_coarse : seed:int64 -> switch_denominator:int -> t
(** Random with inertia: keeps the current thread running, switching
    with probability [1/switch_denominator] per step — how naive stress
    testing behaves; a baseline for the race-directed scheduler. *)

val replay : decisions:Runtime.Value.tid list -> t
(** Follow a pre-recorded decision list, one decision per pick; falls
    back to the first runnable thread when a decision is impossible. *)

val prioritized : Runtime.Machine.thread list -> t
(** [prioritized order]: the first runnable thread of [order], else the
    first runnable live thread.  Draws nothing. *)

val pct : seed:int64 -> depth:int -> expected_steps:int -> t
(** PCT — probabilistic concurrency testing (Burckhardt et al.,
    ASPLOS'10): random distinct priorities with [depth - 1] random
    priority-change points; always runs the highest-priority runnable
    thread.  Finds depth-[d] bugs with probability >= 1/(n·k^(d-1)). *)
