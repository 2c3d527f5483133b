(** Thread schedulers for the Jir VM.

    A scheduler is consulted at every instruction and picks which
    runnable thread steps next.  All schedulers are deterministic given
    their seed, so executions can be replayed exactly. *)

type decision = Runtime.Value.tid

type t

val name : t -> string

val choose : t -> Runtime.Machine.t -> Runtime.Value.tid list -> decision
(** [choose t m runnable] picks one of [runnable] (non-empty). *)

val choose_idx : t -> (int -> int) option
(** The same decision as an index given only the number of runnable
    threads, for schedulers that never inspect the candidate tids.
    Both interfaces consume the scheduler's random stream identically,
    so a driver may use whichever is cheaper without changing the
    schedule. *)

val pick_where : ('a -> bool) -> (int -> int) -> 'a list -> 'a option
(** [pick_where p draw l] is the uniform pick every driver loop shares
    ({!Exec.run}, the race-directed scheduler and its drain): with [k]
    elements of [l] satisfying [p], the [draw k]-th of them in list
    order.  [None], with no draw, when [k = 0]; [None] too when the
    draw falls outside [\[0, k)].  Allocates nothing but the [Some]. *)

val first : Runtime.Value.tid list -> decision
(** The head of a runnable list.  {!Exec.run} never passes an empty
    one; were it to, the answer is a tid no thread has, not a failure. *)

val round_robin : unit -> t

val random : seed:int64 -> t
(** Uniform choice at every step. *)

val random_coarse : seed:int64 -> switch_denominator:int -> t
(** Random with inertia: keeps the current thread running, switching
    with probability [1/switch_denominator] per step — how naive stress
    testing behaves; a baseline for the race-directed scheduler. *)

val replay : decisions:Runtime.Value.tid list -> t
(** Follow a pre-recorded decision list; falls back to the first
    runnable thread when a decision is impossible. *)

val of_fun :
  name:string -> (Runtime.Machine.t -> Runtime.Value.tid list -> decision) -> t

val pct : seed:int64 -> depth:int -> expected_steps:int -> t
(** PCT — probabilistic concurrency testing (Burckhardt et al.,
    ASPLOS'10): random distinct priorities with [depth - 1] random
    priority-change points; always runs the highest-priority runnable
    thread.  Finds depth-[d] bugs with probability >= 1/(n·k^(d-1)). *)
