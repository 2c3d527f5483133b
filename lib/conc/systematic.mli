(** CHESS-style stateless systematic exploration with preemption
    bounding (Musuvathi & Qadeer, PLDI'07).

    Exploration is by replay: every execution follows a decision prefix
    and then a non-preemptive default; untaken alternatives past the
    prefix become new prefixes, pruned by the preemption bound.  The
    [restart] function must return an independent instance in an
    identical initial state for each replay (the synthesizer's
    instantiators qualify: they copy one template machine per call). *)

type config = {
  sc_max_steps : int;
  sc_preemption_bound : int;
  sc_max_executions : int;
}

val default_config : config

type outcome =
  | Finished
  | Deadlocked of Runtime.Value.tid list
  | Step_limit

type stats = {
  st_executions : int;
  st_deadlocks : int;
  st_exhausted : bool;  (** budget cut exploration short *)
}

val explore :
  ?config:config ->
  restart:(unit -> (Runtime.Machine.t, string) result) ->
  ?on_execution:(Runtime.Machine.t -> outcome -> unit) ->
  unit ->
  (stats, string) result
