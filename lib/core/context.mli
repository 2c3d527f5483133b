(** Context derivation: the Q query rules of Fig. 10 (§3.3).

    Given the owner path of a racy access, derive a *recipe* — a method
    sequence with parameter flows — whose execution makes the owner's
    field path point at a chosen shared object.  Implements *set*,
    *concat* and *deep-set* (deep-set falls out of the trace-based D),
    plus factory setters and constructor rebuilding. *)

type recipe =
  | Share_owner  (** empty path: share the owner object itself *)
  | Apply of { setter : Summary.setter; payload : payload }

and payload =
  | Shared  (** pass the shared object directly *)
  | Prepared of { cls : string option; recipe : recipe }
      (** obtain an instance, pre-wire it with [recipe], pass it *)

val recipe_to_string : recipe -> string

val recipe_depth : recipe -> int
(** Number of setter invocations in the sequence. *)

val derive :
  Jir.Program.t ->
  Summary.t ->
  owner_cls:string option ->
  path:string list ->
  recipe option
(** Derive a recipe making [owner.path] point at a shared object, for an
    owner of the given class.  Deterministic; prefers the shortest
    method sequence. *)

(** A plan for one racy-pair endpoint: the full-path recipe when
    derivable, otherwise the best strict-prefix recipe ("we attempt to
    assign the prefixes of the dereference", §4) — tests built from
    prefix plans may expose no race (Fig. 14's zero-race bars). *)
type plan = {
  plan_recipe : recipe option;
  plan_prefix : (string list * recipe) option;
}

val plan_for :
  Jir.Program.t ->
  Summary.t ->
  owner_cls:string option ->
  path:string list ->
  plan
