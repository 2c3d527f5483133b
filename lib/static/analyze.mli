(** Driver for the static tier: per-class summaries (optionally backed
    by a digest-keyed {!Cache}) linked into whole-program facts plus
    racy-pair candidates, and the membership query used by the
    dynamic-pipeline filter and the Crucible oracles. *)

(** Planted unsoundness for validating the Crucible oracles:
    [Drop_sync] drops all accesses inside sync regions before pairing;
    [Stale_cache] keys the summary cache by class name instead of
    content digest, so warm analyses reuse stale summaries after an
    edit. *)
type mutation = Drop_sync | Stale_cache

type t

val run :
  ?mutate:mutation -> ?open_world:bool -> ?cache:Cache.t -> Jir.Program.t -> t
(** Deterministic; safe to call from parallel domains when each call
    has its own (or no) cache.  [~open_world:true] analyzes the unit
    as a library driven by an unknown multithreaded client — the mode
    used by [narada lint] and the pipeline's static filter, where the
    seed test is sequential and threads come from synthesized tests.
    With [~cache], summaries of classes whose digests are present are
    reused and only the linking phase runs; results are identical to a
    cache-less run. *)

val candidates : t -> Dom.cand list
val accesses : t -> Dom.acc list
val regions : t -> Dom.region list
val shared : t -> Dom.Sites.t
val prog : t -> Jir.Program.t
val site_info : t -> Dom.site -> Dom.site_info

val covers : t -> field:string -> m1:string -> m2:string -> bool
(** Is the dynamic race identity (field, unordered {m1, m2}) — where
    [m1]/[m2] are method qnames as the VM names sites — covered by
    some static candidate?  The key table is built lazily on first
    use. *)
