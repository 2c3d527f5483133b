(** Test synthesis (§3.4, Algorithm 1).

    [plan] groups racy pairs into tests; [instantiate] executes the
    collectObjects / shareObjects phases on a fresh machine — seed
    replays suspended before the invocations of interest, context
    recipes applied so the owners alias — and spawns the two racy
    threads, unscheduled.  Schedulers and detectors take over from the
    returned {!Detect.Racefuzzer.instance}.  [instantiator] shares
    endpoint A's seed replay among the tests of one program. *)

type test = {
  st_id : int;
  st_pair : Pairs.pair;
  st_plan_a : Context.plan;
  st_plan_b : Context.plan;
  st_seed_cls : Jir.Ast.id;
  st_seed_meth : Jir.Ast.id;
}

val dedup_key : Pairs.pair -> string * string * string
(** One test per unordered method pair and racy field (§5). *)

val plan :
  Jir.Program.t ->
  Summary.t ->
  seed_cls:Jir.Ast.id ->
  seed_meth:Jir.Ast.id ->
  Pairs.pair list ->
  test list

val instantiate :
  ?apply_context:bool ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  test ->
  (Detect.Racefuzzer.instance, string) result
(** The test's initial state, on a machine created at
    {!Runtime.Machine.default_seed}, where every seed replay runs.
    [apply_context:false] skips the shareObjects phase (used by the
    ablation [narada eval] prints, to show that context derivation is
    what exposes the races). *)

val instantiator :
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  test ->
  Detect.Racefuzzer.instantiator
(** Staged.  Applied to a program, it allocates one memo of endpoint-A
    seed replays that every test it is then applied to shares: the
    machine left by the replay suspended before A's invocation (never
    stepped) and its capture, or the replay's [Error], keyed by the seed
    method and A's qname and occurrence.  A test whose key is already
    there replays endpoint B, and runs shareObjects and the spawns, on a
    {!Runtime.Machine.copy} of that machine, so its template equals the
    one {!instantiate} builds.  Each replay adds 1 to the volatile
    ["synth/seed_replays"] gauge.  The memo lives as long as the staged
    value (and the instantiators made from it), so apply it once per
    scan over one analysis's tests and drop it afterwards.

    Applied to a test, it builds the test's initial state once, on the
    first call, and returns an independent {!Runtime.Machine.copy} of it
    on every call: each instance starts from an identical state and none
    shares mutable state with another.  A build [Error] is returned by
    every call.  Safe to call from several domains; the first calls
    build the template exactly once (each build adds 1 to the volatile
    ["synth/templates"] gauge). *)

val to_source : test -> string
(** Render the test as readable Jir-like pseudocode (the paper's
    Fig. 3 shape). *)
