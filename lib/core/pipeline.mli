(** End-to-end Narada pipeline (Fig. 6): sequential seed execution →
    access analysis → pair generation → context derivation → test
    synthesis, with wall-clock timing for the Table 4 reproduction. *)

type analysis = {
  an_cu : Jir.Code.unit_;
  an_client_classes : Jir.Ast.id list;
  an_seed_cls : Jir.Ast.id;
  an_seed_meth : Jir.Ast.id;
  an_trace_len : int;
  an_access : Access.result;
  an_pairs : Pairs.pair list;
  an_pairs_pruned : int;
      (** pairs removed by the static filter (0 when off) *)
  an_static_filter : bool;
  an_tests : Synth.test list;
  an_seconds : float;
  an_backend : Backend.t;  (** the compiled code of [an_cu] *)
}

val analyze :
  ?seed:int64 ->
  ?static_filter:bool ->
  ?static_cache:Static.Cache.t ->
  ?backend:Backend.kind ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  seed_cls:Jir.Ast.id ->
  seed_meth:Jir.Ast.id ->
  (analysis, string) result
(** [~static_filter:true] intersects the generated pairs with the
    static race analyzer's candidate set before synthesis; kept and
    pruned counts are reported separately so unfiltered totals stay
    reconstructible.  [~static_cache] backs the filter's per-class
    summaries, so repeated analyses (the serve daemon) pay only the
    static linking phase.  [backend] names the one engine
    ({!Backend.Compiled}); its code is looked up (compiled on first
    use) here, once per analysis.  [analyze] is {!Runtime.Interp.record}
    at [seed] (in the ["pipeline/trace"] span) followed by the stages of
    {!of_trace}. *)

val of_trace :
  backend:Backend.kind ->
  Jir.Code.unit_ ->
  client_classes:Jir.Ast.id list ->
  seed_cls:Jir.Ast.id ->
  seed_meth:Jir.Ast.id ->
  Runtime.Trace.t ->
  analysis
(** The stages of {!analyze} after its recording (access analysis →
    pairs → synthesis, without the static filter) over [trace], a
    recorded successful run of [seed_cls.seed_meth()] on [cu].  They run
    in the same root ["pipeline"] span, which has no ["trace"] child
    here; [an_seconds] counts the stages only.  A caller that already
    executed the seed test (repair, which also reads the run's output
    and lock order) analyzes that one recording instead of running the
    program again. *)

val analyze_source :
  ?static_filter:bool ->
  string ->
  client_classes:Jir.Ast.id list ->
  seed_cls:Jir.Ast.id ->
  seed_meth:Jir.Ast.id ->
  (analysis, string) result
(** Parse, compile and {!analyze} Jir source text, at the machine's
    default seed and without a summary cache. *)

val instantiator : analysis -> Synth.test -> Detect.Racefuzzer.instantiator
(** {!Synth.instantiator} on the analysis's program, staged the same
    way: [instantiator an] holds one endpoint-A replay memo for the
    tests it is applied to. *)

val summary_to_string : analysis -> string
