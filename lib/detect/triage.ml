(* Harmful/benign triage of confirmed races.

   The paper triages manually (§5): e.g. the 62 benign races of the
   Scanner class come from a reset method writing constants.  We
   mechanize the same judgement: a race is *benign* when forcing the
   racy interleaving cannot change observable state, and *harmful*
   otherwise.  Concretely we compare, from identical initial states:

   - the fully serialized executions (thread A to completion, then B,
     and the reverse),
   - race-forced executions where the two racing accesses are executed
     back to back in both orders at the moment they are simultaneously
     enabled (lost updates surface here),

   and declare the race harmful if any final snapshot (hash of the heap
   reachable from the test roots), crash set or racy-thread result
   differs.

   The verdict is that disjunction read in order, running only what it
   still depends on.  The two serialized baselines come first: they
   depend on the test alone (priority scheduling draws no randomness),
   so they run once per test ([baselines]), and when they differ every
   race of the test is harmful whatever the forced orders do, so those
   are not needed.  Otherwise the two forced runs share their directed
   prefix, which is exactly the confirmation's run 0 at the same seed
   (every run here, like every directed run, is bounded by
   [Racefuzzer.fuel]), so they fork from where that run stopped
   ([forced]): one copy of the poised machine and its scheduler RNG
   runs one order, the original the other.  A run 0 that never
   confirmed is both forced runs at once.  No run is replayed from
   scratch per race. *)

type verdict = Harmful | Benign

let verdict_to_string = function Harmful -> "harmful" | Benign -> "benign"

type outcome = {
  o_snapshot : Runtime.Snapshot.t;
  o_crashes : string list;
  o_returns : string list;
}

let crashes_of m =
  List.sort String.compare
    (List.filter_map (Runtime.Machine.crash_reason m) (Runtime.Machine.threads m))

(* What the racy threads returned is client-observable: a stale read
   (e.g. a getter racing an increment) is order-sensitive and therefore
   harmful even when the final heap is identical.  Reference results are
   canonicalized through the snapshot machinery. *)
let returns_of (inst : Racefuzzer.instance) =
  let m = inst.Racefuzzer.ri_machine in
  List.map
    (fun tid ->
      match Runtime.Machine.status m tid with
      | Runtime.Machine.Finished (Some (Runtime.Value.Vref _ as v)) ->
        Runtime.Snapshot.to_string
          (Runtime.Snapshot.canonical (Runtime.Machine.heap m) ~roots:[ v ])
      | Runtime.Machine.Finished (Some v) -> Runtime.Value.to_string v
      | Runtime.Machine.Finished None -> "()"
      | Runtime.Machine.Crashed msg -> "crash:" ^ msg
      | Runtime.Machine.Runnable | Runtime.Machine.Blocked_lock _
      | Runtime.Machine.Blocked_join _ | Runtime.Machine.Suspended ->
        "stuck")
    inst.Racefuzzer.ri_threads

let observe (inst : Racefuzzer.instance) =
  let m = inst.Racefuzzer.ri_machine in
  {
    o_snapshot =
      Runtime.Snapshot.canonical (Runtime.Machine.heap m) ~roots:inst.Racefuzzer.ri_roots;
    o_crashes = crashes_of m;
    o_returns = returns_of inst;
  }

let equal_outcome (a : outcome) (b : outcome) =
  a.o_snapshot = b.o_snapshot
  && List.equal String.equal a.o_crashes b.o_crashes
  && List.equal String.equal a.o_returns b.o_returns

(* Run to completion under priority scheduling: the first runnable
   thread of [order], else the first runnable in creation order.
   [order] names threads that exist before the run, so their records
   resolve once. *)
let run_prioritized (inst : Racefuzzer.instance) ~order : outcome =
  let m = inst.Racefuzzer.ri_machine in
  let order_ths =
    List.filter_map
      (fun tid ->
        List.find_opt
          (fun th -> Runtime.Machine.thread_id th = tid)
          (Runtime.Machine.all_threads m))
      order
  in
  ignore
    (Conc.Exec.run ~fuel:Racefuzzer.fuel m (Conc.Scheduler.prioritized order_ths));
  observe inst

type baselines = { b_serial : outcome; b_serial_rev : outcome }

let baselines ~(instantiate : Racefuzzer.instantiator) =
  let serialized reorder =
    match instantiate () with
    | Error e -> Error e
    | Ok inst ->
      Obs.Metrics.incr (Obs.Metrics.global ()) "triage/replays";
      Ok (run_prioritized inst ~order:(reorder inst.Racefuzzer.ri_threads))
  in
  Result.bind (serialized Fun.id) (fun b_serial ->
      Result.map
        (fun b_serial_rev -> { b_serial; b_serial_rev })
        (serialized List.rev))

type evidence = {
  e_serial : outcome;
  e_serial_rev : outcome;
  e_forced : (outcome * outcome) option;
}

let serial_orders_differ (b : baselines) = not (equal_outcome b.b_serial b.b_serial_rev)

(* Execute the poised accesses back to back, [a]'s first, finish the
   directed run under random scheduling from its RNG with the fuel it
   had left, then run whatever is still runnable in creation order with
   the full [Racefuzzer.fuel]. *)
let force (inst : Racefuzzer.instance) rng ~fuel_left a b =
  let m = inst.Racefuzzer.ri_machine in
  ignore (Runtime.Machine.step_th m (Runtime.Machine.find_thread m a));
  ignore (Runtime.Machine.step_th m (Runtime.Machine.find_thread m b));
  ignore (Conc.Exec.run ~fuel:fuel_left m (Conc.Scheduler.of_rng rng));
  run_prioritized inst ~order:[]

let forced (re : Racefuzzer.run_end) =
  let inst = re.Racefuzzer.re_inst in
  match re.Racefuzzer.re_report with
  | None ->
    let o = run_prioritized inst ~order:[] in
    (o, o)
  | Some r ->
    (* Fork before either order runs. *)
    let m = inst.Racefuzzer.ri_machine in
    let fork = { inst with Racefuzzer.ri_machine = Runtime.Machine.copy m } in
    let fork_rng = Rng.copy re.Racefuzzer.re_rng in
    let t1 = r.Race.r_first.Race.a_tid and t2 = r.Race.r_second.Race.a_tid in
    let fuel_left = re.Racefuzzer.re_fuel in
    let first = force fork fork_rng ~fuel_left t1 t2 in
    (first, force inst re.Racefuzzer.re_rng ~fuel_left t2 t1)

let evidence (b : baselines) forced =
  {
    e_serial = b.b_serial;
    e_serial_rev = b.b_serial_rev;
    e_forced = (if serial_orders_differ b then None else forced);
  }

let judge (e : evidence) =
  let differs o = not (equal_outcome e.e_serial o) in
  if differs e.e_serial_rev then Harmful
  else
    match e.e_forced with
    | Some (first, rev) -> if differs first || differs rev then Harmful else Benign
    | None -> invalid_arg "Triage.judge: agreeing serial orders without forced orders"

let triage ~(instantiate : Racefuzzer.instantiator)
    ~(cand : Racefuzzer.candidate) ?(seed = 7L) () : (verdict, string) result =
  Result.bind (baselines ~instantiate) (fun b ->
      let pair =
        if serial_orders_differ b then Ok None
        else
          Result.map
            (fun inst ->
              Obs.Metrics.incr (Obs.Metrics.global ()) "triage/replays";
              let re, _ = Racefuzzer.directed_run inst ~cand ~seed ~fuel:Racefuzzer.fuel in
              Some (forced re))
            (instantiate ())
      in
      Result.map (fun pair -> judge (evidence b pair)) pair)
