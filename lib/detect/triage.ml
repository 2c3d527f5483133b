(* Harmful/benign triage of confirmed races.

   The paper triages manually (§5): e.g. the 62 benign races of the
   Scanner class come from a reset method writing constants.  We
   mechanize the same judgement: a race is *benign* when forcing the
   racy interleaving cannot change observable state, and *harmful*
   otherwise.  Concretely we compare, over identical instantiations:

   - the fully serialized execution (thread A to completion, then B),
   - race-forced executions where the two racing accesses are executed
     back to back in both orders at the moment they are simultaneously
     enabled (lost updates surface here),

   and declare the race harmful if any final snapshot (hash of the heap
   reachable from the test roots) or crash outcome differs. *)

type verdict = Harmful | Benign

let verdict_to_string = function Harmful -> "harmful" | Benign -> "benign"

type outcome = {
  o_snapshot : Runtime.Snapshot.t;
  o_crashes : string list; (* crash reasons, sorted *)
  o_returns : string list; (* the racy threads' results, in thread order *)
}

let crashes_of m =
  List.sort String.compare
    (List.filter_map (Runtime.Machine.crash_reason m) (Runtime.Machine.threads m))

let snapshot_of (inst : Racefuzzer.instance) =
  Runtime.Snapshot.canonical
    (Runtime.Machine.heap inst.Racefuzzer.ri_machine)
    ~roots:inst.Racefuzzer.ri_roots

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

(* Serialized execution: run the racy threads one after the other in the
   given priority order (other threads, if any, after them). *)
let run_serialized (inst : Racefuzzer.instance) ~order ~fuel : outcome =
  let m = inst.Racefuzzer.ri_machine in
  (* Priority scheduling draws no randomness, so the replay loop can run
     on thread records with no per-step allocation: first runnable
     thread in [order], else first runnable in creation order — exactly
     the pick the tid-list version made.  [order] holds the racy
     threads, which exist before the run, so records resolve once. *)
  let order_ths =
    List.filter_map
      (fun tid ->
        List.find_opt
          (fun th -> Runtime.Machine.thread_id th = tid)
          (Runtime.Machine.all_threads m))
      order
  in
  let rec first_in_order = function
    | [] -> None
    | th :: rest ->
      if Runtime.Machine.runnable_th m th then Some th
      else first_in_order rest
  in
  let rec first_runnable = function
    | [] -> None
    | th :: rest ->
      if Runtime.Machine.runnable_th m th then Some th else first_runnable rest
  in
  let rec loop fuel =
    if fuel > 0 then begin
      let next =
        match first_in_order order_ths with
        | Some th -> Some th
        | None -> first_runnable (Runtime.Machine.all_threads m)
      in
      match next with
      | None -> ()
      | Some th ->
        ignore (Runtime.Machine.step_th m th);
        loop (fuel - 1)
    end
  in
  loop fuel;
  { o_snapshot = snapshot_of inst; o_crashes = crashes_of m; o_returns = returns_of inst }

let run_forced (inst : Racefuzzer.instance) ~cand ~first ~seed ~fuel : outcome =
  let m = inst.Racefuzzer.ri_machine in
  let on_confirm = if first then `Force_first () else `Force_second () in
  ignore (Racefuzzer.directed_run m ~cand ~seed ~fuel ~on_confirm);
  (* Drain whatever is left (directed_run drains after forcing, but if
     the pair never became simultaneously enabled some threads may
     remain). *)
  let rec first_runnable = function
    | [] -> None
    | th :: rest ->
      if Runtime.Machine.runnable_th m th then Some th else first_runnable rest
  in
  let rec drain fuel =
    if fuel > 0 then
      match first_runnable (Runtime.Machine.all_threads m) with
      | None -> ()
      | Some th ->
        ignore (Runtime.Machine.step_th m th);
        drain (fuel - 1)
  in
  drain fuel;
  { o_snapshot = snapshot_of inst; o_crashes = crashes_of m; o_returns = returns_of inst }

let equal_outcome (a : outcome) (b : outcome) =
  a.o_snapshot = b.o_snapshot
  && List.equal String.equal a.o_crashes b.o_crashes
  && List.equal String.equal a.o_returns b.o_returns

(* Triage a confirmed race.  [instantiate] must be deterministic: each
   call returns an independent instance in an identical initial state. *)
let triage ~(instantiate : Racefuzzer.instantiator)
    ~(cand : Racefuzzer.candidate) ?(seed = 7L) ?(fuel = 200_000) () :
    (verdict, string) result =
  let with_instance k =
    match instantiate () with
    | Error e -> Error e
    | Ok inst ->
      Obs.Metrics.incr (Obs.Metrics.global ()) "triage/replays";
      Ok (k inst)
  in
  let ( let* ) = Result.bind in
  let* baseline =
    with_instance (fun inst ->
        run_serialized inst ~order:inst.Racefuzzer.ri_threads ~fuel)
  in
  let* baseline_rev =
    with_instance (fun inst ->
        run_serialized inst ~order:(List.rev inst.Racefuzzer.ri_threads) ~fuel)
  in
  let* forced1 = with_instance (fun inst -> run_forced inst ~cand ~first:true ~seed ~fuel) in
  let* forced2 = with_instance (fun inst -> run_forced inst ~cand ~first:false ~seed ~fuel) in
  let differs o = not (equal_outcome baseline o) in
  if differs baseline_rev || differs forced1 || differs forced2 then Ok Harmful
  else Ok Benign
