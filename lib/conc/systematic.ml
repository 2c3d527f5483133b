(* CHESS-style stateless systematic exploration with iterative
   preemption bounding (Musuvathi & Qadeer, PLDI'07 — [13] in the
   paper).

   Exploration is stateless, by *replay*: each execution follows a
   prescribed decision prefix and then a deterministic non-preemptive
   default (keep running the current thread while it can).  Every
   scheduling point past the prefix contributes the untaken alternatives
   as new prefixes, pruned by the preemption bound.  Each replay starts
   from a fresh instance; the synthesizer's instantiators hand out a
   copy of one initial machine ([Runtime.Machine.copy]) per call, so a
   replay costs no seed re-execution.  Mid-run states are not
   snapshotted: every replay re-executes its prefix. *)

type config = {
  sc_max_steps : int; (* per execution *)
  sc_preemption_bound : int; (* preemptions allowed past the initial one *)
  sc_max_executions : int; (* exploration budget *)
}

let default_config =
  { sc_max_steps = 20_000; sc_preemption_bound = 2; sc_max_executions = 2_000 }

type outcome =
  | Finished
  | Deadlocked of Runtime.Value.tid list
  | Step_limit

type stats = {
  st_executions : int;
  st_deadlocks : int;
  st_exhausted : bool; (* true when the budget cut exploration short *)
}

(* One replayed execution.  Returns the outcome, the full schedule taken
   and the branch alternatives discovered past the prefix (with their
   preemption counts). *)
let run_one (m : Runtime.Machine.t) ~(prefix : (Runtime.Value.tid * int) list)
    ~(config : config) :
    outcome * (Runtime.Value.tid * int) list list =
  let alternatives = ref [] in
  let schedule = ref [] in (* reversed (tid, preemptions-so-far) *)
  let prefix = Array.of_list prefix in
  let rec go i preemptions =
    if i >= config.sc_max_steps then Step_limit
    else
      match Runtime.Machine.runnable_tids m with
      | [] ->
        if Runtime.Machine.live_tids m = [] then Finished
        else Deadlocked (Runtime.Machine.live_tids m)
      | first :: _ as runnable ->
        let last =
          match !schedule with (t, _) :: _ -> Some t | [] -> None
        in
        let default =
          match last with
          | Some t when List.mem t runnable -> t
          | Some _ | None -> first
        in
        let choice, preemptions =
          if i < Array.length prefix then
            let t, p = prefix.(i) in
            if List.mem t runnable then (t, p) else (default, preemptions)
          else begin
            (* collect the untaken alternatives at this fresh point *)
            List.iter
              (fun t ->
                if t <> default then begin
                  let is_preemption =
                    match last with
                    | Some l -> List.mem l runnable && t <> l
                    | None -> false
                  in
                  let p' = preemptions + if is_preemption then 1 else 0 in
                  if p' <= config.sc_preemption_bound then
                    alternatives :=
                      (List.rev ((t, p') :: !schedule)) :: !alternatives
                end)
              runnable;
            (default, preemptions)
          end
        in
        schedule := (choice, preemptions) :: !schedule;
        (match Runtime.Machine.step m choice with
        | Runtime.Machine.Stepped | Runtime.Machine.Blocked
        | Runtime.Machine.Not_runnable ->
          ());
        go (i + 1) preemptions
  in
  let outcome = go 0 0 in
  (outcome, !alternatives)

(* Explore all schedules of [restart]'s program within the bounds.
   [on_execution] sees the machine after each completed execution (so
   callers can attach detectors inside [restart] and read them here). *)
let explore ?(config = default_config)
    ~(restart : unit -> (Runtime.Machine.t, string) result)
    ?(on_execution = fun (_ : Runtime.Machine.t) (_ : outcome) -> ()) () :
    (stats, string) result =
  let pending : (Runtime.Value.tid * int) list Queue.t = Queue.create () in
  Queue.add [] pending;
  let executions = ref 0 in
  let deadlocks = ref 0 in
  let exhausted = ref false in
  let error = ref None in
  while (not (Queue.is_empty pending)) && !error = None do
    if !executions >= config.sc_max_executions then begin
      exhausted := true;
      Queue.clear pending
    end
    else
      let prefix = Queue.pop pending in
      match restart () with
      | Error e -> error := Some e
      | Ok m ->
        incr executions;
        let outcome, alternatives = run_one m ~prefix ~config in
        (match outcome with
        | Deadlocked _ -> incr deadlocks
        | Finished | Step_limit -> ());
        on_execution m outcome;
        List.iter (fun alt -> Queue.add alt pending) alternatives
  done;
  match !error with
  | Some e -> Error e
  | None ->
    Ok
      {
        st_executions = !executions;
        st_deadlocks = !deadlocks;
        st_exhausted = !exhausted;
      }
