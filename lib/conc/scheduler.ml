(* Thread schedulers for the Jir VM.

   A scheduler picks which runnable thread steps next; it is consulted
   at every instruction, which is the granularity race-directed testing
   needs.  All schedulers are deterministic given their seed, so any
   execution can be replayed exactly. *)

module M = Runtime.Machine

(* A scheduler: given the machine, its runnability test and its live
   threads in creation order, pick a runnable one; [None] only when
   there is none.  A scheduler draws nothing when it answers [None], so
   a run's random stream depends only on the picks it made.  Thread ids
   grow with creation, so creation order is tid order.  State a
   scheduler keeps across picks names threads by tid, not by record: a
   scheduler may drive a copy of the machine it started on. *)
type t = M.t -> (M.thread -> bool) -> M.thread list -> M.thread option

(* The uniform pick: count the elements [p] accepts, draw one index
   over that count, fetch that element.  Only accepted elements are
   counted and indexed, so dropping elements [p] rejects from the list
   changes neither the draw nor the answer: the drivers walk the
   machine's live threads, not every thread it ever had.  The two walks
   allocate nothing but the answer's [Some].  With nothing accepted
   there is no draw and no answer; a draw outside [0, count) also gets
   none. *)
let rec count_where p acc = function
  | [] -> acc
  | x :: rest -> count_where p (if p x then acc + 1 else acc) rest

let rec nth_where p i = function
  | [] -> None
  | x :: rest ->
    if p x then if i = 0 then Some x else nth_where p (i - 1) rest
    else nth_where p i rest

let pick_where p draw l =
  match count_where p 0 l with 0 -> None | k -> nth_where p (draw k) l

(* The runnable live thread with id [tid], if any. *)
let runnable_tid runnable tid live =
  List.find_opt (fun th -> M.thread_id th = tid && runnable th) live

let round_robin () : t =
  let last = ref (-1) in
  fun _m runnable live ->
    let next =
      match List.find_opt (fun th -> runnable th && M.thread_id th > !last) live with
      | Some _ as next -> next
      | None -> List.find_opt runnable live
    in
    Option.iter (fun th -> last := M.thread_id th) next;
    next

(* One draw per pick, bound = #runnable, and none when nothing is
   runnable.  Built once per stream, so a pick allocates only its
   answer. *)
let of_rng rng : t =
  let draw = Rng.below rng in
  fun _m runnable live -> pick_where runnable draw live

let random ~seed = of_rng (Rng.create seed)

(* Random scheduler with inertia: keeps running the same thread for a
   geometric number of steps before switching.  This explores coarser
   interleavings, which is how naive stress testing behaves and is a
   useful baseline against the race-directed scheduler.  The switch
   coin is drawn only while the current thread is runnable. *)
let random_coarse ~seed ~switch_denominator : t =
  let rng = Rng.create seed in
  let draw = Rng.below rng in
  let current = ref (-1) in
  fun _m runnable live ->
    match runnable_tid runnable !current live with
    | Some _ as stay when Rng.below rng switch_denominator <> 0 -> stay
    | Some _ | None ->
      let next = pick_where runnable draw live in
      Option.iter (fun th -> current := M.thread_id th) next;
      next

(* A scheduler driven by an explicit pre-recorded decision list; used
   for schedule replay.  Falls back to the first runnable thread when a
   recorded decision is impossible (the usual replay divergence rule). *)
let replay ~decisions : t =
  let remaining = ref decisions in
  fun _m runnable live ->
    match List.find_opt runnable live with
    | None -> None
    | Some _ as first -> (
      match !remaining with
      | d :: rest -> (
        remaining := rest;
        match runnable_tid runnable d live with Some _ as th -> th | None -> first)
      | [] -> first)

let prioritized order : t =
 fun _m runnable live ->
  match List.find_opt runnable order with
  | Some _ as th -> th
  | None -> List.find_opt runnable live

(* PCT — probabilistic concurrency testing (Burckhardt et al., ASPLOS'10).
   Threads get distinct random priorities; at [depth - 1] pre-chosen step
   indices the currently running thread's priority drops below all
   others.  Always runs the highest-priority runnable thread, which
   finds any bug of depth d with probability >= 1/(n * k^(d-1)). *)
let pct ~seed ~depth ~expected_steps : t =
  let rng = Rng.create seed in
  (* priorities: large random values, lazily assigned per thread *)
  let prio : (Runtime.Value.tid, int) Hashtbl.t = Hashtbl.create 8 in
  let next_low = ref 0 in
  let priority tid =
    match Hashtbl.find_opt prio tid with
    | Some p -> p
    | None ->
      let p = 1000 + Rng.below rng 1_000_000 in
      Hashtbl.replace prio tid p;
      p
  in
  let change_points =
    List.init (max 0 (depth - 1)) (fun _ -> Rng.below rng (max 1 expected_steps))
  in
  let step = ref 0 in
  fun _m runnable live ->
    (* Priorities are assigned as the fold first compares a thread. *)
    let best =
      List.fold_left
        (fun acc th ->
          if not (runnable th) then acc
          else
            match acc with
            | None -> Some th
            | Some b ->
              if priority (M.thread_id th) > priority (M.thread_id b) then Some th
              else acc)
        None live
    in
    Option.iter
      (fun th ->
        if List.mem !step change_points then begin
          (* demote the running thread below every other priority *)
          decr next_low;
          Hashtbl.replace prio (M.thread_id th) !next_low
        end;
        incr step)
      best;
    best
