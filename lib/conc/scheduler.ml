(* Thread schedulers for the Jir VM.

   A scheduler picks which runnable thread steps next; it is consulted
   at every instruction, which is the granularity race-directed testing
   needs.  All schedulers are deterministic given their seed, so any
   execution can be replayed exactly. *)

type decision = Runtime.Value.tid

(* A scheduler: given the machine and the runnable thread ids (non-empty,
   ascending), choose one.

   [choose_idx], when present, is the *same* decision expressed as an
   index into the runnable list given only its length.  Schedulers that
   never inspect the candidate tids (e.g. uniform random) provide it so
   the executor's hot loop can skip materializing a tid list; both paths
   must consume the scheduler's random stream identically, so an
   execution is bit-for-bit the same whichever one the driver calls. *)
type t = {
  name : string;
  choose : Runtime.Machine.t -> Runtime.Value.tid list -> decision;
  choose_idx : (int -> int) option;
}

let name t = t.name

let choose t m runnable = t.choose m runnable

let choose_idx t = t.choose_idx
[@@inline]

(* The uniform pick every driver loop shares: count the elements [p]
   accepts, draw one index over that count, fetch that element.  Only
   accepted elements are counted and indexed, so dropping elements [p]
   rejects from the list changes neither the draw nor the answer: the
   drivers walk the machine's live threads, not every thread it ever
   had.  The two walks allocate nothing but the answer's [Some].  With
   nothing accepted there is no draw and no answer; a draw outside
   [0, count) also gets none. *)
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

(* [Exec.run] consults [choose] only when some thread is runnable, so
   the choosers below never see an empty list.  Were one to, they
   answer [nobody], a tid no thread has, rather than fail. *)
let nobody : decision = -1

let first = function tid :: _ -> tid | [] -> nobody

let any _ = true

(* Per-scheduler stream: the shared unbiased generator. *)
let mk_rng seed = Rng.create seed

let rand_below = Rng.below

let round_robin () =
  let last = ref (-1) in
  {
    name = "round-robin";
    choose =
      (fun _m runnable ->
        let next =
          match List.find_opt (fun t -> t > !last) runnable with
          | Some t -> t
          | None -> first runnable
        in
        last := next;
        next);
    choose_idx = None;
  }

let random ~seed =
  let draw = rand_below (mk_rng seed) in
  (* One draw per decision, bound = #runnable, on both paths: the RNG
     stream cannot depend on which interface the driver uses. *)
  {
    name = Printf.sprintf "random(%Ld)" seed;
    choose =
      (fun _m runnable -> Option.value ~default:nobody (pick_where any draw runnable));
    choose_idx = Some draw;
  }

(* Random scheduler with inertia: keeps running the same thread for a
   geometric number of steps before switching.  This explores coarser
   interleavings, which is how naive stress testing behaves and is a
   useful baseline against the race-directed scheduler. *)
let random_coarse ~seed ~switch_denominator =
  let rng = mk_rng seed in
  let draw = rand_below rng in
  let current = ref (-1) in
  {
    name = Printf.sprintf "random-coarse(%Ld)" seed;
    choose =
      (fun _m runnable ->
        if List.mem !current runnable && rand_below rng switch_denominator <> 0
        then !current
        else (
          let t = Option.value ~default:nobody (pick_where any draw runnable) in
          current := t;
          t));
    choose_idx = None;
  }

(* A scheduler driven by an explicit pre-recorded decision list; used
   for schedule replay.  Falls back to the first runnable thread when a
   recorded decision is impossible (the usual replay divergence rule). *)
let replay ~decisions =
  let remaining = ref decisions in
  {
    name = "replay";
    choose =
      (fun _m runnable ->
        match !remaining with
        | d :: rest when List.mem d runnable ->
          remaining := rest;
          d
        | _ :: rest ->
          remaining := rest;
          first runnable
        | [] -> first runnable);
    choose_idx = None;
  }

(* A custom scheduler from a function (used by RaceFuzzer). *)
let of_fun ~name choose = { name; choose; choose_idx = None }

(* PCT — probabilistic concurrency testing (Burckhardt et al., ASPLOS'10).
   Threads get distinct random priorities; at [depth - 1] pre-chosen step
   indices the currently running thread's priority drops below all
   others.  Always runs the highest-priority runnable thread, which
   finds any bug of depth d with probability >= 1/(n * k^(d-1)). *)
let pct ~seed ~depth ~expected_steps =
  let rng = mk_rng seed in
  (* priorities: large random values, lazily assigned per thread *)
  let prio : (Runtime.Value.tid, int) Hashtbl.t = Hashtbl.create 8 in
  let next_low = ref 0 in
  let priority tid =
    match Hashtbl.find_opt prio tid with
    | Some p -> p
    | None ->
      let p = 1000 + rand_below rng 1_000_000 in
      Hashtbl.replace prio tid p;
      p
  in
  let change_points =
    List.init (max 0 (depth - 1)) (fun _ -> rand_below rng (max 1 expected_steps))
  in
  let step = ref 0 in
  {
    name = Printf.sprintf "pct(d=%d,%Ld)" depth seed;
    choose =
      (fun _m runnable ->
        let best =
          List.fold_left
            (fun acc tid ->
              match acc with
              | None -> Some tid
              | Some b -> if priority tid > priority b then Some tid else acc)
            None runnable
        in
        (* [None] only for an empty list. *)
        let tid = Option.value ~default:nobody best in
        if List.mem !step change_points then begin
          (* demote the running thread below every other priority *)
          decr next_low;
          Hashtbl.replace prio tid !next_low
        end;
        incr step;
        tid);
    choose_idx = None;
  }
