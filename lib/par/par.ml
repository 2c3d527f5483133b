(* Deterministic spawn-and-join fan-out.  See par.mli.

   A fan-out spawns its width of domains, which claim one input index
   at a time from one atomic cursor until it runs past the input, and
   joins them all before it returns: [Domain.join] is the completion
   latch.  Indices handed out in order from one cursor balance
   themselves (a worker that drew a slow input simply draws fewer), so
   there are no per-worker queues and nothing to steal, and the tail is
   bounded by one input.  Determinism is structural: result [i] is
   written for input [i] whatever worker ran it, and a failure keeps
   the smallest failing index.

   The width is clamped to {!max_domains} (default: the recommended
   domain count).  Running more worker domains than cores inverts the
   speed-up: OCaml's minor collections are stop-the-world across all
   domains, and a descheduled domain stalls every collection.  Nor do
   workers outlive their fan-out: parked domains still take part in
   every stop-the-world minor collection of the sequential code around
   it. *)

(* splitmix64 finalizer over base + (index+1) * golden gamma. *)
let seed ~base ~index =
  let open Int64 in
  let s = add base (mul (of_int (index + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let default_jobs () = Domain.recommended_domain_count ()

(* Fan-out width cap for [map]/[mapi].  Overridable for tests (which
   want to exercise multi-domain merging even on small machines) and
   via NARADA_PAR_MAX_DOMAINS for operational tuning. *)
let max_domains_override = Atomic.make 0

let max_domains () =
  match Atomic.get max_domains_override with
  | n when n > 0 -> n
  | _ -> (
    match Option.bind (Sys.getenv_opt "NARADA_PAR_MAX_DOMAINS") int_of_string_opt with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())

let set_max_domains n = Atomic.set max_domains_override (max 1 n)

(* Keep the failure of the smallest input index, whatever worker meets
   its failure first. *)
let rec record_failure failed i e =
  match Atomic.get failed with
  | Some (j, _) when j <= i -> ()
  | cur ->
    if not (Atomic.compare_and_set failed cur (Some (i, e))) then record_failure failed i e

(* Per-worker executed inputs and idle time, as volatile gauges: a
   worker is idle from its last input's end to the fan-out's end. *)
let flush_gauges ends =
  let reg = Obs.Metrics.global () in
  let last = Array.fold_left (fun acc (_, t) -> max acc t) 0L ends in
  Obs.Metrics.gauge_add reg "par/pool/chunks"
    (float_of_int (Array.fold_left (fun acc (c, _) -> acc + c) 0 ends));
  Array.iteri
    (fun w (tasks, t) ->
      Obs.Metrics.gauge_add reg
        (Printf.sprintf "par/pool/worker%d/tasks" w)
        (float_of_int tasks);
      Obs.Metrics.gauge_add reg
        (Printf.sprintf "par/pool/worker%d/idle_s" w)
        (Int64.to_float (Int64.sub last t) /. 1e9))
    ends

let mapi ?jobs xs f =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = List.length xs in
  let width = min n (min jobs (max_domains ())) in
  if width <= 1 then List.mapi f xs
  else begin
    let input = Array.of_list xs in
    let out = Array.make n None in
    let cursor = Atomic.make 0 in
    let failed = Atomic.make None in
    let worker () =
      let tasks = ref 0 in
      let rec take () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          incr tasks;
          (try out.(i) <- Some (f i input.(i)) with e -> record_failure failed i e);
          take ()
        end
      in
      take ();
      (!tasks, Obs.Clock.ticks ())
    in
    let spawned = ref [] in
    (try
       for _ = 1 to width do
         spawned := Domain.spawn worker :: !spawned
       done
     with e ->
       (* Out of domains: the ones already running drain the cursor. *)
       List.iter (fun d -> ignore (Domain.join d)) !spawned;
       raise e);
    flush_gauges (Array.of_list (List.rev_map Domain.join !spawned));
    (* With no failure recorded every input wrote its slot, so
       [Option.get] cannot raise. *)
    match Atomic.get failed with
    | Some (_, e) -> raise e
    | None -> Array.to_list (Array.map Option.get out)
  end

let map ?jobs xs f = mapi ?jobs xs (fun _ x -> f x)

(* Shared, string-keyed publish-once caches.

   The steady state is a lock-free read: values are published into an
   immutable map held in an [Atomic], so worker domains on the campaign
   hot path never touch a lock (an earlier version computed *inside* a
   global mutex, and at jobs=4 every domain convoyed on it).  The slow
   path keeps "compute at most once" semantics by claiming an
   in-progress marker under [mu], computing *outside* the lock, and
   publishing under the lock; racing domains wait on the condvar
   instead of recomputing.

   Instantiated by the corpus registry for compiled units and by the
   runtime for digest-keyed compiled code. *)
module SMap = Map.Make (String)

module Keyed_cache (V : sig
  type t
end) =
struct
  type t = {
    published : V.t SMap.t Atomic.t;
    mu : Mutex.t;
    done_ : Condition.t;
    in_progress : (string, unit) Hashtbl.t;
  }

  let create () =
    {
      published = Atomic.make SMap.empty;
      mu = Mutex.create ();
      done_ = Condition.create ();
      in_progress = Hashtbl.create 8;
    }

  let rec find_or_compute t key (compute : unit -> V.t) : V.t =
    match SMap.find_opt key (Atomic.get t.published) with
    | Some v -> v (* lock-free fast path *)
    | None ->
      Mutex.lock t.mu;
      (* Double-check under the lock: a racing domain may have published
         while we were acquiring it. *)
      (match SMap.find_opt key (Atomic.get t.published) with
      | Some v ->
        Mutex.unlock t.mu;
        v
      | None ->
        if Hashtbl.mem t.in_progress key then begin
          (* Another domain is computing this key: wait for any publish
             and retry rather than doing the work twice. *)
          Condition.wait t.done_ t.mu;
          Mutex.unlock t.mu;
          find_or_compute t key compute
        end
        else begin
          Hashtbl.replace t.in_progress key ();
          Mutex.unlock t.mu;
          let v =
            try compute ()
            with exn ->
              Mutex.lock t.mu;
              Hashtbl.remove t.in_progress key;
              Condition.broadcast t.done_;
              Mutex.unlock t.mu;
              raise exn
          in
          Mutex.lock t.mu;
          Hashtbl.remove t.in_progress key;
          (* Writers are serialized by [mu], so a plain store of the
             extended map is enough for readers' Atomic.get. *)
          Atomic.set t.published (SMap.add key v (Atomic.get t.published));
          Condition.broadcast t.done_;
          Mutex.unlock t.mu;
          v
        end)
end

(* Shared compile cache: corpus sources are fixed, so every consumer
   (CLI, tests, benchmark, evaluation) can reuse one compiled unit per
   entry. *)
