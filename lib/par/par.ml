(* Sharded work-stealing domain pool + deterministic fan-out/merge.
   See par.mli.

   The previous pool was a single mutex/condvar task queue: every
   submit and every pop crossed one lock, every future allocated its
   own Mutex.t + Condition.t, and [map] created one future per list
   element.  At jobs=4 the whole campaign convoyed on that lock (and,
   worse, on stop-the-world minor GC once more domains were runnable
   than cores — the whole-corpus campaign measured a 0.26x "speedup").

   This version shards the queue: one deque per worker, owner pops
   LIFO from the back, idle workers steal FIFO from the front of a
   victim chosen in seeded-random order.  [map]/[mapi] submit chunks
   of indices (granularity heuristic: ~8 chunks per worker), write
   results into a shared array slot per index, and synchronize on a
   single completion latch per fan-out — no per-task future, no
   per-future mutex.  Determinism is structural: result [i] is written
   for input [i] regardless of which worker ran the chunk, so the
   schedule of the workers is unobservable in the output.

   The effective fan-out width of [map]/[mapi] is clamped to
   {!max_domains} (default: the recommended domain count).  Running
   more worker domains than cores is how the inversion happened in the
   first place: OCaml's minor collections are stop-the-world across
   all domains, and a descheduled domain stalls every collection. *)

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

module Pool = struct
  (* [t_chunk] tags batch-submitted chunk tasks so per-worker executed-
     chunk counts can be told apart from plain futures in the gauges. *)
  type task = { t_run : unit -> unit; t_chunk : bool }

  let dummy_task = { t_run = ignore; t_chunk = false }

  (* A growable ring deque; all operations run under the owning shard's
     lock, which is uncontended unless a thief is probing this shard. *)
  module Ring = struct
    type t = { mutable buf : task array; mutable head : int; mutable len : int }

    let create () = { buf = Array.make 16 dummy_task; head = 0; len = 0 }

    let grow r =
      let cap = Array.length r.buf in
      let buf = Array.make (2 * cap) dummy_task in
      for i = 0 to r.len - 1 do
        buf.(i) <- r.buf.((r.head + i) mod cap)
      done;
      r.buf <- buf;
      r.head <- 0

    let push_back r t =
      if r.len = Array.length r.buf then grow r;
      r.buf.((r.head + r.len) mod Array.length r.buf) <- t;
      r.len <- r.len + 1

    let pop_back r =
      if r.len = 0 then None
      else begin
        let i = (r.head + r.len - 1) mod Array.length r.buf in
        let t = r.buf.(i) in
        r.buf.(i) <- dummy_task;
        r.len <- r.len - 1;
        Some t
      end

    let pop_front r =
      if r.len = 0 then None
      else begin
        let t = r.buf.(r.head) in
        r.buf.(r.head) <- dummy_task;
        r.head <- (r.head + 1) mod Array.length r.buf;
        r.len <- r.len - 1;
        Some t
      end
  end

  type shard = { sh_mu : Mutex.t; sh_ring : Ring.t }

  type t = {
    jobs : int;
    shards : shard array; (* one per worker *)
    mu : Mutex.t; (* sleep/wake + lifecycle *)
    wake : Condition.t;
    mutable stop : bool;
    pending : int Atomic.t; (* tasks enqueued and not yet taken *)
    mutable rr : int; (* round-robin submission cursor, under [mu] *)
    mutable workers : unit Domain.t list;
    (* Futures share one mutex/condvar per pool instead of allocating a
       pair each: completions broadcast, awaiters re-check their cell. *)
    fut_mu : Mutex.t;
    fut_ready : Condition.t;
    (* Scheduling facts (queue high-water mark, steals, per-worker chunk
       and task counts, idle time).  Inherently job-count dependent, so
       they are flushed as *volatile* gauges at shutdown. *)
    mutable qdepth_hwm : int;
    steals : int Atomic.t;
    worker_tasks : int array;
    worker_chunks : int array;
    worker_idle_ns : int64 array;
  }

  type 'a state = Pending | Done of 'a | Failed of exn

  type 'a future = { f_pool : t; mutable f_state : 'a state }

  (* Seeded-random victim order: reproducible steal schedules given the
     worker index, independent of wall clock. *)
  let victim_rng i =
    let state = ref (seed ~base:0x4E41524144415L ~index:i) in
    fun bound ->
      state := Int64.add !state 0x9E3779B97F4A7C15L;
      let z = !state in
      let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
      Int64.to_int z land max_int mod bound

  let pop_own p i =
    let sh = p.shards.(i) in
    Mutex.lock sh.sh_mu;
    let t = Ring.pop_back sh.sh_ring in
    Mutex.unlock sh.sh_mu;
    t

  let steal_from p v =
    let sh = p.shards.(v) in
    Mutex.lock sh.sh_mu;
    let t = Ring.pop_front sh.sh_ring in
    Mutex.unlock sh.sh_mu;
    t

  (* One full acquisition attempt for worker [i]: own deque first, then
     every victim once, starting from a random rotation. *)
  let try_take p i rng =
    match pop_own p i with
    | Some t -> Some t
    | None ->
      if p.jobs <= 1 then None
      else begin
        let start = rng (p.jobs - 1) in
        let found = ref None in
        let k = ref 0 in
        while !found = None && !k < p.jobs - 1 do
          let v = (i + 1 + ((start + !k) mod (p.jobs - 1))) mod p.jobs in
          (match steal_from p v with
          | Some t ->
            Atomic.incr p.steals;
            found := Some t
          | None -> ());
          incr k
        done;
        !found
      end

  let rec worker p i rng =
    match try_take p i rng with
    | Some t ->
      Atomic.decr p.pending;
      p.worker_tasks.(i) <- p.worker_tasks.(i) + 1;
      if t.t_chunk then p.worker_chunks.(i) <- p.worker_chunks.(i) + 1;
      t.t_run ();
      worker p i rng
    | None ->
      Mutex.lock p.mu;
      if Atomic.get p.pending > 0 then begin
        (* Work appeared between the failed sweep and the lock. *)
        Mutex.unlock p.mu;
        worker p i rng
      end
      else if p.stop then Mutex.unlock p.mu
      else begin
        let wait0 = Obs.Clock.ticks () in
        Condition.wait p.wake p.mu;
        p.worker_idle_ns.(i) <-
          Int64.add p.worker_idle_ns.(i) (Obs.Clock.elapsed_ns ~since:wait0);
        Mutex.unlock p.mu;
        worker p i rng
      end

  let create ~jobs =
    let jobs = max 1 jobs in
    let p =
      {
        jobs;
        shards =
          Array.init jobs (fun _ ->
              { sh_mu = Mutex.create (); sh_ring = Ring.create () });
        mu = Mutex.create ();
        wake = Condition.create ();
        stop = false;
        pending = Atomic.make 0;
        rr = 0;
        workers = [];
        fut_mu = Mutex.create ();
        fut_ready = Condition.create ();
        qdepth_hwm = 0;
        steals = Atomic.make 0;
        worker_tasks = Array.make jobs 0;
        worker_chunks = Array.make jobs 0;
        worker_idle_ns = Array.make jobs 0L;
      }
    in
    p.workers <-
      List.init jobs (fun i -> Domain.spawn (fun () -> worker p i (victim_rng i)));
    p

  let jobs p = p.jobs

  (* Enqueue under [mu] bookkeeping: round-robin shard choice, pending
     count, queue high-water mark, wakeups.  The shard lock is taken
     only for the push itself.
     @raise Invalid_argument after [shutdown] (documented on [submit]). *)
  let enqueue p task =
    Mutex.lock p.mu;
    if p.stop then begin
      Mutex.unlock p.mu;
      invalid_arg "Par.Pool.submit: pool is shut down"
    end;
    let shard = p.shards.(p.rr mod p.jobs) in
    p.rr <- p.rr + 1;
    Mutex.lock shard.sh_mu;
    Ring.push_back shard.sh_ring task;
    Mutex.unlock shard.sh_mu;
    let d = Atomic.fetch_and_add p.pending 1 + 1 in
    if d > p.qdepth_hwm then p.qdepth_hwm <- d;
    Condition.signal p.wake;
    Mutex.unlock p.mu

  let submit p f =
    let fut = { f_pool = p; f_state = Pending } in
    let run () =
      let r = match f () with v -> Done v | exception e -> Failed e in
      Mutex.lock p.fut_mu;
      fut.f_state <- r;
      Condition.broadcast p.fut_ready;
      Mutex.unlock p.fut_mu
    in
    enqueue p { t_run = run; t_chunk = false };
    fut

  (* Batched submission for [mapi]: distribute all chunks round-robin
     across the shards, then wake every worker once.  Unreachable on a
     shut-down pool: [mapi] submits once, to the pool it just created,
     before its [shutdown]; the check only guards a future caller. *)
  let submit_chunks p fs =
    Mutex.lock p.mu;
    if p.stop then begin
      Mutex.unlock p.mu;
      invalid_arg "Par.Pool.submit_chunks: pool is shut down"
    end;
    let n = ref 0 in
    List.iter
      (fun f ->
        let shard = p.shards.(p.rr mod p.jobs) in
        p.rr <- p.rr + 1;
        Mutex.lock shard.sh_mu;
        Ring.push_back shard.sh_ring { t_run = f; t_chunk = true };
        Mutex.unlock shard.sh_mu;
        incr n)
      fs;
    let d = Atomic.fetch_and_add p.pending !n + !n in
    if d > p.qdepth_hwm then p.qdepth_hwm <- d;
    Condition.broadcast p.wake;
    Mutex.unlock p.mu

  let await fut =
    let p = fut.f_pool in
    Mutex.lock p.fut_mu;
    let rec wait () =
      match fut.f_state with
      | Pending ->
        Condition.wait p.fut_ready p.fut_mu;
        wait ()
      | Done v ->
        Mutex.unlock p.fut_mu;
        v
      | Failed e ->
        Mutex.unlock p.fut_mu;
        raise e
    in
    wait ()

  let shutdown p =
    Mutex.lock p.mu;
    p.stop <- true;
    Condition.broadcast p.wake;
    Mutex.unlock p.mu;
    let ws = p.workers in
    p.workers <- [];
    List.iter Domain.join ws;
    if ws <> [] then begin
      let reg = Obs.Metrics.global () in
      Obs.Metrics.gauge_max reg "par/pool/queue_depth_hwm"
        (float_of_int p.qdepth_hwm);
      Obs.Metrics.gauge_add reg "par/pool/steals"
        (float_of_int (Atomic.get p.steals));
      Obs.Metrics.gauge_add reg "par/pool/chunks"
        (float_of_int (Array.fold_left ( + ) 0 p.worker_chunks));
      Array.iteri
        (fun i n ->
          Obs.Metrics.gauge_add reg
            (Printf.sprintf "par/pool/worker%d/tasks" i)
            (float_of_int n))
        p.worker_tasks;
      Array.iteri
        (fun i n ->
          Obs.Metrics.gauge_add reg
            (Printf.sprintf "par/pool/worker%d/chunks" i)
            (float_of_int n))
        p.worker_chunks;
      Array.iteri
        (fun i ns ->
          Obs.Metrics.gauge_add reg
            (Printf.sprintf "par/pool/worker%d/idle_s" i)
            (Int64.to_float ns /. 1e9))
        p.worker_idle_ns
    end
end

(* One completion latch per fan-out: the caller sleeps until every
   chunk has arrived; task failures record the smallest failing input
   index so the raised exception is job-count independent. *)
module Latch = struct
  type t = {
    l_mu : Mutex.t;
    l_done : Condition.t;
    mutable l_remaining : int;
    mutable l_fail : (int * exn) option;
  }

  let create n =
    { l_mu = Mutex.create (); l_done = Condition.create (); l_remaining = n; l_fail = None }

  let arrive l =
    Mutex.lock l.l_mu;
    l.l_remaining <- l.l_remaining - 1;
    if l.l_remaining = 0 then Condition.broadcast l.l_done;
    Mutex.unlock l.l_mu

  let record_failure l ~index e =
    Mutex.lock l.l_mu;
    (match l.l_fail with
    | Some (j, _) when j <= index -> ()
    | Some _ | None -> l.l_fail <- Some (index, e));
    Mutex.unlock l.l_mu

  let await l =
    Mutex.lock l.l_mu;
    while l.l_remaining > 0 do
      Condition.wait l.l_done l.l_mu
    done;
    Mutex.unlock l.l_mu

  let failure l =
    Mutex.lock l.l_mu;
    let f = l.l_fail in
    Mutex.unlock l.l_mu;
    f
end

let mapi ?jobs ?chunk xs f =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let width = min jobs (max_domains ()) in
  let n = List.length xs in
  if width <= 1 || n <= 1 then List.mapi f xs
  else begin
    let width = min width n in
    let input = Array.of_list xs in
    let out = Array.make n None in
    (* Granularity heuristic: ~8 chunks per worker, so stealing can
       rebalance an uneven tail without per-element task overhead. *)
    let chunk_size =
      match chunk with Some c -> max 1 c | None -> max 1 (n / (8 * width))
    in
    let nchunks = (n + chunk_size - 1) / chunk_size in
    let latch = Latch.create nchunks in
    let chunk_body ci () =
      let lo = ci * chunk_size in
      let hi = min n (lo + chunk_size) in
      let i = ref lo in
      (try
         while !i < hi do
           out.(!i) <- Some (f !i input.(!i));
           incr i
         done
       with e -> Latch.record_failure latch ~index:!i e);
      Latch.arrive latch
    in
    let p = Pool.create ~jobs:width in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p)
      (fun () ->
        Pool.submit_chunks p (List.init nchunks chunk_body);
        (* The caller blocks on the latch rather than competing for
           chunks: the [width] workers saturate the width budget and a
           sleeping domain does not stall minor collections. *)
        Latch.await latch);
    (* With no failure recorded every chunk ran to its end and wrote
       each of its slots, so [Option.get] cannot raise. *)
    match Latch.failure latch with
    | Some (_, e) -> raise e
    | None -> Array.to_list (Array.map Option.get out)
  end

let map ?jobs ?chunk xs f = mapi ?jobs ?chunk xs (fun _ x -> f x)

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
