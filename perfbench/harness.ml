(* The measurement loop shared by every workload, and the statistics
   and program-metric readings it reports. *)

let now = Obs.Clock.ticks
let since = Obs.Clock.elapsed_s

(* The process's CPU time (user + system, every thread).  For a workload
   that runs on one domain it is its wall time on an unshared host, minus
   the time a shared host's hypervisor stole from it. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
let md5 s = Digest.to_hex (Digest.string s)

(* The [j]th scheduler seed of a workload seed: the seed itself first. *)
let scheduler_seed seed j =
  if j = 0 then Int64.of_int seed else Par.seed ~base:(Int64.of_int seed) ~index:j

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation between closest ranks. *)
let percentile p l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | l ->
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB" Fun.id
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    float_of_int (Option.value kb ~default:0) /. 1024.0

(* Time the hypervisor ran something else while this guest's CPUs were
   runnable (the steal column of /proc/stat), in seconds over all CPUs;
   0 where it cannot be read. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let l = try input_line ic with End_of_file -> "" in
    close_in ic;
    (match String.split_on_char ' ' l |> List.filter (( <> ) "") with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
      Option.value (float_of_string_opt steal) ~default:0.0
    | _ -> 0.0)
    /. 100.0

(* ---- host speed ---- *)

(* On a shared virtual machine the speed the host gives this process
   drifts by tens of percent over seconds, in process CPU time too, so
   run-to-run spread of raw times says more about the neighbours than
   about the program.  While a workload's untraced passes run, a timer
   interrupts it every [interval] of wall time to run [load], a fixed
   load that does not call the program (allocation, hashing, sorting:
   what narada's passes are made of).  Time spent in the probes is
   taken out of every measured interval, and the rest is scaled by
   [reference_s] over the mean probe time around it: a time is reported
   in seconds at the speed of a host on which the probe takes
   [reference_s].  The timer's probes run on whichever domain takes the
   signal, so they serve single-domain code only; worker domains time
   their own probes with [sample]. *)
module Speed = struct
  let interval = 0.004
  let window = 64

  (* The mean probe time on a quiet 2-vCPU Xeon virtual machine. *)
  let reference_s = 0.0002

  let clock = ref (fun () -> 0.0)
  let total = ref 0.0 (* seconds spent in probes *)
  let count = ref 0
  let recent = Array.make window reference_s
  let busy = ref false
  let running = ref false

  let load () =
    let h = Hashtbl.create 64 in
    let acc = ref 0 in
    for i = 0 to 599 do
      let s = string_of_int ((i * 7919) land 255) in
      match Hashtbl.find_opt h s with
      | Some v -> acc := !acc + v
      | None -> Hashtbl.replace h s (String.length s)
    done;
    let l = List.init 300 (fun i -> ((i * 104729) land 65535, i)) in
    acc := !acc + List.fold_left (fun a (x, _) -> a lxor x) 0 (List.sort compare l);
    Sys.opaque_identity !acc

  (* The minor collection first, so the probe's own allocation never
     pays for the program's young garbage. *)
  let probe () =
    if not !busy then begin
      busy := true;
      Gc.minor ();
      let t0 = !clock () in
      ignore (load ());
      let d = !clock () -. t0 in
      recent.(!count mod window) <- d;
      total := !total +. d;
      incr count;
      busy := false
    end

  let set_timer v =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })

  (** Start probing, timed on [clk]; the first [window] probes run
      at once, so every interval has a speed from the start. *)
  let start clk =
    clock := clk;
    for _ = 1 to window do
      probe ()
    done;
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if !running then probe ()));
    running := true;
    set_timer interval

  let pause () = set_timer 0.0
  let resume () = set_timer interval

  (* The handler stays: a signal already pending finds [running] off. *)
  let stop () =
    pause ();
    running := false

  type mark = { m_t : float; m_total : float; m_count : int }

  let rec mark () =
    let c = !count in
    let t = !clock () in
    if !count <> c then mark () else { m_t = t; m_total = !total; m_count = c }

  (** Seconds since [m] without the probes in them, raw and at the
      reference speed.  The speed is the mean probe time over the
      interval, or over the last [window] probes when fewer fell in it. *)
  let since m =
    let e = mark () in
    let raw = e.m_t -. m.m_t -. (e.m_total -. m.m_total) in
    let n = e.m_count - m.m_count in
    let mean =
      if n >= window then (e.m_total -. m.m_total) /. float_of_int n
      else Array.fold_left ( +. ) 0.0 recent /. float_of_int window
    in
    (raw, raw *. reference_s /. mean)

  (* The last [local_window] probes of [sample], per domain. *)
  let local_window = 16

  let local =
    Domain.DLS.new_key (fun () -> (Array.make local_window 0.0, ref 0))

  (** One probe timed on [clk], outside the timer and its accounting,
      for the worker domains of a multi-domain pass, where the minor
      collection [probe] starts with would stop every domain.  Returns
      its seconds and records them in the calling domain's window. *)
  let sample clk =
    let t0 = clk () in
    ignore (load ());
    let d = clk () -. t0 in
    let ring, n = Domain.DLS.get local in
    ring.(!n mod local_window) <- d;
    incr n;
    d

  (** The calling domain has no [sample] yet. *)
  let unsampled () = !(snd (Domain.DLS.get local)) = 0

  (** [reference_s] over the mean of the calling domain's window. *)
  let local_factor () =
    let ring, n = Domain.DLS.get local in
    let k = min !n local_window in
    if k = 0 then 1.0
    else reference_s /. (Array.fold_left ( +. ) 0.0 (Array.sub ring 0 k) /. float_of_int k)

  (** The host's speed over the whole run, relative to the reference. *)
  let index () = if !count = 0 then 1.0 else reference_s /. (!total /. float_of_int !count)
end

(* Set-up is repeated (at least 5 times, until 0.5 s are spent or 50
   repetitions) and its median reported, so that work moved into set-up
   shows as a steady number.  A repetition takes milliseconds, so the
   timer is paused: [Speed.window] probes run right before each one,
   which is timed at the reference speed they give. *)
let timed_setup (f : unit -> 'a) : float * 'a =
  let start = now () in
  Speed.pause ();
  let rec go k times =
    for _ = 1 to Speed.window do
      Speed.probe ()
    done;
    let m = Speed.mark () in
    let v = f () in
    let times = snd (Speed.since m) :: times in
    if k + 1 >= 50 || (k + 1 >= 5 && since ~since:start >= 0.5) then (median times, v)
    else go (k + 1) times
  in
  let r = go 0 [] in
  Speed.resume ();
  r

(* ---- the program's own metrics, read around traced passes ---- *)

let reg () = Obs.Metrics.global ()

let prog_counters =
  [ "triage/replays"; "backend/compiled/units"; "backend/compiled/instrs";
    "static/summarized"; "static/cache/hits"; "static/cache/misses";
    "repair/attempts"; "repair/repaired"; "repair/races" ]

let prog_spans =
  [ "static/summary"; "static/link"; "pipeline"; "pipeline/trace"; "pipeline/analyze";
    "pipeline/pairs"; "pipeline/synth"; "backend/compile" ]

let prog_hists =
  [ "pipeline#trace_events"; "pipeline#pairs"; "pipeline#tests"; "racefuzzer/steps" ]

let prog_values () : (string * float) list =
  let r = reg () in
  let gauges = Obs.Metrics.gauges r and hists = Obs.Metrics.histograms r in
  let g name = Option.value (List.assoc_opt name gauges) ~default:0.0 in
  List.map (fun n -> (n, float_of_int (Obs.Metrics.counter_value r n))) prog_counters
  @ List.map (fun n -> (n, Int64.to_float (Obs.Metrics.span_ns r n) /. 1e9)) prog_spans
  @ List.concat_map
      (fun n ->
        let c, s =
          match List.assoc_opt n hists with
          | Some h -> (h.Obs.Metrics.h_count, h.Obs.Metrics.h_sum)
          | None -> (0, 0)
        in
        [ (n ^ ".count", float_of_int c); (n ^ ".sum", float_of_int s) ])
      prog_hists
  @ [ ("par/pool/steals", g "par/pool/steals"); ("par/pool/chunks", g "par/pool/chunks");
      ( "par/pool/idle_s",
        List.fold_left
          (fun acc (n, v) ->
            if String.starts_with ~prefix:"par/pool/worker" n
               && String.ends_with ~suffix:"/idle_s" n
            then acc +. v
            else acc)
          0.0 gauges ) ]

let queue_hwm () =
  Option.value
    (List.assoc_opt "par/pool/queue_depth_hwm" (Obs.Metrics.gauges (reg ())))
    ~default:0.0

(* ---- the pass loop ---- *)

(** What a workload supplies: one pass over its inputs through the
    public entry calls, the same pass decomposed into traced layer
    calls, each pass's verdicts (seconds, or [None] when no entry call
    was made, and whether it failed), and its answer as (item, digest)
    pairs that must agree between every pass. *)
type 'p spec = {
  untraced : unit -> 'p;
  traced : unit -> 'p;
  verdicts : 'p -> (float option * bool) list;
  answer : 'p -> (string * string) list;
}

type 'p measured = {
  first : 'p;  (** the first untraced pass, kept whole *)
  peak_rss_mb : float;
      (** peak resident memory right after the first pass: later passes
          only add allocator growth that depends on how many passes fit *)
  steal_s : float;  (** host steal time during the passes, all CPUs *)
  traced_passes : int;
  attempted : int;
  failed : int;
  pass_stats : (float * float list) list;
      (** per untraced pass: verdicts per second, seconds per verdict *)
  untraced_time : float;  (** without probes, not scaled *)
  traced_time : float;
  prog : (string, float) Hashtbl.t;
      (** the program's metrics summed over the traced passes *)
  problems : string list;
}

let differing a b =
  if List.length a <> List.length b then [ "(item count)" ]
  else List.filter_map (fun ((id, x), (_, y)) -> if x = y then None else Some id) (List.combine a b)

(* Whole passes run while the next one is expected to fit in [seconds]
   of wall time (at the mean pass time so far), and always at least
   one: every pass does identical work, so rates do not depend on where
   a deadline cut a pass.  Each pass starts after a full major
   collection, so none pays for the garbage of the one before.  Passes
   are timed on [clock], the clock the workload also times its verdicts
   on, or between probes when [Speed] is running; traced passes run
   without probes.  [adjust] maps an untraced pass's time on [clock] to
   its time without the pass's own probes, raw and at the reference
   speed.  With [trace], every untraced pass has a traced twin, run after
   it or, with [traced_first], before it.  [max_passes] caps the passes
   of a workload whose later passes would find process-wide caches
   filled by the first. *)
let run ?(max_passes = max_int) ?(traced_first = false) ?adjust ~seconds ~trace
    ~(clock : unit -> float) (spec : 'p spec) : 'p measured =
  let prog = Hashtbl.create 32 in
  let first = ref None and answer0 = ref [] and problems = ref [] in
  let first_rss = ref 0.0 and steal0 = steal_s () in
  let attempted = ref 0 and failed = ref 0 and pass_stats = ref [] in
  let utime = ref 0.0 and ttime = ref 0.0 and n = ref 0 in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let untraced_pass () =
    Gc.full_major ();
    let p, raw, ut =
      if !Speed.running then
        let m = Speed.mark () in
        let p = spec.untraced () in
        let raw, ut = Speed.since m in
        (p, raw, ut)
      else
        let t0 = clock () in
        let p = spec.untraced () in
        let t = clock () -. t0 in
        let raw, ut = match adjust with Some f -> f t | None -> (t, t) in
        (p, raw, ut)
    in
    utime := !utime +. raw;
    let vs = spec.verdicts p in
    List.iter
      (fun (_, f) ->
        incr attempted;
        if f then incr failed)
      vs;
    pass_stats :=
      (float_of_int (List.length vs) /. ut, List.filter_map fst vs) :: !pass_stats;
    let ans = spec.answer p in
    (match !first with
    | None ->
      first := Some p;
      first_rss := peak_rss_mb ();
      answer0 := ans
    | Some _ -> (
      match differing !answer0 ans with
      | [] -> ()
      | ids -> problem "pass %d differs from pass 0 on %s" !n (String.concat ", " ids)));
    ans
  in
  let traced_pass () =
    let before = prog_values () in
    let probed = !Speed.running in
    if probed then Speed.pause ();
    Gc.full_major ();
    let t1 = clock () in
    let q = spec.traced () in
    ttime := !ttime +. (clock () -. t1);
    if probed then Speed.resume ();
    List.iter2
      (fun (k, b) (_, a) ->
        Hashtbl.replace prog k (a -. b +. Option.value (Hashtbl.find_opt prog k) ~default:0.0))
      before (prog_values ());
    spec.answer q
  in
  let start = now () in
  let continue () =
    let elapsed = since ~since:start in
    !n = 0 || (!n < max_passes && elapsed +. (elapsed /. float_of_int !n) <= seconds)
  in
  while continue () do
    (if not trace then ignore (untraced_pass ())
     else
       let traced, untraced =
         if traced_first then
           let t = traced_pass () in
           (t, untraced_pass ())
         else
           let u = untraced_pass () in
           (traced_pass (), u)
       in
       match differing untraced traced with
       | [] -> ()
       | ids ->
         problem "decomposition check: traced pass %d differs from the public entry call on %s"
           !n (String.concat ", " ids));
    incr n
  done;
  {
    first = Option.get !first;
    peak_rss_mb = !first_rss;
    steal_s = steal_s () -. steal0;
    traced_passes = (if trace then !n else 0);
    attempted = !attempted;
    failed = !failed;
    pass_stats = List.rev !pass_stats;
    untraced_time = !utime;
    traced_time = !ttime;
    prog;
    problems = List.rev !problems;
  }

(** A program metric summed over the traced passes, per traced pass. *)
let per_pass (r : _ measured) name =
  Option.value (Hashtbl.find_opt r.prog name) ~default:0.0
  /. float_of_int (max 1 r.traced_passes)

let overhead (r : _ measured) = (r.traced_time /. r.untraced_time) -. 1.0

(** Every pass: the median pass rate and all verdict times. *)
let all_passes (r : _ measured) =
  (median (List.map fst r.pass_stats), List.concat_map snd r.pass_stats)

(** Self seconds of a span name, per traced pass. *)
let self (r : _ measured) by name =
  fst (Option.value (Hashtbl.find_opt by name) ~default:(0.0, 0))
  /. float_of_int (max 1 r.traced_passes)

let write_spans ~scratch ~workload ~seed ~meta spans =
  Tracer.write_jsonl
    ~path:(Filename.concat scratch (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed))
    ~meta:
      ([ ("workload", Printf.sprintf "%S" workload); ("seed", string_of_int seed) ] @ meta)
    spans

(** What a workload run hands to the reporter. *)
type report = {
  setup_s : float;
  attempted : int;
  failed : int;
  rate : float;  (** verdicts per second *)
  samples : float list;  (** seconds per verdict *)
  passes : int;
  races : int;  (** distinct races of one pass *)
  rss_mb : float;
  steal : float;
  speed : float;  (** the host's speed during the passes, relative to the reference *)
  budget : string;
  problems : string list;  (** correctness violations; empty = correct *)
  layers : (string * float) list;  (** per-layer metrics, traced run only *)
}

(** Check an answer against the recorded reference for this workload,
    size and seed, and print it when asked. *)
let reference_problems (a : Args.t) ~answer ~races =
  let digest = md5 (String.concat "\n" (List.map (fun (id, d) -> id ^ " " ^ d) answer)) in
  if a.Args.emit_reference then
    Printf.printf "REFERENCE (%S, %S, %d, %S, %d);\n" a.Args.workload
      (Args.size_name a.Args.size) a.Args.seed digest races;
  match Reference.find ~workload:a.Args.workload ~size:(Args.size_name a.Args.size) ~seed:a.Args.seed with
  | None -> []
  | Some (d, r) ->
    if d = digest && r = races then []
    else
      [ Printf.sprintf "%s: answer %s with %d races differs from the reference %s with %d"
          a.Args.workload digest races d r ]
