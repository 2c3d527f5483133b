(* In-memory span recorder for the traced run.

   Every span has a name, a start and end on the monotonic clock, the
   span that caused it (its parent on the same domain) and the request
   it belongs to (the corpus class, lint unit or repair subject whose
   verdict is being computed).  Spans are buffered per domain without
   locking and collected when the run ends; self time is derived from
   them afterwards, never while recording. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  req : int;  (** request index; -1 outside any request *)
  t0 : int64;
  t1 : int64;
}

type buf = {
  mutable stack : (int * int) list;  (** open (span id, req), innermost first *)
  mutable done_ : span list;
}

let next_id = Atomic.make 1
let all_bufs : buf list ref = ref []
let bufs_mu = Mutex.create ()

(* Each domain registers its buffer once, so spans recorded on Par
   worker domains survive the domains being joined. *)
let key =
  Domain.DLS.new_key (fun () ->
      let b = { stack = []; done_ = [] } in
      Mutex.lock bufs_mu;
      all_bufs := b :: !all_bufs;
      Mutex.unlock bufs_mu;
      b)

let record ?req name f =
  let b = Domain.DLS.get key in
  let parent, preq = match b.stack with (p, r) :: _ -> (p, r) | [] -> (0, -1) in
  let req = Option.value req ~default:preq in
  let id = Atomic.fetch_and_add next_id 1 in
  b.stack <- (id, req) :: b.stack;
  let t0 = Obs.Clock.ticks () in
  let finish () =
    let t1 = Obs.Clock.ticks () in
    b.stack <- List.tl b.stack;
    b.done_ <- { id; parent; name; req; t0; t1 } :: b.done_
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(** [span name f] runs [f] inside a span nested under the domain's
    innermost open span. *)
let span name f = record name f

(** [request ~req name f] opens a span that starts request [req]; the
    spans nested in it inherit the request. *)
let request ~req name f = record ~req name f

let collect () =
  Mutex.lock bufs_mu;
  let l = List.concat_map (fun b -> b.done_) !all_bufs in
  Mutex.unlock bufs_mu;
  List.sort (fun a b -> compare a.id b.id) l

let dur_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(** Self time of every span: its duration minus the durations of its
    direct children (children run on the parent's domain, inside its
    interval). *)
let self_times (spans : span list) : (span * float) list =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur_ns s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    spans;
  List.map
    (fun s ->
      (s, dur_ns s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
    spans

(** Self seconds and call counts per span name. *)
let by_name spans : (string, float * int) Hashtbl.t =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let ns, n = Option.value (Hashtbl.find_opt t s.name) ~default:(0.0, 0) in
      Hashtbl.replace t s.name (ns +. (self /. 1e9), n + 1))
    (self_times spans);
  t

(** Self seconds per (request, span name). *)
let by_req_name spans : (int * string, float) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let k = (s.req, s.name) in
      Hashtbl.replace t k
        ((self /. 1e9) +. Option.value (Hashtbl.find_opt t k) ~default:0.0))
    (self_times spans);
  t

let write_jsonl ~path ~(meta : (string * string) list) (spans : span list) =
  let oc = open_out path in
  Printf.fprintf oc "{%s}\n"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) meta));
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.parent s.name s.req s.t0 s.t1)
    spans;
  close_out oc
