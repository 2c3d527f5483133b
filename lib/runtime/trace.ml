(* Trace recording: capture the event stream of an execution as an
   array, the "sequence of expressions comprising the execution of a
   sequential test" of §3.1. *)

type t = Event.t array

(* A recorder to attach with [Machine.add_observer].  Events land in a
   growable chunked-array buffer: appending is an array store (no
   list-cons allocation per event), and [snapshot] is a handful of
   blits (no [List.rev] over the whole trace). *)
type recorder = {
  chunk : int; (* capacity of each chunk *)
  mutable filled : Event.t array list; (* full chunks, most recent first *)
  mutable cur : Event.t array; (* empty until the first event *)
  mutable cur_len : int; (* used slots of [cur] *)
  mutable count : int; (* total events recorded *)
}

let default_chunk_size = 4096

let recorder ?(chunk_size = default_chunk_size) () =
  {
    chunk = max 1 chunk_size;
    filled = [];
    cur = [||];
    cur_len = 0;
    count = 0;
  }

let observer r (e : Event.t) =
  if r.cur_len = Array.length r.cur then begin
    if Array.length r.cur > 0 then r.filled <- r.cur :: r.filled;
    (* [e] doubles as the fill value, so no placeholder event exists. *)
    r.cur <- Array.make r.chunk e;
    r.cur_len <- 0
  end;
  r.cur.(r.cur_len) <- e;
  r.cur_len <- r.cur_len + 1;
  r.count <- r.count + 1

(* The machine keeps its observers, and with them this recorder, alive:
   dropping the chunks lets them be collected with the snapshot taken. *)
let recycle r =
  r.filled <- [];
  r.cur <- [||];
  r.cur_len <- 0;
  r.count <- 0

let attach m =
  let r = recorder () in
  Machine.add_observer m Machine.Every_event (observer r);
  r

let snapshot r : t =
  if r.count = 0 then [||]
  else begin
    (* [cur] is non-empty whenever anything was recorded. *)
    let out = Array.make r.count r.cur.(0) in
    let pos = ref 0 in
    List.iter
      (fun c ->
        Array.blit c 0 out !pos (Array.length c);
        pos := !pos + Array.length c)
      (List.rev r.filled);
    Array.blit r.cur 0 out !pos r.cur_len;
    out
  end

let length (t : t) = Array.length t

let pp fmt (t : t) =
  Format.fprintf fmt "@[<v 0>";
  Array.iter (fun e -> Format.fprintf fmt "%a@," Event.pp e) t;
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
