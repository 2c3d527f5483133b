(* Driver for the static tier: summarize each class (or fetch its
   summary from a digest-keyed cache), link the summaries into whole-
   program facts, generate candidates, and answer the membership
   queries used by the dynamic-pipeline filter and the Crucible
   oracles.

   With a cache, cold runs pay one summarization per class and warm
   runs pay only the linking phase; a one-class edit re-summarizes
   exactly the changed class.  Only a warm hit goes through the summary
   codec: without a cache, and on a miss, the summary is
   [Summary.of_class]'s own value (a miss also stores its encoding).
   That a decoded summary links to the same candidates as a fresh one
   is checked by the Crucible incremental oracle, which compares a run
   against a warm cache with a from-scratch run, and by the codec's
   round-trip property. *)

module D = Dom

(* Planted unsoundness, used to validate the Crucible oracles:
   [Drop_sync] silently drops all accesses inside sync regions before
   pairing; [Stale_cache] keys the summary cache by class *name*
   instead of content digest, so a warm analysis after an edit reuses
   the stale summary. *)
type mutation = Drop_sync | Stale_cache

type t = {
  link : Link.t;
  cands : D.cand list;
  keys : (string * string * string, unit) Hashtbl.t Lazy.t;
}

let metrics = Obs.Metrics.global

let summarize_class ?mutate ?cache (c : Jir.Ast.class_decl) : Summary.cls =
  let fresh () =
    Obs.Metrics.incr (metrics ()) "static/summarized";
    Summary.of_class c
  in
  match cache with
  | None -> fresh ()
  | Some cache -> (
    let key =
      match mutate with
      | Some Stale_cache -> c.Jir.Ast.c_name
      | Some Drop_sync | None -> Summary.digest c
    in
    let compute_and_store () =
      let s = fresh () in
      Cache.store cache ~kind:"sum" ~key (Summary.to_string s);
      s
    in
    match Cache.find cache ~kind:"sum" ~key with
    | None -> compute_and_store ()
    | Some payload -> (
      match Summary.of_string payload with
      | Ok s -> s
      | Error _ ->
        (* decodable header but undecodable body: recompute *)
        Cache.evict cache ~kind:"sum" ~key;
        compute_and_store ()))

let run ?mutate ?(open_world = false) ?cache (prog : Jir.Program.t) : t =
  let sums =
    Obs.Span.with_ ~root:true "static/summary" (fun () ->
        List.map (summarize_class ?mutate ?cache) (Jir.Program.classes prog))
  in
  let link, cands =
    Obs.Span.with_ ~root:true "static/link" (fun () ->
        let link = Link.solve ~open_world prog sums in
        let drop_sync = mutate = Some Drop_sync in
        let cands =
          Racepairs.generate ~drop_sync ~exclude_init:open_world (Link.esc link)
            (Link.accs link)
        in
        (link, cands))
  in
  let keys =
    lazy
      (let keys = Hashtbl.create 32 in
       List.iter (fun c -> Hashtbl.replace keys (D.key_of c) ()) cands;
       keys)
  in
  { link; cands; keys }

let candidates t = t.cands
let accesses t = Link.accs t.link
let regions t = Link.regions t.link
let shared t = Link.shared t.link
let prog t = Link.prog t.link
let site_info t s = Link.site_info t.link s

(* Is (field, {m1, m2}) covered by some static candidate?  [m1]/[m2]
   are method qnames as the VM names race sites.  The key table is
   built lazily on the first query, so pure candidate consumers (lint)
   never pay for it. *)
let covers t ~field ~m1 ~m2 =
  Hashtbl.mem (Lazy.force t.keys) (D.cand_key ~field ~m1 ~m2)
