(* Static racy-pair generation: conflicting accesses to a may-aliased
   field where at least one side is spawn-reachable and the two sides
   hold no common lock.

   A pair of accesses (a, b) is a candidate iff
   - at least one of them is a write;
   - they name the same field and their bases may alias on a
     thread-shared object (instance bases: points-to sets intersect
     within the shared-site set; static bases: same syntactic class);
   - at least one endpoint is spawn-reachable (every dynamic race has
     an endpoint on a spawned thread);
   - they are not ordered by a common lock.  Only two certain forms of
     common lock are recognized: both sides self-locked (each holds the
     monitor of its own access base, and a race implies the bases are
     the same object), or both holding the same write-once global.

   A write may also race with *itself* (two threads executing the same
   statement); those single-access candidates are suppressed only when
   the access is self-locked or holds some global lock.

   [~drop_sync] is the planted unsoundness used to validate the
   Crucible static⊇dynamic oracle: it silently discards accesses that
   sit inside any sync region before pairing, losing candidates for
   racy accesses that happen to be (insufficiently) locked. *)

module D = Dom

let self_locked (a : D.acc) =
  match a.D.sa_base_path with
  | (D.Lthis | D.Llocal _) as p ->
    List.exists (fun l -> D.equal_lpath l p) a.D.sa_locks
  | D.Lglobal _ | D.Lunknown -> false

let globals (a : D.acc) =
  List.filter (function D.Lglobal _ -> true | _ -> false) a.D.sa_locks

(* Do the two accesses certainly hold a common lock on any execution
   where their bases alias?  Recognizes both-self-locked and a shared
   write-once global. *)
let common_lock (a : D.acc) (b : D.acc) =
  (self_locked a && self_locked b)
  || List.exists
       (fun g -> List.exists (fun l -> D.equal_lpath l g) b.D.sa_locks)
       (globals a)

let may_alias ~shared (a : D.acc) (b : D.acc) =
  match (a.D.sa_base, b.D.sa_base) with
  | D.Binst sa, D.Binst sb ->
    not (D.Sites.is_empty (D.Sites.inter (D.Sites.inter sa sb) shared))
  | D.Bstatic c1, D.Bstatic c2 -> String.equal c1 c2
  | (D.Binst _ | D.Bstatic _), _ -> false

let shares ~shared (a : D.acc) =
  match a.D.sa_base with
  | D.Binst s -> not (D.Sites.is_empty (D.Sites.inter s shared))
  | D.Bstatic _ -> true

let generate ?(drop_sync = false) ?(exclude_init = false) (esc : D.esc)
    (accs : D.acc list) : D.cand list =
  let shared = esc.D.esc_shared in
  let accs =
    if drop_sync then List.filter (fun a -> a.D.sa_regions = []) accs
    else accs
  in
  (* Open-world callers discard constructor/field-initializer accesses,
     mirroring the dynamic pair generator (§4): construction happens
     before the object is shared.  The closed-world oracle keeps them —
     a constructor can leak [this]. *)
  let accs =
    if exclude_init then
      List.filter (fun a -> not (D.is_init_qname a.D.sa_qname)) accs
    else accs
  in
  let mhp (a : D.acc) (b : D.acc) =
    D.esc_reaches esc a.D.sa_qname || D.esc_reaches esc b.D.sa_qname
  in
  let arr = Array.of_list accs in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let push c =
    let k = D.key_of c in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      out := c :: !out
    end
  in
  Array.iter
    (fun (w : D.acc) ->
      if w.D.sa_kind = D.Kwrite then begin
        (* Self-race: two threads executing this same write. *)
        if
          mhp w w && shares ~shared w
          && (not (self_locked w))
          && globals w = []
        then push { D.cd_field = w.D.sa_field; cd_a = w; cd_b = w };
        Array.iter
          (fun (o : D.acc) ->
            if
              o.D.sa_id <> w.D.sa_id
              && String.equal o.D.sa_field w.D.sa_field
              && may_alias ~shared w o && mhp w o
              && not (common_lock w o)
            then
              (* Canonical orientation: lower walk id first. *)
              let a, b = if w.D.sa_id < o.D.sa_id then (w, o) else (o, w) in
              push { D.cd_field = w.D.sa_field; cd_a = a; cd_b = b })
          arr
      end)
    arr;
  List.rev !out
