(* Potential racy access pair generation (§3.3).

   An unprotected access at a label can race with (a) a concurrent
   execution of the same label in another thread, or (b) any other
   access to the same field of a potentially-aliased owner from another
   thread — provided at least one side writes.  Accesses inside
   constructors are discarded (§4), as are accesses whose owner cannot
   be described as a client-visible I-path (nothing to steer). *)

type endpoint = {
  ep_qname : string; (* client-level method a thread must invoke *)
  ep_cls : Jir.Ast.id;
  ep_meth : Jir.Ast.id;
  ep_occurrence : int; (* which seed-trace invocation to replay for objects *)
  ep_owner_path : Sym.t; (* where the racy field's owner sits *)
  ep_owner_cls : string option;
  ep_root_cls : string option; (* class of the I-path's root object *)
  ep_site : Runtime.Event.site;
  ep_kind : Access.kind;
  ep_label : Runtime.Event.label;
}

type pair = { p_field : Jir.Ast.id; p_a : endpoint; p_b : endpoint }

let endpoint_of (a : Access.acc) : endpoint option =
  match (a.Access.acc_anchor, a.Access.acc_owner_path) with
  | Some an, Some path ->
    Some
      {
        ep_qname = an.Access.an_qname;
        ep_cls = an.Access.an_cls;
        ep_meth = an.Access.an_meth;
        ep_occurrence = an.Access.an_occurrence;
        ep_owner_path = path;
        ep_owner_cls = a.Access.acc_obj_cls;
        ep_root_cls = a.Access.acc_root_cls;
        ep_site = a.Access.acc_site;
        ep_kind = a.Access.acc_kind;
        ep_label = a.Access.acc_label;
      }
  | (Some _ | None), _ -> None

let pair_to_string p =
  Printf.sprintf "race pair on .%s: %s:%s (%s) <-> %s:%s (%s)" p.p_field
    p.p_a.ep_qname
    (Sym.to_string p.p_a.ep_owner_path)
    (Access.kind_to_string p.p_a.ep_kind)
    p.p_b.ep_qname
    (Sym.to_string p.p_b.ep_owner_path)
    (Access.kind_to_string p.p_b.ep_kind)

(* The static identity of a pair, for dedup: unordered (site, site) plus
   the field. *)
let key_of p =
  let sa = p.p_a.ep_site and sb = p.p_b.ep_site in
  if Runtime.Event.compare_site sa sb <= 0 then (sa, sb, p.p_field)
  else (sb, sa, p.p_field)

(* Owners can alias only if their concrete classes are compatible (equal
   here: concrete classes from the same trace). *)
let owners_compatible (a : endpoint) (b : endpoint) =
  match (a.ep_owner_cls, b.ep_owner_cls) with
  | Some ca, Some cb -> String.equal ca cb
  | None, _ | _, None -> true

let usable (a : Access.acc) =
  a.Access.acc_in_lib && not a.Access.acc_in_ctor
  && a.Access.acc_anchor <> None
  && a.Access.acc_owner_path <> None

(* Every test the pair loop makes, and the key it adds, is a function of
   (site, kind, field, owner class): field equality, "one side writes",
   distinct sites and [owners_compatible].  So a later access with the
   same tuple as an earlier one can only add keys that are already
   present, and the first access of each tuple is the one whose
   endpoint a pair keeps.  The loop therefore runs over those first
   accesses alone, each with its endpoint built once, and gives the
   same pairs in the same order as comparing every unprotected dynamic
   access with every usable one. *)
let first_per_tuple accs =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (a : Access.acc) ->
      let t =
        (a.Access.acc_site, a.Access.acc_kind, a.Access.acc_field, a.Access.acc_obj_cls)
      in
      if Hashtbl.mem seen t then None
      else begin
        Hashtbl.replace seen t ();
        Option.map (fun e -> (a.Access.acc_field, e)) (endpoint_of a)
      end)
    accs

let generate (res : Access.result) : pair list =
  let all = List.filter usable res.Access.accesses in
  let unprot = first_per_tuple (List.filter (fun a -> a.Access.acc_unprot) all) in
  (* The usable first accesses of each field, in trace order. *)
  let by_field = Hashtbl.create 32 in
  List.iter
    (fun (f, e) ->
      Hashtbl.replace by_field f
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_field f)))
    (List.rev (first_per_tuple all));
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let add p =
    let k = key_of p in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      out := p :: !out
    end
  in
  List.iter
    (fun (f, eu) ->
      (* (a) the same label from two threads, for writes *)
      if eu.ep_kind = Access.Kwrite then add { p_field = f; p_a = eu; p_b = eu };
      (* (b) any conflicting access to the same field *)
      List.iter
        (fun eo ->
          if
            (eu.ep_kind = Access.Kwrite || eo.ep_kind = Access.Kwrite)
            && Runtime.Event.compare_site eu.ep_site eo.ep_site <> 0
            && owners_compatible eu eo
          then add { p_field = f; p_a = eu; p_b = eo })
        (Option.value ~default:[] (Hashtbl.find_opt by_field f)))
    unprot;
  List.rev !out
