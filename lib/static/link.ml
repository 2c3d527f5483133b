(* The global linking phase of the incremental static tier.

   Input: the program (for the class hierarchy) plus one {!Summary.cls}
   per class, in program class order.  The linker assigns global
   allocation-site and region ids by per-class concatenation (exactly
   reproducing the old whole-program solver's first-visit numbering),
   resolves name-based call descriptors against the global method
   universe, iterates the symbolic constraints to the least fixpoint
   the old chaotic AST-walk iteration computed, and materializes the
   same access records, sync regions and escape facts.

   This phase is cheap relative to summarization (no AST in sight) and
   is always recomputed — all whole-program facts (dispatch, subtyping,
   write-once statics, escape closure) live here, which is what lets a
   cached summary stay valid no matter how other classes change. *)

open Jir
module D = Dom
module S = Summary

type target = { tg_qname : string; tg_params : string list }

type t = {
  lk_prog : Program.t;
  lk_infos : D.site_info array;
  lk_accs : D.acc list;
  lk_regions : D.region list;
  lk_esc : D.esc;
  lk_shared : D.Sites.t;
}

let accs t = t.lk_accs
let regions t = t.lk_regions
let esc t = t.lk_esc
let shared t = t.lk_shared
let prog t = t.lk_prog

(* Unreachable raise: a site id enters a points-to set only as
   [site_offset + k] for a summary's own site [k], below that summary's
   site count ([Summary.of_class] builds it so, and [Summary.of_string]
   rejects a cached summary that is not), or by enumerating the site
   table itself (open-world seeding, [all_sites]).  So every site in an
   access base or in [shared] indexes [lk_infos]; only a caller that
   invents an id reaches the raise. *)
let site_info t s =
  if s >= 0 && s < Array.length t.lk_infos then t.lk_infos.(s)
  else
    invalid_arg
      (Printf.sprintf "Link.site_info: unknown allocation site %d (have %d)" s
         (Array.length t.lk_infos))

(* ---- solver state ---- *)

type st = {
  infos : D.site_info array;
  temps : D.Sites.t array array;  (* per class, per temp *)
  vthis : (string, D.Sites.t) Hashtbl.t;
  vret : (string, D.Sites.t) Hashtbl.t;
  vlocal : (string * string, D.Sites.t) Hashtbl.t;
  vstatic : (string * string, D.Sites.t) Hashtbl.t;
  vfield : (D.site * string, D.Sites.t) Hashtbl.t;
  instance_tbl : (string, target list) Hashtbl.t;  (* by simple name *)
  static_tbl : (string, target list) Hashtbl.t;
  ctor_tbl : (string * int, target list) Hashtbl.t;  (* (cls, arity) *)
  fieldinit_tbl : (string, string) Hashtbl.t;  (* cls -> qname *)
  mutable changed : bool;
}

let get tbl k =
  match Hashtbl.find_opt tbl k with Some s -> s | None -> D.Sites.empty

let add st tbl k v =
  if not (D.Sites.is_empty v) then begin
    let cur = get tbl k in
    if not (D.Sites.subset v cur) then begin
      Hashtbl.replace tbl k (D.Sites.union cur v);
      st.changed <- true
    end
  end

let add_temp st temps k v =
  if not (D.Sites.is_empty v) then
    if not (D.Sites.subset v temps.(k)) then begin
      temps.(k) <- D.Sites.union temps.(k) v;
      st.changed <- true
    end

let targets tbl name = match Hashtbl.find_opt tbl name with Some l -> l | None -> []

let build_tables st (sums : S.cls list) =
  let push tbl k tg =
    Hashtbl.replace tbl k (targets tbl k @ [ tg ])
  in
  List.iter
    (fun (s : S.cls) ->
      List.iter
        (fun (m : S.msum) ->
          let tg =
            { tg_qname = m.S.ms_qname; tg_params = List.map snd m.S.ms_params }
          in
          match m.S.ms_kind with
          | S.Wnormal ->
            if m.S.ms_static then push st.static_tbl m.S.ms_name tg
            else push st.instance_tbl m.S.ms_name tg
          | S.Wctor ->
            push st.ctor_tbl (s.S.cs_name, List.length m.S.ms_params) tg
          | S.Wfieldinit ->
            Hashtbl.replace st.fieldinit_tbl s.S.cs_name m.S.ms_qname
          | S.Wclinit -> ())
        s.S.cs_meths)
    sums

(* Receiver flows to [this] of every name-matched target; parameters
   bind only on arity match; the result is the union of every
   name-matched target's return value — mirroring the old [dispatch]. *)
let dispatch st ~recv ~argv tgs =
  List.fold_left
    (fun acc tg ->
      (match recv with
      | Some r -> add st st.vthis tg.tg_qname r
      | None -> ());
      if List.length tg.tg_params = List.length argv then
        List.iter2
          (fun p v -> add st st.vlocal (tg.tg_qname, p) v)
          tg.tg_params argv;
      D.Sites.union acc (get st.vret tg.tg_qname))
    D.Sites.empty tgs

let var_get st temps = function
  | S.Vtemp k -> temps.(k)
  | S.Vthis qn -> get st.vthis qn
  | S.Vret qn -> get st.vret qn
  | S.Vlocal (qn, x) -> get st.vlocal (qn, x)
  | S.Vstatic (c, f) -> get st.vstatic (c, f)

let var_add st temps v value =
  match v with
  | S.Vtemp k -> add_temp st temps k value
  | S.Vthis qn -> add st st.vthis qn value
  | S.Vret qn -> add st st.vret qn value
  | S.Vlocal (qn, x) -> add st st.vlocal (qn, x) value
  | S.Vstatic (c, f) -> add st st.vstatic (c, f) value

let load st bs f =
  D.Sites.fold
    (fun s acc -> D.Sites.union acc (get st.vfield (s, f)))
    bs D.Sites.empty

let apply_con st prog ~site_offset ~temps (c : S.con) =
  match c with
  | S.Ccopy (d, src) -> var_add st temps d (var_get st temps src)
  | S.Cload (d, b, f) -> var_add st temps d (load st (var_get st temps b) f)
  | S.Cstore (b, f, src) ->
    let v = var_get st temps src in
    D.Sites.iter (fun s -> add st st.vfield (s, f) v) (var_get st temps b)
  | S.Cnew (d, k, cls, args) ->
    let this = D.Sites.singleton (site_offset + k) in
    add_temp st temps d this;
    let argv = List.map (fun a -> temps.(a)) args in
    List.iter
      (fun (anc : Ast.class_decl) ->
        match Hashtbl.find_opt st.fieldinit_tbl anc.Ast.c_name with
        | Some qn -> add st st.vthis qn this
        | None -> ())
      (Program.ancestors prog cls);
    ignore
      (dispatch st ~recv:(Some this) ~argv
         (targets st.ctor_tbl (cls, List.length args)))
  | S.Cnewarr (d, k) -> add_temp st temps d (D.Sites.singleton (site_offset + k))
  | S.Cicall (d, r, m, args) ->
    let argv = List.map (fun a -> temps.(a)) args in
    add_temp st temps d
      (dispatch st ~recv:(Some temps.(r)) ~argv (targets st.instance_tbl m))
  | S.Cscall (d, m, args) ->
    let argv = List.map (fun a -> temps.(a)) args in
    add_temp st temps d (dispatch st ~recv:None ~argv (targets st.static_tbl m))

(* ---- open-world boundary (same rule as the old solver) ---- *)

let site_compatible prog (ty : Ast.ty) (info : D.site_info) =
  match ty with
  | Ast.Tclass _ ->
    (not info.D.si_array)
    && Program.is_subtype prog (Ast.Tclass info.D.si_cls) ty
  | Ast.Tarray e ->
    info.D.si_array && String.equal info.D.si_cls (Ast.ty_to_string e ^ "[]")
  | _ -> false

let compatible_sites st prog ty =
  let acc = ref D.Sites.empty in
  Array.iteri
    (fun s info -> if site_compatible prog ty info then acc := D.Sites.add s !acc)
    st.infos;
  !acc

(* Seed [this] and every reference-typed parameter of every method with
   all type-compatible allocation sites.  The old solver re-seeded at
   the top of every pass while the site universe was still growing;
   here every site is known up front, so seeding once yields the same
   least fixpoint. *)
let seed_open_world st prog (sums : S.cls list) =
  List.iter
    (fun (s : S.cls) ->
      List.iter
        (fun (m : S.msum) ->
          if not m.S.ms_static then
            add st st.vthis m.S.ms_qname
              (compatible_sites st prog (Ast.Tclass s.S.cs_name));
          List.iter
            (fun (ty, p) ->
              add st st.vlocal
                (m.S.ms_qname, p)
                (compatible_sites st prog (S.ty_of_string ty)))
            m.S.ms_params)
        s.S.cs_meths)
    sums

(* ---- linking ---- *)

let solve ?(open_world = false) (prog : Program.t) (sums : S.cls list) : t =
  (* Global site ids: per-class concatenation in program class order. *)
  let nsites =
    List.fold_left (fun n (s : S.cls) -> n + List.length s.S.cs_sites) 0 sums
  in
  let infos =
    Array.make nsites
      { D.si_cls = ""; si_meth = ""; si_pos = { Ast.line = 0; col = 0 }; si_array = false }
  in
  let site_offsets =
    let off = ref 0 in
    List.map
      (fun (s : S.cls) ->
        let o = !off in
        List.iteri
          (fun i (d : S.sdecl) ->
            infos.(o + i) <-
              {
                D.si_cls = d.S.sd_cls;
                si_meth = d.S.sd_qname;
                si_pos = d.S.sd_pos;
                si_array = d.S.sd_array;
              })
          s.S.cs_sites;
        off := o + List.length s.S.cs_sites;
        o)
      sums
  in
  let st =
    {
      infos;
      temps =
        Array.of_list
          (List.map (fun (s : S.cls) -> Array.make s.S.cs_ntemps D.Sites.empty) sums);
      vthis = Hashtbl.create 16;
      vret = Hashtbl.create 16;
      vlocal = Hashtbl.create 64;
      vstatic = Hashtbl.create 16;
      vfield = Hashtbl.create 64;
      instance_tbl = Hashtbl.create 16;
      static_tbl = Hashtbl.create 16;
      ctor_tbl = Hashtbl.create 16;
      fieldinit_tbl = Hashtbl.create 16;
      changed = true;
    }
  in
  build_tables st sums;
  if open_world then seed_open_world st prog sums;
  let indexed = List.combine (List.combine sums site_offsets) (Array.to_list st.temps) in
  while st.changed do
    st.changed <- false;
    List.iter
      (fun (((s : S.cls), site_offset), temps) ->
        List.iter (apply_con st prog ~site_offset ~temps) s.S.cs_cons)
      indexed
  done;
  (* ---- whole-program lock facts ---- *)
  let muts : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : S.cls) ->
      List.iter (fun cf -> Hashtbl.replace muts cf ()) s.S.cs_muts)
    sums;
  let write_once c f = not (Hashtbl.mem muts (c, f)) in
  let resolve_alp = function
    | S.Athis -> D.Lthis
    | S.Alocal x -> D.Llocal x
    | S.Aglobal (c, f) -> if write_once c f then D.Lglobal (c, f) else D.Lunknown
    | S.Aunknown -> D.Lunknown
  in
  (* ---- materialize accesses and regions ---- *)
  let skip_array_length field bases =
    (not (String.equal field "[]"))
    && (not (D.Sites.is_empty bases))
    && D.Sites.for_all (fun s -> infos.(s).D.si_array) bases
  in
  let next_acc = ref 0 in
  let region_off = ref 0 in
  let acc_out = ref [] in
  let region_out = ref [] in
  List.iter
    (fun (((s : S.cls), _), temps) ->
      let meths = Array.of_list s.S.cs_meths in
      let roff = !region_off in
      List.iteri
        (fun i (r : S.rtmpl) ->
          region_out :=
            {
              D.rg_id = roff + i;
              rg_qname = meths.(r.S.rt_meth).S.ms_qname;
              rg_cls = s.S.cs_name;
              rg_pos = r.S.rt_pos;
              rg_kind = r.S.rt_kind;
            }
            :: !region_out)
        s.S.cs_regions;
      region_off := roff + List.length s.S.cs_regions;
      List.iter
        (fun (a : S.atmpl) ->
          let base =
            match a.S.at_base with
            | S.Atemp k -> D.Binst temps.(k)
            | S.Astatic c -> D.Bstatic c
          in
          let skip =
            match base with
            | D.Binst bs -> skip_array_length a.S.at_field bs
            | D.Bstatic _ -> false
          in
          if not skip then begin
            let id = !next_acc in
            next_acc := id + 1;
            acc_out :=
              {
                D.sa_id = id;
                sa_qname = meths.(a.S.at_meth).S.ms_qname;
                sa_cls = s.S.cs_name;
                sa_field = a.S.at_field;
                sa_kind = a.S.at_kind;
                sa_pos = a.S.at_pos;
                sa_base = base;
                sa_base_path = resolve_alp a.S.at_path;
                sa_locks = List.map resolve_alp a.S.at_locks;
                sa_regions = List.map (fun r -> roff + r) a.S.at_regions;
              }
              :: !acc_out
          end)
        s.S.cs_accs)
    indexed;
  (* ---- escape facts ---- *)
  let all_sites =
    let rec go acc i = if i < 0 then acc else go (D.Sites.add i acc) (i - 1) in
    go D.Sites.empty (nsites - 1)
  in
  let esc =
    if open_world then
      {
        D.esc_parallel = true;
        esc_reachable = Hashtbl.create 1;
        esc_shared = all_sites;
      }
    else begin
      let edge_map : (string, string list) Hashtbl.t = Hashtbl.create 32 in
      let resolve_edge = function
        | S.Einst m -> List.map (fun tg -> tg.tg_qname) (targets st.instance_tbl m)
        | S.Estat m -> List.map (fun tg -> tg.tg_qname) (targets st.static_tbl m)
        | S.Enewed (cls, arity) ->
          List.map (fun tg -> tg.tg_qname) (targets st.ctor_tbl (cls, arity))
          @ List.concat_map
              (fun (anc : Ast.class_decl) ->
                match Hashtbl.find_opt st.fieldinit_tbl anc.Ast.c_name with
                | Some qn -> [ qn ]
                | None -> [])
              (Program.ancestors prog cls)
      in
      List.iter
        (fun (s : S.cls) ->
          let meths = Array.of_list s.S.cs_meths in
          List.iter
            (fun (mi, edges) ->
              let qn = meths.(mi).S.ms_qname in
              let prev =
                match Hashtbl.find_opt edge_map qn with Some l -> l | None -> []
              in
              Hashtbl.replace edge_map qn
                (prev @ List.concat_map resolve_edge edges))
            s.S.cs_edges)
        sums;
      let spawn_reachable = Hashtbl.create 32 in
      let rec reach qn =
        if not (Hashtbl.mem spawn_reachable qn) then begin
          Hashtbl.add spawn_reachable qn ();
          match Hashtbl.find_opt edge_map qn with
          | Some succs -> List.iter reach succs
          | None -> ()
        end
      in
      List.iter
        (fun (s : S.cls) ->
          List.iter
            (fun m ->
              List.iter (fun tg -> reach tg.tg_qname) (targets st.instance_tbl m))
            s.S.cs_roots)
        sums;
      let seeds =
        List.fold_left
          (fun acc (((s : S.cls), _), temps) ->
            List.fold_left
              (fun acc k -> D.Sites.union acc temps.(k))
              acc s.S.cs_seeds)
          D.Sites.empty indexed
      in
      let static_values =
        Hashtbl.fold (fun _ v acc -> D.Sites.union acc v) st.vstatic D.Sites.empty
      in
      let fields_of_site =
        let by_site = Array.make nsites [] in
        Hashtbl.iter
          (fun (s, _) v -> if s >= 0 && s < nsites then by_site.(s) <- v :: by_site.(s))
          st.vfield;
        by_site
      in
      let shared = ref D.Sites.empty in
      let work = ref (D.Sites.union seeds static_values) in
      while not (D.Sites.is_empty !work) do
        let s = D.Sites.min_elt !work in
        work := D.Sites.remove s !work;
        if not (D.Sites.mem s !shared) then begin
          shared := D.Sites.add s !shared;
          List.iter
            (fun v -> work := D.Sites.union !work (D.Sites.diff v !shared))
            fields_of_site.(s)
        end
      done;
      { D.esc_parallel = false; esc_reachable = spawn_reachable; esc_shared = !shared }
    end
  in
  {
    lk_prog = prog;
    lk_infos = infos;
    lk_accs = List.rev !acc_out;
    lk_regions = List.rev !region_out;
    lk_esc = esc;
    lk_shared = esc.D.esc_shared;
  }
