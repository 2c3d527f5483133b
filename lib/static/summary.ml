(* Per-class summaries for the incremental static tier.

   A summary is a pure function of one class declaration: the class's
   method bodies are walked exactly once, in the same fixed
   left-to-right order the old whole-program solver used, and every
   points-to-relevant step is recorded as a symbolic constraint over
   boundary variables ([this]/param/return/static/field slots named by
   qname, plus per-occurrence temporaries).  Nothing in a summary
   depends on any other class: calls stay name-based descriptors,
   [new C] stays a (class, arity) descriptor, and lock paths that
   depend on global write-once facts stay conditional — all of it is
   resolved by the cheap linking phase ({!Link}), which is why editing
   one class never invalidates another class's cached summary.

   The same walk also records access/lock-region templates (mirroring
   the old access collector), call-graph edges and spawn roots/seeds
   for the escape closure, and the statics this class assigns outside
   [<clinit>].

   Summaries serialize to a canonical line-oriented text form
   ({!to_lines}/{!of_lines}); the on-disk cache stores exactly these
   bytes, keyed by {!digest}, a content digest of the class AST
   (structure via the canonical pretty-printer, plus the source
   positions that flow into lint spans). *)

open Jir
module D = Dom

type wkind = Wnormal | Wctor | Wfieldinit | Wclinit

(* One walkable method body of the class: a declared concrete method or
   a synthetic <fieldinit>/<clinit>, body omitted — the constraints
   below already encode everything the link phase needs. *)
type msum = {
  ms_name : string;  (* simple name (<init> for constructors) *)
  ms_qname : string;  (* Cls.name, matching the VM's site naming *)
  ms_kind : wkind;
  ms_sync : bool;
  ms_static : bool;
  ms_params : (string * string) list;  (* (printed type, name) *)
}

(* A points-to variable.  Temps are class-local dense indices; the
   rest are the boundary variables summaries compose over. *)
type var =
  | Vtemp of int
  | Vthis of string  (* qname *)
  | Vret of string  (* qname *)
  | Vlocal of string * string  (* (qname, var) *)
  | Vstatic of string * string  (* (cls, field) *)

(* Symbolic Andersen constraints, in walk order.  Call/new constraints
   carry name-based descriptors resolved at link time. *)
type con =
  | Ccopy of var * var  (* dst ⊇ src *)
  | Cload of var * var * string  (* dst ⊇ base.f (f = "[]" for elems) *)
  | Cstore of var * string * var  (* base.f ⊇ src *)
  | Cnew of int * int * string * int list
      (* (dst temp, local site, class, arg temps): dst = {site}; the
         site flows to [this] of every ctor of matching arity and every
         inherited <fieldinit>; args flow to ctor params *)
  | Cnewarr of int * int  (* (dst temp, local site) *)
  | Cicall of int * int * string * int list
      (* (dst temp, recv temp, name, arg temps): name-based instance
         dispatch; also used for spawn targets *)
  | Cscall of int * string * int list  (* static dispatch by name *)

(* Allocation-site declaration, in walk order; global ids are assigned
   by the linker (per-class concatenation reproduces the old solver's
   first-visit numbering). *)
type sdecl = {
  sd_qname : string;
  sd_cls : string;  (* class name, or "ty[]" for array sites *)
  sd_array : bool;
  sd_pos : Ast.pos;
}

(* Lock-path template: [Aglobal] stays conditional — whether the
   static is write-once is a whole-program fact the linker settles. *)
type alp = Athis | Alocal of string | Aglobal of string * string | Aunknown

type abase = Atemp of int | Astatic of string

(* Access template: everything the old collector recorded, with the
   base's may-point-to set replaced by the temp var of the base
   expression occurrence. *)
type atmpl = {
  at_meth : int;  (* index into [cs_meths] *)
  at_field : string;
  at_kind : D.kind;
  at_pos : Ast.pos;
  at_base : abase;
  at_path : alp;
  at_locks : alp list;  (* outermost first *)
  at_regions : int list;  (* class-local region indices, outermost first *)
}

type rtmpl = { rt_meth : int; rt_kind : D.region_kind; rt_pos : Ast.pos }

(* Out-edge descriptors for the escape call-graph closure. *)
type edge = Einst of string | Estat of string | Enewed of string * int

type cls = {
  cs_name : string;
  cs_meths : msum list;
  cs_ntemps : int;
  cs_cons : con list;
  cs_sites : sdecl list;
  cs_accs : atmpl list;
  cs_regions : rtmpl list;
  cs_edges : (int * edge list) list;  (* per-method out edges *)
  cs_roots : string list;  (* spawn target method names *)
  cs_seeds : int list;  (* temps of spawn receivers/arguments *)
  cs_muts : (string * string) list;  (* statics assigned outside <clinit> *)
}

let qname cls m = cls ^ "." ^ m

(* ---- the walkable-method universe of one class ---- *)

let synth_inits (c : Ast.class_decl) ~static =
  List.filter_map
    (fun (f : Ast.field_decl) ->
      match f.f_init with
      | Some e when Bool.equal f.f_static static ->
        let lv =
          if static then Ast.Lstatic (c.c_name, f.f_name)
          else Ast.Lfield (Ast.mk_expr ~pos:f.f_pos Ast.Ethis, f.f_name)
        in
        Some (Ast.mk_stmt ~pos:f.f_pos (Ast.Sassign (lv, e)))
      | _ -> None)
    c.c_fields

(* Mirrors the old [build_meths], restricted to one class: declared
   concrete methods in order, then synthetic <fieldinit> and <clinit>
   when the class has initialized fields. *)
type wmeth = {
  wm_name : string;
  wm_qname : string;
  wm_kind : wkind;
  wm_sync : bool;
  wm_static : bool;
  wm_params : (Ast.ty * Ast.id) list;
  wm_body : Ast.block;
  wm_pos : Ast.pos;
}

let build_meths (c : Ast.class_decl) : wmeth list =
  if c.c_kind = Ast.Kinterface then []
  else
    let normal =
      List.filter_map
        (fun (m : Ast.method_decl) ->
          if m.m_abstract then None
          else
            Some
              {
                wm_name = m.m_name;
                wm_qname = qname c.c_name m.m_name;
                wm_kind = (if Ast.is_ctor m then Wctor else Wnormal);
                wm_sync = m.m_sync;
                wm_static = m.m_static;
                wm_params = m.m_params;
                wm_body = m.m_body;
                wm_pos = m.m_pos;
              })
        c.c_methods
    in
    let synth name kind static =
      match synth_inits c ~static with
      | [] -> []
      | body ->
        [
          {
            wm_name = name;
            wm_qname = qname c.c_name name;
            wm_kind = kind;
            wm_sync = false;
            wm_static = static;
            wm_params = [];
            wm_body = body;
            wm_pos = c.c_pos;
          };
        ]
    in
    normal
    @ synth Code.fieldinit_name Wfieldinit false
    @ synth "<clinit>" Wclinit true

(* ---- extraction ---- *)

module ExprTbl = Hashtbl.Make (struct
  type t = Ast.expr

  (* Physical identity: both walks below traverse the same AST nodes,
     so [==] identifies occurrences. *)
  let equal = ( == )
  let hash = Hashtbl.hash
end)

type ctx = {
  cls_name : string;
  mutable ntemps : int;
  mutable cons : con list;  (* reversed *)
  mutable sites : sdecl list;  (* reversed *)
  temps : int ExprTbl.t;  (* expr occurrence -> temp *)
}

let fresh ctx =
  let t = ctx.ntemps in
  ctx.ntemps <- t + 1;
  t

let con ctx c = ctx.cons <- c :: ctx.cons

let site ctx ~qn ~cls ~array ~pos =
  let k = List.length ctx.sites in
  ctx.sites <- { sd_qname = qn; sd_cls = cls; sd_array = array; sd_pos = pos } :: ctx.sites;
  k

(* One visit per expression occurrence, in the exact order the old
   solver's [eval] visited subterms — allocation-site numbering and
   temp identity depend on it. *)
let rec walk_expr ctx ~qn (e : Ast.expr) : int =
  let d = fresh ctx in
  ExprTbl.replace ctx.temps e d;
  (match e.Ast.desc with
  | Eint _ | Ebool _ | Estr _ | Enull -> ()
  | Ethis -> con ctx (Ccopy (Vtemp d, Vthis qn))
  | Evar x -> con ctx (Ccopy (Vtemp d, Vlocal (qn, x)))
  | Efield (o, f) ->
    let bo = walk_expr ctx ~qn o in
    con ctx (Cload (Vtemp d, Vtemp bo, f))
  | Estatic_field (c, f) -> con ctx (Ccopy (Vtemp d, Vstatic (c, f)))
  | Eindex (a, i) ->
    let ba = walk_expr ctx ~qn a in
    ignore (walk_expr ctx ~qn i);
    con ctx (Cload (Vtemp d, Vtemp ba, "[]"))
  | Ecall (o, m, args) ->
    let r = walk_expr ctx ~qn o in
    let avs = List.map (walk_expr ctx ~qn) args in
    con ctx (Cicall (d, r, m, avs))
  | Estatic_call (c, m, args) when String.equal c Program.sys_class ->
    let avs = List.map (walk_expr ctx ~qn) args in
    (* Sys.arraycopy copies references elementwise; no intrinsic
       returns an object reference. *)
    if String.equal m "arraycopy" then (
      match avs with
      | [ src; _; dst; _; _ ] ->
        let elems = fresh ctx in
        con ctx (Cload (Vtemp elems, Vtemp src, "[]"));
        con ctx (Cstore (Vtemp dst, "[]", Vtemp elems))
      | _ -> ())
  | Estatic_call (_, m, args) ->
    let avs = List.map (walk_expr ctx ~qn) args in
    con ctx (Cscall (d, m, avs))
  | Enew (cls, args) ->
    (* site numbered before the arguments are walked, like [eval] *)
    let k = site ctx ~qn ~cls ~array:false ~pos:e.Ast.pos in
    let avs = List.map (walk_expr ctx ~qn) args in
    con ctx (Cnew (d, k, cls, avs))
  | Enew_array (ty, n) ->
    ignore (walk_expr ctx ~qn n);
    let k =
      site ctx ~qn ~cls:(Ast.ty_to_string ty ^ "[]") ~array:true ~pos:e.Ast.pos
    in
    con ctx (Cnewarr (d, k))
  | Ebinop (_, a, b) ->
    ignore (walk_expr ctx ~qn a);
    ignore (walk_expr ctx ~qn b)
  | Eunop (_, a) -> ignore (walk_expr ctx ~qn a));
  d

let rec walk_stmt ctx ~qn (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Sdecl (_, x, init) ->
    Option.iter
      (fun e ->
        let t = walk_expr ctx ~qn e in
        con ctx (Ccopy (Vlocal (qn, x), Vtemp t)))
      init
  | Sassign (Lvar x, e) ->
    let t = walk_expr ctx ~qn e in
    con ctx (Ccopy (Vlocal (qn, x), Vtemp t))
  | Sassign (Lfield (o, f), e) ->
    let bo = walk_expr ctx ~qn o in
    let t = walk_expr ctx ~qn e in
    con ctx (Cstore (Vtemp bo, f, Vtemp t))
  | Sassign (Lstatic (c, f), e) ->
    let t = walk_expr ctx ~qn e in
    con ctx (Ccopy (Vstatic (c, f), Vtemp t))
  | Sassign (Lindex (a, i), e) ->
    let ba = walk_expr ctx ~qn a in
    ignore (walk_expr ctx ~qn i);
    let t = walk_expr ctx ~qn e in
    con ctx (Cstore (Vtemp ba, "[]", Vtemp t))
  | Sexpr e -> ignore (walk_expr ctx ~qn e)
  | Sif (c, th, el) ->
    ignore (walk_expr ctx ~qn c);
    walk_block ctx ~qn th;
    walk_block ctx ~qn el
  | Swhile (c, b) ->
    ignore (walk_expr ctx ~qn c);
    walk_block ctx ~qn b
  | Sfor (init, cond, update, b) ->
    Option.iter (walk_stmt ctx ~qn) init;
    Option.iter (fun e -> ignore (walk_expr ctx ~qn e)) cond;
    walk_block ctx ~qn b;
    Option.iter (walk_stmt ctx ~qn) update
  | Sbreak | Scontinue | Sreturn None | Sthrow _ -> ()
  | Sreturn (Some e) ->
    let t = walk_expr ctx ~qn e in
    con ctx (Ccopy (Vret qn, Vtemp t))
  | Ssync (e, b) ->
    ignore (walk_expr ctx ~qn e);
    walk_block ctx ~qn b
  | Sassert e -> ignore (walk_expr ctx ~qn e)
  | Sspawn (_, recv, m, args) ->
    let r = walk_expr ctx ~qn recv in
    let avs = List.map (walk_expr ctx ~qn) args in
    let d = fresh ctx in
    con ctx (Cicall (d, r, m, avs))
  | Sjoin e -> ignore (walk_expr ctx ~qn e)

and walk_block ctx ~qn b = List.iter (walk_stmt ctx ~qn) b

(* ---- lock-path stability (class-local facts) ---- *)

(* Defs per (qname, var); a path-stable local has exactly one def and
   that def is a parameter or an initialized declaration. *)
let local_defs (meths : wmeth list) =
  let defs : (string * string, int * bool) Hashtbl.t = Hashtbl.create 64 in
  let note qn x ~stable =
    let n =
      match Hashtbl.find_opt defs (qn, x) with Some (n, _) -> n | None -> 0
    in
    Hashtbl.replace defs (qn, x) (n + 1, if n = 0 then stable else false)
  in
  let rec stmt qn (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Sdecl (_, x, init) -> note qn x ~stable:(Option.is_some init)
    | Sassign (Lvar x, _) -> note qn x ~stable:false
    | Sassign ((Lfield _ | Lstatic _ | Lindex _), _)
    | Sexpr _ | Sbreak | Scontinue | Sreturn _ | Sassert _ | Sthrow _
    | Sjoin _ ->
      ()
    | Sif (_, a, b) ->
      List.iter (stmt qn) a;
      List.iter (stmt qn) b
    | Swhile (_, b) -> List.iter (stmt qn) b
    | Sfor (init, _, update, b) ->
      Option.iter (stmt qn) init;
      List.iter (stmt qn) b;
      Option.iter (stmt qn) update
    | Ssync (_, b) -> List.iter (stmt qn) b
    | Sspawn (x, _, _, _) -> note qn x ~stable:false
  in
  List.iter
    (fun (w : wmeth) ->
      List.iter (fun (_, p) -> note w.wm_qname p ~stable:true) w.wm_params;
      List.iter (stmt w.wm_qname) w.wm_body)
    meths;
  fun qn x ->
    match Hashtbl.find_opt defs (qn, x) with
    | Some (1, true) -> true
    | _ -> false

(* Statics this class assigns outside a <clinit> body: candidates for
   global-lock demotion, unioned across classes at link time. *)
let assigned_statics (meths : wmeth list) =
  let muts : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let rec stmt (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Sassign (Lstatic (c, f), _) ->
      if not (Hashtbl.mem muts (c, f)) then begin
        Hashtbl.replace muts (c, f) ();
        order := (c, f) :: !order
      end
    | Sdecl _
    | Sassign ((Lvar _ | Lfield _ | Lindex _), _)
    | Sexpr _ | Sbreak | Scontinue | Sreturn _ | Sassert _ | Sthrow _
    | Sspawn _ | Sjoin _ ->
      ()
    | Sif (_, a, b) ->
      List.iter stmt a;
      List.iter stmt b
    | Swhile (_, b) | Ssync (_, b) -> List.iter stmt b
    | Sfor (init, _, update, b) ->
      Option.iter stmt init;
      List.iter stmt b;
      Option.iter stmt update
  in
  List.iter
    (fun (w : wmeth) -> if w.wm_kind <> Wclinit then List.iter stmt w.wm_body)
    meths;
  List.rev !order

(* ---- access / region templates (mirrors the old collector) ---- *)

type actx = {
  single_def : string -> string -> bool;
  temps_of : int ExprTbl.t;
  mutable aout : atmpl list;  (* reversed *)
  mutable rout : rtmpl list;  (* reversed *)
}

let alp_of actx ~qn (e : Ast.expr) : alp =
  match e.Ast.desc with
  | Ethis -> Athis
  | Evar x when actx.single_def qn x -> Alocal x
  | Estatic_field (c, f) -> Aglobal (c, f)  (* write-once settled at link *)
  | _ -> Aunknown

let temp_of actx (e : Ast.expr) =
  match ExprTbl.find_opt actx.temps_of e with
  | Some t -> t
  | None -> invalid_arg "Summary: access base without a recorded temp"

let collect_accs actx ~mi (w : wmeth) =
  let qn = w.wm_qname in
  let emit ~locks ~regions ~kind ~field ~base ~path ~pos =
    actx.aout <-
      {
        at_meth = mi;
        at_field = field;
        at_kind = kind;
        at_pos = pos;
        at_base = base;
        at_path = path;
        at_locks = List.rev locks;
        at_regions = List.rev regions;
      }
      :: actx.aout
  in
  let rec expr ~locks ~regions (e : Ast.expr) =
    match e.Ast.desc with
    | Eint _ | Ebool _ | Estr _ | Enull | Ethis | Evar _ -> ()
    | Efield (o, f) ->
      expr ~locks ~regions o;
      emit ~locks ~regions ~kind:D.Kread ~field:f ~base:(Atemp (temp_of actx o))
        ~path:(alp_of actx ~qn o) ~pos:e.Ast.pos
    | Estatic_field (c, f) ->
      emit ~locks ~regions ~kind:D.Kread ~field:f ~base:(Astatic c)
        ~path:Aunknown ~pos:e.Ast.pos
    | Eindex (a, i) ->
      expr ~locks ~regions a;
      expr ~locks ~regions i;
      emit ~locks ~regions ~kind:D.Kread ~field:"[]"
        ~base:(Atemp (temp_of actx a)) ~path:(alp_of actx ~qn a) ~pos:e.Ast.pos
    | Ecall (o, _, args) ->
      expr ~locks ~regions o;
      List.iter (expr ~locks ~regions) args
    | Estatic_call (c, m, args) ->
      List.iter (expr ~locks ~regions) args;
      if String.equal c Program.sys_class && String.equal m "arraycopy" then (
        match args with
        | [ src; _; dst; _; _ ] ->
          emit ~locks ~regions ~kind:D.Kread ~field:"[]"
            ~base:(Atemp (temp_of actx src)) ~path:(alp_of actx ~qn src)
            ~pos:e.Ast.pos;
          emit ~locks ~regions ~kind:D.Kwrite ~field:"[]"
            ~base:(Atemp (temp_of actx dst)) ~path:(alp_of actx ~qn dst)
            ~pos:e.Ast.pos
        | _ -> ())
    | Enew (_, args) -> List.iter (expr ~locks ~regions) args
    | Enew_array (_, n) -> expr ~locks ~regions n
    | Ebinop (_, a, b) ->
      expr ~locks ~regions a;
      expr ~locks ~regions b
    | Eunop (_, a) -> expr ~locks ~regions a
  in
  let rec stmt ~locks ~regions (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Sdecl (_, _, init) -> Option.iter (expr ~locks ~regions) init
    | Sassign (Lvar _, e) -> expr ~locks ~regions e
    | Sassign (Lfield (o, f), e) ->
      expr ~locks ~regions o;
      expr ~locks ~regions e;
      emit ~locks ~regions ~kind:D.Kwrite ~field:f
        ~base:(Atemp (temp_of actx o)) ~path:(alp_of actx ~qn o)
        ~pos:s.Ast.spos
    | Sassign (Lstatic (c, f), e) ->
      expr ~locks ~regions e;
      emit ~locks ~regions ~kind:D.Kwrite ~field:f ~base:(Astatic c)
        ~path:Aunknown ~pos:s.Ast.spos
    | Sassign (Lindex (a, i), e) ->
      expr ~locks ~regions a;
      expr ~locks ~regions i;
      expr ~locks ~regions e;
      emit ~locks ~regions ~kind:D.Kwrite ~field:"[]"
        ~base:(Atemp (temp_of actx a)) ~path:(alp_of actx ~qn a)
        ~pos:s.Ast.spos
    | Sexpr e | Sassert e | Sjoin e -> expr ~locks ~regions e
    | Sif (c, a, b) ->
      expr ~locks ~regions c;
      List.iter (stmt ~locks ~regions) a;
      List.iter (stmt ~locks ~regions) b
    | Swhile (c, b) ->
      expr ~locks ~regions c;
      List.iter (stmt ~locks ~regions) b
    | Sfor (init, cond, update, b) ->
      Option.iter (stmt ~locks ~regions) init;
      Option.iter (expr ~locks ~regions) cond;
      List.iter (stmt ~locks ~regions) b;
      Option.iter (stmt ~locks ~regions) update
    | Sbreak | Scontinue | Sreturn None | Sthrow _ -> ()
    | Sreturn (Some e) -> expr ~locks ~regions e
    | Ssync (e, b) ->
      expr ~locks ~regions e;
      let rid = List.length actx.rout in
      actx.rout <-
        { rt_meth = mi; rt_kind = D.Rsync_block; rt_pos = s.Ast.spos }
        :: actx.rout;
      let locks = alp_of actx ~qn e :: locks in
      List.iter (stmt ~locks ~regions:(rid :: regions)) b
    | Sspawn (_, recv, _, args) ->
      expr ~locks ~regions recv;
      List.iter (expr ~locks ~regions) args
  in
  let locks, regions =
    if w.wm_sync then begin
      let rid = List.length actx.rout in
      actx.rout <-
        { rt_meth = mi; rt_kind = D.Rsync_method; rt_pos = w.wm_pos }
        :: actx.rout;
      (* A static sync method would lock the class object; the compiler
         rejects those, but stay conservative. *)
      ((if w.wm_static then [ Aunknown ] else [ Athis ]), [ rid ])
    end
    else ([], [])
  in
  List.iter (stmt ~locks ~regions) w.wm_body

(* ---- escape edges, spawn roots and seeds ---- *)

let collect_edges (w : wmeth) : edge list =
  let out = ref [] in
  let rec expr (e : Ast.expr) =
    match e.Ast.desc with
    | Eint _ | Ebool _ | Estr _ | Enull | Ethis | Evar _ | Estatic_field _ -> ()
    | Efield (o, _) | Eunop (_, o) | Enew_array (_, o) -> expr o
    | Eindex (a, b) | Ebinop (_, a, b) ->
      expr a;
      expr b
    | Ecall (o, m, args) ->
      expr o;
      List.iter expr args;
      out := Einst m :: !out
    | Estatic_call (c, m, args) ->
      List.iter expr args;
      if not (String.equal c Program.sys_class) then out := Estat m :: !out
    | Enew (cls, args) ->
      List.iter expr args;
      out := Enewed (cls, List.length args) :: !out
  in
  let rec stmt (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Sdecl (_, _, init) -> Option.iter expr init
    | Sassign (lv, e) ->
      (match lv with
      | Lvar _ | Lstatic _ -> ()
      | Lfield (o, _) -> expr o
      | Lindex (a, i) ->
        expr a;
        expr i);
      expr e
    | Sexpr e | Sassert e | Sjoin e -> expr e
    | Sif (c, a, b) ->
      expr c;
      List.iter stmt a;
      List.iter stmt b
    | Swhile (c, b) ->
      expr c;
      List.iter stmt b
    | Sfor (init, cond, update, b) ->
      Option.iter stmt init;
      Option.iter expr cond;
      List.iter stmt b;
      Option.iter stmt update
    | Sbreak | Scontinue | Sreturn None | Sthrow _ -> ()
    | Sreturn (Some e) -> expr e
    | Ssync (e, b) ->
      expr e;
      List.iter stmt b
    | Sspawn (_, recv, _, args) ->
      (* spawn targets run on a fresh thread: roots, not edges *)
      expr recv;
      List.iter expr args
  in
  List.iter stmt w.wm_body;
  List.rev !out

let collect_spawns (temps : int ExprTbl.t) (w : wmeth) :
    string list * int list =
  let roots = ref [] in
  let seeds = ref [] in
  let temp e =
    match ExprTbl.find_opt temps e with
    | Some t -> t
    | None -> invalid_arg "Summary: spawn operand without a recorded temp"
  in
  let rec stmt (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Sif (_, a, b) ->
      List.iter stmt a;
      List.iter stmt b
    | Swhile (_, b) | Ssync (_, b) -> List.iter stmt b
    | Sfor (init, _, update, b) ->
      Option.iter stmt init;
      List.iter stmt b;
      Option.iter stmt update
    | Sspawn (_, recv, m, args) ->
      roots := m :: !roots;
      seeds := !seeds @ (temp recv :: List.map temp args)
    | Sdecl _ | Sassign _ | Sexpr _ | Sbreak | Scontinue | Sreturn _
    | Sassert _ | Sthrow _ | Sjoin _ ->
      ()
  in
  List.iter stmt w.wm_body;
  (List.rev !roots, !seeds)

(* ---- summarization ---- *)

let of_class (c : Ast.class_decl) : cls =
  let meths = build_meths c in
  let ctx =
    {
      cls_name = c.c_name;
      ntemps = 0;
      cons = [];
      sites = [];
      temps = ExprTbl.create 256;
    }
  in
  List.iter (fun w -> walk_block ctx ~qn:w.wm_qname w.wm_body) meths;
  let actx =
    {
      single_def = local_defs meths;
      temps_of = ctx.temps;
      aout = [];
      rout = [];
    }
  in
  List.iteri
    (fun mi w -> if w.wm_kind <> Wclinit then collect_accs actx ~mi w)
    meths;
  let roots = ref [] and seeds = ref [] in
  List.iter
    (fun w ->
      let r, s = collect_spawns ctx.temps w in
      roots := !roots @ r;
      seeds := !seeds @ s)
    meths;
  {
    cs_name = c.c_name;
    cs_meths =
      List.map
        (fun w ->
          {
            ms_name = w.wm_name;
            ms_qname = w.wm_qname;
            ms_kind = w.wm_kind;
            ms_sync = w.wm_sync;
            ms_static = w.wm_static;
            ms_params =
              List.map (fun (ty, x) -> (Ast.ty_to_string ty, x)) w.wm_params;
          })
        meths;
    cs_ntemps = ctx.ntemps;
    cs_cons = List.rev ctx.cons;
    cs_sites = List.rev ctx.sites;
    cs_accs = List.rev actx.aout;
    cs_regions = List.rev actx.rout;
    cs_edges = List.mapi (fun mi w -> (mi, collect_edges w)) meths;
    cs_roots = !roots;
    cs_seeds = !seeds;
    cs_muts = assigned_statics meths;
  }

(* ---- type strings (params are stored printed; the linker parses
   them back for open-world compatible-site seeding) ---- *)

let rec ty_of_string s : Ast.ty =
  if Filename.check_suffix s "[]" then
    Ast.Tarray (ty_of_string (Filename.chop_suffix s "[]"))
  else
    match s with
    | "int" -> Ast.Tint
    | "bool" -> Ast.Tbool
    | "str" -> Ast.Tstr
    | "void" -> Ast.Tvoid
    | "thread" -> Ast.Tthread
    | c -> Ast.Tclass c

(* ---- content digest ---- *)

(* The cache key: structure and names via the canonical pretty-printer,
   plus every source position (positions flow into lint spans and
   candidate strings, so moving a method must miss the cache even when
   the code is otherwise identical). *)
let digest (c : Ast.class_decl) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "narada.staticsum/1\n";
  Buffer.add_string b (Pretty.class_to_string c);
  Buffer.add_char b '\n';
  let pos (p : Ast.pos) =
    Buffer.add_string b (string_of_int p.Ast.line);
    Buffer.add_char b ':';
    Buffer.add_string b (string_of_int p.Ast.col);
    Buffer.add_char b ';'
  in
  let rec expr (e : Ast.expr) =
    pos e.Ast.pos;
    match e.Ast.desc with
    | Eint _ | Ebool _ | Estr _ | Enull | Ethis | Evar _ | Estatic_field _ -> ()
    | Efield (o, _) | Eunop (_, o) | Enew_array (_, o) -> expr o
    | Eindex (x, y) | Ebinop (_, x, y) ->
      expr x;
      expr y
    | Ecall (o, _, args) ->
      expr o;
      List.iter expr args
    | Estatic_call (_, _, args) | Enew (_, args) -> List.iter expr args
  in
  let rec stmt (s : Ast.stmt) =
    pos s.Ast.spos;
    match s.Ast.sdesc with
    | Sdecl (_, _, init) -> Option.iter expr init
    | Sassign (lv, e) ->
      (match lv with
      | Lvar _ | Lstatic _ -> ()
      | Lfield (o, _) -> expr o
      | Lindex (a, i) ->
        expr a;
        expr i);
      expr e
    | Sexpr e | Sassert e | Sjoin e | Sreturn (Some e) -> expr e
    | Sif (c, a, bl) ->
      expr c;
      List.iter stmt a;
      List.iter stmt bl
    | Swhile (c, bl) | Ssync (c, bl) ->
      expr c;
      List.iter stmt bl
    | Sfor (init, cond, update, bl) ->
      Option.iter stmt init;
      Option.iter expr cond;
      List.iter stmt bl;
      Option.iter stmt update
    | Sbreak | Scontinue | Sreturn None | Sthrow _ -> ()
    | Sspawn (_, recv, _, args) ->
      expr recv;
      List.iter expr args
  in
  pos c.c_pos;
  List.iter
    (fun (f : Ast.field_decl) ->
      pos f.f_pos;
      Option.iter expr f.f_init)
    c.c_fields;
  List.iter
    (fun (m : Ast.method_decl) ->
      pos m.m_pos;
      List.iter stmt m.m_body)
    c.c_methods;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- canonical text codec ---- *)

(* Leading line of the serialized form. *)
let schema = "narada.staticsum/1"

let wkind_to_string = function
  | Wnormal -> "n"
  | Wctor -> "c"
  | Wfieldinit -> "f"
  | Wclinit -> "s"

let wkind_of_string = function
  | "n" -> Some Wnormal
  | "c" -> Some Wctor
  | "f" -> Some Wfieldinit
  | "s" -> Some Wclinit
  | _ -> None

let var_to_string = function
  | Vtemp k -> "t" ^ string_of_int k
  | Vthis qn -> "T!" ^ qn
  | Vret qn -> "R!" ^ qn
  | Vlocal (qn, x) -> "L!" ^ qn ^ "!" ^ x
  | Vstatic (c, f) -> "S!" ^ c ^ "!" ^ f

let var_of_string s : var option =
  match String.split_on_char '!' s with
  | [ t ] when String.length t > 1 && t.[0] = 't' ->
    int_of_string_opt (String.sub t 1 (String.length t - 1))
    |> Option.map (fun k -> Vtemp k)
  | [ "T"; qn ] -> Some (Vthis qn)
  | [ "R"; qn ] -> Some (Vret qn)
  | [ "L"; qn; x ] -> Some (Vlocal (qn, x))
  | [ "S"; c; f ] -> Some (Vstatic (c, f))
  | _ -> None

let alp_to_string = function
  | Athis -> "T"
  | Alocal x -> "L!" ^ x
  | Aglobal (c, f) -> "G!" ^ c ^ "!" ^ f
  | Aunknown -> "U"

let alp_of_string s : alp option =
  match String.split_on_char '!' s with
  | [ "T" ] -> Some Athis
  | [ "L"; x ] -> Some (Alocal x)
  | [ "G"; c; f ] -> Some (Aglobal (c, f))
  | [ "U" ] -> Some Aunknown
  | _ -> None

let ints_to_string = function
  | [] -> "-"
  | l -> String.concat "," (List.map string_of_int l)

let ints_of_string = function
  | "-" -> Some []
  | s ->
    let parts = String.split_on_char ',' s in
    let parsed = List.filter_map int_of_string_opt parts in
    if List.length parsed = List.length parts then Some parsed else None

let pos_to_string (p : Ast.pos) =
  string_of_int p.Ast.line ^ " " ^ string_of_int p.Ast.col

let to_lines (s : cls) : string list =
  let out = ref [] in
  let line l = out := l :: !out in
  line schema;
  line (Printf.sprintf "class %s %d" s.cs_name s.cs_ntemps);
  List.iter
    (fun m ->
      line
        (Printf.sprintf "meth %s %s %s %d %d %s" m.ms_name m.ms_qname
           (wkind_to_string m.ms_kind)
           (if m.ms_sync then 1 else 0)
           (if m.ms_static then 1 else 0)
           (match m.ms_params with
           | [] -> "-"
           | ps ->
             String.concat ","
               (List.map (fun (ty, x) -> ty ^ "!" ^ x) ps))))
    s.cs_meths;
  List.iter
    (fun d ->
      line
        (Printf.sprintf "site %s %s %d %s" d.sd_qname d.sd_cls
           (if d.sd_array then 1 else 0)
           (pos_to_string d.sd_pos)))
    s.cs_sites;
  List.iter
    (fun c ->
      line
        (match c with
        | Ccopy (d, src) ->
          Printf.sprintf "con copy %s %s" (var_to_string d) (var_to_string src)
        | Cload (d, b, f) ->
          Printf.sprintf "con load %s %s %s" (var_to_string d)
            (var_to_string b) f
        | Cstore (b, f, src) ->
          Printf.sprintf "con store %s %s %s" (var_to_string b) f
            (var_to_string src)
        | Cnew (d, k, cls, args) ->
          Printf.sprintf "con new %d %d %s %s" d k cls (ints_to_string args)
        | Cnewarr (d, k) -> Printf.sprintf "con newarr %d %d" d k
        | Cicall (d, r, m, args) ->
          Printf.sprintf "con icall %d %d %s %s" d r m (ints_to_string args)
        | Cscall (d, m, args) ->
          Printf.sprintf "con scall %d %s %s" d m (ints_to_string args)))
    s.cs_cons;
  List.iter
    (fun a ->
      line
        (Printf.sprintf "acc %d %s %s %s %s %s %s %s" a.at_meth a.at_field
           (match a.at_kind with D.Kread -> "r" | D.Kwrite -> "w")
           (pos_to_string a.at_pos)
           (match a.at_base with
           | Atemp k -> "t" ^ string_of_int k
           | Astatic c -> "S!" ^ c)
           (alp_to_string a.at_path)
           (match a.at_locks with
           | [] -> "-"
           | ls -> String.concat "," (List.map alp_to_string ls))
           (ints_to_string a.at_regions)))
    s.cs_accs;
  List.iter
    (fun r ->
      line
        (Printf.sprintf "region %d %s %s" r.rt_meth
           (match r.rt_kind with D.Rsync_method -> "m" | D.Rsync_block -> "b")
           (pos_to_string r.rt_pos)))
    s.cs_regions;
  List.iter
    (fun (mi, edges) ->
      line
        (Printf.sprintf "edges %d %s" mi
           (match edges with
           | [] -> "-"
           | es ->
             String.concat ","
               (List.map
                  (function
                    | Einst m -> "i!" ^ m
                    | Estat m -> "s!" ^ m
                    | Enewed (c, n) -> "n!" ^ c ^ "!" ^ string_of_int n)
                  es))))
    s.cs_edges;
  List.iter (fun r -> line ("root " ^ r)) s.cs_roots;
  List.iter (fun k -> line ("seed " ^ string_of_int k)) s.cs_seeds;
  List.iter (fun (c, f) -> line (Printf.sprintf "mut %s %s" c f)) s.cs_muts;
  List.rev !out

let of_lines (lines : string list) : (cls, string) result =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match lines with
  | hdr :: rest when String.equal hdr schema -> (
    let name = ref None in
    let ntemps = ref 0 in
    let meths = ref [] in
    let sites = ref [] in
    let cons = ref [] in
    let accs = ref [] in
    let regions = ref [] in
    let edges = ref [] in
    let roots = ref [] in
    let seeds = ref [] in
    let muts = ref [] in
    let err = ref None in
    let bad l = if !err = None then err := Some ("bad summary line: " ^ l) in
    let parse_pos l a b =
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some line, Some col -> Some { Ast.line; col }
      | _ ->
        bad l;
        None
    in
    List.iter
      (fun l ->
        if !err = None then
          match String.split_on_char ' ' l with
          | [ "class"; n; t ] -> (
            name := Some n;
            match int_of_string_opt t with
            | Some t -> ntemps := t
            | None -> bad l)
          | [ "meth"; mn; qn; k; sy; st; ps ] -> (
            match (wkind_of_string k, int_of_string_opt sy, int_of_string_opt st) with
            | Some kind, Some sy, Some st ->
              let params =
                if String.equal ps "-" then Some []
                else
                  let parts = String.split_on_char ',' ps in
                  let parsed =
                    List.filter_map
                      (fun p ->
                        match String.split_on_char '!' p with
                        | [ ty; x ] -> Some (ty, x)
                        | _ -> None)
                      parts
                  in
                  if List.length parsed = List.length parts then Some parsed
                  else None
              in
              (match params with
              | Some params ->
                meths :=
                  {
                    ms_name = mn;
                    ms_qname = qn;
                    ms_kind = kind;
                    ms_sync = sy = 1;
                    ms_static = st = 1;
                    ms_params = params;
                  }
                  :: !meths
              | None -> bad l)
            | _ -> bad l)
          | [ "site"; qn; cls; arr; a; b ] -> (
            match (int_of_string_opt arr, parse_pos l a b) with
            | Some arr, Some pos ->
              sites :=
                { sd_qname = qn; sd_cls = cls; sd_array = arr = 1; sd_pos = pos }
                :: !sites
            | _ -> bad l)
          | "con" :: c -> (
            let v = var_of_string in
            match c with
            | [ "copy"; d; s ] -> (
              match (v d, v s) with
              | Some d, Some s -> cons := Ccopy (d, s) :: !cons
              | _ -> bad l)
            | [ "load"; d; b; f ] -> (
              match (v d, v b) with
              | Some d, Some b -> cons := Cload (d, b, f) :: !cons
              | _ -> bad l)
            | [ "store"; b; f; s ] -> (
              match (v b, v s) with
              | Some b, Some s -> cons := Cstore (b, f, s) :: !cons
              | _ -> bad l)
            | [ "new"; d; k; cls; args ] -> (
              match (int_of_string_opt d, int_of_string_opt k, ints_of_string args) with
              | Some d, Some k, Some args -> cons := Cnew (d, k, cls, args) :: !cons
              | _ -> bad l)
            | [ "newarr"; d; k ] -> (
              match (int_of_string_opt d, int_of_string_opt k) with
              | Some d, Some k -> cons := Cnewarr (d, k) :: !cons
              | _ -> bad l)
            | [ "icall"; d; r; m; args ] -> (
              match
                (int_of_string_opt d, int_of_string_opt r, ints_of_string args)
              with
              | Some d, Some r, Some args -> cons := Cicall (d, r, m, args) :: !cons
              | _ -> bad l)
            | [ "scall"; d; m; args ] -> (
              match (int_of_string_opt d, ints_of_string args) with
              | Some d, Some args -> cons := Cscall (d, m, args) :: !cons
              | _ -> bad l)
            | _ -> bad l)
          | [ "acc"; mi; field; k; a; b; base; path; locks; regs ] -> (
            let kind =
              match k with
              | "r" -> Some D.Kread
              | "w" -> Some D.Kwrite
              | _ -> None
            in
            let base =
              if String.length base > 1 && base.[0] = 't' then
                int_of_string_opt (String.sub base 1 (String.length base - 1))
                |> Option.map (fun k -> Atemp k)
              else
                match String.split_on_char '!' base with
                | [ "S"; c ] -> Some (Astatic c)
                | _ -> None
            in
            let locks =
              if String.equal locks "-" then Some []
              else
                let parts = String.split_on_char ',' locks in
                let parsed = List.filter_map alp_of_string parts in
                if List.length parsed = List.length parts then Some parsed
                else None
            in
            match
              ( int_of_string_opt mi,
                kind,
                parse_pos l a b,
                base,
                alp_of_string path,
                locks,
                ints_of_string regs )
            with
            | Some mi, Some kind, Some pos, Some base, Some path, Some locks, Some regs
              ->
              accs :=
                {
                  at_meth = mi;
                  at_field = field;
                  at_kind = kind;
                  at_pos = pos;
                  at_base = base;
                  at_path = path;
                  at_locks = locks;
                  at_regions = regs;
                }
                :: !accs
            | _ -> bad l)
          | [ "region"; mi; k; a; b ] -> (
            let kind =
              match k with
              | "m" -> Some D.Rsync_method
              | "b" -> Some D.Rsync_block
              | _ -> None
            in
            match (int_of_string_opt mi, kind, parse_pos l a b) with
            | Some mi, Some kind, Some pos ->
              regions := { rt_meth = mi; rt_kind = kind; rt_pos = pos } :: !regions
            | _ -> bad l)
          | [ "edges"; mi; es ] -> (
            let parsed =
              if String.equal es "-" then Some []
              else
                let parts = String.split_on_char ',' es in
                let p =
                  List.filter_map
                    (fun e ->
                      match String.split_on_char '!' e with
                      | [ "i"; m ] -> Some (Einst m)
                      | [ "s"; m ] -> Some (Estat m)
                      | [ "n"; c; n ] ->
                        int_of_string_opt n |> Option.map (fun n -> Enewed (c, n))
                      | _ -> None)
                    parts
                in
                if List.length p = List.length parts then Some p else None
            in
            match (int_of_string_opt mi, parsed) with
            | Some mi, Some es -> edges := (mi, es) :: !edges
            | _ -> bad l)
          | [ "root"; r ] -> roots := r :: !roots
          | [ "seed"; k ] -> (
            match int_of_string_opt k with
            | Some k -> seeds := k :: !seeds
            | None -> bad l)
          | [ "mut"; c; f ] -> muts := (c, f) :: !muts
          | _ -> bad l)
      rest;
    match (!err, !name) with
    | Some msg, _ -> Error msg
    | None, None -> Error "summary missing class line"
    | None, Some name ->
      Ok
        {
          cs_name = name;
          cs_meths = List.rev !meths;
          cs_ntemps = !ntemps;
          cs_cons = List.rev !cons;
          cs_sites = List.rev !sites;
          cs_accs = List.rev !accs;
          cs_regions = List.rev !regions;
          cs_edges = List.rev !edges;
          cs_roots = List.rev !roots;
          cs_seeds = List.rev !seeds;
          cs_muts = List.rev !muts;
        })
  | hdr :: _ -> fail "unknown summary schema %S (want %s)" hdr schema
  | [] -> Error "empty summary"

let to_string s = String.concat "\n" (to_lines s)
let of_string s = of_lines (String.split_on_char '\n' s)
