(* Compiler from the Jir AST to the register bytecode of {!Code}.

   Lowering decisions that matter to the rest of the system:
   - every field/array access becomes exactly one Iget/Iset/Iaload/Iastore,
     so execution events are in 1:1 correspondence with the canonical
     trace operations of the paper;
   - [synchronized] methods get an [Ienter 0] prologue and [Iexit 0]
     before every return (the receiver lives in register 0), so monitor
     events also appear explicitly in traces;
   - short-circuit [&&]/[||] compile to branches, so the machine never
     evaluates the right operand eagerly. *)

open Ast
open Code

(* Pending break/continue jumps of one enclosing loop, plus the monitor
   nesting depth at loop entry so a jump out of the loop can first exit
   any sync blocks opened inside it. *)
type loop_frame = {
  mutable lf_breaks : int list; (* placeholder pcs to patch to loop exit *)
  mutable lf_continues : int list; (* placeholder pcs to patch to the update *)
  lf_monitors : int; (* length of ctx.monitors at loop entry *)
}

type ctx = {
  env : Typecheck.env;
  mutable code : instr list; (* reversed *)
  mutable len : int;
  mutable nregs : int;
  vars : (id, reg) Hashtbl.t;
  mutable monitors : reg list; (* enclosing sync-block monitors, innermost first *)
  mutable loops : loop_frame list; (* innermost first *)
  sync_this : bool; (* synchronized method: exit monitor 0 before returning *)
}

let emit ctx i =
  ctx.code <- i :: ctx.code;
  ctx.len <- ctx.len + 1

let here ctx = ctx.len

(* Reserve a slot to be patched later. *)
let emit_placeholder ctx =
  let pc = here ctx in
  emit ctx (Ijmp (-1));
  pc

let patch ctx pc instr =
  let idx_from_end = ctx.len - 1 - pc in
  let rec replace n = function
    | [] -> assert false
    | x :: rest -> if n = 0 then instr :: rest else x :: replace (n - 1) rest
  in
  ctx.code <- replace idx_from_end ctx.code

let fresh ctx =
  let r = ctx.nregs in
  ctx.nregs <- r + 1;
  r

let var_reg ctx x =
  match Hashtbl.find_opt ctx.vars x with
  | Some r -> r
  | None -> Diag.error "compiler: unbound variable %s" x

let default_const = function
  | Tint -> Cint 0
  | Tbool -> Cbool false
  | Tstr -> Cstr ""
  | Tclass _ | Tarray _ | Tvoid | Tthread -> Cnull

let rec compile_expr ctx (e : expr) : reg =
  match compile_expr_opt ctx e with
  | Some r -> r
  | None -> Diag.error ~pos:e.pos "void expression used as a value"

(* Compile an expression; [None] only for void-returning calls. *)
and compile_expr_opt ctx (e : expr) : reg option =
  match e.desc with
  | Eint n ->
    let d = fresh ctx in
    emit ctx (Iconst (d, Cint n));
    Some d
  | Ebool b ->
    let d = fresh ctx in
    emit ctx (Iconst (d, Cbool b));
    Some d
  | Estr s ->
    let d = fresh ctx in
    emit ctx (Iconst (d, Cstr s));
    Some d
  | Enull ->
    let d = fresh ctx in
    emit ctx (Iconst (d, Cnull));
    Some d
  | Ethis -> Some 0
  | Evar x -> Some (var_reg ctx x)
  | Efield (o, f) ->
    let ot = Typecheck.type_of_expr ctx.env o in
    let ro = compile_expr ctx o in
    let d = fresh ctx in
    (match ot with
    | Tarray _ ->
      assert (String.equal f "length");
      emit ctx (Ialen (d, ro))
    | Tint | Tbool | Tstr | Tvoid | Tthread | Tclass _ -> emit ctx (Iget (d, ro, f)));
    Some d
  | Estatic_field (c, f) ->
    let d = fresh ctx in
    emit ctx (Igetstatic (d, c, f));
    Some d
  | Eindex (a, i) ->
    let ra = compile_expr ctx a in
    let ri = compile_expr ctx i in
    let d = fresh ctx in
    emit ctx (Iaload (d, ra, ri));
    Some d
  | Ecall (o, m, args) ->
    let ret = call_ret_ty ctx o m in
    let ro = compile_expr ctx o in
    let rargs = List.map (compile_expr ctx) args in
    let d = if equal_ty ret Tvoid then None else Some (fresh ctx) in
    emit ctx (Icall (d, ro, m, rargs));
    d
  | Estatic_call (c, m, args) when String.equal c Program.sys_class ->
    let intr =
      match Intrinsics.of_name m with
      | Some i -> i
      | None -> Diag.error ~pos:e.pos "unknown intrinsic Sys.%s" m
    in
    let tys = List.map (Typecheck.type_of_expr ctx.env) args in
    let ret = Intrinsics.check ~pos:e.pos intr tys in
    let rargs = List.map (compile_expr ctx) args in
    let d = if equal_ty ret Tvoid then None else Some (fresh ctx) in
    emit ctx (Iintrinsic (d, intr, rargs));
    d
  | Estatic_call (c, m, args) ->
    let md =
      match Program.resolve_static_method ctx.env.Typecheck.prog c m with
      | Some md -> md
      | None -> Diag.error ~pos:e.pos "class %s has no static method %s" c m
    in
    let rargs = List.map (compile_expr ctx) args in
    let d = if equal_ty md.m_ret Tvoid then None else Some (fresh ctx) in
    emit ctx (Icallstatic (d, c, m, rargs));
    d
  | Enew (c, args) ->
    let rargs = List.map (compile_expr ctx) args in
    let d = fresh ctx in
    emit ctx (Inew (d, c));
    if
      args <> []
      || Program.find_ctor ctx.env.Typecheck.prog c ~arity:0 <> None
    then emit ctx (Ictor (d, c, rargs));
    Some d
  | Enew_array (t, n) ->
    let rn = compile_expr ctx n in
    let d = fresh ctx in
    emit ctx (Inewarr (d, t, rn));
    Some d
  | Ebinop ((And | Or) as op, l, r) ->
    (* Short-circuit: d := l; if (need right) d := r *)
    let d = fresh ctx in
    let rl = compile_expr ctx l in
    emit ctx (Imove (d, rl));
    let br = emit_placeholder ctx in
    let rhs_start = here ctx in
    let rr = compile_expr ctx r in
    emit ctx (Imove (d, rr));
    let after = here ctx in
    (match op with
    | And -> patch ctx br (Ibr (d, rhs_start, after))
    | Or -> patch ctx br (Ibr (d, after, rhs_start))
    | Add | Sub | Mul | Div | Mod | Lt | Le | Gt | Ge | Eq | Ne ->
      assert false);
    Some d
  | Ebinop (op, l, r) ->
    let rl = compile_expr ctx l in
    let rr = compile_expr ctx r in
    let d = fresh ctx in
    emit ctx (Ibinop (d, op, rl, rr));
    Some d
  | Eunop (op, x) ->
    let rx = compile_expr ctx x in
    let d = fresh ctx in
    emit ctx (Iunop (d, op, rx));
    Some d

and call_ret_ty ctx o m =
  match Typecheck.type_of_expr ctx.env o with
  | Tclass c -> (
    let prog = ctx.env.Typecheck.prog in
    let resolved =
      if Program.is_interface prog c then
        Program.resolve_interface_method prog c m
      else Program.resolve_method prog c m
    in
    match resolved with
    | Some (_, md) -> md.m_ret
    | None -> Diag.error ~pos:o.pos "class %s has no method %s" c m)
  | t -> Diag.error ~pos:o.pos "method call on %s" (ty_to_string t)

(* Emit monitor exits needed before leaving the method body. *)
let emit_return_exits ctx =
  List.iter (fun r -> emit ctx (Iexit r)) ctx.monitors;
  if ctx.sync_this then emit ctx (Iexit 0)

(* The program was fully checked by [Typecheck.check_program] before
   lowering; compilation only maintains the local type environment that
   [type_of_expr] queries. *)
let rec compile_stmt ctx (s : stmt) =
  match s.sdesc with
  | Sdecl (t, x, init) ->
    Hashtbl.replace ctx.env.Typecheck.locals x t;
    let d = fresh ctx in
    Hashtbl.replace ctx.vars x d;
    (match init with
    | Some e ->
      let r = compile_expr ctx e in
      emit ctx (Imove (d, r))
    | None -> emit ctx (Iconst (d, default_const t)))
  | Sassign (Lvar x, e) ->
    let r = compile_expr ctx e in
    emit ctx (Imove (var_reg ctx x, r))
  | Sassign (Lfield (o, f), e) ->
    let ro = compile_expr ctx o in
    let rv = compile_expr ctx e in
    emit ctx (Iset (ro, f, rv))
  | Sassign (Lstatic (c, f), e) ->
    let rv = compile_expr ctx e in
    emit ctx (Isetstatic (c, f, rv))
  | Sassign (Lindex (a, i), e) ->
    let ra = compile_expr ctx a in
    let ri = compile_expr ctx i in
    let rv = compile_expr ctx e in
    emit ctx (Iastore (ra, ri, rv))
  | Sexpr e -> ignore (compile_expr_opt ctx e)
  | Sif (c, th, el) ->
    let rc = compile_expr ctx c in
    let br = emit_placeholder ctx in
    let then_start = here ctx in
    List.iter (compile_stmt ctx) th;
    let jmp_end = emit_placeholder ctx in
    let else_start = here ctx in
    List.iter (compile_stmt ctx) el;
    let after = here ctx in
    patch ctx br (Ibr (rc, then_start, else_start));
    patch ctx jmp_end (Ijmp after)
  | Swhile (c, body) ->
    let head = here ctx in
    let rc = compile_expr ctx c in
    let br = emit_placeholder ctx in
    let body_start = here ctx in
    let frame =
      { lf_breaks = []; lf_continues = []; lf_monitors = List.length ctx.monitors }
    in
    ctx.loops <- frame :: ctx.loops;
    List.iter (compile_stmt ctx) body;
    ctx.loops <- List.tl ctx.loops;
    emit ctx (Ijmp head);
    let after = here ctx in
    patch ctx br (Ibr (rc, body_start, after));
    List.iter (fun pc -> patch ctx pc (Ijmp after)) frame.lf_breaks;
    List.iter (fun pc -> patch ctx pc (Ijmp head)) frame.lf_continues
  | Sfor (init, cond, update, body) ->
    (match init with Some s -> compile_stmt ctx s | None -> ());
    let head = here ctx in
    let br =
      match cond with
      | Some c ->
        let rc = compile_expr ctx c in
        Some (emit_placeholder ctx, rc)
      | None -> None
    in
    let body_start = here ctx in
    let frame =
      { lf_breaks = []; lf_continues = []; lf_monitors = List.length ctx.monitors }
    in
    ctx.loops <- frame :: ctx.loops;
    List.iter (compile_stmt ctx) body;
    ctx.loops <- List.tl ctx.loops;
    let update_pc = here ctx in
    (match update with Some s -> compile_stmt ctx s | None -> ());
    emit ctx (Ijmp head);
    let after = here ctx in
    (match br with
    | Some (pc, rc) -> patch ctx pc (Ibr (rc, body_start, after))
    | None -> ());
    List.iter (fun pc -> patch ctx pc (Ijmp after)) frame.lf_breaks;
    List.iter (fun pc -> patch ctx pc (Ijmp update_pc)) frame.lf_continues
  | Sbreak -> (
    match ctx.loops with
    | [] -> Diag.error ~pos:s.spos "break outside a loop"
    | frame :: _ ->
      (* exit sync blocks opened since loop entry *)
      let extra = List.length ctx.monitors - frame.lf_monitors in
      List.iteri (fun i r -> if i < extra then emit ctx (Iexit r)) ctx.monitors;
      frame.lf_breaks <- emit_placeholder ctx :: frame.lf_breaks)
  | Scontinue -> (
    match ctx.loops with
    | [] -> Diag.error ~pos:s.spos "continue outside a loop"
    | frame :: _ ->
      let extra = List.length ctx.monitors - frame.lf_monitors in
      List.iteri (fun i r -> if i < extra then emit ctx (Iexit r)) ctx.monitors;
      frame.lf_continues <- emit_placeholder ctx :: frame.lf_continues)
  | Sreturn None ->
    emit_return_exits ctx;
    emit ctx (Iret None)
  | Sreturn (Some e) ->
    let r = compile_expr ctx e in
    emit_return_exits ctx;
    emit ctx (Iret (Some r))
  | Ssync (e, body) ->
    let robj = compile_expr ctx e in
    (* Copy into a dedicated register so reassignment of a local inside
       the block cannot change which monitor we exit. *)
    let rmon = fresh ctx in
    emit ctx (Imove (rmon, robj));
    emit ctx (Ienter rmon);
    ctx.monitors <- rmon :: ctx.monitors;
    List.iter (compile_stmt ctx) body;
    ctx.monitors <- List.tl ctx.monitors;
    emit ctx (Iexit rmon)
  | Sassert e ->
    let r = compile_expr ctx e in
    emit ctx
      (Iassert (r, Format.asprintf "assertion failed at %a" pp_pos s.spos))
  | Sthrow msg -> emit ctx (Ithrow msg)
  | Sspawn (x, recv, m, args) ->
    ignore (call_ret_ty ctx recv m);
    let ro = compile_expr ctx recv in
    let rargs = List.map (compile_expr ctx) args in
    Hashtbl.replace ctx.env.Typecheck.locals x Tthread;
    let d = fresh ctx in
    Hashtbl.replace ctx.vars x d;
    emit ctx (Ispawn (d, ro, m, rargs))
  | Sjoin e ->
    let r = compile_expr ctx e in
    emit ctx (Ijoin r)

let qname cls m = cls ^ "." ^ m

let compile_method prog ~cls (m : method_decl) : meth =
  if m.m_static && m.m_sync then
    Diag.error ~pos:m.m_pos "static synchronized methods are not supported";
  if is_ctor m && m.m_sync then
    Diag.error ~pos:m.m_pos "synchronized constructors are not supported";
  let locals = Hashtbl.create 7 in
  let vars = Hashtbl.create 7 in
  let base = if m.m_static then 0 else 1 in
  List.iteri
    (fun i (t, x) ->
      Hashtbl.replace locals x t;
      Hashtbl.replace vars x (base + i))
    m.m_params;
  let env = Typecheck.make_env prog ~cls ~meth:m ~locals in
  let ctx =
    {
      env;
      code = [];
      len = 0;
      nregs = base + List.length m.m_params;
      vars;
      monitors = [];
      loops = [];
      sync_this = m.m_sync;
    }
  in
  if m.m_sync then emit ctx (Ienter 0);
  List.iter (compile_stmt ctx) m.m_body;
  (* Fall-through epilogue: void methods return implicitly; the checker
     guarantees non-void bodies always return, so the trailing throw is
     unreachable. *)
  if equal_ty m.m_ret Tvoid then (
    emit_return_exits ctx;
    emit ctx (Iret None))
  else emit ctx (Ithrow "unreachable: method fell through");
  {
    cm_cls = cls;
    cm_name = m.m_name;
    cm_qname = qname cls (if is_ctor m then "<init>" else m.m_name);
    cm_static = m.m_static;
    cm_sync = m.m_sync;
    cm_nparams = List.length m.m_params;
    cm_param_tys = List.map fst m.m_params;
    cm_ret_ty = m.m_ret;
    cm_nregs = ctx.nregs;
    cm_code = Array.of_list (List.rev ctx.code);
  }

(* Synthetic instance method initializing this class's own declared
   fields (superclass initializers are run separately by the machine). *)
let compile_fieldinit prog (c : class_decl) : meth option =
  let inits =
    List.filter_map
      (fun (f : field_decl) ->
        match f.f_init with
        | Some e when not f.f_static ->
          Some (mk_stmt ~pos:f.f_pos (Sassign (Lfield (mk_expr Ethis, f.f_name), e)))
        | Some _ | None -> None)
      c.c_fields
  in
  if inits = [] then None
  else
    let m =
      {
        m_name = fieldinit_name;
        m_static = false;
        m_sync = false;
        m_abstract = false;
        m_ret = Tvoid;
        m_params = [];
        m_body = inits;
        m_pos = c.c_pos;
      }
    in
    Some (compile_method prog ~cls:c.c_name m)

(* Synthetic static method initializing this class's static fields. *)
let compile_clinit prog (c : class_decl) : meth option =
  let inits =
    List.filter_map
      (fun (f : field_decl) ->
        match f.f_init with
        | Some e when f.f_static ->
          Some (mk_stmt ~pos:f.f_pos (Sassign (Lstatic (c.c_name, f.f_name), e)))
        | Some _ | None -> None)
      c.c_fields
  in
  if inits = [] then None
  else
    let m =
      {
        m_name = "<clinit>";
        m_static = true;
        m_sync = false;
        m_abstract = false;
        m_ret = Tvoid;
        m_params = [];
        m_body = inits;
        m_pos = c.c_pos;
      }
    in
    Some (compile_method prog ~cls:c.c_name m)

let compile_class prog (c : class_decl) : cls =
  let fields =
    List.map (fun (f : field_decl) -> (f.f_name, f.f_ty)) (Program.instance_fields prog c.c_name)
  in
  let static_fields =
    List.filter_map
      (fun (f : field_decl) -> if f.f_static then Some (f.f_name, f.f_ty) else None)
      c.c_fields
  in
  let ctors =
    List.map
      (fun m -> (List.length m.m_params, compile_method prog ~cls:c.c_name m))
      (List.filter is_ctor c.c_methods)
  in
  (* Concrete virtual methods, inherited ones resolved to their defining
     class so dispatch is a plain association lookup. *)
  let methods =
    List.map
      (fun (def_cls, m) -> (m.m_name, compile_method prog ~cls:def_cls m))
      (Program.concrete_methods prog c.c_name)
  in
  let static_methods =
    List.filter_map
      (fun (m : method_decl) ->
        if m.m_static && not (is_ctor m) then
          Some (m.m_name, compile_method prog ~cls:c.c_name m)
        else None)
      c.c_methods
  in
  let static_methods =
    match compile_clinit prog c with
    | Some m -> ("<clinit>", m) :: static_methods
    | None -> static_methods
  in
  {
    cc_name = c.c_name;
    cc_fields = fields;
    cc_fieldinit = compile_fieldinit prog c;
    cc_ctors = ctors;
    cc_methods = methods;
    cc_static_methods = static_methods;
    cc_static_fields = static_fields;
  }

let compile_unit (ast : Ast.program) : unit_ =
  let prog = Typecheck.check_program ast in
  let classes = Hashtbl.create 17 in
  List.iter
    (fun (c : class_decl) ->
      match c.c_kind with
      | Kclass -> Hashtbl.replace classes c.c_name (compile_class prog c)
      | Kinterface -> ())
    (Program.classes prog);
  { cu_program = prog; cu_classes = classes; cu_digest = Atomic.make None }

let compile_source (src : string) : unit_ =
  compile_unit (Parser.parse_program src)
