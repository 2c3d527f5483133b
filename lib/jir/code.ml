(* Register-based bytecode for Jir.  Each executed instruction maps
   directly onto one of the canonical trace operations of the paper's
   Fig. 7 (assign / read / write / alloc / lock / unlock / invoke /
   return), which is what makes the Narada access analysis a simple fold
   over execution events. *)

type reg = int

type const = Cint of int | Cbool of bool | Cstr of string | Cnull

type instr =
  | Iconst of reg * const
  | Imove of reg * reg (* dst := src *)
  | Iget of reg * reg * Ast.id (* dst := obj.f *)
  | Iset of reg * Ast.id * reg (* obj.f := src *)
  | Igetstatic of reg * Ast.id * Ast.id (* dst := C.f *)
  | Isetstatic of Ast.id * Ast.id * reg (* C.f := src *)
  | Iaload of reg * reg * reg (* dst := arr[idx] *)
  | Iastore of reg * reg * reg (* arr[idx] := src *)
  | Ialen of reg * reg (* dst := arr.length *)
  | Inew of reg * Ast.id (* allocate; field initializers+ctor are separate calls *)
  | Inewarr of reg * Ast.ty * reg
  | Icall of reg option * reg * Ast.id * reg list (* virtual dispatch *)
  | Ictor of reg * Ast.id * reg list (* non-virtual constructor call *)
  | Icallstatic of reg option * Ast.id * Ast.id * reg list
  | Iintrinsic of reg option * Intrinsics.t * reg list
  | Ibinop of reg * Ast.binop * reg * reg
  | Iunop of reg * Ast.unop * reg
  | Ijmp of int
  | Ibr of reg * int * int (* if reg then goto fst else goto snd *)
  | Iret of reg option
  | Ienter of reg (* monitorenter *)
  | Iexit of reg (* monitorexit *)
  | Ispawn of reg * reg * Ast.id * reg list (* dst := spawn recv.m(args) *)
  | Ijoin of reg
  | Iassert of reg * string
  | Ithrow of string

(* A compiled method.  Register conventions: instance methods receive
   [this] in register 0 and parameters in registers 1..n; static methods
   receive parameters in registers 0..n-1. *)
type meth = {
  cm_cls : Ast.id; (* defining class *)
  cm_name : Ast.id; (* "<init>" for constructors, "<fieldinit>" for initializers *)
  cm_qname : string; (* "Cls.name", used in sites and diagnostics *)
  cm_static : bool;
  cm_sync : bool; (* informational; sync methods are compiled with Ienter/Iexit *)
  cm_nparams : int; (* not counting the receiver *)
  cm_param_tys : Ast.ty list;
  cm_ret_ty : Ast.ty;
  cm_nregs : int;
  cm_code : instr array;
}

let fieldinit_name = "<fieldinit>"

(* A compiled class: field layout (inherited first) plus the compiled
   bodies reachable from it. *)
type cls = {
  cc_name : Ast.id;
  cc_fields : (Ast.id * Ast.ty) list; (* instance fields, superclass first *)
  cc_fieldinit : meth option;
  cc_ctors : (int * meth) list; (* arity-indexed *)
  cc_methods : (Ast.id * meth) list; (* concrete virtual methods, resolved *)
  cc_static_methods : (Ast.id * meth) list;
  cc_static_fields : (Ast.id * Ast.ty) list;
}

type unit_ = {
  cu_program : Program.t;
  cu_classes : (Ast.id, cls) Hashtbl.t;
  cu_digest : string option Atomic.t;
}

let find_cls cu name = Hashtbl.find_opt cu.cu_classes name

let find_cls_exn cu name =
  match find_cls cu name with
  | Some c -> c
  | None -> Diag.error "no compiled class %s" name

let find_virtual cu cls_name m =
  let c = find_cls_exn cu cls_name in
  List.assoc_opt m c.cc_methods

let find_static cu cls_name m =
  let c = find_cls_exn cu cls_name in
  List.assoc_opt m c.cc_static_methods

let find_ctor cu cls_name ~arity =
  let c = find_cls_exn cu cls_name in
  List.assoc_opt arity c.cc_ctors

let const_to_string = function
  | Cint n -> string_of_int n
  | Cbool b -> string_of_bool b
  | Cstr s -> Printf.sprintf "%S" s
  | Cnull -> "null"

let pp_regs fmt rs =
  Format.fprintf fmt "(%s)" (String.concat ", " (List.map (Printf.sprintf "r%d") rs))

let pp_dst fmt = function
  | Some r -> Format.fprintf fmt "r%d := " r
  | None -> ()

let pp_instr fmt = function
  | Iconst (d, c) -> Format.fprintf fmt "r%d := %s" d (const_to_string c)
  | Imove (d, s) -> Format.fprintf fmt "r%d := r%d" d s
  | Iget (d, o, f) -> Format.fprintf fmt "r%d := r%d.%s" d o f
  | Iset (o, f, s) -> Format.fprintf fmt "r%d.%s := r%d" o f s
  | Igetstatic (d, c, f) -> Format.fprintf fmt "r%d := %s.%s" d c f
  | Isetstatic (c, f, s) -> Format.fprintf fmt "%s.%s := r%d" c f s
  | Iaload (d, a, i) -> Format.fprintf fmt "r%d := r%d[r%d]" d a i
  | Iastore (a, i, s) -> Format.fprintf fmt "r%d[r%d] := r%d" a i s
  | Ialen (d, a) -> Format.fprintf fmt "r%d := r%d.length" d a
  | Inew (d, c) -> Format.fprintf fmt "r%d := new %s" d c
  | Inewarr (d, t, n) ->
    Format.fprintf fmt "r%d := new %s[r%d]" d (Ast.ty_to_string t) n
  | Icall (d, o, m, args) ->
    Format.fprintf fmt "%ar%d.%s%a" pp_dst d o m pp_regs args
  | Ictor (o, c, args) -> Format.fprintf fmt "r%d.%s.<init>%a" o c pp_regs args
  | Icallstatic (d, c, m, args) ->
    Format.fprintf fmt "%a%s.%s%a" pp_dst d c m pp_regs args
  | Iintrinsic (d, i, args) ->
    Format.fprintf fmt "%aSys.%s%a" pp_dst d (Intrinsics.name i) pp_regs args
  | Ibinop (d, op, l, r) ->
    Format.fprintf fmt "r%d := r%d %s r%d" d l (Ast.binop_to_string op) r
  | Iunop (d, op, s) ->
    Format.fprintf fmt "r%d := %sr%d" d (Ast.unop_to_string op) s
  | Ijmp l -> Format.fprintf fmt "jmp %d" l
  | Ibr (c, l1, l2) -> Format.fprintf fmt "br r%d ? %d : %d" c l1 l2
  | Iret None -> Format.pp_print_string fmt "ret"
  | Iret (Some r) -> Format.fprintf fmt "ret r%d" r
  | Ienter r -> Format.fprintf fmt "monitorenter r%d" r
  | Iexit r -> Format.fprintf fmt "monitorexit r%d" r
  | Ispawn (d, o, m, args) ->
    Format.fprintf fmt "r%d := spawn r%d.%s%a" d o m pp_regs args
  | Ijoin r -> Format.fprintf fmt "join r%d" r
  | Iassert (r, msg) -> Format.fprintf fmt "assert r%d %S" r msg
  | Ithrow msg -> Format.fprintf fmt "throw %S" msg

(* Canonical content digest of a unit: class names sorted, each with its
   ancestor chain, fields, and methods printed through [pp_instr].
   Deliberately not [Marshal] (hash tables have no canonical layout).
   Memoized on the unit, which nothing mutates after compilation; two
   domains racing on the first call both compute the same string. *)
let digest (cu : unit_) =
  match Atomic.get cu.cu_digest with
  | Some d -> d
  | None ->
    let b = Buffer.create 4096 in
    let add = Buffer.add_string b in
    let meth (cm : meth) =
      add cm.cm_qname;
      add (if cm.cm_static then "|s|" else "|v|");
      add (string_of_int cm.cm_nparams);
      add "|";
      add (string_of_int cm.cm_nregs);
      add (if cm.cm_sync then "|y\n" else "|n\n");
      Array.iter
        (fun i ->
          add (Format.asprintf "%a" pp_instr i);
          Buffer.add_char b '\n')
        cm.cm_code
    in
    let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
    let classes =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun name cc acc -> (name, cc) :: acc) cu.cu_classes [])
    in
    List.iter
      (fun (name, cc) ->
        add "class ";
        add name;
        add " <: ";
        List.iter
          (fun (c : Ast.class_decl) ->
            add c.Ast.c_name;
            add ",")
          (Program.ancestors cu.cu_program name);
        Buffer.add_char b '\n';
        List.iter
          (fun (fld, ty) ->
            add fld;
            add ":";
            add (Ast.ty_to_string ty);
            add ";")
          cc.cc_fields;
        List.iter
          (fun (fld, ty) ->
            add "static ";
            add fld;
            add ":";
            add (Ast.ty_to_string ty);
            add ";")
          cc.cc_static_fields;
        Buffer.add_char b '\n';
        (match cc.cc_fieldinit with Some cm -> meth cm | None -> ());
        List.iter
          (fun (_, cm) -> meth cm)
          (List.sort (fun (a, _) (b, _) -> Int.compare a b) cc.cc_ctors);
        List.iter (fun (_, cm) -> meth cm) (by_name cc.cc_methods);
        List.iter (fun (_, cm) -> meth cm) (by_name cc.cc_static_methods))
      classes;
    let d = Digest.to_hex (Digest.string (Buffer.contents b)) in
    Atomic.set cu.cu_digest (Some d);
    d
