(* Per-method summaries of *writeable* assignments — the D structure of
   §3.2, aggregated across the whole sequential trace.

   A setter records that invoking [set_qname] makes the field path
   [set_lhs] (rooted at the receiver, a parameter, or the return value)
   point to the object supplied at [set_rhs] (a parameter, possibly a
   field path of one).  Context derivation (§3.3) searches these to
   drive owner objects into aliasing. *)

type setter = {
  set_qname : string; (* e.g. "SyncQueue.<init>" *)
  set_cls : Jir.Ast.id;
  set_meth : Jir.Ast.id; (* Ast.ctor_name for constructors *)
  set_static : bool;
  set_lhs : Sym.t; (* e.g. I0.queue or Ir.w *)
  set_rhs : Sym.t; (* e.g. I1 or I1.w — root must be Arg _ *)
  set_ret_cls : Jir.Ast.id option;
      (* concrete class of the returned object, for Ret-rooted setters *)
}

let is_ctor s = String.equal s.set_meth Jir.Ast.ctor_name

let equal a b =
  String.equal a.set_qname b.set_qname
  && Sym.equal a.set_lhs b.set_lhs
  && Sym.equal a.set_rhs b.set_rhs

let to_string s =
  Printf.sprintf "%s: %s := %s" s.set_qname (Sym.to_string s.set_lhs)
    (Sym.to_string s.set_rhs)

type t = { setters : setter list }

let of_list setters =
  let deduped =
    List.fold_left
      (fun acc s -> if List.exists (equal s) acc then acc else s :: acc)
      [] setters
  in
  { setters = List.rev deduped }

let setters t = t.setters

let count t = List.length t.setters

(* Setters whose receiver type can accept an object of class [cls]
   (receiver-rooted: the owner is the receiver; constructor setters
   build a fresh owner of the setter's class). *)
let applicable_to (prog : Jir.Program.t) t ~owner_cls =
  List.filter
    (fun s ->
      match s.set_lhs.Sym.root with
      | Sym.Recv ->
        Jir.Program.is_subtype prog (Jir.Ast.Tclass owner_cls)
          (Jir.Ast.Tclass s.set_cls)
        || Jir.Program.is_subtype prog (Jir.Ast.Tclass s.set_cls)
             (Jir.Ast.Tclass owner_cls)
      | Sym.Ret | Sym.Arg _ -> false)
    t.setters

(* Factory setters: the produced object's field path is client-chosen.
   The produced object stands in for the owner, so its concrete class
   must be compatible with the owner class (when known). *)
let factories (prog : Jir.Program.t) t ~owner_cls =
  List.filter
    (fun s ->
      match (s.set_lhs.Sym.root, s.set_ret_cls) with
      | Sym.Ret, Some rc -> (
        match owner_cls with
        | None -> true
        | Some c ->
          Jir.Program.is_subtype prog (Jir.Ast.Tclass rc) (Jir.Ast.Tclass c)
          || Jir.Program.is_subtype prog (Jir.Ast.Tclass c) (Jir.Ast.Tclass rc)
          || String.equal rc c)
      | Sym.Ret, None -> false
      | (Sym.Recv | Sym.Arg _), _ -> false)
    t.setters
