(* AST rewrite utilities for synchronization repair.

   The repair engine reasons about locks syntactically: a lock is
   identified by the canonical printed text of its operand expression,
   and a method-level [synchronized] counts as holding "this".  This is
   deliberately conservative — two expressions that print differently
   may alias at runtime, but a repair validated by re-running the full
   dynamic pipeline never depends on the syntactic judgement being
   precise, only on the candidate enumeration being generous enough. *)

open Ast

let split_qname q =
  match String.index_opt q '.' with
  | None -> None
  | Some i ->
    let cls = String.sub q 0 i in
    let meth = String.sub q (i + 1) (String.length q - i - 1) in
    if String.equal cls "" || String.equal meth "" then None else Some (cls, meth)

let find_method (prog : program) ~cls ~meth =
  List.find_map
    (fun c ->
      if String.equal c.c_name cls then
        List.find_opt
          (fun m -> String.equal m.m_name meth && not m.m_abstract)
          c.c_methods
      else None)
    prog

let map_method (prog : program) ~cls ~meth f =
  List.map
    (fun c ->
      if String.equal c.c_name cls then
        {
          c with
          c_methods =
            List.map
              (fun m ->
                if String.equal m.m_name meth && not m.m_abstract then f m
                else m)
              c.c_methods;
        }
      else c)
    prog

let lock_text e = Pretty.expr_to_string e
let this_lock = mk_expr Ethis

let rec portable_lock (e : expr) =
  match e.desc with
  | Ethis -> true
  | Efield (b, _) -> portable_lock b
  | Estatic_field (_, _) -> true
  | _ -> false

(* ---- access detection ---- *)

let rec expr_has_field ~field (e : expr) =
  let sub = List.exists (expr_has_field ~field) in
  match e.desc with
  | Eint _ | Ebool _ | Estr _ | Enull | Ethis | Evar _ -> false
  | Efield (b, f) -> String.equal f field || expr_has_field ~field b
  | Estatic_field (_, f) -> String.equal f field
  | Eindex (b, i) ->
    String.equal field "[]" || sub [ b; i ]
  | Ecall (r, _, args) -> sub (r :: args)
  | Estatic_call (_, _, args) -> sub args
  | Enew (_, args) -> sub args
  | Enew_array (_, n) -> expr_has_field ~field n
  | Ebinop (_, a, b) -> sub [ a; b ]
  | Eunop (_, a) -> expr_has_field ~field a

let lvalue_has_field ~field = function
  | Lvar _ -> false
  | Lfield (b, f) -> String.equal f field || expr_has_field ~field b
  | Lstatic (_, f) -> String.equal f field
  | Lindex (b, i) ->
    String.equal field "[]"
    || expr_has_field ~field b
    || expr_has_field ~field i

(* The expressions a statement evaluates itself (loop/branch bodies are
   walked separately, with their own lock context). *)
let own_exprs (s : stmt) : expr list =
  match s.sdesc with
  | Sdecl (_, _, Some e) -> [ e ]
  | Sdecl (_, _, None) -> []
  | Sassign (lv, e) ->
    (match lv with
    | Lvar _ -> []
    | Lfield (b, _) -> [ b ]
    | Lstatic (_, _) -> []
    | Lindex (b, i) -> [ b; i ])
    @ [ e ]
  | Sexpr e | Sreturn (Some e) | Sassert e | Swhile (e, _) | Sjoin e -> [ e ]
  | Sif (e, _, _) -> [ e ]
  | Sfor (_, cond, _, _) -> Option.to_list cond
  | Sreturn None | Sbreak | Scontinue | Sthrow _ -> []
  | Ssync (e, _) -> [ e ]
  | Sspawn (_, recv, _, args) -> recv :: args

let own_lvalue (s : stmt) =
  match s.sdesc with Sassign (lv, _) -> Some lv | _ -> None

let stmt_own_access ~field (s : stmt) =
  List.exists (expr_has_field ~field) (own_exprs s)
  || (match own_lvalue s with
     | Some lv -> lvalue_has_field ~field lv
     | None -> false)

(* Does the statement (including nested blocks) read or write [field]?
   [field = "[]"] matches array-element accesses. *)
let rec stmt_mentions_field ~field (s : stmt) =
  stmt_own_access ~field s
  ||
  match s.sdesc with
  | Sif (_, b1, b2) -> block_mentions ~field b1 || block_mentions ~field b2
  | Swhile (_, b) | Ssync (_, b) -> block_mentions ~field b
  | Sfor (init, _, upd, b) ->
    (match init with Some st -> stmt_mentions_field ~field st | None -> false)
    || (match upd with Some st -> stmt_mentions_field ~field st | None -> false)
    || block_mentions ~field b
  | _ -> false

and block_mentions ~field b = List.exists (stmt_mentions_field ~field) b

(* ---- guard analysis ---- *)

(* Does the statement contain an access to [field] performed while
   [lock] is NOT among the held monitors?  [held] is the canonical-text
   lock stack on entry. *)
let rec stmt_unguarded ~field ~lock ~held (s : stmt) =
  let naked = not (List.exists (String.equal lock) held) in
  (naked && stmt_own_access ~field s)
  ||
  match s.sdesc with
  | Sif (_, b1, b2) ->
    block_unguarded ~field ~lock ~held b1 || block_unguarded ~field ~lock ~held b2
  | Swhile (_, b) -> block_unguarded ~field ~lock ~held b
  | Sfor (init, _, upd, b) ->
    (match init with
    | Some st -> stmt_unguarded ~field ~lock ~held st
    | None -> false)
    || (match upd with
       | Some st -> stmt_unguarded ~field ~lock ~held st
       | None -> false)
    || block_unguarded ~field ~lock ~held b
  | Ssync (e, b) ->
    block_unguarded ~field ~lock ~held:(lock_text e :: held) b
  | _ -> false

and block_unguarded ~field ~lock ~held b =
  List.exists (stmt_unguarded ~field ~lock ~held) b

let initial_held (m : method_decl) = if m.m_sync then [ "this" ] else []

let unguarded_top_indices ~field ~lock (m : method_decl) =
  let held = initial_held m in
  List.concat
    (List.mapi
       (fun i s -> if stmt_unguarded ~field ~lock ~held s then [ i ] else [])
       m.m_body)

let guarded_everywhere ~field ~lock (m : method_decl) =
  not (block_unguarded ~field ~lock ~held:(initial_held m) m.m_body)

(* ---- owner-lock analysis ---- *)

(* Base expressions of accesses to [field] inside [e]; [None] marks a
   static-field access, which has no owner object. *)
let rec access_bases ~field (e : expr) : expr option list =
  let sub es = List.concat_map (access_bases ~field) es in
  match e.desc with
  | Eint _ | Ebool _ | Estr _ | Enull | Ethis | Evar _ -> []
  | Efield (b, f) ->
    (if String.equal f field then [ Some b ] else []) @ access_bases ~field b
  | Estatic_field (_, f) -> if String.equal f field then [ None ] else []
  | Eindex (b, i) ->
    (if String.equal field "[]" then [ Some b ] else []) @ sub [ b; i ]
  | Ecall (r, _, args) -> sub (r :: args)
  | Estatic_call (_, _, args) -> sub args
  | Enew (_, args) -> sub args
  | Enew_array (_, n) -> access_bases ~field n
  | Ebinop (_, a, b) -> sub [ a; b ]
  | Eunop (_, a) -> access_bases ~field a

let lvalue_bases ~field = function
  | Lvar _ -> []
  | Lfield (b, f) ->
    (if String.equal f field then [ Some b ] else []) @ access_bases ~field b
  | Lstatic (_, f) -> if String.equal f field then [ None ] else []
  | Lindex (b, i) ->
    (if String.equal field "[]" then [ Some b ] else [])
    @ access_bases ~field b @ access_bases ~field i

let stmt_own_bases ~field (s : stmt) : expr option list =
  List.concat_map (access_bases ~field) (own_exprs s)
  @ (match own_lvalue s with
    | Some lv -> lvalue_bases ~field lv
    | None -> [])

(* Bases of accesses performed while their own monitor is NOT held.
   A static access ([None]) can never be owner-guarded. *)
let rec owner_naked_stmt ~field ~held (s : stmt) : expr option list =
  let naked =
    List.filter
      (function
        | None -> true
        | Some b -> not (List.exists (String.equal (lock_text b)) held))
      (stmt_own_bases ~field s)
  in
  naked
  @
  match s.sdesc with
  | Sif (_, b1, b2) ->
    owner_naked_block ~field ~held b1 @ owner_naked_block ~field ~held b2
  | Swhile (_, b) -> owner_naked_block ~field ~held b
  | Sfor (init, _, upd, b) ->
    (match init with Some st -> owner_naked_stmt ~field ~held st | None -> [])
    @ (match upd with Some st -> owner_naked_stmt ~field ~held st | None -> [])
    @ owner_naked_block ~field ~held b
  | Ssync (e, b) -> owner_naked_block ~field ~held:(lock_text e :: held) b
  | _ -> []

and owner_naked_block ~field ~held b =
  List.concat_map (owner_naked_stmt ~field ~held) b

let owner_guarded_everywhere ~field (m : method_decl) =
  owner_naked_block ~field ~held:(initial_held m) m.m_body = []

let owner_unguarded_top ~field (m : method_decl) :
    (int list * expr list) option =
  let held = initial_held m in
  let per_stmt =
    List.mapi (fun i s -> (i, owner_naked_stmt ~field ~held s)) m.m_body
  in
  if List.exists (fun (_, naked) -> List.mem None naked) per_stmt then None
  else begin
    let idxs =
      List.filter_map (fun (i, naked) -> if naked = [] then None else Some i)
        per_stmt
    in
    let seen = Hashtbl.create 4 in
    let bases =
      List.filter_map
        (function
          | None -> None
          | Some b ->
            let t = lock_text b in
            if Hashtbl.mem seen t then None
            else begin
              Hashtbl.replace seen t ();
              Some b
            end)
        (List.concat_map snd per_stmt)
    in
    Some (idxs, bases)
  end

(* ---- global-lock injection ---- *)

(* The marker class a global-lock repair introduces.  A fresh class keeps
   the new monitor's type distinct from every user lock, so the
   lock-order analysis cannot unify it with existing edges. *)
let global_lock_class = "NaradaLock"
let global_lock_field = "narada_lock"

let add_global_lock (prog : program) ~host : (program, string) result =
  if List.exists (fun c -> String.equal c.c_name global_lock_class) prog then
    Error (Printf.sprintf "class %s already declared" global_lock_class)
  else
    match List.find_opt (fun c -> String.equal c.c_name host) prog with
    | None -> Error (Printf.sprintf "no class %s to host the global lock" host)
    | Some host_cls
      when List.exists
             (fun (f : field_decl) -> String.equal f.f_name global_lock_field)
             host_cls.c_fields ->
      Error (Printf.sprintf "field %s.%s already declared" host global_lock_field)
    | Some _ ->
      let lock_field =
        {
          f_name = global_lock_field;
          f_static = true;
          f_ty = Tclass global_lock_class;
          f_init = Some (mk_expr (Enew (global_lock_class, [])));
          f_pos = dummy_pos;
        }
      in
      let marker =
        {
          c_name = global_lock_class;
          c_kind = Kclass;
          c_super = None;
          c_impls = [];
          c_fields = [];
          c_methods = [];
          c_pos = dummy_pos;
        }
      in
      Ok
        (List.map
           (fun c ->
             if String.equal c.c_name host then
               { c with c_fields = c.c_fields @ [ lock_field ] }
             else c)
           prog
        @ [ marker ])

(* ---- sync-block inventory ---- *)

let rec fold_syncs_stmt f acc (s : stmt) =
  match s.sdesc with
  | Ssync (e, b) ->
    let acc = f acc e b in
    fold_syncs_block f acc b
  | Sif (_, b1, b2) -> fold_syncs_block f (fold_syncs_block f acc b1) b2
  | Swhile (_, b) -> fold_syncs_block f acc b
  | Sfor (init, _, upd, b) ->
    let acc =
      match init with Some st -> fold_syncs_stmt f acc st | None -> acc
    in
    let acc =
      match upd with Some st -> fold_syncs_stmt f acc st | None -> acc
    in
    fold_syncs_block f acc b
  | _ -> acc

and fold_syncs_block f acc b = List.fold_left (fold_syncs_stmt f) acc b

let sync_locks (m : method_decl) =
  List.rev (fold_syncs_block (fun acc e _ -> e :: acc) [] m.m_body)

let sync_wrappers_around ~field (m : method_decl) =
  let _, found =
    fold_syncs_block
      (fun (i, acc) e b ->
        if block_mentions ~field b then (i + 1, (i, lock_text e) :: acc)
        else (i + 1, acc))
      (0, []) m.m_body
  in
  List.rev found

(* ---- edits ---- *)

let sync_method (m : method_decl) = { m with m_sync = true }

let wrap_span ~from_ ~len ~lock (m : method_decl) =
  let n = List.length m.m_body in
  if from_ < 0 || len <= 0 || from_ + len > n then
    invalid_arg
      (Printf.sprintf "Rewrite.wrap_span: span %d+%d out of bounds (body has %d)"
         from_ len n);
  let before = List.filteri (fun i _ -> i < from_) m.m_body in
  let span = List.filteri (fun i _ -> i >= from_ && i < from_ + len) m.m_body in
  let after = List.filteri (fun i _ -> i >= from_ + len) m.m_body in
  let pos = (List.nth m.m_body from_).spos in
  { m with m_body = before @ [ mk_stmt ~pos (Ssync (lock, span)) ] @ after }

let replace_sync_lock ~occurrence ~lock (m : method_decl) =
  (* Pre-order numbering over every [synchronized] block, matching
     [sync_wrappers_around]. *)
  let counter = ref (-1) in
  let rec map_stmt (s : stmt) : stmt =
    match s.sdesc with
    | Ssync (e, b) ->
      incr counter;
      let here = !counter in
      let e' = if here = occurrence then lock else e in
      { s with sdesc = Ssync (e', List.map map_stmt b) }
    | Sif (c, b1, b2) ->
      { s with sdesc = Sif (c, List.map map_stmt b1, List.map map_stmt b2) }
    | Swhile (c, b) -> { s with sdesc = Swhile (c, List.map map_stmt b) }
    | Sfor (init, cond, upd, b) ->
      {
        s with
        sdesc =
          Sfor
            ( Option.map map_stmt init,
              cond,
              Option.map map_stmt upd,
              List.map map_stmt b );
      }
    | _ -> s
  in
  let body = List.map map_stmt m.m_body in
  if !counter < occurrence then
    invalid_arg
      (Printf.sprintf
         "Rewrite.replace_sync_lock: no synchronized block #%d (method has %d)"
         occurrence (!counter + 1));
  { m with m_body = body }
