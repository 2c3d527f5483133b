(* Pretty-printer for Jir programs.  The output is valid Jir source: the
   printer/parser pair round-trips, which the property-based test-suite
   checks on random programs. *)

open Ast

let prec_of_binop = function
  | Or -> 1
  | And -> 2
  | Eq | Ne -> 3
  | Lt | Le | Gt | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div | Mod -> 6

(* Precedence of an expression, used to insert parentheses minimally. *)
let prec_of_expr e =
  match e.desc with
  | Ebinop (op, _, _) -> prec_of_binop op
  | Eunop _ -> 7
  | Eint _ | Ebool _ | Estr _ | Enull | Ethis | Evar _ | Efield _
  | Estatic_field _ | Eindex _ | Ecall _ | Estatic_call _ | Enew _
  | Enew_array _ ->
    8

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec pp_expr fmt e = pp_expr_prec 0 fmt e

and pp_expr_prec min_prec fmt e =
  let p = prec_of_expr e in
  if p < min_prec then Format.fprintf fmt "(%a)" pp_expr_atom e
  else pp_expr_atom fmt e

and pp_expr_atom fmt e =
  match e.desc with
  | Eint n -> if n < 0 then Format.fprintf fmt "(%d)" n else Format.fprintf fmt "%d" n
  | Ebool b -> Format.fprintf fmt "%b" b
  | Estr s -> Format.fprintf fmt "\"%s\"" (escape_string s)
  | Enull -> Format.pp_print_string fmt "null"
  | Ethis -> Format.pp_print_string fmt "this"
  | Evar x -> Format.pp_print_string fmt x
  | Efield (o, f) -> Format.fprintf fmt "%a.%s" (pp_expr_prec 8) o f
  | Estatic_field (c, f) -> Format.fprintf fmt "%s.%s" c f
  | Eindex (a, i) -> Format.fprintf fmt "%a[%a]" (pp_expr_prec 8) a pp_expr i
  | Ecall (o, m, args) ->
    Format.fprintf fmt "%a.%s(%a)" (pp_expr_prec 8) o m pp_args args
  | Estatic_call (c, m, args) ->
    Format.fprintf fmt "%s.%s(%a)" c m pp_args args
  | Enew (c, args) -> Format.fprintf fmt "new %s(%a)" c pp_args args
  | Enew_array (t, n) -> Format.fprintf fmt "new %a[%a]" pp_ty t pp_expr n
  | Ebinop (op, l, r) ->
    let p = prec_of_binop op in
    (* All binops associate to the left. *)
    Format.fprintf fmt "%a %s %a" (pp_expr_prec p) l (binop_to_string op)
      (pp_expr_prec (p + 1)) r
  | Eunop (op, x) ->
    Format.fprintf fmt "%s%a" (unop_to_string op) (pp_expr_prec 7) x

and pp_args fmt args =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    pp_expr fmt args

let pp_lvalue fmt = function
  | Lvar x -> Format.pp_print_string fmt x
  | Lfield (o, f) -> Format.fprintf fmt "%a.%s" (pp_expr_prec 8) o f
  | Lstatic (c, f) -> Format.fprintf fmt "%s.%s" c f
  | Lindex (a, i) -> Format.fprintf fmt "%a[%a]" (pp_expr_prec 8) a pp_expr i

let rec pp_stmt fmt s =
  match s.sdesc with
  | Sdecl (t, x, None) -> Format.fprintf fmt "%a %s;" pp_ty t x
  | Sdecl (t, x, Some e) -> Format.fprintf fmt "%a %s = %a;" pp_ty t x pp_expr e
  | Sassign (lv, e) -> Format.fprintf fmt "%a = %a;" pp_lvalue lv pp_expr e
  | Sexpr e -> Format.fprintf fmt "%a;" pp_expr e
  | Sif (c, th, []) ->
    Format.fprintf fmt "@[<v 2>if (%a) {%a@]@,}" pp_expr c pp_block_body th
  | Sif (c, th, el) ->
    Format.fprintf fmt "@[<v 2>if (%a) {%a@]@,@[<v 2>} else {%a@]@,}" pp_expr c
      pp_block_body th pp_block_body el
  | Swhile (c, body) ->
    Format.fprintf fmt "@[<v 2>while (%a) {%a@]@,}" pp_expr c pp_block_body
      body
  | Sfor (init, cond, update, body) ->
    Format.fprintf fmt "@[<v 2>for (%a %a; %a) {%a@]@,}" pp_for_init init
      (Format.pp_print_option pp_expr)
      cond pp_for_update update pp_block_body body
  | Sbreak -> Format.pp_print_string fmt "break;"
  | Scontinue -> Format.pp_print_string fmt "continue;" 
  | Sreturn None -> Format.pp_print_string fmt "return;"
  | Sreturn (Some e) -> Format.fprintf fmt "return %a;" pp_expr e
  | Ssync (e, body) ->
    Format.fprintf fmt "@[<v 2>synchronized (%a) {%a@]@,}" pp_expr e
      pp_block_body body
  | Sassert e -> Format.fprintf fmt "assert %a;" pp_expr e
  | Sthrow msg -> Format.fprintf fmt "throw \"%s\";" (escape_string msg)
  | Sspawn (x, recv, m, args) ->
    Format.fprintf fmt "thread %s = spawn %a.%s(%a);" x (pp_expr_prec 8) recv m
      pp_args args
  | Sjoin e -> Format.fprintf fmt "join %a;" pp_expr e

(* for-loop slots: the init prints with its ';'; the update without. *)
and pp_for_init fmt = function
  | None -> Format.pp_print_string fmt ";"
  | Some s -> pp_stmt fmt s

and pp_for_update fmt = function
  | None -> ()
  | Some { sdesc = Sassign (lv, e); _ } ->
    Format.fprintf fmt "%a = %a" pp_lvalue lv pp_expr e
  | Some { sdesc = Sexpr e; _ } -> pp_expr fmt e
  | Some s -> pp_stmt fmt s (* unreachable for parsed programs *)

and pp_block_body fmt stmts =
  List.iter (fun s -> Format.fprintf fmt "@,%a" pp_stmt s) stmts

let pp_params fmt params =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    (fun fmt (t, x) -> Format.fprintf fmt "%a %s" pp_ty t x)
    fmt params

let pp_method cls fmt (m : method_decl) =
  let quals =
    (if m.m_static then "static " else "") ^ if m.m_sync then "synchronized " else ""
  in
  if is_ctor m then
    Format.fprintf fmt "@[<v 2>%s%s(%a) {%a@]@,}" quals cls pp_params m.m_params
      pp_block_body m.m_body
  else if m.m_abstract then
    Format.fprintf fmt "%s%a %s(%a);" quals pp_ty m.m_ret m.m_name pp_params
      m.m_params
  else
    Format.fprintf fmt "@[<v 2>%s%a %s(%a) {%a@]@,}" quals pp_ty m.m_ret
      m.m_name pp_params m.m_params pp_block_body m.m_body

let pp_field fmt (f : field_decl) =
  let quals = if f.f_static then "static " else "" in
  match f.f_init with
  | None -> Format.fprintf fmt "%s%a %s;" quals pp_ty f.f_ty f.f_name
  | Some e -> Format.fprintf fmt "%s%a %s = %a;" quals pp_ty f.f_ty f.f_name pp_expr e

let pp_class fmt (c : class_decl) =
  let kind = match c.c_kind with Kclass -> "class" | Kinterface -> "interface" in
  let super =
    match c.c_super with None -> "" | Some s -> Printf.sprintf " extends %s" s
  in
  let impls =
    match c.c_impls with
    | [] -> ""
    | is -> " implements " ^ String.concat ", " is
  in
  Format.fprintf fmt "@[<v 2>%s %s%s%s {" kind c.c_name super impls;
  List.iter (fun f -> Format.fprintf fmt "@,%a" pp_field f) c.c_fields;
  List.iter (fun m -> Format.fprintf fmt "@,%a" (pp_method c.c_name) m) c.c_methods;
  Format.fprintf fmt "@]@,}"

let pp_program fmt (p : program) =
  Format.fprintf fmt "@[<v 0>";
  List.iteri
    (fun i c ->
      if i > 0 then Format.fprintf fmt "@,@,";
      pp_class fmt c)
    p;
  Format.fprintf fmt "@]"

let expr_to_string e = Format.asprintf "%a" pp_expr e
let class_to_string c = Format.asprintf "%a" pp_class c
let program_to_string p = Format.asprintf "%a@." pp_program p
