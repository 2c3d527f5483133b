(* Lock-discipline lint over the static analysis results plus a
   monitor-balance dataflow over compiled bytecode.

   Findings:
   - static race candidates (warning);
   - unguarded writes to fields that are accessed under a lock
     elsewhere (warning; constructor and field-initializer writes are
     exempt — the object is not yet published);
   - dead sync: a synchronized region guarding no thread-shared state
     (warning);
   - monitor imbalance on some bytecode path: a path that returns with
     a monitor held, exits an unheld monitor, or joins two paths at
     different depths (error — the compiler balances monitors on every
     return/break/continue, so any hit here is a real defect).

   All findings are sorted by (span, severity, message), which makes
   lint output deterministic and independent of [--jobs]. *)

open Jir
module D = Dom

type finding = { f_sev : Diag.severity; f_span : Diag.span; f_msg : string }

let compare_finding a b =
  let c = Diag.compare_span a.f_span b.f_span in
  if c <> 0 then c
  else
    let c = Diag.compare_severity a.f_sev b.f_sev in
    if c <> 0 then c else String.compare a.f_msg b.f_msg

let to_string f =
  Printf.sprintf "%s: %s: %s" (Diag.span_to_string f.f_span)
    (Diag.severity_to_string f.f_sev)
    f.f_msg

(* ---- monitor balance over bytecode ---- *)

(* Source position of a compiled method, recovered from the AST. *)
let meth_pos prog (m : Code.meth) : Ast.pos =
  match Program.find_class prog m.Code.cm_cls with
  | None -> Ast.dummy_pos
  | Some c -> (
    match
      List.find_opt
        (fun (d : Ast.method_decl) ->
          String.equal d.m_name m.Code.cm_name
          && List.length d.m_params = m.Code.cm_nparams)
        c.c_methods
    with
    | Some d -> d.m_pos
    | None -> c.c_pos (* synthetic <fieldinit>/<clinit> *))

let monitor_findings ?file prog (cu : Code.unit_) : finding list =
  let out = ref [] in
  let flag (m : Code.meth) msg =
    out :=
      {
        f_sev = Diag.Sev_error;
        f_span = Diag.span ?file (meth_pos prog m);
        f_msg = Printf.sprintf "%s: %s" m.Code.cm_qname msg;
      }
      :: !out
  in
  let check (m : Code.meth) =
    let code = m.Code.cm_code in
    let n = Array.length code in
    let depth = Array.make n (-1) in
    let rec go pc d =
      if pc >= 0 && pc < n then
        if depth.(pc) >= 0 then begin
          if depth.(pc) <> d then
            flag m
              (Printf.sprintf
                 "inconsistent monitor depth at pc %d (%d vs %d)" pc
                 depth.(pc) d)
        end
        else begin
          depth.(pc) <- d;
          match code.(pc) with
          | Code.Ienter _ -> go (pc + 1) (d + 1)
          | Code.Iexit _ ->
            if d = 0 then flag m "monitor exit without a matching enter"
            else go (pc + 1) (d - 1)
          | Code.Iret _ ->
            if d > 0 then
              flag m
                (Printf.sprintf
                   "path reaches a return holding %d monitor%s (lock without \
                    unlock)"
                   d
                   (if d = 1 then "" else "s"))
          | Code.Ithrow _ -> () (* the VM unwinds monitors on crashes *)
          | Code.Ijmp l -> go l d
          | Code.Ibr (_, a, b) ->
            go a d;
            go b d
          | _ -> go (pc + 1) d
        end
    in
    if n > 0 then go 0 0
  in
  let meths (c : Code.cls) =
    Option.to_list c.Code.cc_fieldinit
    @ List.map snd c.Code.cc_ctors
    @ List.map snd c.Code.cc_methods
    @ List.map snd c.Code.cc_static_methods
  in
  Hashtbl.iter
    (fun _ c -> List.iter check (meths c))
    cu.Code.cu_classes;
  !out

(* ---- lock discipline over static accesses ---- *)

(* Identity of the stored field an access touches: the syntactic class
   for statics, the declaring class for instance fields, the array
   type for elements. *)
let field_keys prog (a : D.acc) (an : Analyze.t) : (string * string) list =
  match a.D.sa_base with
  | D.Bstatic c -> [ (c, a.D.sa_field) ]
  | D.Binst sites ->
    D.Sites.fold
      (fun s acc ->
        let info = Analyze.site_info an s in
        let cls =
          if info.D.si_array then info.D.si_cls
          else
            match
              List.find_opt
                (fun (c : Ast.class_decl) ->
                  List.exists
                    (fun (f : Ast.field_decl) ->
                      (not f.f_static) && String.equal f.f_name a.D.sa_field)
                    c.c_fields)
                (Program.ancestors prog info.D.si_cls)
            with
            | Some c -> c.c_name
            | None -> info.D.si_cls
        in
        if List.mem (cls, a.D.sa_field) acc then acc
        else (cls, a.D.sa_field) :: acc)
      sites []

let discipline_findings ?file (an : Analyze.t) : finding list =
  let prog = Analyze.prog an in
  let accs = Analyze.accesses an in
  (* First guarded access per stored field, as the lint witness. *)
  let guarded : (string * string, D.acc) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a : D.acc) ->
      if a.D.sa_locks <> [] then
        List.iter
          (fun k ->
            if not (Hashtbl.mem guarded k) then Hashtbl.replace guarded k a)
          (field_keys prog a an))
    accs;
  let unguarded =
    List.concat_map
      (fun (a : D.acc) ->
        if
          a.D.sa_kind = D.Kwrite && a.D.sa_locks = []
          && not (D.is_init_qname a.D.sa_qname)
        then
          List.filter_map
            (fun ((cls, fld) as k) ->
              match Hashtbl.find_opt guarded k with
              | Some w ->
                Some
                  {
                    f_sev = Diag.Sev_warning;
                    f_span = Diag.span ?file a.D.sa_pos;
                    f_msg =
                      Printf.sprintf
                        "write to %s.%s in %s holds no lock, but %s.%s is \
                         accessed under a lock at %s"
                        cls fld a.D.sa_qname cls fld
                        (Diag.span_to_string (Diag.span ?file w.D.sa_pos));
                  }
              | None -> None)
            (field_keys prog a an)
        else [])
      accs
  in
  (* Dead sync: regions under which no access touches shared state. *)
  let shared = Analyze.shared an in
  let touches_shared (a : D.acc) =
    match a.D.sa_base with
    | D.Bstatic _ -> true
    | D.Binst s -> not (D.Sites.is_empty (D.Sites.inter s shared))
  in
  let live : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a : D.acc) ->
      if touches_shared a then
        List.iter (fun r -> Hashtbl.replace live r ()) a.D.sa_regions)
    accs;
  let dead =
    List.filter_map
      (fun (r : D.region) ->
        if Hashtbl.mem live r.D.rg_id then None
        else
          Some
            {
              f_sev = Diag.Sev_warning;
              f_span = Diag.span ?file r.D.rg_pos;
              f_msg =
                (match r.D.rg_kind with
                | D.Rsync_method ->
                  Printf.sprintf
                    "synchronized method %s guards no thread-shared state \
                     (dead sync)"
                    r.D.rg_qname
                | D.Rsync_block ->
                  Printf.sprintf
                    "sync block in %s guards no thread-shared state (dead \
                     sync)"
                    r.D.rg_qname);
            })
      (Analyze.regions an)
  in
  unguarded @ dead

let race_findings ?file (an : Analyze.t) : finding list =
  List.map
    (fun (c : D.cand) ->
      {
        f_sev = Diag.Sev_warning;
        f_span = Diag.span ?file c.D.cd_a.D.sa_pos;
        f_msg = D.cand_to_string c;
      })
    (Analyze.candidates an)

(* All findings for one compilation unit, sorted by (span, severity,
   message).  [?file] prefixes every span. *)
let run ?file (an : Analyze.t) (cu : Code.unit_) : finding list =
  let prog = Analyze.prog an in
  List.sort_uniq compare_finding
    (race_findings ?file an
    @ discipline_findings ?file an
    @ monitor_findings ?file prog cu)

(* ---- whole-unit lint blocks, with the result-level cache tier ---- *)

(* The rendered per-unit output of [narada lint]: findings then a
   one-line footer.  Assembled here so the CLI, the serve daemon and
   the cache all agree on the exact bytes. *)
type block = { bl_text : string; bl_errors : int; bl_warnings : int }

let render_block ~label (findings : finding list) : block =
  let errors, warnings =
    List.fold_left
      (fun (e, w) f ->
        match f.f_sev with
        | Diag.Sev_error -> (e + 1, w)
        | Diag.Sev_warning -> (e, w + 1))
      (0, 0) findings
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf (to_string f);
      Buffer.add_char buf '\n')
    findings;
  Buffer.add_string buf
    (Printf.sprintf "%s: %d finding%s (%d error%s, %d warning%s)\n" label
       (errors + warnings)
       (if errors + warnings = 1 then "" else "s")
       errors
       (if errors = 1 then "" else "s")
       warnings
       (if warnings = 1 then "" else "s"));
  { bl_text = Buffer.contents buf; bl_errors = errors; bl_warnings = warnings }

let encode_block b =
  Printf.sprintf "counts %d %d\n%s" b.bl_errors b.bl_warnings b.bl_text

let decode_block payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some i -> (
    let hdr = String.sub payload 0 i in
    let text = String.sub payload (i + 1) (String.length payload - i - 1) in
    match String.split_on_char ' ' hdr with
    | [ "counts"; e; w ] -> (
      match (int_of_string_opt e, int_of_string_opt w) with
      | Some e, Some w -> Some { bl_text = text; bl_errors = e; bl_warnings = w }
      | _ -> None)
    | _ -> None)

(* Lint one unit, via two cache tiers when a cache is given: the whole
   rendered block keyed by (label, source bytes) — a warm re-lint of
   an unchanged unit skips parsing and analysis entirely — and, under
   it, the per-class summary tier inside {!Analyze.run}, so an edited
   unit only re-summarizes its changed classes. *)
let block ?cache ~label ~source ~(compile : unit -> Code.unit_) () : block =
  let key = label ^ "\x00" ^ source in
  let cached =
    match cache with
    | None -> None
    | Some cache -> (
      match Cache.find cache ~kind:"lint" ~key with
      | None -> None
      | Some payload -> (
        match decode_block payload with
        | Some b -> Some b
        | None ->
          Cache.evict cache ~kind:"lint" ~key;
          None))
  in
  match cached with
  | Some b -> b
  | None ->
    let cu = compile () in
    let an = Analyze.run ~open_world:true ?cache cu.Code.cu_program in
    let b = render_block ~label (run ~file:label an cu) in
    Option.iter (fun c -> Cache.store c ~kind:"lint" ~key (encode_block b)) cache;
    b
