(* Labelled execution events emitted by the virtual machine.  A recorded
   sequence of these events is the "trace" of the paper: each event is
   one canonical trace operation with a unique dynamic label (§3.1), and
   field/array accesses additionally carry the concrete address so that
   detectors and the Narada analysis can reason about aliasing exactly. *)

type label = int

(* A static program point: qualified method name + pc.  Races are
   reported between sites. *)
type site = { s_meth : string; s_pc : int }

let site_to_string { s_meth; s_pc } = Printf.sprintf "%s:%d" s_meth s_pc

let compare_site a b =
  match String.compare a.s_meth b.s_meth with
  | 0 -> Int.compare a.s_pc b.s_pc
  | c -> c

type frame_id = int

type t =
  | Const of { label : label; tid : Value.tid; frame : frame_id; dst : Jir.Code.reg }
  | Move of {
      label : label;
      tid : Value.tid;
      frame : frame_id;
      dst : Jir.Code.reg;
      src : Jir.Code.reg;
      v : Value.t;
    }
  | Read of {
      label : label;
      tid : Value.tid;
      frame : frame_id;
      site : site;
      dst : Jir.Code.reg;
      obj : Value.addr;
      field : Jir.Ast.id; (* "[]" for array slots, with [idx] set *)
      idx : int option;
      v : Value.t;
    }
  | Write of {
      label : label;
      tid : Value.tid;
      frame : frame_id;
      site : site;
      obj : Value.addr;
      field : Jir.Ast.id; (* "[]" for array slots, with [idx] set *)
      idx : int option;
      src : Jir.Code.reg option; (* None when the source is not a register *)
      v : Value.t;
    }
  | Alloc of {
      label : label;
      tid : Value.tid;
      frame : frame_id;
      dst : Jir.Code.reg;
      addr : Value.addr;
      cls : string; (* class name or "ty[]" for arrays *)
    }
  | Lock of { label : label; tid : Value.tid; frame : frame_id; addr : Value.addr }
  | Unlock of { label : label; tid : Value.tid; frame : frame_id; addr : Value.addr }
  | Invoke of {
      label : label;
      tid : Value.tid;
      caller : frame_id option;
      frame : frame_id; (* callee frame *)
      qname : string;
      cls : Jir.Ast.id;
      meth : Jir.Ast.id;
      static : bool;
      recv : Value.t option;
      args : Value.t list;
      client : bool; (* call crosses the client → library boundary *)
    }
  | Param of {
      label : label;
      tid : Value.tid;
      frame : frame_id;
      pos : int; (* 0 = receiver, 1.. = parameters *)
      v : Value.t;
    }
  | Return of {
      label : label;
      tid : Value.tid;
      frame : frame_id; (* returning frame *)
      to_frame : frame_id option;
      dst : Jir.Code.reg option; (* caller register receiving the result *)
      v : Value.t option;
      to_client : bool; (* return crosses the library → client boundary *)
    }
  | Spawned of {
      label : label;
      tid : Value.tid;
      new_tid : Value.tid;
      qname : string;
      recv : Value.t;
      args : Value.t list;
    }
  | Joined of { label : label; tid : Value.tid; joined : Value.tid }
  | Thrown of { label : label; tid : Value.tid; msg : string }

let label_of = function
  | Const { label; _ }
  | Move { label; _ }
  | Read { label; _ }
  | Write { label; _ }
  | Alloc { label; _ }
  | Lock { label; _ }
  | Unlock { label; _ }
  | Invoke { label; _ }
  | Param { label; _ }
  | Return { label; _ }
  | Spawned { label; _ }
  | Joined { label; _ }
  | Thrown { label; _ } ->
    label

let pp fmt (e : t) =
  match e with
  | Const { label; frame; dst; _ } ->
    Format.fprintf fmt "%4d  f%d  r%d := <const>" label frame dst
  | Move { label; frame; dst; src; v; _ } ->
    Format.fprintf fmt "%4d  f%d  r%d := r%d  (%a)" label frame dst src Value.pp v
  | Read { label; frame; dst; obj; field; v; _ } ->
    Format.fprintf fmt "%4d  f%d  r%d := @%d.%s  (%a)" label frame dst obj field
      Value.pp v
  | Write { label; frame; obj; field; v; _ } ->
    Format.fprintf fmt "%4d  f%d  @%d.%s := %a" label frame obj field Value.pp v
  | Alloc { label; frame; dst; addr; cls; _ } ->
    Format.fprintf fmt "%4d  f%d  r%d := alloc %s @%d" label frame dst cls addr
  | Lock { label; addr; tid; _ } ->
    Format.fprintf fmt "%4d  t%d  lock @%d" label tid addr
  | Unlock { label; addr; tid; _ } ->
    Format.fprintf fmt "%4d  t%d  unlock @%d" label tid addr
  | Invoke { label; frame; qname; recv; args; client; _ } ->
    Format.fprintf fmt "%4d  f%d  invoke%s %s recv=%s args=[%s]" label frame
      (if client then "[client]" else "")
      qname
      (match recv with Some v -> Value.to_string v | None -> "-")
      (String.concat "; " (List.map Value.to_string args))
  | Param { label; frame; pos; v; _ } ->
    Format.fprintf fmt "%4d  f%d  I%d := %a" label frame pos Value.pp v
  | Return { label; frame; v; to_client; _ } ->
    Format.fprintf fmt "%4d  f%d  return%s %s" label frame
      (if to_client then "[client]" else "")
      (match v with Some v -> Value.to_string v | None -> "")
  | Spawned { label; tid; new_tid; qname; _ } ->
    Format.fprintf fmt "%4d  t%d  spawn t%d %s" label tid new_tid qname
  | Joined { label; tid; joined } ->
    Format.fprintf fmt "%4d  t%d  join t%d" label tid joined
  | Thrown { label; tid; msg } ->
    Format.fprintf fmt "%4d  t%d  throw %S" label tid msg
