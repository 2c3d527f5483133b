(** Labelled execution events emitted by the virtual machine.

    A recorded sequence of these events is the "trace" of the paper:
    each event is one canonical trace operation with a unique dynamic
    label (§3.1), and field/array accesses additionally carry the
    concrete address so that detectors and the Narada analysis can
    reason about aliasing exactly. *)

type label = int

(** A static program point: qualified method name + pc.  Races are
    reported between sites. *)
type site = { s_meth : string; s_pc : int }

val site_to_string : site -> string
val compare_site : site -> site -> int

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
      field : Jir.Ast.id;  (** ["[]"] for array slots, with [idx] set *)
      idx : int option;
      v : Value.t;
    }
  | Write of {
      label : label;
      tid : Value.tid;
      frame : frame_id;
      site : site;
      obj : Value.addr;
      field : Jir.Ast.id;  (** ["[]"] for array slots, with [idx] set *)
      idx : int option;
      src : Jir.Code.reg option;  (** [None] when the source is not a register *)
      v : Value.t;
    }
  | Alloc of {
      label : label;
      tid : Value.tid;
      frame : frame_id;
      dst : Jir.Code.reg;
      addr : Value.addr;
      cls : string;  (** class name or ["ty[]"] for arrays *)
    }
  | Lock of { label : label; tid : Value.tid; frame : frame_id; addr : Value.addr }
  | Unlock of { label : label; tid : Value.tid; frame : frame_id; addr : Value.addr }
  | Invoke of {
      label : label;
      tid : Value.tid;
      caller : frame_id option;
      frame : frame_id;  (** callee frame *)
      qname : string;
      cls : Jir.Ast.id;
      meth : Jir.Ast.id;
      static : bool;
      recv : Value.t option;
      args : Value.t list;
      client : bool;  (** call crosses the client → library boundary *)
    }
  | Param of {
      label : label;
      tid : Value.tid;
      frame : frame_id;
      pos : int;  (** 0 = receiver, 1.. = parameters *)
      v : Value.t;
    }
  | Return of {
      label : label;
      tid : Value.tid;
      frame : frame_id;  (** returning frame *)
      to_frame : frame_id option;
      dst : Jir.Code.reg option;  (** caller register receiving the result *)
      v : Value.t option;
      to_client : bool;  (** return crosses the library → client boundary *)
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

val label_of : t -> label
val pp : Format.formatter -> t -> unit
