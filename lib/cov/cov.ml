(* Interleaving-coverage metrics: hashed feature sets over executions,
   the feedback signal that turns blind schedule sampling into
   novelty-guided search.  See DESIGN §13. *)

type kind = Racy_pair | Hb_edge | Lock_order | Postponed

let kind_to_string = function
  | Racy_pair -> "racy_pair"
  | Hb_edge -> "hb_edge"
  | Lock_order -> "lock_order"
  | Postponed -> "postponed"

let kind_of_string = function
  | "racy_pair" -> Some Racy_pair
  | "hb_edge" -> Some Hb_edge
  | "lock_order" -> Some Lock_order
  | "postponed" -> Some Postponed
  | _ -> None

let all_kinds = [ Racy_pair; Hb_edge; Lock_order; Postponed ]

module Fp = struct
  type t = int64

  (* splitmix64 finalizer: cheap, well-mixed, and — unlike
     [Hashtbl.hash] — specified entirely by this file, so fingerprints
     are stable across OCaml releases and safe to persist in
     checkpoints. *)
  let mix (z : int64) : int64 =
    let z = Int64.add z 0x9e3779b97f4a7c15L in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let of_int i = mix (Int64.of_int i)
  let combine a b = mix (Int64.add (Int64.mul a 0x100000001b3L) b)

  let of_string s =
    (* FNV-1a over bytes, then mixed. *)
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001b3L)
      s;
    mix !h
end

module I64set = Stdlib.Set.Make (Int64)

module Set = struct
  type t = {
    racy_pair : I64set.t;
    hb_edge : I64set.t;
    lock_order : I64set.t;
    postponed : I64set.t;
  }

  let empty =
    {
      racy_pair = I64set.empty;
      hb_edge = I64set.empty;
      lock_order = I64set.empty;
      postponed = I64set.empty;
    }

  let get k t =
    match k with
    | Racy_pair -> t.racy_pair
    | Hb_edge -> t.hb_edge
    | Lock_order -> t.lock_order
    | Postponed -> t.postponed

  let set k s t =
    match k with
    | Racy_pair -> { t with racy_pair = s }
    | Hb_edge -> { t with hb_edge = s }
    | Lock_order -> { t with lock_order = s }
    | Postponed -> { t with postponed = s }

  let add k fp t = set k (I64set.add fp (get k t)) t
  let mem k fp t = I64set.mem fp (get k t)

  let union a b =
    {
      racy_pair = I64set.union a.racy_pair b.racy_pair;
      hb_edge = I64set.union a.hb_edge b.hb_edge;
      lock_order = I64set.union a.lock_order b.lock_order;
      postponed = I64set.union a.postponed b.postponed;
    }

  let count k t = I64set.cardinal (get k t)
  let total t = List.fold_left (fun n k -> n + count k t) 0 all_kinds

  let diff a b =
    {
      racy_pair = I64set.diff a.racy_pair b.racy_pair;
      hb_edge = I64set.diff a.hb_edge b.hb_edge;
      lock_order = I64set.diff a.lock_order b.lock_order;
      postponed = I64set.diff a.postponed b.postponed;
    }

  let novelty ~base t = total (diff t base)

  let equal a b =
    List.for_all (fun k -> I64set.equal (get k a) (get k b)) all_kinds

  let fold f t acc =
    List.fold_left
      (fun acc k -> I64set.fold (fun fp acc -> f k fp acc) (get k t) acc)
      acc all_kinds
end

(* Feature constructors.  Each domain gets a distinct tag so features
   never collide across kinds even if their payloads hash equal. *)

let tag = function
  | Racy_pair -> 0x52L
  | Hb_edge -> 0x48L
  | Lock_order -> 0x4cL
  | Postponed -> 0x50L

let site_fp (s : Runtime.Event.site) =
  Fp.combine (Fp.of_string s.Runtime.Event.s_meth) (Fp.of_int s.Runtime.Event.s_pc)

let racy_pair ~field a b =
  let fa = site_fp a and fb = site_fp b in
  (* Order-normalize so (a,b) and (b,a) fingerprint identically. *)
  let lo, hi = if Int64.compare fa fb <= 0 then (fa, fb) else (fb, fa) in
  Fp.combine
    (Fp.combine (tag Racy_pair) (Fp.of_string field))
    (Fp.combine lo hi)

type hb_kind = Spawn | Join | Rel_acq

let hb_kind_code = function Spawn -> 1 | Join -> 2 | Rel_acq -> 3

let hb_edge k ~src ~dst addr =
  Fp.combine
    (Fp.combine (tag Hb_edge) (Fp.of_int (hb_kind_code k)))
    (Fp.combine (Fp.of_int src) (Fp.combine (Fp.of_int dst) (Fp.of_int addr)))

let lock_order ~outer ~inner =
  Fp.combine (tag Lock_order) (Fp.combine (Fp.of_int outer) (Fp.of_int inner))

let postponed_state pairs =
  let pairs =
    List.sort_uniq
      (fun (t1, f1) (t2, f2) ->
        match Int.compare t1 t2 with 0 -> String.compare f1 f2 | c -> c)
      pairs
  in
  List.fold_left
    (fun h (tid, field) ->
      Fp.combine h (Fp.combine (Fp.of_int tid) (Fp.of_string field)))
    (tag Postponed) pairs

let of_trace (t : Runtime.Trace.t) =
  (* One left-to-right scan.  Per-thread lock stacks give nesting
     orders; the last unlocker of each lock address gives the
     release→acquire HB edge for the next acquirer. *)
  let held : (Runtime.Value.tid, Runtime.Value.addr list) Hashtbl.t =
    Hashtbl.create 8
  in
  let last_unlock : (Runtime.Value.addr, Runtime.Value.tid) Hashtbl.t =
    Hashtbl.create 8
  in
  let cov = ref Set.empty in
  let add k fp = cov := Set.add k fp !cov in
  Array.iter
    (fun (e : Runtime.Event.t) ->
      match e with
      | Runtime.Event.Lock { tid; addr; _ } ->
        let stack = Option.value ~default:[] (Hashtbl.find_opt held tid) in
        List.iter
          (fun outer -> add Lock_order (lock_order ~outer ~inner:addr))
          stack;
        Hashtbl.replace held tid (addr :: stack);
        (match Hashtbl.find_opt last_unlock addr with
        | Some src when src <> tid ->
          add Hb_edge (hb_edge Rel_acq ~src ~dst:tid addr)
        | Some _ | None -> ())
      | Runtime.Event.Unlock { tid; addr; _ } ->
        (match Hashtbl.find_opt held tid with
        | Some (a :: rest) when a = addr -> Hashtbl.replace held tid rest
        | Some stack ->
          Hashtbl.replace held tid (List.filter (fun a -> a <> addr) stack)
        | None -> ());
        Hashtbl.replace last_unlock addr tid
      | Runtime.Event.Spawned { tid; new_tid; _ } ->
        add Hb_edge (hb_edge Spawn ~src:tid ~dst:new_tid 0)
      | Runtime.Event.Joined { tid; joined; _ } ->
        add Hb_edge (hb_edge Join ~src:joined ~dst:tid 0)
      | Runtime.Event.Const _ | Runtime.Event.Move _ | Runtime.Event.Read _
      | Runtime.Event.Write _ | Runtime.Event.Alloc _ | Runtime.Event.Invoke _
      | Runtime.Event.Param _ | Runtime.Event.Return _ | Runtime.Event.Thrown _
        ->
        ())
    t;
  !cov

let record ?registry ~prefix set =
  let r =
    match registry with Some r -> r | None -> Obs.Metrics.global ()
  in
  List.iter
    (fun k ->
      Obs.Metrics.incr ~n:(Set.count k set) r (prefix ^ "/" ^ kind_to_string k))
    all_kinds;
  Obs.Metrics.incr ~n:(Set.total set) r (prefix ^ "/total")

module Corpus = struct
  type entry = {
    en_id : int;
    en_seed : int64;
    en_prefix : int list;
    en_gain : int;
  }

  type t = {
    mutable next_id : int;
    mutable rev_entries : entry list; (* newest first *)
    mutable cov : Set.t;
  }

  let create () = { next_id = 0; rev_entries = []; cov = Set.empty }
  let coverage c = c.cov
  let entries c = List.rev c.rev_entries
  let size c = List.length c.rev_entries

  let note c ~seed ~prefix cov =
    let gain = Set.novelty ~base:c.cov cov in
    if gain > 0 then begin
      let e =
        { en_id = c.next_id; en_seed = seed; en_prefix = prefix; en_gain = gain }
      in
      c.next_id <- c.next_id + 1;
      c.rev_entries <- e :: c.rev_entries;
      c.cov <- Set.union c.cov cov
    end;
    gain

  let ranked c =
    List.stable_sort
      (fun a b ->
        match Int.compare b.en_gain a.en_gain with
        | 0 -> Int.compare a.en_id b.en_id
        | cmp -> cmp)
      (entries c)

  (* Checkpoint format, schema narada.covcorpus/1:
       narada.covcorpus/1
       cov <kind> <fp-as-16-hex>          (sorted within kind)
       entry <id> seed=<dec> gain=<dec> prefix=<csv|-> *)

  let schema = "narada.covcorpus/1"

  let entry_line e =
    let csv l =
      if l = [] then "-" else String.concat "," (List.map string_of_int l)
    in
    Printf.sprintf "entry %d seed=%Ld gain=%d prefix=%s" e.en_id e.en_seed
      e.en_gain (csv e.en_prefix)

  let to_lines c =
    let buf = ref [] in
    let push l = buf := l :: !buf in
    push schema;
    Set.fold
      (fun k fp () -> push (Printf.sprintf "cov %s %016Lx" (kind_to_string k) fp))
      c.cov ();
    List.iter (fun e -> push (entry_line e)) (entries c);
    List.rev !buf

  let digest c =
    let fp =
      List.fold_left
        (fun h line -> Fp.combine h (Fp.of_string line))
        (Fp.of_string schema) (to_lines c)
    in
    Printf.sprintf "%016Lx" fp

  let save c path =
    (* write-then-rename so a reader (or a crashed writer) never sees a
       half-written corpus file *)
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          (to_lines c));
    Sys.rename tmp path

  let parse_csv s =
    if String.equal s "-" then Ok []
    else
      try Ok (List.map int_of_string (String.split_on_char ',' s))
      with Failure _ -> Error (Printf.sprintf "bad prefix %S" s)

  let parse_kv key s =
    let pre = key ^ "=" in
    let n = String.length pre in
    if String.length s >= n && String.equal (String.sub s 0 n) pre then
      Ok (String.sub s n (String.length s - n))
    else Error (Printf.sprintf "expected %s=..., got %S" key s)

  let load path =
    let ( let* ) = Result.bind in
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> ());
          List.rev !lines)
    with
    | exception Sys_error msg -> Error msg
    | [] -> Error "empty corpus file"
    | header :: rest ->
      if not (String.equal header schema) then
        Error (Printf.sprintf "bad schema line %S (want %S)" header schema)
      else begin
        let c = create () in
        let parse_line line =
          match String.split_on_char ' ' line with
          | [ "cov"; k; hex ] -> (
            match kind_of_string k with
            | None -> Error (Printf.sprintf "unknown kind %S" k)
            | Some kind -> (
              match Int64.of_string_opt ("0x" ^ hex) with
              | None -> Error (Printf.sprintf "bad fingerprint %S" hex)
              | Some fp ->
                c.cov <- Set.add kind fp c.cov;
                Ok ()))
          | [ "entry"; id; seed; gain; prefix ] ->
            let* id =
              match int_of_string_opt id with
              | Some i -> Ok i
              | None -> Error (Printf.sprintf "bad entry id %S" id)
            in
            let* seed_s = parse_kv "seed" seed in
            let* seed =
              match Int64.of_string_opt seed_s with
              | Some s -> Ok s
              | None -> Error (Printf.sprintf "bad seed %S" seed_s)
            in
            let* gain_s = parse_kv "gain" gain in
            let* gain =
              match int_of_string_opt gain_s with
              | Some g -> Ok g
              | None -> Error (Printf.sprintf "bad gain %S" gain_s)
            in
            let* prefix_s = parse_kv "prefix" prefix in
            let* prefix = parse_csv prefix_s in
            c.rev_entries <-
              { en_id = id; en_seed = seed; en_prefix = prefix; en_gain = gain }
              :: c.rev_entries;
            c.next_id <- max c.next_id (id + 1);
            Ok ()
          | _ -> Error (Printf.sprintf "unparseable line %S" line)
        in
        let rec go = function
          | [] -> Ok c
          | "" :: rest -> go rest
          | line :: rest -> (
            match parse_line line with Ok () -> go rest | Error _ as e -> e)
        in
        go rest
      end
end
