(* Command line of the benchmark executable (run.py passes it through). *)

type size = Full | Tiny

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  plant : string option;
      (** corrupt one observed answer before the correctness check *)
  scratch : string;  (** where the span files are written *)
  emit_reference : bool;  (** print this run's reference answer *)
}

let size_name = function Full -> "full" | Tiny -> "tiny"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let parse argv =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and size = ref Full and plant = ref None in
  let scratch = ref (Filename.concat ".bench_build" "perfbench") and emit = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := w;
      go rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some n ->
        seed := Some n;
        go rest
      | None -> die "--seed: not an integer: %s" s)
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 ->
        seconds := Some f;
        go rest
      | _ -> die "--seconds: not a positive number: %s" s)
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | "--size" :: (("full" | "tiny") as s) :: rest ->
      size := if s = "tiny" then Tiny else Full;
      go rest
    | "--plant" :: (("race" | "block") as p) :: rest ->
      plant := Some p;
      go rest
    | "--scratch" :: d :: rest ->
      scratch := d;
      go rest
    | "--emit-reference" :: rest ->
      emit := true;
      go rest
    | a :: _ -> die "unknown or incomplete argument: %s" a
  in
  go (List.tl (Array.to_list argv));
  let need name = function Some v -> v | None -> die "missing %s" name in
  {
    workload = !workload;
    seed = need "--seed" !seed;
    seconds = need "--seconds" !seconds;
    trace = need "--trace" !trace;
    size = !size;
    plant = !plant;
    scratch = !scratch;
    emit_reference = !emit;
  }
