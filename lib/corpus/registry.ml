(* The benchmark registry: the nine classes of Table 3, in order. *)

let all : Corpus_def.entry list =
  [
    C1_write_behind_queue.entry;
    C2_synchronized_collection.entry;
    C3_char_array_writer.entry;
    C4_dynamic_bin.entry;
    C5_double_int_index.entry;
    C6_scanner.entry;
    C7_pooled_executor.entry;
    C8_sequence.entry;
    C9_char_array_reader.entry;
  ]

(* The footnote-5 openjdk wrapper family (races "very similar to
   SynchronizedCollection"); not part of the paper's tables. *)
let extras : Corpus_def.entry list = Openjdk_extras.entries

let find id =
  List.find_opt
    (fun (e : Corpus_def.entry) ->
      String.equal (String.lowercase_ascii e.Corpus_def.e_id)
        (String.lowercase_ascii id))
    (all @ extras)

let ids = List.map (fun (e : Corpus_def.entry) -> e.Corpus_def.e_id) all

module Unit_cache = Par.Keyed_cache (struct
  type t = Jir.Code.unit_
end)

let units = Unit_cache.create ()

let compiled_unit (e : Corpus_def.entry) : Jir.Code.unit_ =
  Unit_cache.find_or_compute units e.Corpus_def.e_id (fun () ->
      Jir.Compile.compile_source e.Corpus_def.e_source)

let warm entries = List.iter (fun e -> ignore (compiled_unit e)) entries
