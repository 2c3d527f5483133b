(* Textual rendering of the paper's tables and figure, with paper
   numbers alongside ours (the substrate differs, so the claim is shape,
   not absolute values — see EXPERIMENTS.md). *)

let hr width = String.make width '-'

(* ---- Table 3: benchmark information ---- *)

let table3 () : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Table 3: Benchmark Information\n";
  Buffer.add_string buf
    (Printf.sprintf "%-4s %-12s %-10s %s\n" "Id" "Benchmark" "Version"
       "Class name");
  Buffer.add_string buf (hr 64 ^ "\n");
  List.iter
    (fun (e : Corpus.Corpus_def.entry) ->
      Buffer.add_string buf
        (Printf.sprintf "%-4s %-12s %-10s %s\n" e.Corpus.Corpus_def.e_id
           e.Corpus.Corpus_def.e_benchmark e.Corpus.Corpus_def.e_version
           e.Corpus.Corpus_def.e_name))
    Corpus.Registry.all;
  Buffer.contents buf

(* ---- Table 4: synthesized test count and synthesis time ---- *)

let table4 (evals : Evaluate.class_eval list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 4: Synthesized test count and synthesis time (measured | paper)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-4s %14s %14s %16s %14s %18s\n" "Cls" "Methods" "LoC"
       "RacePairs" "Tests" "Time(s)");
  Buffer.add_string buf (hr 88 ^ "\n");
  let tot_pairs = ref 0 and tot_tests = ref 0 and tot_time = ref 0.0 in
  let ptot_pairs = ref 0 and ptot_tests = ref 0 and ptot_time = ref 0.0 in
  List.iter
    (fun (ce : Evaluate.class_eval) ->
      let p = ce.Evaluate.cl_entry.Corpus.Corpus_def.e_paper in
      tot_pairs := !tot_pairs + ce.Evaluate.cl_pairs;
      tot_tests := !tot_tests + ce.Evaluate.cl_tests;
      tot_time := !tot_time +. ce.Evaluate.cl_seconds;
      ptot_pairs := !ptot_pairs + p.Corpus.Corpus_def.pr_pairs;
      ptot_tests := !ptot_tests + p.Corpus.Corpus_def.pr_tests;
      ptot_time := !ptot_time +. p.Corpus.Corpus_def.pr_seconds;
      Buffer.add_string buf
        (Printf.sprintf "%-4s %8d | %3d %8d | %3d %9d | %4d %8d | %3d %10.2f | %6.1f\n"
           ce.Evaluate.cl_entry.Corpus.Corpus_def.e_id ce.Evaluate.cl_methods
           p.Corpus.Corpus_def.pr_methods ce.Evaluate.cl_loc
           p.Corpus.Corpus_def.pr_loc ce.Evaluate.cl_pairs
           p.Corpus.Corpus_def.pr_pairs ce.Evaluate.cl_tests
           p.Corpus.Corpus_def.pr_tests ce.Evaluate.cl_seconds
           p.Corpus.Corpus_def.pr_seconds))
    evals;
  Buffer.add_string buf (hr 88 ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "%-4s %14s %14s %9d | %4d %8d | %3d %10.2f | %6.1f\n" "Tot"
       "" "" !tot_pairs !ptot_pairs !tot_tests !ptot_tests !tot_time !ptot_time);
  (* Extra line only when the static filter ran, so the pinned filterless
     table output is unchanged. *)
  if List.exists (fun ce -> ce.Evaluate.cl_static_filter) evals then begin
    let pruned =
      List.fold_left (fun a ce -> a + ce.Evaluate.cl_pairs_pruned) 0 evals
    in
    Buffer.add_string buf
      (Printf.sprintf
         "Static filter: kept %d of %d race pairs (pruned %d)\n" !tot_pairs
         (!tot_pairs + pruned) pruned)
  end;
  Buffer.contents buf

(* ---- Table 5: detection results ---- *)

let table5 (evals : Evaluate.class_eval list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 5: Races detected on synthesized tests (measured | paper)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-4s %16s %16s %14s %14s\n" "Cls" "Detected" "Reproduced"
       "Harmful" "Benign");
  Buffer.add_string buf (hr 80 ^ "\n");
  let t = Array.make 4 0 and pt = Array.make 4 0 in
  List.iter
    (fun (ce : Evaluate.class_eval) ->
      let p = ce.Evaluate.cl_entry.Corpus.Corpus_def.e_paper in
      let prepro = p.Corpus.Corpus_def.pr_harmful + p.Corpus.Corpus_def.pr_benign in
      t.(0) <- t.(0) + ce.Evaluate.cl_detected;
      t.(1) <- t.(1) + ce.Evaluate.cl_reproduced;
      t.(2) <- t.(2) + ce.Evaluate.cl_harmful;
      t.(3) <- t.(3) + ce.Evaluate.cl_benign;
      pt.(0) <- pt.(0) + p.Corpus.Corpus_def.pr_races;
      pt.(1) <- pt.(1) + prepro;
      pt.(2) <- pt.(2) + p.Corpus.Corpus_def.pr_harmful;
      pt.(3) <- pt.(3) + p.Corpus.Corpus_def.pr_benign;
      Buffer.add_string buf
        (Printf.sprintf "%-4s %9d | %4d %9d | %4d %8d | %3d %8d | %3d\n"
           ce.Evaluate.cl_entry.Corpus.Corpus_def.e_id ce.Evaluate.cl_detected
           p.Corpus.Corpus_def.pr_races ce.Evaluate.cl_reproduced prepro
           ce.Evaluate.cl_harmful p.Corpus.Corpus_def.pr_harmful
           ce.Evaluate.cl_benign p.Corpus.Corpus_def.pr_benign))
    evals;
  Buffer.add_string buf (hr 80 ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "%-4s %9d | %4d %9d | %4d %8d | %3d %8d | %3d\n" "Tot"
       t.(0) pt.(0) t.(1) pt.(1) t.(2) pt.(2) t.(3) pt.(3));
  Buffer.contents buf

(* ---- Figure 14: distribution of tests w.r.t. detected races ---- *)

let fig14 (evals : Evaluate.class_eval list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 14: Distribution of tests w.r.t. the number of detected races\n";
  Buffer.add_string buf
    (Printf.sprintf "%-4s %8s %8s %8s %8s %8s %8s\n" "Cls" "0" "1" "2" "3-5"
       "5-10" ">10");
  Buffer.add_string buf (hr 58 ^ "\n");
  List.iter
    (fun (ce : Evaluate.class_eval) ->
      let dist = Evaluate.fig14_distribution ce in
      Buffer.add_string buf
        (Printf.sprintf "%-4s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n"
           ce.Evaluate.cl_entry.Corpus.Corpus_def.e_id
           (List.assoc "0" dist) (List.assoc "1" dist) (List.assoc "2" dist)
           (List.assoc "3-5" dist)
           (List.assoc "5-10" dist)
           (List.assoc ">10" dist)))
    evals;
  (* simple stacked ASCII rendering per class *)
  Buffer.add_string buf "\n";
  List.iter
    (fun (ce : Evaluate.class_eval) ->
      let dist = Evaluate.fig14_distribution ce in
      Buffer.add_string buf
        (Printf.sprintf "%-4s |" ce.Evaluate.cl_entry.Corpus.Corpus_def.e_id);
      List.iteri
        (fun i (_, pct) ->
          let c = "0123 5X".[min i 6] in
          let n = int_of_float (pct /. 4.0) in
          Buffer.add_string buf (String.make n c))
        dist;
      Buffer.add_string buf "|\n")
    evals;
  Buffer.add_string buf
    "      legend: 0=zero races, 1, 2, 3='3-5', 5='5-10', X='>10' (4%/char)\n";
  Buffer.contents buf

(* ---- §5 ConTeGe comparison ---- *)

type contege_row = {
  cr_id : string;
  cr_campaign : Contege.campaign;
  cr_narada_races : int; (* what Narada-synthesized tests found *)
}

let contege_rows ?(budget = Contege.default_budget)
    (evals : Evaluate.class_eval list) : contege_row list =
  List.map
    (fun (ce : Evaluate.class_eval) ->
      {
        cr_id = ce.Evaluate.cl_entry.Corpus.Corpus_def.e_id;
        cr_campaign =
          Contege.campaign ce.Evaluate.cl_entry ~budget ~schedules:5 ~seed:11L;
        cr_narada_races = ce.Evaluate.cl_detected;
      })
    evals

let contege_table (rows : contege_row list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "ConTeGe-style random baseline vs Narada (cf. §5: ConTeGe found 2\n\
     violations in C5 and 1 in C6 out of 1K-70K random tests, none elsewhere)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-4s %10s %10s %12s %14s %14s\n" "Cls" "Random" "Valid"
       "Violations" "FirstViol" "NaradaRaces");
  Buffer.add_string buf (String.make 70 '-' ^ "\n");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-4s %10d %10d %12d %14s %14d\n" r.cr_id
           r.cr_campaign.Contege.ca_tests r.cr_campaign.Contege.ca_valid
           r.cr_campaign.Contege.ca_violations
           (match r.cr_campaign.Contege.ca_first_violation with
           | Some i -> string_of_int i
           | None -> "-")
           r.cr_narada_races))
    rows;
  Buffer.contents buf
