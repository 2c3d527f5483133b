(* Quickstart: the complete Narada pipeline on the paper's Figure 1
   example (Lib/Counter).

     dune exec examples/quickstart.exe

   Steps shown: sequential seed trace → access analysis (A and D) →
   racy pairs → synthesized multithreaded tests → detection with
   lockset + FastTrack → RaceFuzzer confirmation → harmful/benign
   triage. *)

let source =
  {|
class Counter {
  int count;
  void inc() { this.count = this.count + 1; }
  int get() { return this.count; }
}

class Lib {
  Counter c;
  Lib() { this.c = new Counter(); }
  synchronized void update() { this.c.inc(); }
  synchronized void set(Counter x) { this.c = x; }
}

class Seed {
  static void main() {
    Lib p = new Lib();
    Counter r = new Counter();
    p.set(r);
    p.update();
    int n = r.get();
    Sys.print(n);
  }
}
|}

let () =
  print_endline "=== Synthesizing racy tests: quickstart (paper Fig. 1) ===\n";
  let an =
    match
      Narada_core.Pipeline.analyze_source source ~client_classes:[ "Seed" ]
        ~seed_cls:"Seed" ~seed_meth:"main"
    with
    | Ok an -> an
    | Error e -> failwith e
  in
  Printf.printf "1. sequential analysis: %s\n\n"
    (Narada_core.Pipeline.summary_to_string an);

  print_endline "2. interesting accesses (writeable W / unprotected U):";
  List.iter
    (fun a ->
      if a.Narada_core.Access.acc_in_lib then
        Printf.printf "   %s\n" (Narada_core.Access.acc_to_string a))
    an.Narada_core.Pipeline.an_access.Narada_core.Access.accesses;

  print_endline "\n3. setters derived from D (drive objects into aliasing):";
  List.iter
    (fun s -> Printf.printf "   %s\n" (Narada_core.Summary.to_string s))
    (Narada_core.Summary.setters
       an.Narada_core.Pipeline.an_access.Narada_core.Access.summary);

  print_endline "\n4. potential racy pairs:";
  List.iter
    (fun p -> Printf.printf "   %s\n" (Narada_core.Pairs.pair_to_string p))
    an.Narada_core.Pipeline.an_pairs;

  print_endline "\n5. synthesized multithreaded tests + detection:";
  List.iter
    (fun t ->
      print_newline ();
      print_string (Narada_core.Synth.to_source t);
      let instantiate = Narada_core.Pipeline.instantiator an t in
      match instantiate () with
      | Error e -> Printf.printf "   (not executable: %s)\n" e
      | Ok inst ->
        let ls = Detect.Lockset.attach inst.Detect.Racefuzzer.ri_machine in
        let ft = Detect.Fasttrack.attach inst.Detect.Racefuzzer.ri_machine in
        ignore
          (Conc.Exec.run inst.Detect.Racefuzzer.ri_machine
             (Conc.Scheduler.random ~seed:5L));
        Printf.printf "   lockset candidates: %d, fasttrack reports: %d\n"
          (List.length (Detect.Lockset.candidates ls))
          (List.length (Detect.Fasttrack.reports ft));
        let reports = Detect.Lockset.candidates ls in
        let cands = Array.of_list (List.map Detect.Racefuzzer.candidate_of_report reports) in
        (* Every candidate of the test in one batch: they share each
           directed run until their first matching access. *)
        let results =
          Detect.Racefuzzer.confirm_all ~instantiate ~cands ~runs:10 ~seed:7L ~settle:ignore
        in
        List.iteri
          (fun i cand ->
            let c = cands.(i) in
            match (fst results.(i)).Detect.Racefuzzer.confirmed with
            | Some rep ->
              let verdict =
                match Detect.Triage.triage ~instantiate ~cand:c () with
                | Ok v -> Detect.Triage.verdict_to_string v
                | Error _ -> "?"
              in
              Printf.printf "   CONFIRMED (%s): %s\n" verdict
                (Detect.Race.key_to_string (Detect.Race.key_of rep))
            | None ->
              Printf.printf "   not reproduced: %s\n"
                (Detect.Race.key_to_string (Detect.Race.key_of cand)))
          reports)
    an.Narada_core.Pipeline.an_tests;

  print_endline "\nDone.  The update x update test is the paper's scenario:";
  print_endline "two Lib objects share one Counter via set(), and the";
  print_endline "synchronized update() methods race on count under";
  print_endline "different locks — a harmful lost-update race."
