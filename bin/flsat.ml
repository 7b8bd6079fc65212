(* flsat — standalone DIMACS front end for the CDCL solver.

     flsat problem.cnf [--budget-seconds S] [--dpll] [--inprocess]
       [--stats] [--trace FILE]

   Prints "s SATISFIABLE" with a "v ..." model line, "s UNSATISFIABLE", or
   "s UNKNOWN", following the SAT-competition output conventions.
   --inprocess runs the Fl_sat.Inprocess engine (probing, equivalent-
   literal collapsing, XOR/Gauss, subsumption, elimination; nothing
   frozen) over the input before solving; models are reconstructed to the
   original variables before printing.  --trace appends structured JSONL
   events (cdcl.progress every 1024 conflicts, span.begin/end around the
   solve, the final solve record) to FILE; --stats prints the solver
   one-liner plus the full metric snapshot (counters and the cdcl.*
   histograms) on exit. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let budget_arg, args = Fl_cli.take_opt "--budget-seconds" args in
  let trace, args = Fl_cli.take_opt "--trace" args in
  let use_dpll, args = Fl_cli.take_flag "--dpll" args in
  let show_stats, args = Fl_cli.take_flag "--stats" args in
  let inprocess, args = Fl_cli.take_flag "--inprocess" args in
  let path =
    match args with
    | [ p ] when String.length p > 0 && p.[0] <> '-' -> p
    | _ ->
      prerr_endline
        "usage: flsat problem.cnf [--budget-seconds S] [--dpll] [--inprocess] [--stats] [--trace FILE]";
      exit 2
  in
  let budget = ref (-1.0) in
  (match budget_arg with
   | None -> ()
   | Some v ->
     (match float_of_string_opt v with
      | Some s -> budget := s
      | None ->
        Printf.eprintf "--budget-seconds needs a number, got %S\n" v;
        exit 2));
  let use_dpll = ref use_dpll and show_stats = ref show_stats in
  (match trace with None -> () | Some file -> Fl_cli.install_trace file);
  (* The histograms need the deep switch, not a sink: a --stats run should
     show the LBD/conflict-level distributions even without --trace. *)
  if !show_stats then Fl_obs.set_deep true;
  let formula =
    try Fl_cnf.Formula.of_dimacs (Fl_cli.slurp path)
    with Fl_cnf.Formula.Dimacs_error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      exit 2
  in
  (* One-shot inprocessing: nothing frozen, so unit/equivalence/
     elimination reconstruction covers every variable.  An Unsat verdict
     decides the instance outright. *)
  let ip =
    if inprocess then
      Some (Fl_sat.Inprocess.run ~label:"flsat" ~frozen:[||] formula)
    else None
  in
  (match ip with
   | Some ip ->
     if !show_stats then
       Format.eprintf "c inprocess: %a@." Fl_sat.Inprocess.pp_stats
         (Fl_sat.Inprocess.stats ip);
     if Fl_sat.Inprocess.is_unsat ip then begin
       if !show_stats then Fl_cli.print_stats ();
       print_endline "s UNSATISFIABLE";
       exit 20
     end
   | None -> ());
  let solve_formula =
    match ip with Some ip -> Fl_sat.Inprocess.formula ip | None -> formula
  in
  if !use_dpll then begin
    let outcome, stats = Fl_obs.with_span "flsat.solve" (fun () -> Fl_sat.Dpll.solve solve_formula) in
    if !show_stats then begin
      Format.eprintf "c %a@." Fl_sat.Dpll.pp_stats stats;
      Fl_cli.print_stats ()
    end;
    match outcome with
    | Fl_sat.Dpll.Sat ->
      print_endline "s SATISFIABLE";
      exit 10
    | Fl_sat.Dpll.Unsat ->
      print_endline "s UNSATISFIABLE";
      exit 20
    | Fl_sat.Dpll.Aborted ->
      print_endline "s UNKNOWN";
      exit 0
  end
  else begin
    let budget =
      if !budget > 0.0 then Fl_sat.Cdcl.budget_seconds !budget
      else Fl_sat.Cdcl.no_budget
    in
    let s = Fl_sat.Cdcl.of_formula solve_formula in
    let stats_fields (d : Fl_sat.Cdcl.stats) =
      [
        "decisions", Fl_obs.Int d.Fl_sat.Cdcl.decisions;
        "propagations", Fl_obs.Int d.Fl_sat.Cdcl.propagations;
        "conflicts", Fl_obs.Int d.Fl_sat.Cdcl.conflicts;
        "restarts", Fl_obs.Int d.Fl_sat.Cdcl.restarts;
        "learned_clauses", Fl_obs.Int d.Fl_sat.Cdcl.learned_clauses;
        "reductions", Fl_obs.Int d.Fl_sat.Cdcl.reductions;
        "max_decision_level", Fl_obs.Int d.Fl_sat.Cdcl.max_decision_level;
      ]
    in
    if Fl_obs.enabled () then
      Fl_sat.Cdcl.set_progress s ~every:1024 (fun delta ->
          Fl_obs.emit "cdcl.progress" ~fields:(stats_fields delta));
    let t0 = Unix.gettimeofday () in
    let outcome =
      Fl_obs.with_span "flsat.solve" (fun () -> Fl_sat.Cdcl.solve ~budget s)
    in
    let stats = Fl_sat.Cdcl.stats s in
    if Fl_obs.enabled () then
      Fl_obs.emit "cdcl.solve"
        ~fields:
          (("outcome",
            Fl_obs.String
              (match outcome with
               | Fl_sat.Cdcl.Sat -> "sat"
               | Fl_sat.Cdcl.Unsat -> "unsat"
               | Fl_sat.Cdcl.Unknown -> "unknown"))
           :: ("clauses", Fl_obs.Int (Fl_cnf.Formula.num_clauses solve_formula))
           :: ("vars", Fl_obs.Int (Fl_cnf.Formula.num_vars solve_formula))
           :: ("elapsed_s", Fl_obs.Float (Unix.gettimeofday () -. t0))
           :: stats_fields stats);
    if !show_stats then begin
      Format.eprintf "c %a@." Fl_sat.Cdcl.pp_stats stats;
      Fl_cli.print_stats ()
    end;
    match outcome with
    | Fl_sat.Cdcl.Sat ->
      let m =
        let m = Fl_sat.Cdcl.model s in
        match ip with
        | Some ip -> Fl_sat.Inprocess.reconstruct ip m
        | None -> m
      in
      print_endline "s SATISFIABLE";
      let buf = Buffer.create 256 in
      Buffer.add_string buf "v";
      for v = 1 to Fl_cnf.Formula.num_vars formula do
        Buffer.add_string buf (Printf.sprintf " %d" (if m.(v) then v else -v))
      done;
      Buffer.add_string buf " 0";
      print_endline (Buffer.contents buf);
      exit 10
    | Fl_sat.Cdcl.Unsat ->
      print_endline "s UNSATISFIABLE";
      exit 20
    | Fl_sat.Cdcl.Unknown ->
      print_endline "s UNKNOWN";
      exit 0
  end
