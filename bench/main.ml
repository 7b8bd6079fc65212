(* Experiment harness: one sub-command per table/figure of the paper, plus
   the supplementary security experiments, ablations and the simulation
   throughput bench.

   Usage:  main.exe [experiment ...] [--deep] [--trace FILE] [--jobs N]
                    [--baseline FILE] [--tolerance X]
           main.exe all            (default; every experiment, scaled budget)

   --deep raises sizes and timeouts toward (but nowhere near) the paper's
   2e6-second testbed budget.  --trace installs a JSONL Fl_obs sink: every
   structured event of the run (per-iteration attack records, solver
   progress, spans) is appended to FILE, one JSON object per line.
   --jobs N sets the width of the Fl_par pool the sweep experiments
   (table4, cnf, table5, fig7, coverage, removal, corruption) fan their
   per-circuit attack runs through; the default is
   recommended_domain_count - 1, and --jobs 1 runs every task inline on
   the main domain — bit-for-bit the sequential behaviour.

   Each experiment also writes a machine-readable BENCH_<name>.json
   summary — wall time, the Fl_obs counter snapshot, the deep-telemetry
   histograms, and the fields the experiment registered through Report.
   --baseline FILE (one experiment only) re-reads the fresh report after
   the run and gates it against the committed FILE with
   Fl_cli.Baseline.gate: statuses must match and watched metrics must stay
   within --tolerance (default 1.25); a regression exits 1, and an
   unreadable FILE exits 2 before anything runs. *)

let experiments ~deep ~pool =
  [
    "fig1", (fun () -> Exp_fig1.run ~deep ());
    "table1", (fun () -> Exp_table1.run ());
    "table2", (fun () -> Exp_table2.run ~deep ());
    "table3", (fun () -> Exp_table3.run ~deep ());
    "table4", (fun () -> Exp_table4.run ~deep ~pool ());
    "cnf", (fun () -> Exp_cnf.run ~deep ~pool ());
    "table5", (fun () -> Exp_table5.run ~deep ~pool ());
    "fig5", (fun () -> Exp_fig5.run ());
    "fig7", (fun () -> Exp_fig7.run ~deep ~pool ());
    "coverage", (fun () -> Exp_security.coverage ~deep ~pool ());
    "removal", (fun () -> Exp_security.removal ~deep ~pool ());
    "affine", (fun () -> Exp_security.affine ());
    "corruption", (fun () -> Exp_security.corruption ~deep ~pool ());
    "bdd", (fun () -> Exp_bdd.run ~deep ());
    "ablate", (fun () -> Exp_ablate.run ~deep ());
    "sim", (fun () -> Exp_sim.run ());
  ]

let usage_names table = "all" :: List.map fst table

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let trace, args = Fl_cli.take_opt "--trace" args in
  let jobs_arg, args = Fl_cli.take_opt "--jobs" args in
  let baseline, args = Fl_cli.take_opt "--baseline" args in
  let tolerance_arg, args = Fl_cli.take_opt "--tolerance" args in
  let deep, selected = Fl_cli.take_flag "--deep" args in
  (* Anything still dash-prefixed is a flag we don't know; reject it instead
     of treating it as an (unknown) experiment name. *)
  (match
     List.filter (fun a -> String.length a > 0 && a.[0] = '-') selected
   with
   | [] -> ()
   | unknown ->
     List.iter
       (fun flag ->
         Printf.eprintf
           "unknown flag %s; available: --deep, --trace FILE, --jobs N, \
            --baseline FILE, --tolerance X\n"
           flag)
       unknown;
     exit 2);
  let jobs =
    match jobs_arg with
    | None -> Fl_cli.default_jobs ()
    | Some s -> Fl_cli.parse_jobs s
  in
  let tolerance =
    match tolerance_arg with
    | None -> 1.25
    | Some s ->
      (match float_of_string_opt s with
       | Some t when t >= 1.0 -> t
       | _ ->
         Printf.eprintf "--tolerance needs a float >= 1, got %S\n" s;
         exit 2)
  in
  (* Deep distribution telemetry is always on for benches: the histograms
     land in every BENCH_<name>.json and the recording cost (one striped
     atomic add per conflict) is noise next to a solve. *)
  Fl_obs.set_deep true;
  let pool = Fl_par.create ~name:"bench" ~jobs () in
  let table = experiments ~deep ~pool in
  (* Reject unknown names up front so `main.exe tabel4 fig7` fails fast
     instead of running fig7 first and erroring an hour in. *)
  (match
     List.filter
       (fun name -> not (List.mem name (usage_names table)))
       selected
   with
   | [] -> ()
   | unknown ->
     List.iter
       (fun name ->
         Printf.eprintf "unknown experiment %S; available: %s\n" name
           (String.concat ", " (usage_names table)))
       unknown;
     exit 2);
  (match trace with None -> () | Some file -> Fl_cli.install_trace file);
  (match baseline, selected with
   | Some base, [ name ] when name <> "all" ->
     (* Fail on an unreadable baseline now, not after the experiment. *)
     ignore (Fl_cli.slurp base)
   | Some _, _ ->
     Printf.eprintf "--baseline needs exactly one experiment name\n";
     exit 2
   | None, _ -> ());
  let run_one name =
    let f = List.assoc name table in
    Report.reset ();
    (* Counter/histogram isolation: each BENCH_<name>.json reflects its own
       experiment even in an `all` run. *)
    Fl_obs.reset_metrics ();
    let t0 = Unix.gettimeofday () in
    Fl_obs.with_span ("bench." ^ name) f;
    let wall = Unix.gettimeofday () -. t0 in
    Report.write ~experiment:name ~wall_s:wall;
    Printf.printf "[%s done in %.1fs]\n%!" name wall
  in
  (match selected with
   | [] | [ "all" ] ->
     print_endline
       "Full-Lock experiment suite (scaled budgets; pass --deep for longer runs)";
     List.iter (fun (name, _) -> run_one name) table
   | names -> List.iter run_one names);
  Fl_par.shutdown pool;
  match baseline with
  | None -> ()
  | Some base ->
    let current = "BENCH_" ^ List.hd selected ^ ".json" in
    (match Fl_cli.Baseline.gate ~tolerance ~baseline:base ~current () with
     | Ok () -> ()
     | Error fails ->
       List.iter (fun f -> Printf.eprintf "regression: %s\n" f) fails;
       exit 1
     | exception Failure msg ->
       Printf.eprintf "baseline gate: %s\n" msg;
       exit 2)
