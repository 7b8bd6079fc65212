(* fulllock — command-line front end.

   Sub-commands:
     generate   draw a random benchmark-style circuit
     suite      emit a circuit from the built-in ISCAS/MCNC-shaped suite
     stats      netlist statistics and PPA estimate
     lock       apply a locking scheme, write locked netlist + key file
     verify     check a key against an oracle netlist
     attack     run SAT / CycSAT / AppSAT / removal / brute-force attacks *)

open Cmdliner

module Circuit = Fl_netlist.Circuit
module Bench_io = Fl_netlist.Bench_io
module Generator = Fl_netlist.Generator
module Bench_suite = Fl_netlist.Bench_suite
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Ppa = Fl_ppa.Ppa

(* ---------- shared helpers ---------- *)

let read_circuit path =
  try Bench_io.parse_file path with
  | Bench_io.Parse_error (line, msg) ->
    Printf.eprintf "%s:%d: %s\n" path line msg;
    exit 1
  | Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

let write_circuit c path =
  Bench_io.write_file c path;
  Printf.printf "wrote %s (%d gates, %d inputs, %d keys, %d outputs)\n" path
    (Circuit.num_gates c) (Circuit.num_inputs c) (Circuit.num_keys c)
    (Circuit.num_outputs c)

let key_to_string key =
  String.init (Array.length key) (fun i -> if key.(i) then '1' else '0')

let key_of_string text =
  let text = String.trim text in
  Array.init (String.length text) (fun i ->
      match text.[i] with
      | '0' -> false
      | '1' -> true
      | c -> Printf.eprintf "bad key character %C\n" c; exit 1)

let write_key key path =
  let oc = open_out path in
  output_string oc (key_to_string key);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d key bits)\n" path (Array.length key)

let read_key path =
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  key_of_string line

(* Every command that applies a key file checks its width up front. *)
let check_key_width key circuit =
  if Array.length key <> Circuit.num_keys circuit then begin
    Printf.eprintf "key has %d bits, circuit expects %d\n" (Array.length key)
      (Circuit.num_keys circuit);
    exit 1
  end

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let out_arg =
  Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
         ~doc:"Output .bench file.")

(* ---------- generate ---------- *)

let generate_cmd =
  let run gates inputs outputs seed out =
    let profile =
      { Generator.num_inputs = inputs; num_outputs = outputs; num_gates = gates;
        max_fanin = 4; and_bias = 0.8 }
    in
    let c = Generator.random ~seed ~name:(Filename.remove_extension (Filename.basename out)) profile in
    write_circuit c out
  in
  let gates = Arg.(value & opt int 200 & info [ "gates" ] ~doc:"Gate count.") in
  let inputs = Arg.(value & opt int 16 & info [ "inputs" ] ~doc:"Primary inputs.") in
  let outputs = Arg.(value & opt int 8 & info [ "outputs" ] ~doc:"Primary outputs.") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random combinational circuit")
    Term.(const run $ gates $ inputs $ outputs $ seed_arg $ out_arg)

(* ---------- suite ---------- *)

let suite_cmd =
  let run name scale out =
    match Bench_suite.find name with
    | None ->
      Printf.eprintf "unknown suite circuit %S; available: %s\n" name
        (String.concat ", " Bench_suite.names);
      exit 1
    | Some _ -> write_circuit (Bench_suite.load_scaled name ~scale) out
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Suite circuit (c432, c880, apex2, ...).")
  in
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Shrink factor (>= 1).") in
  Cmd.v
    (Cmd.info "suite" ~doc:"Emit a circuit of the ISCAS/MCNC-shaped suite")
    Term.(const run $ name_arg $ scale $ out_arg)

(* ---------- stats ---------- *)

let stats_cmd =
  let run path ppa =
    let c = read_circuit path in
    Format.printf "%a@." Circuit.pp_stats c;
    (match Circuit.depth c with
     | Some d -> Printf.printf "logic depth: %d\n" d
     | None ->
       Printf.printf "combinational cycles: %d feedback edge(s)\n"
         (Fl_attacks.Cycsat.num_feedback_edges c));
    if ppa then Format.printf "PPA: %a@." Ppa.pp (Ppa.of_circuit c)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let ppa = Arg.(value & flag & info [ "ppa" ] ~doc:"Include the PPA estimate.") in
  Cmd.v (Cmd.info "stats" ~doc:"Print netlist statistics") Term.(const run $ path $ ppa)

(* ---------- lock ---------- *)

let lock_scheme rng scheme plr cyclic key_bits c =
  match scheme with
  | "full-lock" ->
    let sizes = Fulllock.parse_plr_sizes plr in
    let configs = List.map (fun n -> Fulllock.default_config ~n) sizes in
    Fulllock.lock rng ~policy:(if cyclic then `Cyclic else `Acyclic) ~configs c
  | "rll" -> Fl_locking.Rll.lock rng ~key_bits c
  | "mux" -> Fl_locking.Mux_lock.lock rng ~key_bits c
  | "sarlock" -> Fl_locking.Sarlock.lock rng ~key_bits c
  | "antisat" -> Fl_locking.Antisat.lock rng ~key_bits c
  | "lutlock" -> Fl_locking.Lut_lock.lock rng ~gates:(max 1 (key_bits / 4)) c
  | "crosslock" -> Fl_locking.Cross_lock.lock rng ~n:(max 2 key_bits) c
  | "sfll" -> Fl_locking.Sfll.lock rng ~key_bits ~h:(max 0 (key_bits / 8)) c
  | "cyclic" -> Fl_locking.Cyclic_lock.lock rng ~cycles:key_bits c
  | other ->
    Printf.eprintf
      "unknown scheme %S (full-lock, rll, mux, sarlock, antisat, sfll, lutlock, \
       crosslock, cyclic)\n"
      other;
    exit 1

let lock_cmd =
  let run input out key_out scheme plr cyclic key_bits seed =
    let c = read_circuit input in
    let rng = Random.State.make [| seed |] in
    let locked =
      try lock_scheme rng scheme plr cyclic key_bits c
      with Invalid_argument msg -> Printf.eprintf "lock failed: %s\n" msg; exit 1
    in
    if not (Locked.verify locked) then begin
      Printf.eprintf "internal error: correct key does not verify\n";
      exit 1
    end;
    write_circuit locked.Locked.locked out;
    write_key locked.Locked.correct_key key_out;
    let a, p, d = Ppa.locking_overhead ~original:c locked.Locked.locked in
    Printf.printf "scheme %s: overhead area %.2fx, power %.2fx, delay %.2fx\n"
      locked.Locked.scheme a p d
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let key_out =
    Arg.(value & opt string "key.txt" & info [ "key-out" ] ~doc:"Key output file.")
  in
  let scheme =
    Arg.(value & opt string "full-lock" & info [ "scheme" ] ~doc:"Locking scheme.")
  in
  let plr =
    Arg.(value & opt string "1x8" & info [ "plr" ]
           ~doc:"Full-Lock PLR sizes, e.g. \"2x16 + 1x8\".")
  in
  let cyclic = Arg.(value & flag & info [ "cyclic" ] ~doc:"Cyclic PLR insertion.") in
  let key_bits =
    Arg.(value & opt int 16 & info [ "key-bits" ] ~doc:"Key bits (non-Full-Lock schemes).")
  in
  Cmd.v
    (Cmd.info "lock" ~doc:"Lock a netlist and emit the correct key")
    Term.(const run $ input $ out_arg $ key_out $ scheme $ plr $ cyclic $ key_bits $ seed_arg)

(* ---------- optimize / activate / export ---------- *)

let optimize_cmd =
  let run input out =
    let c = read_circuit input in
    let optimized, stats = Fl_netlist.Opt.run c in
    Format.printf "%a@." Fl_netlist.Opt.pp_stats stats;
    write_circuit optimized out
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Constant-fold, sweep buffers and dead logic")
    Term.(const run $ input $ out_arg)

let activate_cmd =
  let run input key_path out sweep =
    let c = read_circuit input in
    let key = read_key key_path in
    check_key_width key c;
    let activated = Fl_netlist.Opt.hardwire_keys c key in
    let final =
      if sweep then begin
        let swept, stats = Fl_netlist.Opt.run activated in
        Format.printf "%a@." Fl_netlist.Opt.pp_stats stats;
        swept
      end
      else activated
    in
    write_circuit final out
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"LOCKED") in
  let key = Arg.(required & pos 1 (some file) None & info [] ~docv:"KEYFILE") in
  let sweep =
    Arg.(value & opt bool true & info [ "sweep" ] ~doc:"Run the optimizer afterwards.")
  in
  Cmd.v
    (Cmd.info "activate" ~doc:"Hardwire a key into a locked netlist")
    Term.(const run $ input $ key $ out_arg $ sweep)

let export_cmd =
  let run input out =
    let c = read_circuit input in
    Fl_netlist.Verilog.write_file c out;
    Printf.printf "wrote %s (structural Verilog)\n" out
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "export-verilog" ~doc:"Convert a .bench netlist to structural Verilog")
    Term.(const run $ input $ out_arg)

let equiv_cmd =
  let run a_path b_path keys_a_path =
    let a = read_circuit a_path in
    let b = read_circuit b_path in
    let keys_a =
      match keys_a_path with
      | Some p ->
        let key = read_key p in
        check_key_width key a;
        key
      | None -> [||]
    in
    match Fl_sat.Equiv.check ~keys_a a b with
    | Fl_sat.Equiv.Equivalent ->
      print_endline "equivalent (SAT-proved)"
    | Fl_sat.Equiv.Unknown ->
      print_endline "unknown";
      exit 1
    | Fl_sat.Equiv.Different { inputs; _ } ->
      Printf.printf "DIFFERENT, counterexample input: %s\n"
        (String.init (Array.length inputs) (fun i -> if inputs.(i) then '1' else '0'));
      exit 1
  in
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B") in
  let key =
    Arg.(value & opt (some file) None & info [ "key-a" ]
           ~doc:"Pin A's key inputs to this key file.")
  in
  Cmd.v
    (Cmd.info "equiv" ~doc:"Formally check two netlists for equivalence")
    Term.(const run $ a $ b $ key)

(* ---------- coverage / testgen ---------- *)

let read_optional_key path_opt circuit =
  match path_opt with
  | Some p ->
    let key = read_key p in
    check_key_width key circuit;
    key
  | None ->
    if Circuit.num_keys circuit > 0 then begin
      Printf.eprintf "circuit has key inputs; pass --key\n";
      exit 1
    end;
    [||]

let coverage_cmd =
  let run path key_path count seed =
    let c = read_circuit path in
    let keys = read_optional_key key_path c in
    let cov = Fl_netlist.Faults.random_coverage c ~keys ~count ~seed in
    Format.printf "%a@." Fl_netlist.Faults.pp_coverage cov
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let key = Arg.(value & opt (some file) None & info [ "key" ] ~doc:"Activation key file.") in
  let count = Arg.(value & opt int 128 & info [ "vectors" ] ~doc:"Random test vectors.") in
  let cov_seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Vector seed.") in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Stuck-at fault coverage of random vectors")
    Term.(const run $ path $ key $ count $ cov_seed)

let testgen_cmd =
  let run path key_path out budget =
    let c = read_circuit path in
    if not (Circuit.is_acyclic c) then begin
      Printf.eprintf "ATPG needs an acyclic netlist (activate the key first)\n";
      exit 1
    end;
    let keys = read_optional_key key_path c in
    let faults =
      List.map
        (fun f -> f.Fl_netlist.Faults.node, f.Fl_netlist.Faults.stuck_at)
        (Fl_netlist.Faults.enumerate c)
    in
    let r = Fl_sat.Atpg.cover ~budget_per_fault:budget c ~keys ~faults in
    Format.printf "%a@." Fl_sat.Atpg.pp_report r;
    let oc = open_out out in
    List.iter
      (fun v ->
        Array.iter (fun b -> output_char oc (if b then '1' else '0')) v;
        output_char oc '\n')
      r.Fl_sat.Atpg.tests;
    close_out oc;
    Printf.printf "wrote %s (%d vectors)\n" out (List.length r.Fl_sat.Atpg.tests)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let key = Arg.(value & opt (some file) None & info [ "key" ] ~doc:"Activation key file.") in
  let out = Arg.(value & opt string "tests.txt" & info [ "o"; "out" ] ~doc:"Vector file.") in
  let budget =
    Arg.(value & opt float 5.0 & info [ "budget" ] ~doc:"SAT budget per fault (s).")
  in
  Cmd.v
    (Cmd.info "testgen" ~doc:"SAT ATPG: generate stuck-at tests, prove redundancies")
    Term.(const run $ path $ key $ out $ budget)

(* ---------- verify ---------- *)

let bundle ~locked_path ~oracle_path ~key =
  let locked = read_circuit locked_path in
  let oracle = read_circuit oracle_path in
  { Locked.locked; oracle; correct_key = key; scheme = "cli" }

let verify_cmd =
  let run locked_path oracle_path key_path =
    let key = read_key key_path in
    let l = bundle ~locked_path ~oracle_path ~key in
    check_key_width key l.Locked.locked;
    if Locked.verify l then print_endline "key is functionally correct"
    else begin
      print_endline "key is WRONG";
      exit 1
    end
  in
  let locked = Arg.(required & pos 0 (some file) None & info [] ~docv:"LOCKED") in
  let oracle = Arg.(required & pos 1 (some file) None & info [] ~docv:"ORACLE") in
  let key = Arg.(required & pos 2 (some file) None & info [] ~docv:"KEYFILE") in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check a key against the oracle netlist")
    Term.(const run $ locked $ oracle $ key)

(* ---------- attack ---------- *)

let attack_cmd =
  let run kind locked_path oracle_path timeout key_out trace stats =
    (match trace with None -> () | Some file -> Fl_cli.install_trace file);
    if stats then begin
      (* Deep telemetry so the snapshot includes the cdcl.* histograms. *)
      Fl_obs.set_deep true;
      Fl_cli.stats_on_exit ()
    end;
    let locked = read_circuit locked_path in
    let oracle = read_circuit oracle_path in
    let l =
      { Locked.locked; oracle; correct_key = Array.make (Circuit.num_keys locked) false;
        scheme = "cli" }
    in
    let save_key key =
      match key_out with
      | Some path -> write_key key path
      | None -> Printf.printf "recovered key: %s\n" (key_to_string key)
    in
    let progress i t = Printf.eprintf "\riteration %d (%.1fs)%!" i t in
    (match kind with
     | "sat" | "cycsat" ->
       let result =
         if kind = "sat" then Fl_attacks.Sat_attack.run ~timeout ~progress l
         else Fl_attacks.Cycsat.run ~timeout ~progress l
       in
       prerr_newline ();
       Format.printf "%a@." Fl_attacks.Sat_attack.pp_result result;
       (match result.Fl_attacks.Sat_attack.status with
        | Fl_attacks.Sat_attack.Broken key -> save_key key
        | _ -> exit 1)
     | "appsat" ->
       let result = Fl_attacks.Appsat.run ~timeout l in
       Format.printf "%a@." Fl_attacks.Appsat.pp_result result;
       (match result.Fl_attacks.Appsat.key with
        | Some key -> save_key key
        | None -> exit 1)
     | "removal" ->
       let result = Fl_attacks.Removal.run l in
       Printf.printf "flip gates removed: %d, MUXes bypassed: %d, equivalent: %b\n"
         result.Fl_attacks.Removal.removed_flip_gates
         result.Fl_attacks.Removal.bypassed_mux_islands
         result.Fl_attacks.Removal.equivalent;
       if not result.Fl_attacks.Removal.equivalent then exit 1
     | "bruteforce" ->
       let result = Fl_attacks.Brute_force.run l in
       (match result.Fl_attacks.Brute_force.key with
        | Some key ->
          Printf.printf "found after %d keys (%.2fs)\n"
            result.Fl_attacks.Brute_force.keys_tried
            result.Fl_attacks.Brute_force.wall_time;
          save_key key
        | None ->
          print_endline "no functionally correct key found";
          exit 1)
     | other ->
       Printf.eprintf "unknown attack %S (sat, cycsat, appsat, removal, bruteforce)\n" other;
       exit 1)
  in
  let kind = Arg.(value & opt string "sat" & info [ "kind" ] ~doc:"Attack kind.") in
  let locked = Arg.(required & pos 0 (some file) None & info [] ~docv:"LOCKED") in
  let oracle = Arg.(required & pos 1 (some file) None & info [] ~docv:"ORACLE") in
  let timeout =
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~doc:"Wall-clock budget (s).")
  in
  let key_out =
    Arg.(value & opt (some string) None & info [ "key-out" ] ~doc:"Save the key here.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Append structured JSONL events (one per attack iteration, \
                 solver progress) to $(docv).")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the full metric snapshot (counters and solver \
                 histograms) on exit.")
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Attack a locked netlist with oracle access")
    Term.(const run $ kind $ locked $ oracle $ timeout $ key_out $ trace
          $ stats)

(* ---------- serve / client ---------- *)

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run socket jobs max_timeout max_conflicts trace stats =
    (match trace with None -> () | Some file -> Fl_cli.install_trace file);
    if stats then Fl_cli.stats_on_exit ();
    if jobs < 1 then begin
      Printf.eprintf "--jobs needs a positive integer, got %d\n" jobs;
      exit 2
    end;
    let cfg =
      { (Fl_serve.Server.default_config ~socket) with
        Fl_serve.Server.jobs; max_timeout; max_conflicts }
    in
    Printf.eprintf "fulllock serve: listening on %s (%d jobs)\n%!" socket jobs;
    match Fl_serve.Server.run cfg with
    | () -> prerr_endline "fulllock serve: stopped"
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "cannot serve on %s: %s (%s %s)\n" socket
        (Unix.error_message e) fn arg;
      exit 1
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Worker pool width (default 1: requests run one at a time \
                   on the scheduler).")
  in
  let max_timeout =
    Arg.(value & opt float 300.0
         & info [ "max-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request wall-budget cap and default.")
  in
  let max_conflicts =
    Arg.(value & opt int 2_000_000
         & info [ "max-conflicts" ] ~docv:"N"
             ~doc:"Per-request solver-conflict cap and default.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Append the daemon's structured JSONL events to $(docv).")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Print the full metric snapshot on exit.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the attack-as-a-service daemon on a Unix socket")
    Term.(const run $ socket_arg $ jobs $ max_timeout $ max_conflicts
          $ trace $ stats)

let client_cmd =
  let run socket op kind scheme plr cyclic key_bits seed circuit locked oracle
      timeout max_conflicts events quiet =
    let events_mode =
      match Fl_serve.Protocol.events_mode_of_string events with
      | Ok m -> m
      | Error msg -> Printf.eprintf "%s\n" msg; exit 2
    in
    let slurp_opt = Option.map Fl_cli.slurp in
    let req =
      { Fl_serve.Protocol.id = Printf.sprintf "cli-%d" (Unix.getpid ());
        op; kind; scheme; plr; cyclic; key_bits; seed;
        circuit = slurp_opt circuit;
        locked = slurp_opt locked;
        oracle = slurp_opt oracle;
        timeout; max_conflicts;
        events = events_mode }
    in
    let c =
      try Fl_serve.Client.connect socket
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect to %s: %s\n" socket
          (Unix.error_message e);
        exit 1
    in
    let on_event e =
      if not quiet then
        Printf.eprintf "%s\n%!" (Fl_obs.Json.to_string e)
    in
    let outcome = Fl_serve.Client.request ~on_event c req in
    Fl_serve.Client.close c;
    match outcome with
    | Ok json ->
      print_endline (Fl_obs.Json.encode json)
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  let op =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OP"
             ~doc:"Request op: lock, attack, analyze, status or shutdown.")
  in
  let kind =
    Arg.(value & opt string "sat"
         & info [ "kind" ] ~doc:"Attack kind: sat, cycsat or appsat.")
  in
  let scheme =
    Arg.(value & opt string "full-lock" & info [ "scheme" ] ~doc:"Lock scheme.")
  in
  let plr =
    Arg.(value & opt string "1x8"
         & info [ "plr" ] ~doc:"Full-Lock PLR block sizes.")
  in
  let cyclic =
    Arg.(value & flag & info [ "cyclic" ] ~doc:"Full-Lock cyclic insertion.")
  in
  let key_bits =
    Arg.(value & opt int 16 & info [ "key-bits" ] ~doc:"Key width.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Lock RNG seed.") in
  let circuit =
    Arg.(value & opt (some string) None
         & info [ "circuit" ] ~docv:"FILE"
             ~doc:"Host circuit .bench for lock/analyze ($(b,-) = stdin).")
  in
  let locked =
    Arg.(value & opt (some string) None
         & info [ "locked" ] ~docv:"FILE"
             ~doc:"Locked circuit .bench for attack ($(b,-) = stdin).")
  in
  let oracle =
    Arg.(value & opt (some string) None
         & info [ "oracle" ] ~docv:"FILE"
             ~doc:"Oracle .bench for attack/analyze ($(b,-) = stdin).")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Requested wall budget (the server clamps to its cap).")
  in
  let max_conflicts =
    Arg.(value & opt (some int) None
         & info [ "max-conflicts" ] ~docv:"N"
             ~doc:"Requested solver-conflict budget.")
  in
  let events =
    Arg.(value & opt string "attack"
         & info [ "events" ] ~docv:"MODE"
             ~doc:"Streamed telemetry: none, attack or all.")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet-events" ]
             ~doc:"Consume event frames silently instead of echoing them \
                   to stderr.")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Send one request to a running fulllock daemon")
    Term.(const run $ socket_arg $ op $ kind $ scheme $ plr $ cyclic
          $ key_bits $ seed $ circuit $ locked $ oracle $ timeout
          $ max_conflicts $ events $ quiet)

let () =
  let doc = "Full-Lock logic locking toolbox (DAC'19 reproduction)" in
  let info = Cmd.info "fulllock" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; suite_cmd; stats_cmd; lock_cmd; verify_cmd; attack_cmd;
            optimize_cmd; activate_cmd; export_cmd; equiv_cmd; coverage_cmd;
            testgen_cmd; serve_cmd; client_cmd ]))
