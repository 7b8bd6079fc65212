(* Simulation throughput on c432: the scalar uncached reference vs the
   cached compiled view vs the 63-lane word evaluator, plus the cold
   build-a-view cost.  Emits BENCH_sim.json so the trajectory of the
   simulation hot path is tracked across changes. *)

module Sim = Fl_netlist.Sim
module View = Fl_netlist.View
module Bench_suite = Fl_netlist.Bench_suite

let run () =
  let name = "c432" in
  let c = Bench_suite.load name in
  let rng = Random.State.make [| 0x51b |] in
  let inputs = Sim.random_vector rng (Fl_netlist.Circuit.num_inputs c) in
  let packed_inputs =
    View.random_words rng ~width:(Fl_netlist.Circuit.num_inputs c)
  in
  (* Time [f] for at least [budget] seconds and return calls/second. *)
  let rate ?(budget = 0.4) f =
    for _ = 1 to 3 do f () done;
    let calls = ref 0 in
    let t0 = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. t0 in
    while elapsed () < budget do
      f ();
      incr calls
    done;
    float_of_int !calls /. elapsed ()
  in
  let uncached =
    rate (fun () -> ignore (Sim.eval_reference c ~inputs ~keys:[||]))
  in
  let eval c = View.eval (View.of_circuit c) ~inputs ~keys:[||] in
  let cached = rate (fun () -> ignore (eval c)) in
  let word_passes =
    rate (fun () ->
        ignore
          (View.eval_packed (View.of_circuit c) ~inputs:packed_inputs ~keys:[||]))
  in
  (* Cold path: a physically fresh circuit forces a full view build on its
     first evaluation. *)
  let fresh = Array.init 24 (fun _ -> Bench_suite.load name) in
  let t0 = Unix.gettimeofday () in
  Array.iter (fun c -> ignore (eval c)) fresh;
  let cold_first_eval_us =
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (Array.length fresh)
  in
  let lanes = View.lanes in
  let speedup = cached /. uncached in
  (* BENCH_sim.json is written by the harness via Report; these keys are
     the stable schema tracked across PRs. *)
  Report.add_string "circuit" name;
  Report.add_int "gates" (Fl_netlist.Circuit.num_gates c);
  Report.add_int "lanes" lanes;
  Report.add_float "scalar_uncached_evals_per_sec" uncached;
  Report.add_float "scalar_cached_evals_per_sec" cached;
  Report.add_float "word_passes_per_sec" word_passes;
  Report.add_float "word_vectors_per_sec" (word_passes *. float_of_int lanes);
  Report.add_float "cold_first_eval_us" cold_first_eval_us;
  Report.add_float "speedup_cached_vs_uncached" speedup;
  Tables.print ~title:"Simulation throughput (c432, evals/sec)"
    [ "path"; "evals/sec" ]
    [
      [ "scalar, uncached reference"; Printf.sprintf "%.0f" uncached ];
      [ "scalar, cached view"; Printf.sprintf "%.0f" cached ];
      [ "word-level (x63 vectors)";
        Printf.sprintf "%.0f" (word_passes *. float_of_int lanes) ];
      [ "cold first eval (us)"; Printf.sprintf "%.1f" cold_first_eval_us ];
      [ "speedup cached/uncached"; Printf.sprintf "%.2fx" speedup ];
    ]
