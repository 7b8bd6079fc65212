(* Tests for Fl_cnf: formulas, DIMACS, Tseytin transform, miter. *)

module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Sim = Fl_netlist.Sim
module Generator = Fl_netlist.Generator
module Formula = Fl_cnf.Formula
module Tseytin = Fl_cnf.Tseytin
module Miter = Fl_cnf.Miter

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Brute-force SAT check used as the reference implementation. *)
let brute_force_models f =
  let n = Formula.num_vars f in
  assert (n <= 20);
  let clauses = Formula.clauses f in
  let satisfied assignment =
    Array.for_all
      (fun clause ->
        Array.exists
          (fun l ->
            let v = abs l in
            let value = assignment land (1 lsl (v - 1)) <> 0 in
            if l > 0 then value else not value)
          clause)
      clauses
  in
  let count = ref 0 in
  for a = 0 to (1 lsl n) - 1 do
    if satisfied a then incr count
  done;
  !count

(* ------------------------------------------------------------------ *)
(* Formula                                                             *)
(* ------------------------------------------------------------------ *)

let test_formula_basics () =
  let f = Formula.create () in
  let a = Formula.fresh_var f in
  let b = Formula.fresh_var f in
  Formula.add_clause f [ a; -b ];
  Formula.add_clause f [ -a; b ];
  check int_t "vars" 2 (Formula.num_vars f);
  check int_t "clauses" 2 (Formula.num_clauses f);
  check int_t "literals" 4 (Formula.num_literals f);
  check (Alcotest.float 1e-9) "ratio" 1.0 (Formula.ratio f)

let test_formula_rejects_bad_clauses () =
  let f = Formula.create () in
  let a = Formula.fresh_var f in
  (try
     Formula.add_clause f [];
     Alcotest.fail "empty clause accepted"
   with Invalid_argument _ -> ());
  (try
     Formula.add_clause f [ a; 0 ];
     Alcotest.fail "zero literal accepted"
   with Invalid_argument _ -> ());
  try
    Formula.add_clause f [ 5 ];
    Alcotest.fail "unallocated variable accepted"
  with Invalid_argument _ -> ()

let test_dimacs_roundtrip () =
  let f = Formula.create () in
  let vars = Formula.fresh_vars f 4 in
  Formula.add_clause f [ vars.(0); -vars.(1); vars.(3) ];
  Formula.add_clause f [ -vars.(2) ];
  let text = Formula.to_dimacs f in
  let f2 = Formula.of_dimacs text in
  check int_t "clauses" (Formula.num_clauses f) (Formula.num_clauses f2);
  check int_t "vars >= used" 4 (Formula.num_vars f2);
  check bool_t "same clause content" true
    (Formula.clauses f = Formula.clauses f2)

(* Every malformed input is a typed error.  The [p cnf V C] header bounds
   every literal, so a hostile literal never reaches the variable tables
   or [abs]. *)
let test_dimacs_errors () =
  List.iter
    (fun (label, text) ->
      match Formula.of_dimacs text with
      | exception Formula.Dimacs_error _ -> ()
      | _ -> Alcotest.failf "accepted %s" label)
    [
      "bad literal, no header", "1 x 0\n";
      "unterminated clause, no header", "1 2 3\n";
      "bad literal", "p cnf 3 1\n1 x 0\n";
      "unterminated clause", "p cnf 3 1\n1 2 3\n";
      "literal 1e9", "p cnf 2 1\n1000000000 0\n";
      "literal max_int", "p cnf 2 1\n4611686018427387903 0\n";
      "literal min_int", "p cnf 2 1\n-4611686018427387904 0\n";
      "literal V+1", "p cnf 2 1\n1 3 0\n";
      "literal -(V+1)", "p cnf 2 1\n-3 0\n";
      "clause before header", "1 0\np cnf 1 1\n";
      "two headers", "p cnf 2 1\np cnf 2 1\n1 0\n";
      "negative count", "p cnf -1 1\n";
      "missing count", "p cnf 2\n1 0\n";
      "not cnf", "p dnf 2 1\n1 0\n";
      "non-numeric count", "p cnf x 1\n1 0\n";
    ];
  let f = Formula.of_dimacs "c comment\np cnf 5 2\n-2 1 0\n5 0\n" in
  check int_t "range edges accepted" 2 (Formula.num_clauses f);
  check int_t "vars = largest occurring" 5 (Formula.num_vars f)

(* ------------------------------------------------------------------ *)
(* Tseytin gate encodings: each gate's CNF must have exactly the models
   of its truth table.                                                 *)
(* ------------------------------------------------------------------ *)

let count_gate_models kind arity =
  let f = Formula.create () in
  let fanins = Formula.fresh_vars f arity in
  let out = Formula.fresh_var f in
  Tseytin.encode_gate f kind ~out ~fanins;
  (* Model count must be 2^arity: every input combination has exactly one
     consistent output. *)
  brute_force_models f

let test_gate_encodings_model_count () =
  List.iter
    (fun (kind, arity) ->
      check int_t
        (Printf.sprintf "%s/%d" (Gate.to_string kind) arity)
        (1 lsl arity)
        (count_gate_models kind arity))
    [
      Gate.And, 2; Gate.Nand, 2; Gate.Or, 2; Gate.Nor, 2; Gate.Xor, 2;
      Gate.Xnor, 2; Gate.Buf, 1; Gate.Not, 1; Gate.Mux, 3; Gate.And, 3;
      Gate.Nand, 4; Gate.Or, 3; Gate.Nor, 4; Gate.Xor, 3; Gate.Xnor, 3;
      Gate.Lut [| true; false; true; true |], 2;
    ]

let test_gate_encoding_functional () =
  (* Pin inputs, check the only model's output matches Gate.eval. *)
  let kinds =
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Mux;
      Gate.Lut [| false; true; true; true; false; false; true; false |] ]
  in
  List.iter
    (fun kind ->
      let arity = match Gate.arity kind with Some a -> a | None -> 2 in
      for stim = 0 to (1 lsl arity) - 1 do
        let f = Formula.create () in
        let fanins = Formula.fresh_vars f arity in
        let out = Formula.fresh_var f in
        Tseytin.encode_gate f kind ~out ~fanins;
        let bits = Array.init arity (fun i -> stim land (1 lsl i) <> 0) in
        Tseytin.assert_vector f fanins bits;
        let expected = Gate.eval kind bits in
        (* Force output to the wrong value: must be unsat (0 models). *)
        let f_bad = Formula.copy f in
        Tseytin.assert_lit f_bad (if expected then -out else out);
        check int_t
          (Printf.sprintf "%s bad stim=%d" (Gate.to_string kind) stim)
          0 (brute_force_models f_bad);
        Tseytin.assert_lit f (if expected then out else -out);
        check int_t
          (Printf.sprintf "%s good stim=%d" (Gate.to_string kind) stim)
          1 (brute_force_models f)
      done)
    kinds

let test_table1_clause_counts () =
  (* Table 1: 2-input AND/OR/NAND/NOR have 3 clauses; XOR/XNOR/MUX have 4;
     BUF/NOT have 2. *)
  let clause_count kind arity =
    let f = Formula.create () in
    let fanins = Formula.fresh_vars f arity in
    let out = Formula.fresh_var f in
    Tseytin.encode_gate f kind ~out ~fanins;
    Formula.num_clauses f
  in
  check int_t "and" 3 (clause_count Gate.And 2);
  check int_t "nand" 3 (clause_count Gate.Nand 2);
  check int_t "or" 3 (clause_count Gate.Or 2);
  check int_t "nor" 3 (clause_count Gate.Nor 2);
  check int_t "xor" 4 (clause_count Gate.Xor 2);
  check int_t "xnor" 4 (clause_count Gate.Xnor 2);
  check int_t "mux" 4 (clause_count Gate.Mux 3);
  check int_t "buf" 2 (clause_count Gate.Buf 1);
  check int_t "not" 2 (clause_count Gate.Not 1)

(* ------------------------------------------------------------------ *)
(* Whole-circuit encoding vs simulation                                *)
(* ------------------------------------------------------------------ *)

let check_circuit_encoding c vectors =
  List.iter
    (fun inputs ->
      let f = Formula.create () in
      let enc = Tseytin.encode f c in
      Tseytin.assert_vector f enc.Tseytin.input_vars inputs;
      let expected = Sim.eval c ~inputs ~keys:[||] in
      (* Assert the expected outputs: satisfiable. *)
      let f_good = Formula.copy f in
      Tseytin.assert_vector f_good enc.Tseytin.output_vars expected;
      check bool_t "good is sat" true (brute_force_models f_good > 0);
      (* Assert some output flipped: unsatisfiable. *)
      let f_bad = Formula.copy f in
      Tseytin.assert_lit f_bad
        (let v = enc.Tseytin.output_vars.(0) in
         if expected.(0) then -v else v);
      check int_t "bad is unsat" 0 (brute_force_models f_bad))
    vectors

let test_c17_encoding () =
  let c = Fl_netlist.Bench_suite.c17 () in
  let vectors = List.init 8 (fun v -> Sim.vector_of_int ~width:5 (v * 4 mod 32)) in
  check_circuit_encoding c vectors

let test_random_circuit_encoding () =
  let profile =
    { Generator.num_inputs = 6; num_outputs = 2; num_gates = 25; max_fanin = 3; and_bias = 0.6 }
  in
  let c = Generator.random ~seed:11 ~name:"enc" profile in
  (* Brute force limit: formula has ~num_nodes vars, keep below 20. *)
  if Circuit.num_nodes c + 4 <= 20 then
    check_circuit_encoding c (List.init 4 (fun v -> Sim.vector_of_int ~width:6 (v * 13 mod 64)))
  else begin
    (* Large circuit: only shape checks. *)
    let f = Formula.create () in
    let enc = Tseytin.encode f c in
    check bool_t "vars cover nodes" true (Formula.num_vars f >= Circuit.num_nodes c);
    check bool_t "outputs mapped" true (Array.length enc.Tseytin.output_vars = 2)
  end

let test_shared_inputs_encoding () =
  (* Two copies sharing inputs: same circuit, no keys -> outputs must be
     provably equal (forcing a difference is unsat). *)
  let c = Fl_netlist.Bench_suite.c17 () in
  let f = Formula.create () in
  let a = Tseytin.encode f c in
  let b = Tseytin.encode ~share_inputs:a.Tseytin.input_vars f c in
  let pairs =
    Array.to_list (Array.map2 (fun x y -> x, y) a.Tseytin.output_vars b.Tseytin.output_vars)
  in
  ignore (Tseytin.assert_any_differs f pairs);
  (* 2 copies of c17 -> too many vars for brute force; use the CDCL solver. *)
  let outcome, _, _ = Fl_sat.Cdcl.solve_formula f in
  check bool_t "copies equal" true (outcome = Fl_sat.Cdcl.Unsat)

(* ------------------------------------------------------------------ *)
(* Miter                                                               *)
(* ------------------------------------------------------------------ *)

(* y = x XOR k : flipping the key flips the output, so a DIP exists. *)
let xor_locked () =
  let b = Circuit.Builder.create ~name:"xl" () in
  let x = Circuit.Builder.input ~name:"x" b in
  let k = Circuit.Builder.key_input ~name:"k" b in
  let y = Circuit.Builder.add ~name:"y" b Gate.Xor [| x; k |] in
  Circuit.Builder.output b "y" y;
  Circuit.of_builder b

let test_miter_finds_dip () =
  let c = xor_locked () in
  let m = Miter.build c in
  let outcome, _, _ = Fl_sat.Cdcl.solve_formula m.Miter.formula in
  check bool_t "dip exists" true (outcome = Fl_sat.Cdcl.Sat)

let test_miter_io_constraint_rules_out_keys () =
  let c = xor_locked () in
  let m = Miter.build c in
  (* Oracle with k* = 1: input x=0 -> y=1. *)
  Miter.add_io_constraint m c ~inputs:[| false |] ~outputs:[| true |];
  (* Now both key copies must be 1, so no further DIP exists. *)
  let outcome, _, _ = Fl_sat.Cdcl.solve_formula m.Miter.formula in
  check bool_t "no dip left" true (outcome = Fl_sat.Cdcl.Unsat)

let test_miter_requires_keys () =
  let c = Fl_netlist.Bench_suite.c17 () in
  try
    ignore (Miter.build c);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_ratio_positive () =
  let c = xor_locked () in
  let r = Miter.clause_variable_ratio c in
  check bool_t "ratio > 0" true (r > 0.0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_case ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_encoding_matches_sim =
  (* For random small circuits and vectors, CDCL on the pinned encoding gives
     exactly the simulated outputs. *)
  let gen = QCheck2.Gen.(pair (int_bound 500) (int_bound 0xffff)) in
  qcheck_case "tseytin matches simulation" gen (fun (seed, stim) ->
      let profile =
        { Generator.num_inputs = 5; num_outputs = 3; num_gates = 30; max_fanin = 4; and_bias = 0.7 }
      in
      let c = Generator.random ~seed ~name:"p" profile in
      let inputs = Array.init 5 (fun i -> stim land (1 lsl i) <> 0) in
      let f = Formula.create () in
      let enc = Tseytin.encode f c in
      Tseytin.assert_vector f enc.Tseytin.input_vars inputs;
      match Fl_sat.Cdcl.solve_formula f with
      | Fl_sat.Cdcl.Sat, Some model, _ ->
        let expected = Sim.eval c ~inputs ~keys:[||] in
        Array.for_all2
          (fun v e -> model.(v) = e)
          enc.Tseytin.output_vars expected
      | _ -> false)

let () =
  Alcotest.run "cnf"
    [
      ( "formula",
        [
          Alcotest.test_case "basics" `Quick test_formula_basics;
          Alcotest.test_case "bad clauses" `Quick test_formula_rejects_bad_clauses;
          Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "dimacs errors" `Quick test_dimacs_errors;
        ] );
      ( "tseytin",
        [
          Alcotest.test_case "model counts" `Quick test_gate_encodings_model_count;
          Alcotest.test_case "functional" `Quick test_gate_encoding_functional;
          Alcotest.test_case "table1 clause counts" `Quick test_table1_clause_counts;
          Alcotest.test_case "c17 encoding" `Quick test_c17_encoding;
          Alcotest.test_case "random circuit" `Quick test_random_circuit_encoding;
          Alcotest.test_case "shared inputs" `Quick test_shared_inputs_encoding;
        ] );
      ( "miter",
        [
          Alcotest.test_case "finds dip" `Quick test_miter_finds_dip;
          Alcotest.test_case "io constraint" `Quick test_miter_io_constraint_rules_out_keys;
          Alcotest.test_case "requires keys" `Quick test_miter_requires_keys;
          Alcotest.test_case "ratio positive" `Quick test_ratio_positive;
        ] );
      "properties", [ prop_encoding_matches_sim ];
    ]
