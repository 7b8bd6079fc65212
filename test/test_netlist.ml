(* Tests for Fl_netlist: gates, circuits, simulation, bench I/O, generator. *)

module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Sim = Fl_netlist.Sim
module Bench_io = Fl_netlist.Bench_io
module Generator = Fl_netlist.Generator
module Bench_suite = Fl_netlist.Bench_suite

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Gate semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_gate_truth_tables () =
  let two_input_cases =
    [
      Gate.And, [| false; false; false; true |];
      Gate.Nand, [| true; true; true; false |];
      Gate.Or, [| false; true; true; true |];
      Gate.Nor, [| true; false; false; false |];
      Gate.Xor, [| false; true; true; false |];
      Gate.Xnor, [| true; false; false; true |];
    ]
  in
  List.iter
    (fun (kind, expected) ->
      let tt = Gate.truth_table kind ~arity:2 in
      check (Alcotest.array bool_t) (Gate.to_string kind) expected tt)
    two_input_cases

let test_gate_mux () =
  (* fanins [s; a; b] : s=0 -> a, s=1 -> b *)
  check bool_t "s=0 picks a" true (Gate.eval Gate.Mux [| false; true; false |]);
  check bool_t "s=1 picks b" false (Gate.eval Gate.Mux [| true; true; false |]);
  check bool_t "s=1 picks b (true)" true (Gate.eval Gate.Mux [| true; false; true |])

let test_gate_nary () =
  check bool_t "and3" true (Gate.eval Gate.And [| true; true; true |]);
  check bool_t "and3 f" false (Gate.eval Gate.And [| true; false; true |]);
  check bool_t "xor3 parity" true (Gate.eval Gate.Xor [| true; true; true |]);
  check bool_t "xnor3" false (Gate.eval Gate.Xnor [| true; true; true |]);
  check bool_t "nor3" true (Gate.eval Gate.Nor [| false; false; false |])

let test_gate_lut () =
  (* LUT implementing 2-input AND: table index = b<<1 | a *)
  let lut = Gate.Lut [| false; false; false; true |] in
  check bool_t "lut and 11" true (Gate.eval lut [| true; true |]);
  check bool_t "lut and 01" false (Gate.eval lut [| true; false |]);
  check (Alcotest.option int_t) "lut arity" (Some 2) (Gate.arity lut)

let test_gate_negate () =
  let pairs = [ Gate.And, Gate.Nand; Gate.Or, Gate.Nor; Gate.Xor, Gate.Xnor; Gate.Buf, Gate.Not ] in
  List.iter
    (fun (a, b) ->
      check bool_t "negate fwd" true (Gate.equal (Gate.negate a) b);
      check bool_t "negate bwd" true (Gate.equal (Gate.negate b) a))
    pairs;
  check bool_t "negate lut" true
    (Gate.equal
       (Gate.negate (Gate.Lut [| true; false |]))
       (Gate.Lut [| false; true |]));
  check bool_t "mux not negatable" false (Gate.is_negatable Gate.Mux)

let test_gate_negate_semantics () =
  (* negate k must complement eval on every input combination. *)
  List.iter
    (fun kind ->
      let arity = 2 in
      let tt = Gate.truth_table kind ~arity in
      let ntt = Gate.truth_table (Gate.negate kind) ~arity in
      Array.iteri
        (fun i v -> check bool_t "complement" (not v) ntt.(i))
        tt)
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

let test_gate_string_roundtrip () =
  List.iter
    (fun kind ->
      match Gate.of_string (Gate.to_string kind) with
      | Some back -> check bool_t (Gate.to_string kind) true (Gate.equal kind back)
      | None -> Alcotest.failf "of_string failed for %s" (Gate.to_string kind))
    [ Gate.Input; Gate.Key_input; Gate.Buf; Gate.Not; Gate.And; Gate.Nand;
      Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Mux ]

(* ------------------------------------------------------------------ *)
(* Circuit construction and structure                                  *)
(* ------------------------------------------------------------------ *)

(* y = (a AND b) XOR c *)
let simple_circuit () =
  let b = Circuit.Builder.create ~name:"simple" () in
  let a = Circuit.Builder.input ~name:"a" b in
  let b_in = Circuit.Builder.input ~name:"b" b in
  let c = Circuit.Builder.input ~name:"c" b in
  let g1 = Circuit.Builder.add ~name:"g1" b Gate.And [| a; b_in |] in
  let g2 = Circuit.Builder.add ~name:"g2" b Gate.Xor [| g1; c |] in
  Circuit.Builder.output b "y" g2;
  Circuit.of_builder b

let test_builder_basic () =
  let c = simple_circuit () in
  Circuit.validate c;
  check int_t "nodes" 5 (Circuit.num_nodes c);
  check int_t "gates" 2 (Circuit.num_gates c);
  check int_t "inputs" 3 (Circuit.num_inputs c);
  check int_t "keys" 0 (Circuit.num_keys c);
  check bool_t "acyclic" true (Circuit.is_acyclic c);
  check (Alcotest.option int_t) "depth" (Some 2) (Circuit.depth c)

let test_builder_rejects_bad_fanins () =
  let b = Circuit.Builder.create () in
  let a = Circuit.Builder.input b in
  (try
     ignore (Circuit.Builder.add b Gate.Mux [| a |]);
     Alcotest.fail "expected failure on bad arity"
   with Invalid_argument _ -> ());
  (try
     ignore (Circuit.Builder.add b Gate.And [| a; 99 |]);
     Alcotest.fail "expected failure on unknown id"
   with Invalid_argument _ -> ())

let test_builder_duplicate_name () =
  let b = Circuit.Builder.create () in
  let _ = Circuit.Builder.input ~name:"x" b in
  try
    ignore (Circuit.Builder.input ~name:"x" b);
    Alcotest.fail "expected duplicate-name failure"
  with Invalid_argument _ -> ()

let test_declare_enables_cycles () =
  (* Build a 2-node combinational cycle through MUXes and check detection. *)
  let b = Circuit.Builder.create ~name:"cyc" () in
  let s = Circuit.Builder.key_input ~name:"k" b in
  let x = Circuit.Builder.input ~name:"x" b in
  let m1 = Circuit.Builder.declare ~name:"m1" b Gate.Mux in
  let m2 = Circuit.Builder.add ~name:"m2" b Gate.Mux [| s; m1; x |] in
  Circuit.Builder.set_fanins b m1 [| s; x; m2 |];
  Circuit.Builder.output b "y" m2;
  let c = Circuit.of_builder b in
  check bool_t "cyclic" false (Circuit.is_acyclic c);
  let cycles = Circuit.find_cycles c ~limit:10 in
  check bool_t "found a cycle" true (List.length cycles >= 1)

let test_freeze_rejects_unwired_declare () =
  let b = Circuit.Builder.create () in
  let x = Circuit.Builder.input b in
  let _pending = Circuit.Builder.declare b Gate.And in
  Circuit.Builder.output b "y" x;
  try
    ignore (Circuit.of_builder b);
    Alcotest.fail "expected freeze failure"
  with Invalid_argument _ -> ()

let test_fanouts () =
  let c = simple_circuit () in
  let fo = Circuit.fanouts c in
  (* input a (id 0) feeds only g1 *)
  check int_t "a fanout" 1 (Array.length fo.(0));
  (* g1 feeds g2 *)
  let g1 = Option.get (Circuit.find_by_name c "g1") in
  let g2 = Option.get (Circuit.find_by_name c "g2") in
  check (Alcotest.array int_t) "g1 -> g2" [| g2 |] fo.(g1)

let test_reaches () =
  let c = simple_circuit () in
  let a = Option.get (Circuit.find_by_name c "a") in
  let g2 = Option.get (Circuit.find_by_name c "g2") in
  check bool_t "a reaches g2" true (Circuit.reaches c ~src:a ~dst:g2);
  check bool_t "g2 does not reach a" false (Circuit.reaches c ~src:g2 ~dst:a)

let test_copy_into () =
  let c = simple_circuit () in
  let b = Circuit.Builder.create ~name:"copy" () in
  let map = Circuit.copy_into b c in
  let c2 = Circuit.of_builder b in
  check int_t "same node count" (Circuit.num_nodes c) (Circuit.num_nodes c2);
  check int_t "map length" (Circuit.num_nodes c) (Array.length map);
  check bool_t "equivalent" true
    (Sim.equivalent_exhaustive c c2 ~keys_a:[||] ~keys_b:[||])

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

let test_sim_simple () =
  let c = simple_circuit () in
  let expect a b cin =
    let lhs = Sim.eval c ~inputs:[| a; b; cin |] ~keys:[||] in
    check (Alcotest.array bool_t)
      (Printf.sprintf "%b%b%b" a b cin)
      [| (a && b) <> cin |]
      lhs
  in
  List.iter
    (fun (a, b, cin) -> expect a b cin)
    [ false, false, false; true, true, false; true, true, true; false, true, true ]

let test_sim_vector_helpers () =
  let v = Sim.vector_of_int ~width:4 0b1011 in
  check (Alcotest.array bool_t) "vector lsb-first" [| true; true; false; true |] v;
  check int_t "roundtrip" 0b1011 (Sim.int_of_vector v)

let test_sim_cyclic_opened_by_mux () =
  (* m1 = MUX(k, x, m2); m2 = MUX(k, m1, x); structural cycle m1 <-> m2.
     Both key values functionally open the cycle; output must equal x. *)
  let b = Circuit.Builder.create ~name:"cyc2" () in
  let k = Circuit.Builder.key_input ~name:"k" b in
  let x = Circuit.Builder.input ~name:"x" b in
  let m1 = Circuit.Builder.declare ~name:"m1" b Gate.Mux in
  let m2 = Circuit.Builder.add ~name:"m2" b Gate.Mux [| k; m1; x |] in
  Circuit.Builder.set_fanins b m1 [| k; x; m2 |];
  Circuit.Builder.output b "y" m2;
  let c = Circuit.of_builder b in
  List.iter
    (fun (kv, xv) ->
      let out = Sim.eval c ~inputs:[| xv |] ~keys:[| kv |] in
      check bool_t (Printf.sprintf "k=%b x=%b" kv xv) xv out.(0))
    [ false, false; false, true; true, false; true, true ]

let test_sim_cyclic_unresolved () =
  (* y = NOT y : never settles, eval must raise, tristate must report X. *)
  let b = Circuit.Builder.create ~name:"osc" () in
  let _x = Circuit.Builder.input ~name:"x" b in
  let inv = Circuit.Builder.declare ~name:"inv" b Gate.Not in
  Circuit.Builder.set_fanins b inv [| inv |];
  Circuit.Builder.output b "y" inv;
  let c = Circuit.of_builder b in
  let tri = Sim.eval_tristate c ~inputs:[| false |] ~keys:[||] in
  check bool_t "X output" true (tri.(0) = Sim.VX);
  (try
     ignore (Sim.eval c ~inputs:[| false |] ~keys:[||]);
     Alcotest.fail "expected Unresolved"
   with Sim.Unresolved _ -> ())

let test_sim_settles () =
  let c = simple_circuit () in
  check bool_t "acyclic settles" true (Sim.settles c ~keys:[||])

(* ------------------------------------------------------------------ *)
(* Bench I/O                                                           *)
(* ------------------------------------------------------------------ *)

let test_c17_parses () =
  let c = Bench_suite.c17 () in
  Circuit.validate c;
  check int_t "inputs" 5 (Circuit.num_inputs c);
  check int_t "outputs" 2 (Circuit.num_outputs c);
  check int_t "gates" 6 (Circuit.num_gates c)

(* Reference c17 function computed straight from the netlist equations. *)
let c17_reference inputs =
  match inputs with
  | [| g1; g2; g3; g6; g7 |] ->
    let nand a b = not (a && b) in
    let g10 = nand g1 g3 in
    let g11 = nand g3 g6 in
    let g16 = nand g2 g11 in
    let g19 = nand g11 g7 in
    [| nand g10 g16; nand g16 g19 |]
  | _ -> assert false

let test_c17_functional () =
  let c = Bench_suite.c17 () in
  for v = 0 to 31 do
    let inputs = Sim.vector_of_int ~width:5 v in
    let got = Sim.eval c ~inputs ~keys:[||] in
    check (Alcotest.array bool_t) (Printf.sprintf "v=%d" v) (c17_reference inputs) got
  done

let test_bench_roundtrip () =
  let c = Bench_suite.c17 () in
  let text = Bench_io.to_string c in
  let c2 = Bench_io.parse_string text in
  check bool_t "roundtrip equivalent" true
    (Sim.equivalent_exhaustive c c2 ~keys_a:[||] ~keys_b:[||])

let test_bench_keyinput_convention () =
  let text =
    "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n"
  in
  let c = Bench_io.parse_string text in
  check int_t "one PI" 1 (Circuit.num_inputs c);
  check int_t "one key" 1 (Circuit.num_keys c);
  let out = Sim.eval c ~inputs:[| true |] ~keys:[| true |] in
  check bool_t "xor" false out.(0)

let test_bench_lut_roundtrip () =
  let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = LUT 0x8 (a, b)\n" in
  let c = Bench_io.parse_string text in
  let out = Sim.eval c ~inputs:[| true; true |] ~keys:[||] in
  check bool_t "lut 0x8 = and" true out.(0);
  let out0 = Sim.eval c ~inputs:[| true; false |] ~keys:[||] in
  check bool_t "lut 0x8 = and (10)" false out0.(0);
  let c2 = Bench_io.parse_string (Bench_io.to_string c) in
  check bool_t "lut roundtrip" true
    (Sim.equivalent_exhaustive c c2 ~keys_a:[||] ~keys_b:[||])

let test_bench_parse_errors () =
  List.iter
    (fun text ->
      try
        ignore (Bench_io.parse_string text);
        Alcotest.failf "expected parse error for %S" text
      with Bench_io.Parse_error _ -> ())
    [
      "y = FROB(a)\n";
      "INPUT(a)\nOUTPUT(y)\ny = AND(a, undefined_wire)\n";
      "INPUT(a)\nOUTPUT(y)\ny = AND(a\n";
      "garbage line\n";
    ]

(* A gate with the wrong fanin count is a parse error carrying its line,
   in both readers — not the builder's Invalid_argument. *)
let test_gate_arity_errors () =
  List.iter
    (fun gate ->
      let text = "INPUT(a)\nOUTPUT(y)\ny = " ^ gate ^ "\n" in
      match Bench_io.parse_string text with
      | exception Bench_io.Parse_error (line, _) ->
        check int_t (gate ^ " line") 3 line
      | _ -> Alcotest.failf "accepted %s" gate)
    [ "MUX(a)"; "NOT(a, a)"; "AND()"; "BUF(a, a)"; "XOR(a)"; "CONST1(a)" ];
  List.iter
    (fun gate ->
      let text =
        "module m (a, y);\n  input a;\n  output y;\n  " ^ gate
        ^ "\nendmodule\n"
      in
      match Fl_netlist.Verilog.parse_string text with
      | exception Fl_netlist.Verilog.Parse_error (line, _) ->
        check int_t (gate ^ " line") 4 line
      | _ -> Alcotest.failf "accepted %s" gate)
    [ "not g1(y, a, a);"; "buf g1(y, a, a);"; "and g1(y, a);" ]

(* ------------------------------------------------------------------ *)
(* Generator and bench suite                                           *)
(* ------------------------------------------------------------------ *)

let test_generator_respects_profile () =
  let profile =
    { Generator.num_inputs = 12; num_outputs = 5; num_gates = 80; max_fanin = 4; and_bias = 0.8 }
  in
  let c = Generator.random ~seed:42 ~name:"gen" profile in
  Circuit.validate c;
  check int_t "inputs" 12 (Circuit.num_inputs c);
  check int_t "outputs" 5 (Circuit.num_outputs c);
  check bool_t "acyclic" true (Circuit.is_acyclic c);
  (* gate count: exactly num_gates plus possibly fold gates (<= num_outputs) *)
  check bool_t "gate count near profile" true
    (Circuit.num_gates c >= 80 && Circuit.num_gates c <= 80 + 5)

let test_generator_deterministic () =
  let profile = Generator.default_profile in
  let c1 = Generator.random ~seed:7 ~name:"g" profile in
  let c2 = Generator.random ~seed:7 ~name:"g" profile in
  check bool_t "same netlist text" true
    (String.equal (Bench_io.to_string c1) (Bench_io.to_string c2));
  let c3 = Generator.random ~seed:8 ~name:"g" profile in
  check bool_t "different seed differs" false
    (String.equal (Bench_io.to_string c1) (Bench_io.to_string c3))

let test_generator_no_dead_logic () =
  let c = Generator.random ~seed:3 ~name:"g" Generator.default_profile in
  let fo = Circuit.fanouts c in
  let is_output id = Array.exists (fun (_, o) -> o = id) c.Circuit.outputs in
  for id = 0 to Circuit.num_nodes c - 1 do
    let used = Array.length fo.(id) > 0 || is_output id in
    check bool_t (Printf.sprintf "node %d used" id) true used
  done

let test_suite_entries () =
  check int_t "13 circuits" 13 (List.length Bench_suite.entries);
  let c432 = Option.get (Bench_suite.find "c432") in
  check int_t "c432 gates" 160 c432.Bench_suite.gates;
  check int_t "c432 inputs" 36 c432.Bench_suite.inputs;
  check int_t "c432 outputs" 7 c432.Bench_suite.outputs

let test_suite_load_scaled () =
  let c = Bench_suite.load_scaled "c880" ~scale:8 in
  Circuit.validate c;
  check bool_t "small" true (Circuit.num_gates c < 120);
  check int_t "inputs scaled" (60 / 8) (Circuit.num_inputs c)

let test_suite_load_full_counts () =
  let c = Bench_suite.load "c432" in
  Circuit.validate c;
  check int_t "inputs" 36 (Circuit.num_inputs c);
  check int_t "outputs" 7 (Circuit.num_outputs c);
  check bool_t "gates >= 160" true (Circuit.num_gates c >= 160)

(* ------------------------------------------------------------------ *)
(* Miscellaneous exports                                               *)
(* ------------------------------------------------------------------ *)

let test_dot_export () =
  let c = Bench_suite.c17 () in
  let dot = Fl_netlist.Dot.to_string c in
  check bool_t "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  (* every node and every output port appears *)
  check bool_t "has edges" true
    (String.split_on_char '\n' dot |> List.exists (fun l -> String.length l > 4 && String.sub l 2 1 = "n"))

let test_const_bench_roundtrip () =
  let b = Circuit.Builder.create ~name:"consts" () in
  let x = Circuit.Builder.input ~name:"x" b in
  let one = Circuit.Builder.add b (Gate.Const true) [||] in
  let g = Circuit.Builder.add b Gate.Xor [| x; one |] in
  Circuit.Builder.output b "y" g;
  let c = Circuit.of_builder b in
  let c2 = Bench_io.parse_string (Bench_io.to_string c) in
  check bool_t "const roundtrip" true
    (Sim.equivalent_exhaustive c c2 ~keys_a:[||] ~keys_b:[||])

let test_pp_stats_smoke () =
  let c = Bench_suite.c17 () in
  let text = Format.asprintf "%a" Circuit.pp_stats c in
  check bool_t "mentions nand" true
    (String.length text > 0
     && (let found = ref false in
         String.iteri (fun i _ ->
             if i + 4 <= String.length text && String.sub text i 4 = "nand" then found := true)
           text;
         !found))

let test_kind_histogram () =
  let c = Bench_suite.c17 () in
  check (Alcotest.list (Alcotest.pair Alcotest.string int_t)) "histogram"
    [ "input", 5; "nand", 6 ]
    (Circuit.kind_histogram c)

let test_depth_c17 () =
  check (Alcotest.option int_t) "depth 3" (Some 3) (Circuit.depth (Bench_suite.c17 ()))

let test_sccs () =
  (* Acyclic: every node its own SCC; with one cycle, the two nodes share. *)
  let c = Bench_suite.c17 () in
  let scc = Circuit.strongly_connected_components c in
  let distinct = List.sort_uniq compare (Array.to_list scc) in
  check int_t "all singleton" (Circuit.num_nodes c) (List.length distinct);
  let b = Circuit.Builder.create ~name:"cyc" () in
  let k = Circuit.Builder.key_input ~name:"k" b in
  let x = Circuit.Builder.input ~name:"x" b in
  let m1 = Circuit.Builder.declare ~name:"m1" b Gate.Mux in
  let m2 = Circuit.Builder.add ~name:"m2" b Gate.Mux [| k; m1; x |] in
  Circuit.Builder.set_fanins b m1 [| k; x; m2 |];
  Circuit.Builder.output b "y" m2;
  let cy = Circuit.of_builder b in
  let scc = Circuit.strongly_connected_components cy in
  check bool_t "cycle shares scc" true (scc.(m1) = scc.(m2))

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prop_lut_matches_gate =
  (* A LUT built from a gate's truth table is functionally the gate. *)
  let gen =
    QCheck2.Gen.(
      pair
        (oneofl [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ])
        (pair (int_range 2 4) (int_bound 0xffff)))
  in
  qcheck_case "lut = gate" gen (fun (kind, (arity, stim)) ->
      let tt = Gate.truth_table kind ~arity in
      let lut = Gate.Lut tt in
      let inputs = Array.init arity (fun i -> stim land (1 lsl i) <> 0) in
      Gate.eval lut inputs = Gate.eval kind inputs)

let prop_generator_valid =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 2 10) (int_range 1 6) (int_range 6 120) (int_bound 10_000))
  in
  qcheck_case ~count:50 "generator always valid" gen
    (fun (ins, outs, gates, seed) ->
      let gates = max gates outs in
      let profile =
        { Generator.num_inputs = ins; num_outputs = outs; num_gates = gates;
          max_fanin = 4; and_bias = 0.8 }
      in
      let c = Generator.random ~seed ~name:"prop" profile in
      Circuit.validate c;
      Circuit.is_acyclic c)

let prop_sim_tristate_agrees =
  (* On acyclic circuits, tristate eval must agree with boolean eval. *)
  let gen = QCheck2.Gen.(pair (int_bound 1000) (int_bound 0xffffff)) in
  qcheck_case ~count:60 "tristate = boolean on acyclic" gen (fun (seed, stim) ->
      let c = Generator.random ~seed ~name:"p" Generator.default_profile in
      let n = Circuit.num_inputs c in
      let inputs = Array.init n (fun i -> stim land (1 lsl (i mod 24)) <> 0) in
      let bools = Sim.eval c ~inputs ~keys:[||] in
      let tris = Sim.eval_tristate c ~inputs ~keys:[||] in
      Array.for_all2
        (fun b t -> match t with Sim.V0 -> not b | Sim.V1 -> b | Sim.VX -> false)
        bools tris)

let prop_parser_total =
  (* The .bench parser must fail only with Parse_error (or succeed), never
     crash with an unexpected exception, on arbitrary input. *)
  let gen = QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 9 122)) (int_range 0 200)) in
  qcheck_case ~count:300 "bench parser is total" gen (fun text ->
      match Bench_io.parse_string text with
      | _ -> true
      | exception Bench_io.Parse_error _ -> true
      | exception Invalid_argument _ -> true)

let prop_bench_roundtrip =
  let gen = QCheck2.Gen.(pair (int_bound 1000) (int_bound 0xffffff)) in
  qcheck_case ~count:40 "bench roundtrip preserves function" gen
    (fun (seed, stim) ->
      let c = Generator.random ~seed ~name:"rt" Generator.default_profile in
      let c2 = Bench_io.parse_string (Bench_io.to_string c) in
      let n = Circuit.num_inputs c in
      let inputs = Array.init n (fun i -> stim land (1 lsl (i mod 24)) <> 0) in
      Sim.eval c ~inputs ~keys:[||] = Sim.eval c2 ~inputs ~keys:[||])

let () =
  Alcotest.run "netlist"
    [
      ( "gate",
        [
          Alcotest.test_case "truth tables" `Quick test_gate_truth_tables;
          Alcotest.test_case "mux" `Quick test_gate_mux;
          Alcotest.test_case "n-ary" `Quick test_gate_nary;
          Alcotest.test_case "lut" `Quick test_gate_lut;
          Alcotest.test_case "negate" `Quick test_gate_negate;
          Alcotest.test_case "negate semantics" `Quick test_gate_negate_semantics;
          Alcotest.test_case "string roundtrip" `Quick test_gate_string_roundtrip;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "builder basic" `Quick test_builder_basic;
          Alcotest.test_case "bad fanins" `Quick test_builder_rejects_bad_fanins;
          Alcotest.test_case "duplicate name" `Quick test_builder_duplicate_name;
          Alcotest.test_case "declare cycles" `Quick test_declare_enables_cycles;
          Alcotest.test_case "unwired declare" `Quick test_freeze_rejects_unwired_declare;
          Alcotest.test_case "fanouts" `Quick test_fanouts;
          Alcotest.test_case "reaches" `Quick test_reaches;
          Alcotest.test_case "copy_into" `Quick test_copy_into;
        ] );
      ( "sim",
        [
          Alcotest.test_case "simple" `Quick test_sim_simple;
          Alcotest.test_case "vector helpers" `Quick test_sim_vector_helpers;
          Alcotest.test_case "cycle opened by mux" `Quick test_sim_cyclic_opened_by_mux;
          Alcotest.test_case "cycle unresolved" `Quick test_sim_cyclic_unresolved;
          Alcotest.test_case "settles" `Quick test_sim_settles;
        ] );
      ( "bench_io",
        [
          Alcotest.test_case "c17 parses" `Quick test_c17_parses;
          Alcotest.test_case "c17 functional" `Quick test_c17_functional;
          Alcotest.test_case "roundtrip" `Quick test_bench_roundtrip;
          Alcotest.test_case "keyinput convention" `Quick test_bench_keyinput_convention;
          Alcotest.test_case "lut roundtrip" `Quick test_bench_lut_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_bench_parse_errors;
          Alcotest.test_case "gate arity errors" `Quick test_gate_arity_errors;
        ] );
      ( "generator",
        [
          Alcotest.test_case "respects profile" `Quick test_generator_respects_profile;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "no dead logic" `Quick test_generator_no_dead_logic;
          Alcotest.test_case "suite entries" `Quick test_suite_entries;
          Alcotest.test_case "suite scaled" `Quick test_suite_load_scaled;
          Alcotest.test_case "suite full counts" `Quick test_suite_load_full_counts;
        ] );
      ( "misc",
        [
          Alcotest.test_case "dot export" `Quick test_dot_export;
          Alcotest.test_case "const roundtrip" `Quick test_const_bench_roundtrip;
          Alcotest.test_case "pp_stats" `Quick test_pp_stats_smoke;
          Alcotest.test_case "kind histogram" `Quick test_kind_histogram;
          Alcotest.test_case "depth c17" `Quick test_depth_c17;
          Alcotest.test_case "sccs" `Quick test_sccs;
        ] );
      ( "properties",
        [ prop_lut_matches_gate; prop_generator_valid; prop_sim_tristate_agrees;
          prop_bench_roundtrip; prop_parser_total ] );
    ]
