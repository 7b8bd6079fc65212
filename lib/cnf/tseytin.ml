module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module View = Fl_netlist.View

type encoding = {
  node_var : int array;
  input_vars : int array;
  key_vars : int array;
  output_vars : int array;
}

(* Binary XOR: the 4 clauses of Table 1. *)
let encode_xor2 f ~out a b =
  Formula.add_clause f [ -a; -b; -out ];
  Formula.add_clause f [ a; b; -out ];
  Formula.add_clause f [ a; -b; out ];
  Formula.add_clause f [ -a; b; out ]

(* n-ary XOR via a balanced pairwise tree of fresh variables; the final
   stage optionally complements for XNOR.  Same n-1 XOR2 stages (and thus
   clause count and shapes) as a linear chain, but log instead of linear
   depth, so unit propagation across a wide XOR resolves in O(log n)
   implication steps. *)
let encode_xor_chain f ~out ~negated fanins =
  let n = Array.length fanins in
  assert (n >= 2);
  let rec reduce layer =
    let m = Array.length layer in
    if m <= 2 then layer
    else begin
      let next = Array.make ((m + 1) / 2) 0 in
      for i = 0 to (m / 2) - 1 do
        let t = Formula.fresh_var f in
        encode_xor2 f ~out:t layer.(2 * i) layer.(2 * i + 1);
        next.(i) <- t
      done;
      if m land 1 = 1 then next.(((m + 1) / 2) - 1) <- layer.(m - 1);
      reduce next
    end
  in
  let pair = reduce fanins in
  let a = pair.(0) and b = pair.(1) in
  if negated then begin
    (* out = XNOR(a, b) *)
    Formula.add_clause f [ -a; -b; out ];
    Formula.add_clause f [ a; b; out ];
    Formula.add_clause f [ a; -b; -out ];
    Formula.add_clause f [ -a; b; -out ]
  end
  else encode_xor2 f ~out a b

let encode_gate f kind ~out ~fanins =
  let n = Array.length fanins in
  if not (Gate.valid_fanin_count kind n) then
    invalid_arg "Tseytin.encode_gate: fanin count mismatch";
  match kind with
  | Gate.Input | Gate.Key_input ->
    invalid_arg "Tseytin.encode_gate: inputs are free variables"
  | Gate.Const b -> Formula.add_clause f [ (if b then out else -out) ]
  | Gate.Buf ->
    Formula.add_clause f [ fanins.(0); -out ];
    Formula.add_clause f [ -fanins.(0); out ]
  | Gate.Not ->
    Formula.add_clause f [ -fanins.(0); -out ];
    Formula.add_clause f [ fanins.(0); out ]
  | Gate.And ->
    (* (¬A1 ∨ … ∨ ¬An ∨ C) ∧ ∧i (Ai ∨ ¬C) *)
    Formula.add_clause_a f
      (Array.append (Array.map (fun a -> -a) fanins) [| out |]);
    Array.iter (fun a -> Formula.add_clause f [ a; -out ]) fanins
  | Gate.Nand ->
    Formula.add_clause_a f
      (Array.append (Array.map (fun a -> -a) fanins) [| -out |]);
    Array.iter (fun a -> Formula.add_clause f [ a; out ]) fanins
  | Gate.Or ->
    Formula.add_clause_a f (Array.append fanins [| -out |]);
    Array.iter (fun a -> Formula.add_clause f [ -a; out ]) fanins
  | Gate.Nor ->
    Formula.add_clause_a f (Array.append fanins [| out |]);
    Array.iter (fun a -> Formula.add_clause f [ -a; -out ]) fanins
  | Gate.Xor -> encode_xor_chain f ~out ~negated:false fanins
  | Gate.Xnor -> encode_xor_chain f ~out ~negated:true fanins
  | Gate.Mux ->
    (* C = A·¬S + B·S with fanins [S; A; B] — Table 1's four clauses. *)
    let s = fanins.(0) and a = fanins.(1) and b = fanins.(2) in
    Formula.add_clause f [ s; -a; out ];
    Formula.add_clause f [ s; a; -out ];
    Formula.add_clause f [ -s; -b; out ];
    Formula.add_clause f [ -s; b; -out ]
  | Gate.Lut tt ->
    (* One clause per table row: (row holds) -> out = tt(row). *)
    let rows = Array.length tt in
    for row = 0 to rows - 1 do
      let body =
        Array.to_list
          (Array.mapi
             (fun j a -> if row land (1 lsl j) <> 0 then -a else a)
             fanins)
      in
      let head = if tt.(row) then out else -out in
      Formula.add_clause f (body @ [ head ])
    done

let encode ?share_inputs ?share_keys f c =
  let n = Circuit.num_nodes c in
  let node_var = Array.make n 0 in
  (* Assign variables to inputs first (shared or fresh). *)
  let assign_ports ports shared label =
    match shared with
    | None -> Array.iter (fun id -> node_var.(id) <- Formula.fresh_var f) ports
    | Some vars ->
      if Array.length vars <> Array.length ports then
        invalid_arg (Printf.sprintf "Tseytin.encode: shared %s length mismatch" label);
      Array.iteri (fun i id -> node_var.(id) <- vars.(i)) ports
  in
  assign_ports c.Circuit.inputs share_inputs "inputs";
  assign_ports c.Circuit.keys share_keys "keys";
  for id = 0 to n - 1 do
    if node_var.(id) = 0 then node_var.(id) <- Formula.fresh_var f
  done;
  (* Gate clauses go out in topological order when acyclic (fanin-defining
     clauses before their consumers helps unit propagation); variable
     numbering above stays in id order either way. *)
  let emit id =
    let nd = Circuit.node c id in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Key_input -> ()
    | kind ->
      encode_gate f kind ~out:node_var.(id)
        ~fanins:(Array.map (fun fid -> node_var.(fid)) nd.Circuit.fanins)
  in
  (match View.topo_order (View.of_circuit c) with
   | Some order -> Array.iter emit order
   | None ->
     for id = 0 to n - 1 do
       emit id
     done);
  {
    node_var;
    input_vars = Array.map (fun id -> node_var.(id)) c.Circuit.inputs;
    key_vars = Array.map (fun id -> node_var.(id)) c.Circuit.keys;
    output_vars = Array.map (fun (_, id) -> node_var.(id)) c.Circuit.outputs;
  }

let xor_out f a b =
  let x = Formula.fresh_var f in
  encode_xor2 f ~out:x a b;
  x

let assert_any_differs f pairs =
  let diffs = List.map (fun (a, b) -> xor_out f a b) pairs in
  Formula.add_clause f diffs;
  Array.of_list diffs

let assert_lit f lit = Formula.add_clause f [ lit ]

let assert_vector f vars bits =
  if Array.length vars <> Array.length bits then
    invalid_arg "Tseytin.assert_vector: length mismatch";
  Array.iteri (fun i v -> assert_lit f (if bits.(i) then v else -v)) vars
