(* The interpretive walk, re-sorting the circuit every call: the uncached
   baseline that {!View}'s compiled evaluator is tested and timed against. *)

open struct
  type tristate = View.tristate = V0 | V1 | VX
end

let tri_of_bool b = if b then V1 else V0

let check_widths c ~inputs ~keys =
  if Array.length inputs <> Circuit.num_inputs c then
    invalid_arg
      (Printf.sprintf "Sim: expected %d inputs, got %d" (Circuit.num_inputs c)
         (Array.length inputs));
  if Array.length keys <> Circuit.num_keys c then
    invalid_arg
      (Printf.sprintf "Sim: expected %d key bits, got %d" (Circuit.num_keys c)
         (Array.length keys))

(* Three-valued gate evaluation.  MUX with a known select ignores the
   unselected (possibly X) branch — this is what lets a correct key open a
   structural cycle. *)
let eval_gate_tri kind (args : tristate array) =
  let exception X in
  let bool_of = function V0 -> false | V1 -> true | VX -> raise X in
  match kind with
  | Gate.Mux ->
    (match args.(0) with
     | V0 -> args.(1)
     | V1 -> args.(2)
     | VX ->
       (* X select: output known only when both branches agree. *)
       if args.(1) = args.(2) && args.(1) <> VX then args.(1) else VX)
  | Gate.And | Gate.Nand ->
    let neg = kind = Gate.Nand in
    if Array.exists (fun v -> v = V0) args then tri_of_bool neg
    else if Array.exists (fun v -> v = VX) args then VX
    else tri_of_bool (not neg)
  | Gate.Or | Gate.Nor ->
    let neg = kind = Gate.Nor in
    if Array.exists (fun v -> v = V1) args then tri_of_bool (not neg)
    else if Array.exists (fun v -> v = VX) args then VX
    else tri_of_bool neg
  | Gate.Input | Gate.Key_input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.Xor
  | Gate.Xnor | Gate.Lut _ -> (
    (* Kinds whose output is X as soon as any input is X. *)
    try tri_of_bool (Gate.eval kind (Array.map bool_of args))
    with X -> VX)

let node_values c ~inputs ~keys =
  check_widths c ~inputs ~keys;
  let n = Circuit.num_nodes c in
  let values = Array.make n VX in
  Array.iteri (fun i id -> values.(id) <- tri_of_bool inputs.(i)) c.Circuit.inputs;
  Array.iteri (fun i id -> values.(id) <- tri_of_bool keys.(i)) c.Circuit.keys;
  let eval_node id =
    let nd = Circuit.node c id in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Key_input -> values.(id)
    | Gate.Const b -> tri_of_bool b
    | kind -> eval_gate_tri kind (Array.map (fun f -> values.(f)) nd.Circuit.fanins)
  in
  (match Circuit.topological_order c with
   | Some order -> Array.iter (fun id -> values.(id) <- eval_node id) order
   | None ->
     (* Fixpoint iteration for cyclic circuits.  Values move monotonically
        from X to 0/1 under eval_gate_tri, so at most [n] sweeps settle. *)
     let changed = ref true in
     let sweeps = ref 0 in
     while !changed && !sweeps <= n do
       changed := false;
       incr sweeps;
       for id = 0 to n - 1 do
         if values.(id) = VX then begin
           let v = eval_node id in
           if v <> VX then begin
             values.(id) <- v;
             changed := true
           end
         end
       done
     done);
  values

let eval_tristate_reference c ~inputs ~keys =
  let values = node_values c ~inputs ~keys in
  Array.map (fun (_, id) -> values.(id)) c.Circuit.outputs

let eval_reference c ~inputs ~keys =
  let out = eval_tristate_reference c ~inputs ~keys in
  Array.mapi
    (fun i v ->
      match v with
      | V0 -> false
      | V1 -> true
      | VX ->
        let port, _ = c.Circuit.outputs.(i) in
        raise (View.Unresolved port))
    out

let vector_of_int ~width v = Array.init width (fun i -> v land (1 lsl i) <> 0)

let int_of_vector bits =
  Array.to_list bits
  |> List.rev
  |> List.fold_left (fun acc b -> (acc lsl 1) lor (if b then 1 else 0)) 0

let random_vector rng width = Array.init width (fun _ -> Random.State.bool rng)
