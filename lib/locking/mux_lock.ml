module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Pass = Insertion_util.Pass

(* Nodes reachable from [src] (itself included) in the circuit built so
   far.  That circuit carries the MUXes inserted for earlier wires, whose
   decoy edges can make a node reachable that was not in the original. *)
let reachable_from b src =
  let n = Circuit.Builder.size b in
  let fanouts = Array.make n [] in
  for id = 0 to n - 1 do
    Array.iter
      (fun f -> fanouts.(f) <- id :: fanouts.(f))
      (Circuit.Builder.fanins_of b id)
  done;
  let seen = Array.make n false in
  let stack = ref [ src ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | u :: rest ->
      stack := rest;
      if not seen.(u) then begin
        seen.(u) <- true;
        stack := List.rev_append fanouts.(u) !stack
      end
  done;
  seen

let lock rng ~key_bits orig =
  let p = Pass.start ~name:"mux" orig in
  let b = Pass.builder p in
  let wires = Insertion_util.select_wires orig rng ~count:key_bits ~policy:`Any in
  let num_nodes = Circuit.num_nodes orig in
  Array.iter
    (fun w ->
      (* Decoy: any original node the MUX output cannot reach — outside
         the current transitive fanout of [w], and not [w] itself — so MUX
         insertion cannot close a cycle. *)
      let in_fanout = reachable_from b (Pass.wire p w) in
      let decoys = ref [] in
      for id = 0 to num_nodes - 1 do
        match (Circuit.node orig id).Circuit.kind with
        | Gate.Key_input | Gate.Const _ -> ()
        | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
        | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
          if not in_fanout.(Pass.wire p id) then decoys := id :: !decoys
      done;
      match !decoys with
      | [] -> ()  (* no safe decoy for this wire; skip it *)
      | ds ->
        let decoy = List.nth ds (Random.State.int rng (List.length ds)) in
        let mw = Pass.wire p w and md = Pass.wire p decoy in
        let true_on_one = Random.State.bool rng in
        let k = Insertion_util.Key_bag.fresh (Pass.bag p) true_on_one in
        let limit = Pass.snapshot p in
        let fanins = if true_on_one then [| k; md; mw |] else [| k; mw; md |] in
        let m = Circuit.Builder.add b Gate.Mux fanins in
        Pass.redirect_wire ~limit p ~from_id:mw ~to_id:m)
    wires;
  Pass.finish p ~scheme:"mux-lock"
