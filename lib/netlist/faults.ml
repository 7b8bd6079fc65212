type fault = { node : int; stuck_at : bool }

let enumerate c =
  let result = ref [] in
  for id = Circuit.num_nodes c - 1 downto 0 do
    match (Circuit.node c id).Circuit.kind with
    | Gate.Key_input | Gate.Const _ -> ()
    | Gate.Input | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
    | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Lut _ ->
      result := { node = id; stuck_at = false } :: { node = id; stuck_at = true } :: !result
  done;
  !result

let detects c ~keys ~inputs fault =
  let v = View.of_circuit c in
  let good = View.eval_words v ~inputs ~keys in
  let faulty =
    View.eval_words_stuck v ~inputs ~keys ~node:fault.node ~value:fault.stuck_at
  in
  let hit = ref false in
  Array.iteri
    (fun i g ->
      let f = faulty.(i) in
      (* Detected where the good machine settles and the faulty machine
         either settles to a different value or fails to settle. *)
      let diff =
        g.View.defined
        land ((f.View.defined land (g.View.value lxor f.View.value))
              lor lnot f.View.defined)
      in
      if diff <> 0 then hit := true)
    good;
  !hit

type coverage = { total : int; detected : int; undetected : fault list }

let coverage c ~keys ~vectors =
  let packed_keys = Array.map (fun b -> if b then -1 else 0) keys in
  (* Pack the test set into batches of [lanes] vectors. *)
  let rec batches acc current count = function
    | [] -> if current = [] then List.rev acc else List.rev (List.rev current :: acc)
    | v :: rest ->
      if count = Sim_word.lanes then batches (List.rev current :: acc) [ v ] 1 rest
      else batches acc (v :: current) (count + 1) rest
  in
  let packed_batches =
    List.map Sim_word.pack (batches [] [] 0 vectors)
  in
  let faults = enumerate c in
  let undetected =
    List.filter
      (fun fault ->
        not
          (List.exists
             (fun inputs -> detects c ~keys:packed_keys ~inputs fault)
             packed_batches))
      faults
  in
  {
    total = List.length faults;
    detected = List.length faults - List.length undetected;
    undetected;
  }

let random_coverage c ~keys ~count ~seed =
  let rng = Random.State.make [| seed |] in
  let width = Circuit.num_inputs c in
  let vectors =
    List.init count (fun _ -> Array.init width (fun _ -> Random.State.bool rng))
  in
  coverage c ~keys ~vectors

let coverage_fraction cov =
  if cov.total = 0 then 1.0 else float_of_int cov.detected /. float_of_int cov.total

let pp_coverage fmt cov =
  Format.fprintf fmt "%d/%d stuck-at faults detected (%.1f%%)" cov.detected
    cov.total
    (100.0 *. coverage_fraction cov)
