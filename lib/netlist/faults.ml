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

type test_set = {
  view : View.t;
  keys : int array;
  batches : (int array * View.word array) list;  (* inputs, good response *)
}

let test_set c ~keys vectors =
  let view = View.of_circuit c in
  let keys = View.broadcast keys in
  let batches =
    List.map
      (fun inputs -> inputs, View.eval_words view ~inputs ~keys)
      (View.pack vectors)
  in
  { view; keys; batches }

(* Some lane where the good machine settles and the faulty machine settles
   to the other value or not at all. *)
let differs (g : View.word) (f : View.word) =
  g.defined land ((f.defined land (g.value lxor f.value)) lor lnot f.defined) <> 0

let detects t fault =
  List.exists
    (fun (inputs, good) ->
      Array.exists2 differs good
        (View.eval_words_stuck t.view ~inputs ~keys:t.keys ~node:fault.node
           ~value:fault.stuck_at))
    t.batches

type coverage = { total : int; detected : int; undetected : fault list }

let coverage c ~keys ~vectors =
  let t = test_set c ~keys vectors in
  let faults = enumerate c in
  let undetected = List.filter (fun fault -> not (detects t fault)) faults in
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
