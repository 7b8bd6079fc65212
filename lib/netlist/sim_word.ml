let lanes = Sys.int_size

type word = View.word = { defined : int; value : int }

let eval_tristate c ~inputs ~keys =
  View.eval_words (View.of_circuit c) ~inputs ~keys

let eval c ~inputs ~keys = View.eval_packed (View.of_circuit c) ~inputs ~keys

let pack vectors =
  match vectors with
  | [] -> invalid_arg "Sim_word.pack: no vectors"
  | first :: _ ->
    let width = Array.length first in
    if List.length vectors > lanes then invalid_arg "Sim_word.pack: too many vectors";
    let words = Array.make width 0 in
    List.iteri
      (fun lane v ->
        if Array.length v <> width then invalid_arg "Sim_word.pack: ragged vectors";
        Array.iteri (fun j b -> if b then words.(j) <- words.(j) lor (1 lsl lane)) v)
      vectors;
    words

let unpack ~lanes_used words =
  List.init lanes_used (fun lane ->
      Array.map (fun w -> w land (1 lsl lane) <> 0) words)

let random_words rng ~width =
  (* 63 random bits from two 30-bit draws and one 3-bit draw. *)
  Array.init width (fun _ ->
      Random.State.bits rng
      lor (Random.State.bits rng lsl 30)
      lor ((Random.State.bits rng land 7) lsl 60))

let count_diff_lanes a b =
  if Array.length a <> Array.length b then
    invalid_arg "Sim_word.count_diff_lanes: width mismatch";
  let diff = ref 0 in
  Array.iteri (fun i w -> diff := !diff lor (w lxor b.(i))) a;
  let rec popcount x acc = if x = 0 then acc else popcount (x lsr 1) (acc + (x land 1)) in
  popcount (!diff land max_int) (if !diff < 0 then 1 else 0)
