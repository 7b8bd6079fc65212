(* Tests for Fl_netlist.View: the compiled evaluator must be observationally
   identical to the interpretive reference simulators, on acyclic and cyclic
   circuits alike, and the per-circuit memoization must hold. *)

module Gate = Fl_netlist.Gate
module Circuit = Fl_netlist.Circuit
module Sim = Fl_netlist.Sim
module View = Fl_netlist.View
module Generator = Fl_netlist.Generator
module Bench_suite = Fl_netlist.Bench_suite
module Faults = Fl_netlist.Faults

let check = Alcotest.check
let bool_t = Alcotest.bool

let qcheck_case ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Circuit generators                                                  *)
(* ------------------------------------------------------------------ *)

let acyclic_of ~seed =
  let profile =
    {
      Generator.num_inputs = 3 + (seed mod 6);
      num_outputs = 1 + (seed mod 3);
      num_gates = 15 + (seed mod 60);
      max_fanin = 2 + (seed mod 3);
      and_bias = 0.7;
    }
  in
  Generator.random ~seed ~name:"view-prop" profile

(* A random circuit whose declared gates pick fanins from the whole id
   space, so combinational cycles (and self-loops) appear freely.  Exercises
   every gate kind the compiled evaluator handles, including LUTs and
   constants. *)
let random_cyclic ~seed =
  let rng = Random.State.make [| seed; 0xc1c |] in
  let b = Circuit.Builder.create ~name:(Printf.sprintf "cyc%d" seed) () in
  let num_inputs = 2 + Random.State.int rng 3 in
  let num_keys = 1 + Random.State.int rng 2 in
  let num_gates = 8 + Random.State.int rng 25 in
  let ids = ref [] in
  for _ = 1 to num_inputs do
    ids := Circuit.Builder.input b :: !ids
  done;
  for _ = 1 to num_keys do
    ids := Circuit.Builder.key_input b :: !ids
  done;
  ids := Circuit.Builder.add b (Gate.Const (Random.State.bool rng)) [||] :: !ids;
  let declared = ref [] in
  for _ = 1 to num_gates do
    let kind =
      match Random.State.int rng 12 with
      | 0 -> Gate.Buf
      | 1 -> Gate.Not
      | 2 -> Gate.And
      | 3 -> Gate.Nand
      | 4 -> Gate.Or
      | 5 -> Gate.Nor
      | 6 -> Gate.Xor
      | 7 -> Gate.Xnor
      | 8 | 9 -> Gate.Mux
      | _ ->
        let k = 1 + Random.State.int rng 3 in
        Gate.Lut (Array.init (1 lsl k) (fun _ -> Random.State.bool rng))
    in
    let id = Circuit.Builder.declare b kind in
    declared := (id, kind) :: !declared;
    ids := id :: !ids
  done;
  let all = Array.of_list !ids in
  let pick () = all.(Random.State.int rng (Array.length all)) in
  List.iter
    (fun (id, kind) ->
      let arity =
        match kind with
        | Gate.Buf | Gate.Not -> 1
        | Gate.Mux -> 3
        | Gate.Lut tt ->
          let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
          log2 (Array.length tt)
        | _ -> 2 + Random.State.int rng 2
      in
      Circuit.Builder.set_fanins b id (Array.init arity (fun _ -> pick ())))
    !declared;
  let gate_ids = Array.of_list (List.map fst !declared) in
  let num_outputs = 1 + Random.State.int rng 3 in
  for i = 0 to num_outputs - 1 do
    Circuit.Builder.output b
      (Printf.sprintf "y%d" i)
      gate_ids.(Random.State.int rng (Array.length gate_ids))
  done;
  Circuit.of_builder b

let random_stim rng c =
  ( Sim.random_vector rng (Circuit.num_inputs c),
    Sim.random_vector rng (Circuit.num_keys c) )

(* ------------------------------------------------------------------ *)
(* Compiled evaluator = reference simulator                            *)
(* ------------------------------------------------------------------ *)

let prop_acyclic_matches_reference =
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000)) in
  qcheck_case "acyclic: view = reference" gen (fun (seed, stim_seed) ->
      let c = acyclic_of ~seed in
      let rng = Random.State.make [| stim_seed |] in
      let inputs, keys = random_stim rng c in
      View.eval (View.of_circuit c) ~inputs ~keys = Sim.eval_reference c ~inputs ~keys
      && View.eval_tristate (View.of_circuit c) ~inputs ~keys
         = Sim.eval_tristate_reference c ~inputs ~keys)

let prop_cyclic_matches_reference =
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000)) in
  qcheck_case "cyclic: view fixpoint = reference fixpoint" gen
    (fun (seed, stim_seed) ->
      let c = random_cyclic ~seed in
      let rng = Random.State.make [| stim_seed |] in
      let inputs, keys = random_stim rng c in
      let via_view = View.eval_tristate (View.of_circuit c) ~inputs ~keys in
      let reference = Sim.eval_tristate_reference c ~inputs ~keys in
      let strict_agree =
        match View.eval (View.of_circuit c) ~inputs ~keys with
        | outputs -> (
          match Sim.eval_reference c ~inputs ~keys with
          | ref_outputs -> outputs = ref_outputs
          | exception View.Unresolved _ -> false)
        | exception View.Unresolved _ -> (
          match Sim.eval_reference c ~inputs ~keys with
          | _ -> false
          | exception View.Unresolved _ -> true)
      in
      via_view = reference && strict_agree)

let prop_word_lane_zero_matches_scalar =
  (* Broadcast words through the view: lane 0 must reproduce the scalar
     tristate result, on cyclic circuits included. *)
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000)) in
  qcheck_case "word lane 0 = scalar" gen (fun (seed, stim_seed) ->
      let c =
        if seed land 1 = 0 then acyclic_of ~seed else random_cyclic ~seed
      in
      let rng = Random.State.make [| stim_seed; 1 |] in
      let inputs, keys = random_stim rng c in
      let words =
        View.eval_words (View.of_circuit c) ~inputs:(View.broadcast inputs)
          ~keys:(View.broadcast keys)
      in
      let scalar = Sim.eval_tristate_reference c ~inputs ~keys in
      Array.for_all2
        (fun (w : View.word) tri ->
          match tri with
          | View.VX -> w.defined land 1 = 0
          | View.V1 -> w.defined land 1 = 1 && w.value land 1 = 1
          | View.V0 -> w.defined land 1 = 1 && w.value land 1 = 0)
        words scalar)

let prop_word_lanes_match_scalar_sweep =
  (* Every lane of a packed evaluation equals the scalar reference on that
     lane's vector (acyclic circuits; strict eval). *)
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000)) in
  qcheck_case ~count:25 "packed lanes = scalar sweep" gen
    (fun (seed, stim_seed) ->
      let c = acyclic_of ~seed in
      let rng = Random.State.make [| stim_seed; 2 |] in
      let inputs = View.random_words rng ~width:(Circuit.num_inputs c) in
      let keys = Sim.random_vector rng (Circuit.num_keys c) in
      let packed =
        View.eval_packed (View.of_circuit c) ~inputs ~keys:(View.broadcast keys)
      in
      let ok = ref true in
      for lane = 0 to 7 do
        let lane_inputs =
          Array.map (fun w -> w land (1 lsl lane) <> 0) inputs
        in
        let expected = Sim.eval_reference c ~inputs:lane_inputs ~keys in
        Array.iteri
          (fun i w ->
            if w land (1 lsl lane) <> 0 <> expected.(i) then ok := false)
          packed
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Fault simulation = reference on a stuck-at copy                    *)
(* ------------------------------------------------------------------ *)

(* The faulty machine of [fault], built structurally: a copy of [c] in
   which every reader of the fault site (fanins and output ports) reads a
   constant node instead. *)
let stuck_copy c (fault : Faults.fault) =
  let b = Circuit.Builder.create ~name:"stuck" () in
  let map = Circuit.copy_nodes_into b c in
  let tied = Circuit.Builder.add b (Gate.Const fault.stuck_at) [||] in
  let site = map.(fault.node) in
  let redirect id = if id = site then tied else id in
  Array.iter
    (fun id ->
      let fanins = Circuit.Builder.fanins_of b id in
      if Array.exists (( = ) site) fanins then
        Circuit.Builder.set_fanins b id (Array.map redirect fanins))
    map;
  Array.iter
    (fun (port, id) -> Circuit.Builder.output b port (redirect map.(id)))
    c.Circuit.outputs;
  Circuit.of_builder b

(* A vector detects the fault when some output settles in the good
   machine and the faulty machine settles to the other value or not at
   all. *)
let reference_detects c faulty ~inputs ~keys =
  let good = Sim.eval_tristate_reference c ~inputs ~keys in
  let bad = Sim.eval_tristate_reference faulty ~inputs ~keys in
  Array.exists2 (fun g f -> g <> View.VX && f <> g) good bad

let prop_faults_match_reference =
  let gen =
    QCheck2.Gen.(triple (int_bound 10_000) (int_bound 10_000) (int_range 1 6))
  in
  qcheck_case ~count:40 "faults: detects = stuck-at copy reference" gen
    (fun (seed, stim_seed, count) ->
      let c =
        if seed land 1 = 0 then acyclic_of ~seed else random_cyclic ~seed
      in
      let rng = Random.State.make [| stim_seed; 3 |] in
      let vectors =
        Array.init count (fun _ -> Sim.random_vector rng (Circuit.num_inputs c))
      in
      let keys = Sim.random_vector rng (Circuit.num_keys c) in
      let all = Faults.test_set c ~keys (Array.to_list vectors) in
      List.for_all
        (fun fault ->
          let faulty = stuck_copy c fault in
          let per_vector =
            Array.map
              (fun inputs ->
                let expected = reference_detects c faulty ~inputs ~keys in
                let got = Faults.detects (Faults.test_set c ~keys [ inputs ]) fault in
                if got <> expected then
                  QCheck2.Test.fail_reportf
                    "fault node %d stuck-at %b: detects %b, reference %b"
                    fault.Faults.node fault.Faults.stuck_at got expected;
                expected)
              vectors
          in
          Faults.detects all fault = Array.exists Fun.id per_vector)
        (Faults.enumerate c))

(* ------------------------------------------------------------------ *)
(* Fixpoint corner cases                                               *)
(* ------------------------------------------------------------------ *)

let test_oscillator_unresolved () =
  (* y = NOT y through the compiled evaluator: VX tristate, raising eval. *)
  let b = Circuit.Builder.create ~name:"view-osc" () in
  let _x = Circuit.Builder.input ~name:"x" b in
  let inv = Circuit.Builder.declare ~name:"inv" b Gate.Not in
  Circuit.Builder.set_fanins b inv [| inv |];
  Circuit.Builder.output b "y" inv;
  let c = Circuit.of_builder b in
  let v = View.of_circuit c in
  check bool_t "cyclic" false (View.is_acyclic v);
  let tri = View.eval_tristate v ~inputs:[| true |] ~keys:[||] in
  check bool_t "X output" true (tri.(0) = View.VX);
  (try
     ignore (View.eval v ~inputs:[| true |] ~keys:[||]);
     Alcotest.fail "expected Unresolved"
   with View.Unresolved _ -> ());
  (* The word evaluator reports the same lane-wise. *)
  let words = View.eval_words v ~inputs:[| -1 |] ~keys:[||] in
  check bool_t "all lanes undefined" true (words.(0).View.defined = 0)

let test_mux_cycle_opened_by_key () =
  (* m1 = MUX(k, x, m2); m2 = MUX(k, m1, x): both key values functionally
     open the structural cycle, so the view's fixpoint must settle. *)
  let b = Circuit.Builder.create ~name:"view-cyc2" () in
  let k = Circuit.Builder.key_input ~name:"k" b in
  let x = Circuit.Builder.input ~name:"x" b in
  let m1 = Circuit.Builder.declare ~name:"m1" b Gate.Mux in
  let m2 = Circuit.Builder.add ~name:"m2" b Gate.Mux [| k; m1; x |] in
  Circuit.Builder.set_fanins b m1 [| k; x; m2 |];
  Circuit.Builder.output b "y" m2;
  let c = Circuit.of_builder b in
  let v = View.of_circuit c in
  List.iter
    (fun (kv, xv) ->
      let out = View.eval v ~inputs:[| xv |] ~keys:[| kv |] in
      check bool_t (Printf.sprintf "k=%b x=%b" kv xv) xv out.(0))
    [ false, false; false, true; true, false; true, true ]

(* ------------------------------------------------------------------ *)
(* Memoization                                                         *)
(* ------------------------------------------------------------------ *)

let test_view_is_memoized () =
  let c = Bench_suite.c17 () in
  check bool_t "same view" true (View.of_circuit c == View.of_circuit c);
  (* A structurally equal but physically distinct circuit gets its own
     view. *)
  let c2 = Bench_suite.c17 () in
  check bool_t "distinct circuit, distinct view" true
    (not (View.of_circuit c == View.of_circuit c2))

let test_topological_order_is_memoized () =
  let c = Bench_suite.c17 () in
  let v = View.of_circuit c in
  (match View.topo_order v, View.topo_order v with
   | Some a, Some b -> check bool_t "same array" true (a == b)
   | _ -> Alcotest.fail "c17 must be acyclic");
  (* The circuit-level sort is the uncached one: fresh, equal results. *)
  match Circuit.topological_order c, Circuit.topological_order c with
  | Some a, Some b ->
    check bool_t "fresh arrays" true (a != b);
    check bool_t "same order" true (a = b && Some a = View.topo_order v)
  | _ -> Alcotest.fail "c17 must be acyclic"

(* The memo hit counters were dead until the attack layers were routed
   through View (cycsat's SCC check, insertion_util's cones): a fresh view
   plus two analysis calls must count exactly one miss and one hit. *)
let test_memo_counters_count () =
  let hit name = Fl_obs.Counter.value (Fl_obs.Counter.make ("view.memo." ^ name ^ ".hit")) in
  let miss name = Fl_obs.Counter.value (Fl_obs.Counter.make ("view.memo." ^ name ^ ".miss")) in
  let c = Bench_suite.c17 () in
  let v = View.of_circuit c in
  let exercise name f =
    let h0 = hit name and m0 = miss name in
    let a = f () in
    let b = f () in
    check bool_t (name ^ " memoized result") true (a == b);
    check Alcotest.int (name ^ " misses") (m0 + 1) (miss name);
    check Alcotest.int (name ^ " hits") (h0 + 1) (hit name)
  in
  exercise "scc" (fun () -> View.scc v);
  exercise "fanouts" (fun () -> View.fanouts v);
  let _, out = c.Circuit.outputs.(0) in
  exercise "coi" (fun () -> View.cone_of_influence v out)

let test_cached_analyses_agree () =
  let c = Bench_suite.load_scaled "c432" ~scale:4 in
  let v = View.of_circuit c in
  check bool_t "acyclic agrees" true
    (View.is_acyclic v = (Circuit.topological_order c <> None));
  (* Depth as the longest fanin chain, memoized per node. *)
  let memo = Array.make (Circuit.num_nodes c) (-1) in
  let rec level id =
    if memo.(id) < 0 then
      memo.(id) <-
        Array.fold_left
          (fun acc f -> max acc (level f + 1))
          0 (Circuit.node c id).Circuit.fanins;
    memo.(id)
  in
  let longest = ref 0 in
  for id = 0 to Circuit.num_nodes c - 1 do
    longest := max !longest (level id)
  done;
  check (Alcotest.option Alcotest.int) "depth agrees" (Some !longest) (View.depth v);
  check bool_t "fanouts agree" true (View.fanouts v = Circuit.fanouts c);
  check bool_t "scc agrees" true
    (View.scc v = Circuit.strongly_connected_components c);
  check bool_t "coi agrees" true
    (let _, id = c.Circuit.outputs.(0) in
     View.cone_of_influence v id = Circuit.transitive_fanin c id)

(* ------------------------------------------------------------------ *)
(* Shared probe helper                                                 *)
(* ------------------------------------------------------------------ *)

let test_agree_on_probes () =
  let c = acyclic_of ~seed:42 in
  let v = View.of_circuit c in
  let keys = Array.make (Circuit.num_keys c) false in
  (* A circuit always agrees with itself... *)
  check bool_t "self exhaustive" true
    (View.agree_on_probes v ~keys_a:keys v ~keys_b:keys);
  check bool_t "self random" true
    (View.agree_on_probes ~exhaustive_limit:0 ~vectors:130 v ~keys_a:keys v
       ~keys_b:keys);
  (* ...and never with its complement. *)
  let b = Circuit.Builder.create ~name:"negated" () in
  let map = Circuit.copy_nodes_into b c in
  Array.iter
    (fun (port, id) ->
      let n = Circuit.Builder.add b Gate.Not [| map.(id) |] in
      Circuit.Builder.output b port n)
    c.Circuit.outputs;
  let negated = Circuit.of_builder b in
  let vn = View.of_circuit negated in
  check bool_t "complement exhaustive" false
    (View.agree_on_probes v ~keys_a:keys vn ~keys_b:keys);
  check bool_t "complement random" false
    (View.agree_on_probes ~exhaustive_limit:0 ~vectors:130 v ~keys_a:keys vn
       ~keys_b:keys)

let test_agree_on_probes_counts_unresolved () =
  (* An output stuck at X can never count as agreement, even against
     itself. *)
  let b = Circuit.Builder.create ~name:"stuck" () in
  let _x = Circuit.Builder.input ~name:"x" b in
  let inv = Circuit.Builder.declare ~name:"inv" b Gate.Not in
  Circuit.Builder.set_fanins b inv [| inv |];
  Circuit.Builder.output b "y" inv;
  let c = Circuit.of_builder b in
  let v = View.of_circuit c in
  check bool_t "unresolved disagrees" false
    (View.agree_on_probes v ~keys_a:[||] v ~keys_b:[||])

(* [c] rebuilt as a physically distinct circuit with the gate at [id]
   changed: its kind complemented, a MUX's data inputs swapped, one LUT row
   or a constant flipped.  [id] must not be an input or key input. *)
let mutate c id =
  let b = Circuit.Builder.create ~name:"mutated" () in
  let map = Circuit.copy_into b c in
  let site = map.(id) in
  (match Circuit.Builder.kind_of b site with
   | Gate.Mux ->
     let f = Circuit.Builder.fanins_of b site in
     Circuit.Builder.set_fanins b site [| f.(0); f.(2); f.(1) |]
   | kind ->
     Circuit.Builder.set_kind b site
       (match kind with
        | Gate.Buf -> Gate.Not
        | Gate.Not -> Gate.Buf
        | Gate.And -> Gate.Nand
        | Gate.Nand -> Gate.And
        | Gate.Or -> Gate.Nor
        | Gate.Nor -> Gate.Or
        | Gate.Xor -> Gate.Xnor
        | Gate.Xnor -> Gate.Xor
        | Gate.Const v -> Gate.Const (not v)
        | Gate.Lut tt ->
          let tt = Array.copy tt in
          tt.(0) <- not tt.(0);
          Gate.Lut tt
        | Gate.Mux | Gate.Input | Gate.Key_input -> invalid_arg "mutate"));
  Circuit.of_builder b

(* Exhaustive comparison through the interpretive reference: every input
   vector settles in both circuits to the same outputs. *)
let reference_agree a b ~keys =
  let n = Circuit.num_inputs a in
  let settled c inputs =
    match Sim.eval_reference c ~inputs ~keys with
    | out -> Some out
    | exception View.Unresolved _ -> None
  in
  List.for_all
    (fun v ->
      let inputs = Sim.vector_of_int ~width:n v in
      match settled a inputs, settled b inputs with
      | Some x, Some y -> x = y
      | _ -> false)
    (List.init (1 lsl n) Fun.id)

let prop_agree_on_probes_matches_reference =
  let gen = QCheck2.Gen.(triple (int_bound 10_000) (int_bound 10_000) bool) in
  qcheck_case ~count:80 "agree_on_probes = exhaustive reference" gen
    (fun (seed, stim_seed, mutated) ->
      let c =
        if seed land 1 = 0 then acyclic_of ~seed else random_cyclic ~seed
      in
      let rng = Random.State.make [| stim_seed; 4 |] in
      let keys = Sim.random_vector rng (Circuit.num_keys c) in
      let gates =
        List.filter
          (fun id ->
            match (Circuit.node c id).Circuit.kind with
            | Gate.Input | Gate.Key_input -> false
            | _ -> true)
          (List.init (Circuit.num_nodes c) Fun.id)
      in
      let other =
        if mutated then
          mutate c (List.nth gates (Random.State.int rng (List.length gates)))
        else begin
          let b = Circuit.Builder.create ~name:"copy" () in
          ignore (Circuit.copy_into b c);
          Circuit.of_builder b
        end
      in
      View.agree_on_probes (View.of_circuit c) ~keys_a:keys (View.of_circuit other)
        ~keys_b:keys
      = reference_agree c other ~keys)

(* ------------------------------------------------------------------ *)
(* Structural hash                                                     *)
(* ------------------------------------------------------------------ *)

(* Rebuild [c] with every wire and port renamed and all non-input nodes
   declared in a random order.  Positional structure — PI / key / output
   order and fanin order — is preserved; that is exactly the isomorphism
   View.structural_hash certifies. *)
let shuffled_renamed_copy rng c =
  let n = Circuit.num_nodes c in
  let b = Circuit.Builder.create ~name:"shuffled" () in
  let map = Array.make n (-1) in
  Array.iteri
    (fun i id ->
      map.(id) <- Circuit.Builder.input ~name:(Printf.sprintf "sp%d" i) b)
    c.Circuit.inputs;
  Array.iteri
    (fun i id ->
      map.(id) <- Circuit.Builder.key_input ~name:(Printf.sprintf "sk%d" i) b)
    c.Circuit.keys;
  let rest = ref [] in
  for id = n - 1 downto 0 do
    if map.(id) < 0 then rest := id :: !rest
  done;
  let rest = Array.of_list !rest in
  for i = Array.length rest - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = rest.(i) in
    rest.(i) <- rest.(j);
    rest.(j) <- tmp
  done;
  Array.iteri
    (fun i id ->
      map.(id) <-
        Circuit.Builder.declare ~name:(Printf.sprintf "sg%d" i) b
          (Circuit.node c id).Circuit.kind)
    rest;
  Array.iter
    (fun id ->
      Circuit.Builder.set_fanins b map.(id)
        (Array.map (fun f -> map.(f)) (Circuit.node c id).Circuit.fanins))
    rest;
  Array.iteri
    (fun i (_, id) ->
      Circuit.Builder.output b (Printf.sprintf "so%d" i) map.(id))
    c.Circuit.outputs;
  Circuit.of_builder b

let prop_structural_hash_invariant =
  let gen = QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000)) in
  qcheck_case ~count:40 "structural hash: rename/permute invariant" gen
    (fun (seed, shuffle_seed) ->
      let c =
        if seed land 1 = 0 then acyclic_of ~seed else random_cyclic ~seed
      in
      let rng = Random.State.make [| shuffle_seed; 0x5a5 |] in
      let copy = shuffled_renamed_copy rng c in
      let h = View.structural_hash (View.of_circuit c) in
      let h' = View.structural_hash (View.of_circuit copy) in
      if h <> h' then
        QCheck2.Test.fail_reportf
          "hash not invariant: %016Lx vs %016Lx (seed %d)" h h' seed;
      true)

let prop_structural_hash_sensitive =
  (* Negating every output is the smallest functional change that keeps
     all counts identical; the hash must move. *)
  let gen = QCheck2.Gen.int_bound 10_000 in
  qcheck_case ~count:40 "structural hash: negation changes it" gen
    (fun seed ->
      let c = acyclic_of ~seed in
      let b = Circuit.Builder.create ~name:"negated" () in
      let map = Circuit.copy_nodes_into b c in
      Array.iter
        (fun (port, id) ->
          let n = Circuit.Builder.add b Gate.Not [| map.(id) |] in
          Circuit.Builder.output b port n)
        c.Circuit.outputs;
      let negated = Circuit.of_builder b in
      View.structural_hash (View.of_circuit c)
      <> View.structural_hash (View.of_circuit negated))

let test_structural_hash_collision_free () =
  (* Every bundled benchmark plus a locked variant of each must hash
     distinctly — the serve cache keys prepared miters by this value. *)
  let tbl = Hashtbl.create 64 in
  let add label c =
    let h = View.structural_hash_hex (View.of_circuit c) in
    (match Hashtbl.find_opt tbl h with
     | Some other ->
       Alcotest.failf "collision: %s and %s both hash to %s" other label h
     | None -> ());
    Hashtbl.add tbl h label
  in
  add "c17" (Bench_suite.c17 ());
  List.iter
    (fun name ->
      let c = Bench_suite.load_scaled name ~scale:16 in
      add name c;
      let rng = Random.State.make [| 7; Hashtbl.hash name |] in
      let locked = Fl_locking.Rll.lock rng ~key_bits:8 c in
      add (name ^ "+rll") locked.Fl_locking.Locked.locked;
      let rng = Random.State.make [| 11; Hashtbl.hash name |] in
      let muxed = Fl_locking.Mux_lock.lock rng ~key_bits:8 c in
      add (name ^ "+mux") muxed.Fl_locking.Locked.locked)
    Bench_suite.names;
  check bool_t "hashes recorded" true (Hashtbl.length tbl > 12)

let test_structural_hash_memoized () =
  let c = Bench_suite.c17 () in
  let v = View.of_circuit c in
  let h1 = View.structural_hash v in
  let before =
    match List.assoc_opt "view.memo.shash.hit" (Fl_obs.snapshot ()) with
    | Some (Fl_obs.Int n) -> n
    | _ -> 0
  in
  let h2 = View.structural_hash v in
  let after =
    match List.assoc_opt "view.memo.shash.hit" (Fl_obs.snapshot ()) with
    | Some (Fl_obs.Int n) -> n
    | _ -> 0
  in
  check bool_t "same hash" true (h1 = h2);
  check bool_t "second call hit the memo" true (after = before + 1)

let () =
  Alcotest.run "view"
    [
      ( "equivalence",
        [
          prop_acyclic_matches_reference;
          prop_cyclic_matches_reference;
          prop_word_lane_zero_matches_scalar;
          prop_word_lanes_match_scalar_sweep;
          prop_faults_match_reference;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "oscillator" `Quick test_oscillator_unresolved;
          Alcotest.test_case "mux cycle" `Quick test_mux_cycle_opened_by_key;
        ] );
      ( "memoization",
        [
          Alcotest.test_case "view cached" `Quick test_view_is_memoized;
          Alcotest.test_case "topo cached" `Quick
            test_topological_order_is_memoized;
          Alcotest.test_case "analyses agree" `Quick test_cached_analyses_agree;
          Alcotest.test_case "memo counters" `Quick test_memo_counters_count;
        ] );
      ( "probes",
        [
          Alcotest.test_case "agree_on_probes" `Quick test_agree_on_probes;
          prop_agree_on_probes_matches_reference;
          Alcotest.test_case "unresolved probes" `Quick
            test_agree_on_probes_counts_unresolved;
        ] );
      ( "structural hash",
        [
          prop_structural_hash_invariant;
          prop_structural_hash_sensitive;
          Alcotest.test_case "collision-free over suite" `Quick
            test_structural_hash_collision_free;
          Alcotest.test_case "memoized" `Quick test_structural_hash_memoized;
        ] );
    ]
