type tristate = V0 | V1 | VX

exception Unresolved of string

(* Observability: build/eval counters and per-memo hit/miss rates, all
   Fl_obs counters.  Counters are bare int cells, so the hot
   paths pay one increment per *evaluation pass* (never per node). *)
let c_builds = Fl_obs.Counter.make "view.builds"
let c_cache_hits = Fl_obs.Counter.make "view.cache.hit"
let c_evals = Fl_obs.Counter.make "view.evals"
let c_fixpoint_sweeps = Fl_obs.Counter.make "view.fixpoint_sweeps"
let c_fanouts_hit = Fl_obs.Counter.make "view.memo.fanouts.hit"
let c_fanouts_miss = Fl_obs.Counter.make "view.memo.fanouts.miss"
let c_levels_hit = Fl_obs.Counter.make "view.memo.levels.hit"
let c_levels_miss = Fl_obs.Counter.make "view.memo.levels.miss"
let c_scc_hit = Fl_obs.Counter.make "view.memo.scc.hit"
let c_scc_miss = Fl_obs.Counter.make "view.memo.scc.miss"
let c_coi_hit = Fl_obs.Counter.make "view.memo.coi.hit"
let c_coi_miss = Fl_obs.Counter.make "view.memo.coi.miss"
let c_shash_hit = Fl_obs.Counter.make "view.memo.shash.hit"
let c_shash_miss = Fl_obs.Counter.make "view.memo.shash.miss"

type word = { defined : int; value : int }

let lanes = Sys.int_size
let all_ones = -1

(* One immediate opcode per node; [aux] carries the constant bit or the LUT
   table index, fanins live in one flat array sliced by [fanin_off]. *)
type opcode =
  | Onop  (* inputs and key inputs: values are loaded, never computed *)
  | Oconst
  | Obuf
  | Onot
  | Oand
  | Onand
  | Oor
  | Onor
  | Oxor
  | Oxnor
  | Omux
  | Olut

type t = {
  circuit : Circuit.t;
  topo : int array option;
  order : int array;  (* evaluation order: topo if acyclic, ids otherwise *)
  op : opcode array;
  aux : int array;
  fanin_off : int array;  (* length n+1, offsets into fanin_flat *)
  fanin_flat : int array;
  luts : bool array array;
  (* Scratch value arrays, reused by every evaluation (zero per-eval
     allocation on the per-node path).  Bit i of value.(id) is meaningful
     only when bit i of defined.(id) is set. *)
  defined : int array;
  value : int array;
  mutable fanouts_memo : int array array option;
  mutable levels_memo : int array option option;
  mutable scc_memo : int array option;
  mutable shash_memo : int64 option;
  coi_memo : (int, bool array) Hashtbl.t;  (* node id -> transitive fanin *)
}

let topo_order v = v.topo
let is_acyclic v = v.topo <> None

let build c =
  let n = Circuit.num_nodes c in
  let topo = Circuit.topological_order c in
  let order = match topo with Some o -> o | None -> Array.init n Fun.id in
  let op = Array.make n Onop in
  let aux = Array.make n 0 in
  let fanin_off = Array.make (n + 1) 0 in
  let total = ref 0 in
  for id = 0 to n - 1 do
    fanin_off.(id) <- !total;
    total := !total + Array.length (Circuit.node c id).Circuit.fanins
  done;
  fanin_off.(n) <- !total;
  let fanin_flat = Array.make (max 1 !total) 0 in
  let luts = ref [] in
  let num_luts = ref 0 in
  for id = 0 to n - 1 do
    let nd = Circuit.node c id in
    Array.blit nd.Circuit.fanins 0 fanin_flat fanin_off.(id)
      (Array.length nd.Circuit.fanins);
    op.(id) <-
      (match nd.Circuit.kind with
       | Gate.Input | Gate.Key_input -> Onop
       | Gate.Const b ->
         aux.(id) <- (if b then 1 else 0);
         Oconst
       | Gate.Buf -> Obuf
       | Gate.Not -> Onot
       | Gate.And -> Oand
       | Gate.Nand -> Onand
       | Gate.Or -> Oor
       | Gate.Nor -> Onor
       | Gate.Xor -> Oxor
       | Gate.Xnor -> Oxnor
       | Gate.Mux -> Omux
       | Gate.Lut tt ->
         aux.(id) <- !num_luts;
         incr num_luts;
         luts := Array.copy tt :: !luts;
         Olut)
  done;
  {
    circuit = c;
    topo;
    order;
    op;
    aux;
    fanin_off;
    fanin_flat;
    luts = Array.of_list (List.rev !luts);
    defined = Array.make n 0;
    value = Array.make n 0;
    fanouts_memo = None;
    levels_memo = None;
    scc_memo = None;
    shash_memo = None;
    coi_memo = Hashtbl.create 8;
  }

(* Views are memoized per circuit physical identity (circuits are
   immutable); the ephemeron keys let views die with their circuits.

   The cache is domain-local: a view's scratch arrays are single-threaded
   state, so two domains must never share one view even for the same
   circuit.  Each domain (each Fl_par worker) builds and caches its own
   views; the ephemeron contract is per domain. *)
module Cache = Ephemeron.K1.Make (struct
  type t = Circuit.t

  let equal = ( == )
  let hash c = Hashtbl.hash (Circuit.num_nodes c, c.Circuit.name)
end)

let cache_key : t Cache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Cache.create 64)

let of_circuit c =
  let cache = Domain.DLS.get cache_key in
  match Cache.find_opt cache c with
  | Some v ->
    Fl_obs.Counter.incr c_cache_hits;
    v
  | None ->
    let v = build c in
    Fl_obs.Counter.incr c_builds;
    Cache.replace cache c v;
    v

(* ------------------------------------------------------------------ *)
(* Cached structural analyses                                          *)
(* ------------------------------------------------------------------ *)

let fanouts v =
  match v.fanouts_memo with
  | Some f ->
    Fl_obs.Counter.incr c_fanouts_hit;
    f
  | None ->
    Fl_obs.Counter.incr c_fanouts_miss;
    let f = Circuit.fanouts v.circuit in
    v.fanouts_memo <- Some f;
    f

let scc v =
  match v.scc_memo with
  | Some s ->
    Fl_obs.Counter.incr c_scc_hit;
    s
  | None ->
    Fl_obs.Counter.incr c_scc_miss;
    let s = Circuit.strongly_connected_components v.circuit in
    v.scc_memo <- Some s;
    s

let levels v =
  match v.levels_memo with
  | Some r ->
    Fl_obs.Counter.incr c_levels_hit;
    r
  | None ->
    Fl_obs.Counter.incr c_levels_miss;
    let r =
      match v.topo with
      | None -> None
      | Some order ->
        let c = v.circuit in
        let lv = Array.make (Circuit.num_nodes c) 0 in
        Array.iter
          (fun id ->
            let fanins = (Circuit.node c id).Circuit.fanins in
            if Array.length fanins > 0 then begin
              let m = Array.fold_left (fun acc f -> max acc lv.(f)) 0 fanins in
              lv.(id) <- m + 1
            end)
          order;
        Some lv
    in
    v.levels_memo <- Some r;
    r

let depth v = Option.map (Array.fold_left max 0) (levels v)

(* Cached per node id (attack loops query the same output cones over and
   over).  The memoized array is shared: callers must not mutate it. *)
let cone_of_influence v id =
  match Hashtbl.find_opt v.coi_memo id with
  | Some cone ->
    Fl_obs.Counter.incr c_coi_hit;
    cone
  | None ->
    Fl_obs.Counter.incr c_coi_miss;
    let cone = Circuit.transitive_fanin v.circuit id in
    Hashtbl.add v.coi_memo id cone;
    cone

(* ------------------------------------------------------------------ *)
(* Structural hash                                                     *)
(* ------------------------------------------------------------------ *)

(* A canonical 64-bit digest of the circuit's structure, invariant under
   node renaming and reordering: names never enter the hash, and every
   node's digest is a function of its gate kind (plus primary-input /
   key-bit position for the interface nodes, constant value, LUT table)
   and its fanins' digests in fanin order — so any topological relabeling
   of the same DAG hashes identically.  Acyclic circuits get one exact
   pass in topological order (each node sees final fanin digests, so the
   digest encodes the whole cone).  Cyclic circuits fall back to bounded
   Weisfeiler–Leman refinement: [cyclic_rounds] simultaneous update
   sweeps, which is likewise order-invariant and separates any two nodes
   whose neighbourhoods differ within that radius.  The final digest
   folds the interface shape, the output drivers in port order (port
   names ignored) and the order-invariant sum of all node digests, so
   logic outside the output cones still counts.

   Mixing is splitmix64: multiply-xor-shift finalization keeps avalanche
   strong enough that the 64-bit digests behave like random keys for the
   serving layer's content-addressed cache (which additionally probes for
   collisions before trusting a hit). *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let h_combine h x = mix64 (Int64.add (Int64.mul h 0x9e3779b97f4a7c15L) x)
let h_int h i = h_combine h (Int64.of_int i)

let cyclic_rounds = 96

let node_seed c pos id =
  let h0 = 0x243f6a8885a308d3L in
  match (Circuit.node c id).Circuit.kind with
  | Gate.Input -> h_int (h_int h0 1) pos.(id)
  | Gate.Key_input -> h_int (h_int h0 2) pos.(id)
  | Gate.Const b -> h_int (h_int h0 3) (if b then 1 else 0)
  | Gate.Buf -> h_int h0 4
  | Gate.Not -> h_int h0 5
  | Gate.And -> h_int h0 6
  | Gate.Nand -> h_int h0 7
  | Gate.Or -> h_int h0 8
  | Gate.Nor -> h_int h0 9
  | Gate.Xor -> h_int h0 10
  | Gate.Xnor -> h_int h0 11
  | Gate.Mux -> h_int h0 12
  | Gate.Lut tt ->
    Array.fold_left
      (fun h b -> h_int h (if b then 1 else 0))
      (h_int (h_int h0 13) (Array.length tt))
      tt

let compute_structural_hash v =
  let c = v.circuit in
  let n = Circuit.num_nodes c in
  (* Interface nodes are tagged by position, not name: input 0 of any
     circuit seeds identically, so isomorphic circuits with permuted ids
     but matching PI/key orders collide (by design). *)
  let pos = Array.make n 0 in
  Array.iteri (fun i id -> pos.(id) <- i) c.Circuit.inputs;
  Array.iteri (fun i id -> pos.(id) <- i) c.Circuit.keys;
  let seed = Array.init n (node_seed c pos) in
  let hash = Array.copy seed in
  let fold_node src id =
    let h = ref seed.(id) in
    for k = v.fanin_off.(id) to v.fanin_off.(id + 1) - 1 do
      h := h_combine !h src.(v.fanin_flat.(k))
    done;
    !h
  in
  (match v.topo with
   | Some order -> Array.iter (fun id -> hash.(id) <- fold_node hash id) order
   | None ->
     let cur = ref (Array.copy seed) in
     let nxt = ref (Array.make n 0L) in
     for _ = 1 to min n cyclic_rounds do
       for id = 0 to n - 1 do
         !nxt.(id) <- fold_node !cur id
       done;
       let t = !cur in
       cur := !nxt;
       nxt := t
     done;
     Array.blit !cur 0 hash 0 n);
  let h = ref 0x452821e638d01377L in
  h := h_int !h (Circuit.num_inputs c);
  h := h_int !h (Circuit.num_keys c);
  h := h_int !h (Circuit.num_outputs c);
  Array.iter (fun (_, id) -> h := h_combine !h hash.(id)) c.Circuit.outputs;
  h_combine !h (Array.fold_left Int64.add 0L hash)

let structural_hash v =
  match v.shash_memo with
  | Some h ->
    Fl_obs.Counter.incr c_shash_hit;
    h
  | None ->
    Fl_obs.Counter.incr c_shash_miss;
    let h = compute_structural_hash v in
    v.shash_memo <- Some h;
    h

let structural_hash_hex v = Printf.sprintf "%016Lx" (structural_hash v)

(* ------------------------------------------------------------------ *)
(* Compiled evaluation                                                 *)
(* ------------------------------------------------------------------ *)

(* Evaluate node [id] (Kleene strong three-valued connectives, bit-parallel)
   and merge the newly defined lanes into the scratch arrays; previously
   settled lanes keep their values, which makes a single forward pass and a
   cyclic fixpoint sweep the same code.  Returns the mask of lanes that
   became defined. *)
let step v id =
  let d = v.defined and vl = v.value in
  let off = v.fanin_off.(id) in
  let nd = ref 0 and nv = ref 0 in
  (match v.op.(id) with
   | Onop -> ()
   | Oconst ->
     nd := all_ones;
     nv := (if v.aux.(id) = 1 then all_ones else 0)
   | Obuf ->
     let f = v.fanin_flat.(off) in
     nd := d.(f);
     nv := vl.(f)
   | Onot ->
     let f = v.fanin_flat.(off) in
     nd := d.(f);
     nv := lnot vl.(f)
   | Oand | Onand ->
     (* Defined where all operands are, or where some operand is a defined
        0; undefined operands cannot force 0. *)
     let last = v.fanin_off.(id + 1) - 1 in
     let all_def = ref all_ones and forced0 = ref 0 and acc = ref all_ones in
     for i = off to last do
       let f = v.fanin_flat.(i) in
       let fd = d.(f) and fv = vl.(f) in
       all_def := !all_def land fd;
       forced0 := !forced0 lor (fd land lnot fv);
       acc := !acc land (fv lor lnot fd)
     done;
     nd := !all_def lor !forced0;
     nv := (if v.op.(id) = Onand then lnot !acc else !acc)
   | Oor | Onor ->
     let last = v.fanin_off.(id + 1) - 1 in
     let all_def = ref all_ones and forced1 = ref 0 and acc = ref 0 in
     for i = off to last do
       let f = v.fanin_flat.(i) in
       let fd = d.(f) and fv = vl.(f) in
       all_def := !all_def land fd;
       forced1 := !forced1 lor (fd land fv);
       acc := !acc lor (fv land fd)
     done;
     nd := !all_def lor !forced1;
     nv := (if v.op.(id) = Onor then lnot !acc else !acc)
   | Oxor | Oxnor ->
     let last = v.fanin_off.(id + 1) - 1 in
     let all_def = ref all_ones and acc = ref 0 in
     for i = off to last do
       let f = v.fanin_flat.(i) in
       all_def := !all_def land d.(f);
       acc := !acc lxor vl.(f)
     done;
     nd := !all_def;
     nv := (if v.op.(id) = Oxnor then lnot !acc else !acc)
   | Omux ->
     (* Defined where the select is defined and the chosen branch is, or
        where both branches agree while defined (an undefined select picks
        either). *)
     let s = v.fanin_flat.(off)
     and a = v.fanin_flat.(off + 1)
     and b = v.fanin_flat.(off + 2) in
     let sd = d.(s) and sv = vl.(s) in
     let ad = d.(a) and av = vl.(a) in
     let bd = d.(b) and bv = vl.(b) in
     let chosen = sd land ((sv land bd) lor (lnot sv land ad)) in
     let agree = ad land bd land lnot (av lxor bv) in
     nd := chosen lor agree;
     nv := (sv land bv) lor (lnot sv land av)
   | Olut ->
     (* Conservative definedness: all address bits defined. *)
     let tt = v.luts.(v.aux.(id)) in
     let k = v.fanin_off.(id + 1) - off in
     let all_def = ref all_ones in
     for i = off to off + k - 1 do
       all_def := !all_def land d.(v.fanin_flat.(i))
     done;
     let acc = ref 0 in
     Array.iteri
       (fun row set ->
         if set then begin
           let m = ref all_ones in
           for j = 0 to k - 1 do
             let fv = vl.(v.fanin_flat.(off + j)) in
             m := !m land (if row land (1 lsl j) <> 0 then fv else lnot fv)
           done;
           acc := !acc lor !m
         end)
       tt;
     nd := !all_def;
     nv := !acc);
  let keep = d.(id) in
  let fresh = !nd land lnot keep in
  if fresh <> 0 then begin
    vl.(id) <- (vl.(id) land keep) lor (!nv land lnot keep);
    d.(id) <- keep lor !nd
  end;
  fresh

let check_widths v ~inputs ~keys =
  let c = v.circuit in
  if inputs <> Circuit.num_inputs c then
    invalid_arg
      (Printf.sprintf "View: expected %d inputs, got %d" (Circuit.num_inputs c)
         inputs);
  if keys <> Circuit.num_keys c then
    invalid_arg
      (Printf.sprintf "View: expected %d key bits, got %d" (Circuit.num_keys c)
         keys)

let reset v =
  let n = Array.length v.defined in
  Array.fill v.defined 0 n 0;
  Array.fill v.value 0 n 0

let run v =
  Fl_obs.Counter.incr c_evals;
  match v.topo with
  | Some order -> Array.iter (fun id -> ignore (step v id)) order
  | None ->
    (* Monotone fixpoint: definedness only grows, settled lanes are stable,
       so at most n sweeps are needed; in practice a handful. *)
    let n = Array.length v.order in
    let changed = ref true in
    let sweeps = ref 0 in
    while !changed && !sweeps <= n do
      changed := false;
      incr sweeps;
      for i = 0 to n - 1 do
        if step v v.order.(i) <> 0 then changed := true
      done
    done;
    Fl_obs.Counter.add c_fixpoint_sweeps !sweeps

let load_packed v ~inputs ~keys =
  check_widths v ~inputs:(Array.length inputs) ~keys:(Array.length keys);
  reset v;
  let c = v.circuit in
  Array.iteri
    (fun i id ->
      v.defined.(id) <- all_ones;
      v.value.(id) <- inputs.(i))
    c.Circuit.inputs;
  Array.iteri
    (fun i id ->
      v.defined.(id) <- all_ones;
      v.value.(id) <- keys.(i))
    c.Circuit.keys

let run_packed v ~inputs ~keys =
  load_packed v ~inputs ~keys;
  run v

let run_bools v ~inputs ~keys =
  check_widths v ~inputs:(Array.length inputs) ~keys:(Array.length keys);
  reset v;
  let c = v.circuit in
  Array.iteri
    (fun i id ->
      v.defined.(id) <- all_ones;
      v.value.(id) <- (if inputs.(i) then all_ones else 0))
    c.Circuit.inputs;
  Array.iteri
    (fun i id ->
      v.defined.(id) <- all_ones;
      v.value.(id) <- (if keys.(i) then all_ones else 0))
    c.Circuit.keys;
  run v

let tristate_of v id =
  if v.defined.(id) land 1 = 0 then VX
  else if v.value.(id) land 1 = 1 then V1
  else V0

let eval_tristate v ~inputs ~keys =
  run_bools v ~inputs ~keys;
  Array.map (fun (_, id) -> tristate_of v id) v.circuit.Circuit.outputs

let eval v ~inputs ~keys =
  run_bools v ~inputs ~keys;
  Array.map
    (fun (port, id) ->
      if v.defined.(id) land 1 = 0 then raise (Unresolved port)
      else v.value.(id) land 1 = 1)
    v.circuit.Circuit.outputs

let output_words v =
  Array.map
    (fun (_, id) -> { defined = v.defined.(id); value = v.value.(id) })
    v.circuit.Circuit.outputs

let eval_words v ~inputs ~keys =
  run_packed v ~inputs ~keys;
  output_words v

(* A stuck-at fault is a node loaded like an input: [step] never changes a
   node that is preset fully defined, so the fault site keeps its constant
   through the forward pass or the fixpoint. *)
let eval_words_stuck v ~inputs ~keys ~node ~value =
  load_packed v ~inputs ~keys;
  v.defined.(node) <- all_ones;
  v.value.(node) <- (if value then all_ones else 0);
  run v;
  output_words v

let eval_packed v ~inputs ~keys =
  run_packed v ~inputs ~keys;
  Array.map
    (fun (port, id) ->
      if v.defined.(id) <> all_ones then raise (Unresolved port)
      else v.value.(id))
    v.circuit.Circuit.outputs

let broadcast bits = Array.map (fun b -> if b then all_ones else 0) bits

(* Lane [l] of a batch carries vector [l mod used], so a short last batch
   repeats its own vectors instead of simulating an all-zero one. *)
let pack vectors =
  let vs = Array.of_list vectors in
  let total = Array.length vs in
  let width = if total = 0 then 0 else Array.length vs.(0) in
  Array.iter
    (fun v -> if Array.length v <> width then invalid_arg "View.pack: ragged vectors")
    vs;
  List.init ((total + lanes - 1) / lanes) (fun b ->
      let base = b * lanes in
      let used = min lanes (total - base) in
      Array.init width (fun j ->
          let w = ref 0 in
          for l = 0 to lanes - 1 do
            if vs.(base + (l mod used)).(j) then w := !w lor (1 lsl l)
          done;
          !w))

let random_words rng ~width =
  (* int_size random bits from two 30-bit draws and one top-slice draw. *)
  Array.init width (fun _ ->
      Random.State.bits rng
      lor (Random.State.bits rng lsl 30)
      lor (Random.State.bits rng lsl 60))

(* ------------------------------------------------------------------ *)
(* Key-correctness probing                                             *)
(* ------------------------------------------------------------------ *)

(* Outputs of the two views (already evaluated) agree on every lane of
   [mask]; an undefined lane on either side is a disagreement. *)
let outputs_agree va vb mask =
  let oa = va.circuit.Circuit.outputs and ob = vb.circuit.Circuit.outputs in
  let bad = ref 0 in
  Array.iteri
    (fun i (_, ida) ->
      let _, idb = ob.(i) in
      let def = va.defined.(ida) land vb.defined.(idb) in
      bad :=
        !bad lor lnot def
        lor ((va.value.(ida) lxor vb.value.(idb)) land def))
    oa;
  !bad land mask = 0

let agree_on_probes ?(exhaustive_limit = 10) ?(vectors = 256) ?(seed = 7) va
    ~keys_a vb ~keys_b =
  let n = Circuit.num_inputs va.circuit in
  if Circuit.num_inputs vb.circuit <> n then
    invalid_arg "View.agree_on_probes: input counts differ";
  if Array.length (va.circuit.Circuit.outputs)
     <> Array.length (vb.circuit.Circuit.outputs)
  then invalid_arg "View.agree_on_probes: output counts differ";
  let ka = broadcast keys_a and kb = broadcast keys_b in
  let probe inputs used =
    let mask = if used >= lanes then all_ones else (1 lsl used) - 1 in
    run_packed va ~inputs ~keys:ka;
    (* va's scratch arrays survive vb's evaluation: each view owns its
       buffers. *)
    run_packed vb ~inputs ~keys:kb;
    outputs_agree va vb mask
  in
  if n <= exhaustive_limit then begin
    let space = 1 lsl n in
    let rec go base =
      base >= space
      ||
      let used = min lanes (space - base) in
      let inputs =
        Array.init n (fun j ->
            let w = ref 0 in
            for l = 0 to used - 1 do
              if (base + l) land (1 lsl j) <> 0 then w := !w lor (1 lsl l)
            done;
            !w)
      in
      probe inputs used && go (base + used)
    in
    go 0
  end
  else begin
    let rng = Random.State.make [| seed |] in
    let rec go remaining =
      remaining <= 0
      ||
      let used = min lanes remaining in
      probe (random_words rng ~width:n) used && go (remaining - used)
    in
    go vectors
  end
