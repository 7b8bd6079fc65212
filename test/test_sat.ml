(* Tests for Fl_sat: CDCL solver, DPLL solver, preprocessing, random k-SAT. *)

module Formula = Fl_cnf.Formula
module Cdcl = Fl_sat.Cdcl
module Dpll = Fl_sat.Dpll
module Preprocess = Fl_sat.Preprocess
module Inprocess = Fl_sat.Inprocess
module Random_sat = Fl_sat.Random_sat
module Arena = Fl_sat.Arena
module Lit = Fl_sat.Lit

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Reference brute-force SAT decision. *)
let brute_sat f =
  let n = Formula.num_vars f in
  assert (n <= 22);
  let clauses = Formula.clauses f in
  let satisfied assignment =
    Array.for_all
      (fun clause ->
        Array.exists
          (fun l ->
            let value = assignment land (1 lsl (abs l - 1)) <> 0 in
            if l > 0 then value else not value)
          clause)
      clauses
  in
  let rec go a = a < 1 lsl n && (satisfied a || go (a + 1)) in
  go 0

let model_satisfies f model =
  Array.for_all
    (fun clause ->
      Array.exists (fun l -> if l > 0 then model.(l) else not model.(abs l)) clause)
    (Formula.clauses f)

(* ------------------------------------------------------------------ *)
(* CDCL unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_cdcl_trivial_sat () =
  let s = Cdcl.create () in
  Cdcl.add_clause s [ 1; 2 ];
  Cdcl.add_clause s [ -1; 2 ];
  check bool_t "sat" true (Cdcl.solve s = Cdcl.Sat);
  check bool_t "x2 true" true (Cdcl.value s 2)

let test_cdcl_trivial_unsat () =
  let s = Cdcl.create () in
  Cdcl.add_clause s [ 1 ];
  Cdcl.add_clause s [ -1 ];
  check bool_t "unsat" true (Cdcl.solve s = Cdcl.Unsat)

let test_cdcl_units_chain () =
  let s = Cdcl.create () in
  Cdcl.add_clause s [ 1 ];
  Cdcl.add_clause s [ -1; 2 ];
  Cdcl.add_clause s [ -2; 3 ];
  Cdcl.add_clause s [ -3; 4 ];
  check bool_t "sat" true (Cdcl.solve s = Cdcl.Sat);
  check bool_t "propagated" true (Cdcl.value s 4)

(* Pigeonhole principle PHP(n+1, n): always unsat, requires real search. *)
let pigeonhole pigeons holes =
  let s = Cdcl.create () in
  let var p h = (p * holes) + h + 1 in
  for p = 0 to pigeons - 1 do
    Cdcl.add_clause s (List.init holes (fun h -> var p h))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Cdcl.add_clause s [ -var p1 h; -var p2 h ]
      done
    done
  done;
  s

let test_cdcl_pigeonhole () =
  List.iter
    (fun n ->
      let s = pigeonhole (n + 1) n in
      check bool_t (Printf.sprintf "php %d" n) true (Cdcl.solve s = Cdcl.Unsat))
    [ 2; 3; 4; 5 ]

let test_cdcl_pigeonhole_sat_when_fits () =
  let s = pigeonhole 4 4 in
  check bool_t "fits" true (Cdcl.solve s = Cdcl.Sat)

let test_cdcl_incremental () =
  let s = Cdcl.create () in
  Cdcl.add_clause s [ 1; 2 ];
  check bool_t "sat" true (Cdcl.solve s = Cdcl.Sat);
  Cdcl.add_clause s [ -1 ];
  check bool_t "still sat" true (Cdcl.solve s = Cdcl.Sat);
  check bool_t "2 forced" true (Cdcl.value s 2);
  Cdcl.add_clause s [ -2 ];
  check bool_t "now unsat" true (Cdcl.solve s = Cdcl.Unsat);
  (* Permanently unsat. *)
  check bool_t "stays unsat" true (Cdcl.solve s = Cdcl.Unsat)

let test_cdcl_budget () =
  (* A hard pigeonhole with a one-conflict budget must return Unknown. *)
  let s = pigeonhole 8 7 in
  let outcome = Cdcl.solve ~budget:(Cdcl.budget_conflicts 1) s in
  check bool_t "unknown" true (outcome = Cdcl.Unknown);
  (* And with no budget it finishes. *)
  check bool_t "finishes" true (Cdcl.solve s = Cdcl.Unsat)

let test_cdcl_survives_db_reduction () =
  (* A phase-transition instance with tens of thousands of conflicts drives
     the learnt-clause database through several reductions; the model must
     still satisfy every clause. *)
  let rng = Random.State.make [| 42; 225 |] in
  let f = Random_sat.fixed_length rng ~num_vars:225 ~num_clauses:967 ~k:3 in
  let outcome, model, stats = Cdcl.solve_formula f in
  check bool_t "enough conflicts to reduce" true (stats.Cdcl.conflicts > 2500);
  match outcome, model with
  | Cdcl.Sat, Some m -> check bool_t "model valid" true (model_satisfies f m)
  | Cdcl.Unsat, None ->
    (* if unsat, cross-check with DPLL on a shrunken... too slow; accept *)
    ()
  | _ -> Alcotest.fail "unexpected outcome"

let test_cdcl_stats_accumulate () =
  let s = pigeonhole 5 4 in
  ignore (Cdcl.solve s);
  let st = Cdcl.stats s in
  check bool_t "conflicts > 0" true (st.Cdcl.conflicts > 0);
  check bool_t "decisions > 0" true (st.Cdcl.decisions > 0);
  check bool_t "learned > 0" true (st.Cdcl.learned_clauses > 0)

let test_cdcl_empty_clause_via_simplification () =
  let s = Cdcl.create () in
  Cdcl.add_clause s [ 1 ];
  Cdcl.add_clause s [ -1; 2 ];
  Cdcl.add_clause s [ -2 ];
  check bool_t "unsat" true (Cdcl.solve s = Cdcl.Unsat)

let test_cdcl_duplicate_and_tautology () =
  let s = Cdcl.create () in
  (* Tautological clause x | -x is dropped; duplicate literals collapse. *)
  Cdcl.add_clause s [ 1; -1 ];
  Cdcl.add_clause s [ 2; 2; 2 ];
  check bool_t "sat" true (Cdcl.solve s = Cdcl.Sat);
  check bool_t "2 true" true (Cdcl.value s 2)

let test_cdcl_binary_watch_rebuild () =
  (* Direct check that the binary-implication watch lists survive a
     learnt-database reduction.  A long binary chain 1 -> 2 -> ... -> k
     shares the solver with a satisfiable pigeonhole block that forces
     real conflicts (so the reduction has learnt clauses to compact);
     after [reduce_now] rebuilds every watch list over the compacted
     arena, asserting the chain end from its start must still propagate
     the whole chain — through the rebuilt binary lists, not the general
     watchers. *)
  let k = 24 in
  (* Conflicts come from a phase-transition 3-SAT block on variables past
     the chain; only non-binary learnt clauses live in the arena, so probe
     seeds (deterministically) until one leaves a satisfiable instance
     with a non-empty learnt database. *)
  let shift l = if l > 0 then l + k else l - k in
  let rec build seed =
    if seed > 50 then Alcotest.fail "no seed gave sat + learnts";
    let s = Cdcl.create () in
    for i = 1 to k - 1 do
      Cdcl.add_clause s [ -i; i + 1 ]
    done;
    let rng = Random.State.make [| seed; 120 |] in
    let f = Random_sat.fixed_length rng ~num_vars:120 ~num_clauses:505 ~k:3 in
    Formula.iter_clauses f (fun c ->
        Cdcl.add_clause_a s (Array.map shift c));
    if Cdcl.solve s = Cdcl.Sat && Cdcl.num_learnts s > 0 then s
    else build (seed + 1)
  in
  let s = build 0 in
  let s' = build 0 in
  (* The export hook sees exactly the live learnt clauses. *)
  let exported = ref 0 in
  Cdcl.iter_learnts s (fun c ->
      incr exported;
      check bool_t "exported non-unit" true (Array.length c >= 1));
  check int_t "export count" (Cdcl.num_learnts s) !exported;
  Cdcl.reduce_now s;
  Cdcl.reduce_now s';
  (* Propagation through the rebuilt binary watches: pinning the chain
     head must imply every link up to the tail. *)
  Cdcl.add_clause s [ 1 ];
  check bool_t "sat after reduce" true (Cdcl.solve s = Cdcl.Sat);
  for i = 1 to k do
    check bool_t (Printf.sprintf "chain %d" i) true (Cdcl.value s i)
  done;
  (* And the contrapositive direction, on an identically built and
     reduced twin. *)
  Cdcl.add_clause s' [ -k ];
  check bool_t "sat under -k" true (Cdcl.solve s' = Cdcl.Sat);
  check bool_t "head forced false" false (Cdcl.value s' 1);
  (* A second reduction on the already-compacted arena is also safe. *)
  Cdcl.reduce_now s;
  check bool_t "still sat" true (Cdcl.solve s = Cdcl.Sat);
  check bool_t "still propagates" true (Cdcl.value s k)

(* ------------------------------------------------------------------ *)
(* DPLL                                                                *)
(* ------------------------------------------------------------------ *)

let test_dpll_trivial () =
  let f = Formula.create () in
  Formula.reserve f 2;
  Formula.add_clause f [ 1; 2 ];
  Formula.add_clause f [ -1 ];
  let outcome, st = Dpll.solve f in
  check bool_t "sat" true (outcome = Dpll.Sat);
  check bool_t "used units" true (st.Dpll.unit_propagations > 0)

let test_dpll_unsat () =
  let f = Formula.create () in
  Formula.reserve f 2;
  Formula.add_clause f [ 1; 2 ];
  Formula.add_clause f [ 1; -2 ];
  Formula.add_clause f [ -1; 2 ];
  Formula.add_clause f [ -1; -2 ];
  let outcome, _ = Dpll.solve f in
  check bool_t "unsat" true (outcome = Dpll.Unsat)

let test_dpll_pure_literal () =
  let f = Formula.create () in
  Formula.reserve f 3;
  Formula.add_clause f [ 1; 2 ];
  Formula.add_clause f [ 1; 3 ];
  let outcome, st = Dpll.solve f in
  check bool_t "sat" true (outcome = Dpll.Sat);
  check bool_t "purified" true (st.Dpll.pure_literals > 0)

let test_dpll_abort () =
  let rng = Random.State.make [| 5 |] in
  let f = Random_sat.fixed_length rng ~num_vars:60 ~num_clauses:258 ~k:3 in
  let outcome, st = Dpll.solve ~max_calls:3 f in
  match outcome with
  | Dpll.Aborted -> check bool_t "counted" true (st.Dpll.recursive_calls >= 3)
  | Dpll.Sat | Dpll.Unsat ->
    (* solved within 3 calls: acceptable, nothing to check *)
    ()

(* QCheck helpers, shared by the preprocessing and solver properties. *)
let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let random_formula_gen =
  QCheck2.Gen.(
    let* num_vars = int_range 3 12 in
    let* ratio_pct = int_range 100 700 in
    let* seed = int_bound 1_000_000 in
    return (num_vars, ratio_pct, seed))

let make_formula (num_vars, ratio_pct, seed) =
  let rng = Random.State.make [| seed |] in
  let num_clauses = max 1 (num_vars * ratio_pct / 100) in
  Random_sat.fixed_length rng ~num_vars ~num_clauses ~k:(min 3 num_vars)

(* ------------------------------------------------------------------ *)
(* Clause arena                                                        *)
(* ------------------------------------------------------------------ *)

let arena_gen =
  QCheck2.Gen.(
    let* n = int_range 1 60 in
    let* seed = int_bound 1_000_000 in
    return (n, seed))

let prop_arena_roundtrip =
  (* Add -> iterate -> kill some -> compact -> iterate: iteration returns
     exactly the live clauses in address order with literals, learnt flags
     and activities intact, and the remap sends every dead cref to
     [Cref.none] and every live cref to its relocated twin. *)
  qcheck_case ~count:200 "arena round-trips clauses across compaction"
    arena_gen (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let mk _ =
        let len = 2 + Random.State.int rng 7 in
        Array.init len (fun _ -> Random.State.int rng 64)
      in
      let clauses = Array.init n mk in
      let a = Arena.create () in
      let crefs =
        Array.mapi (fun i c -> Arena.alloc a ~learnt:(i mod 2 = 0) c) clauses
      in
      Array.iteri (fun i c -> Arena.set_activity a c (float_of_int i)) crefs;
      (* Round-trip 1: everything still there, in order. *)
      let seen = ref [] in
      Arena.iter a (fun c -> seen := Arena.lits a c :: !seen);
      let trip1 = Array.of_list (List.rev !seen) in
      let live = Array.map (fun _ -> true) crefs in
      Array.iteri
        (fun i c ->
          if Random.State.int rng 3 = 0 then begin
            live.(i) <- false;
            Arena.kill a c
          end)
        crefs;
      let remap = Arena.compact a in
      let ok_remap =
        Array.for_all (fun x -> x)
          (Array.mapi
             (fun i c ->
               let c' = remap c in
               if not live.(i) then c' = Arena.Cref.none
               else
                 c' <> Arena.Cref.none
                 && Arena.lits a c' = clauses.(i)
                 && Arena.learnt a c' = (i mod 2 = 0)
                 && Arena.activity a c' = float_of_int i)
             crefs)
      in
      (* Round-trip 2: iteration sees exactly the live clauses, in order. *)
      let seen2 = ref [] in
      Arena.iter a (fun c -> seen2 := Arena.lits a c :: !seen2);
      let trip2 = Array.of_list (List.rev !seen2) in
      let expect2 =
        Array.of_list
          (List.filteri (fun i _ -> live.(i)) (Array.to_list clauses))
      in
      let n_live = Array.length expect2 in
      let n_live_learnt =
        Array.length
          (Array.of_list
             (List.filteri
                (fun i _ -> live.(i) && i mod 2 = 0)
                (Array.to_list clauses)))
      in
      trip1 = clauses && ok_remap && trip2 = expect2
      && Arena.num_clauses a = n_live
      && Arena.num_learnts a = n_live_learnt
      && Arena.wasted a = 0)

(* ------------------------------------------------------------------ *)
(* Preprocessing                                                       *)
(* ------------------------------------------------------------------ *)

let formula_of nvars clause_lists =
  let f = Formula.create () in
  Formula.reserve f nvars;
  List.iter (Formula.add_clause f) clause_lists;
  f

let all_vars f = Array.init (Formula.num_vars f) (fun i -> i + 1)

let test_pre_taut_dup () =
  let f = formula_of 2 [ [ 1; -1 ]; [ 1; 2 ]; [ 2; 1 ] ] in
  let p = Preprocess.run ~frozen:(all_vars f) f in
  let st = Preprocess.stats p in
  check int_t "tautologies" 1 st.Preprocess.tautologies;
  check int_t "duplicates" 1 st.Preprocess.duplicates;
  check int_t "clauses after" 1 st.Preprocess.clauses_after;
  check bool_t "sat" false (Preprocess.is_unsat p)

let test_pre_subsumption () =
  let f = formula_of 3 [ [ 1 ]; [ 1; 2; 3 ] ] in
  let p = Preprocess.run ~frozen:(all_vars f) f in
  let st = Preprocess.stats p in
  check int_t "subsumed" 1 st.Preprocess.subsumed;
  check int_t "clauses after" 1 st.Preprocess.clauses_after

let test_pre_self_subsumption () =
  (* [1;2] resolved against [-1;2;3] strengthens the latter to [2;3]. *)
  let f = formula_of 3 [ [ 1; 2 ]; [ -1; 2; 3 ] ] in
  let p = Preprocess.run ~frozen:(all_vars f) f in
  let st = Preprocess.stats p in
  check bool_t "strengthened" true (st.Preprocess.strengthened >= 1);
  check int_t "clauses after" 2 st.Preprocess.clauses_after;
  check int_t "literals after" 4 st.Preprocess.literals_after

let test_pre_elimination_and_frozen () =
  let f = formula_of 3 [ [ 1; 3 ]; [ -3; 2 ] ] in
  (* 3 unfrozen: eliminated, leaving the single resolvent [1;2]. *)
  let p = Preprocess.run ~frozen:[| 1; 2 |] f in
  let st = Preprocess.stats p in
  check int_t "eliminated" 1 st.Preprocess.eliminated;
  check int_t "resolvents" 1 st.Preprocess.resolvents;
  check int_t "clauses after" 1 st.Preprocess.clauses_after;
  (* Everything frozen: nothing may be eliminated. *)
  let p2 = Preprocess.run ~frozen:(all_vars f) f in
  check int_t "frozen protected" 0 (Preprocess.stats p2).Preprocess.eliminated

let test_pre_reconstruct () =
  let f = formula_of 3 [ [ 1; 3 ]; [ -3; 2 ] ] in
  let p = Preprocess.run ~frozen:[| 1; 2 |] f in
  (* A model of the reduced formula ([1;2]) leaving the eliminated 3 to be
     reconstructed: 1=false forces 3=true, which forces nothing else. *)
  let m = Preprocess.reconstruct p [| false; false; true; false |] in
  check bool_t "original satisfied" true (model_satisfies f m);
  check bool_t "frozen 1 unchanged" false m.(1);
  check bool_t "frozen 2 unchanged" true m.(2)

let test_pre_unsat () =
  let f = formula_of 1 [ [ 1 ]; [ -1 ] ] in
  let p = Preprocess.run ~frozen:[||] f in
  check bool_t "unsat" true (Preprocess.is_unsat p)

let random_frozen_formula_gen =
  QCheck2.Gen.(
    let* params = random_formula_gen in
    let* frozen_pct = int_range 0 100 in
    return (params, frozen_pct))

let prop_preprocess_preserves_sat =
  qcheck_case ~count:200 "preprocess preserves satisfiability"
    random_frozen_formula_gen (fun ((num_vars, _, _) as params, frozen_pct) ->
      let f = make_formula params in
      let frozen =
        Array.init (num_vars * frozen_pct / 100) (fun i -> i + 1)
      in
      let p = Preprocess.run ~frozen f in
      if Preprocess.is_unsat p then not (brute_sat f)
      else
        match Cdcl.solve_formula (Preprocess.formula p) with
        | Cdcl.Sat, Some m, _ ->
          (* The reconstructed model must satisfy the original clause by
             clause, with frozen values passed through unchanged. *)
          let full = Preprocess.reconstruct p m in
          brute_sat f
          && model_satisfies f full
          && Array.for_all (fun v -> full.(v) = m.(v)) frozen
        | Cdcl.Unsat, None, _ -> not (brute_sat f)
        | _ -> false)

let prop_preprocess_incremental =
  (* The Session usage pattern: preprocess a Tseytin encoding with the
     interface frozen, then add constraints (output pins) afterwards. *)
  qcheck_case ~count:40 "preprocess + later pins (c17)"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let c = Fl_netlist.Bench_suite.c17 () in
      let f = Formula.create () in
      let enc = Fl_cnf.Tseytin.encode f c in
      let frozen =
        Array.append enc.Fl_cnf.Tseytin.input_vars enc.Fl_cnf.Tseytin.output_vars
      in
      let p = Preprocess.run ~frozen f in
      let rng = Random.State.make [| seed |] in
      let pins =
        Array.map
          (fun v -> if Random.State.bool rng then v else -v)
          enc.Fl_cnf.Tseytin.output_vars
      in
      let reduced = Preprocess.formula p in
      Array.iter (fun l -> Formula.add_clause reduced [ l ]) pins;
      Array.iter (fun l -> Formula.add_clause f [ l ]) pins;
      (not (Preprocess.is_unsat p))
      &&
      match Cdcl.solve_formula f, Cdcl.solve_formula reduced with
      | (Cdcl.Sat, _, _), (Cdcl.Sat, Some m, _) ->
        model_satisfies f (Preprocess.reconstruct p m)
      | (Cdcl.Unsat, _, _), (Cdcl.Unsat, _, _) -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Inprocessing                                                        *)
(* ------------------------------------------------------------------ *)

let test_inp_failed_literal () =
  (* Probing 1 propagates 2 and 3, falsifying [¬2;¬3] — so ¬1 is a unit.
     No clause pair here admits self-subsuming resolution, so subsumption
     alone cannot find it; [¬1;4] makes 1 the highest-occurrence variable,
     so it is probed (and fails) before the shared-implication path can
     assign it. *)
  let f = formula_of 4 [ [ -1; 2 ]; [ -1; 3 ]; [ -1; 4 ]; [ -2; -3 ] ] in
  let ip = Inprocess.run ~scc:false ~xor:false ~elim:false ~frozen:(all_vars f) f in
  let st = Inprocess.stats ip in
  check bool_t "sat" false (Inprocess.is_unsat ip);
  check bool_t "failed literal found" true (st.Inprocess.failed_literals >= 1);
  (match Cdcl.solve_formula (Inprocess.formula ip) with
   | Cdcl.Sat, Some m, _ ->
     let full = Inprocess.reconstruct ip m in
     check bool_t "model satisfies original" true (model_satisfies f full);
     check bool_t "1 forced false" false full.(1)
   | _ -> Alcotest.fail "reduced formula should be sat")

let test_inp_scc_equivalence () =
  (* 1 ≡ 2 via the binary implication cycle; 2 is unfrozen, so it collapses
     into 1 and [2;3] is rewritten to [1;3]. *)
  let f = formula_of 3 [ [ 1; -2 ]; [ -1; 2 ]; [ 2; 3 ] ] in
  let ip =
    Inprocess.run ~probe:false ~xor:false ~elim:false ~frozen:[| 1; 3 |] f
  in
  let st = Inprocess.stats ip in
  check bool_t "sat" false (Inprocess.is_unsat ip);
  check int_t "collapsed" 1 st.Inprocess.equiv_collapsed;
  (* map_clause follows the substitution. *)
  check bool_t "map_clause substitutes" true
    (Inprocess.map_clause ip [| 2; 3 |] = Some [| 1; 3 |]);
  check bool_t "map_clause drops tautology" true
    (Inprocess.map_clause ip [| 2; -1 |] = None);
  (match Cdcl.solve_formula (Inprocess.formula ip) with
   | Cdcl.Sat, Some m, _ ->
     let full = Inprocess.reconstruct ip m in
     check bool_t "model satisfies original" true (model_satisfies f full);
     check bool_t "equivalence holds" true (full.(1) = full.(2))
   | _ -> Alcotest.fail "reduced formula should be sat")

let test_inp_xor_roundtrip () =
  (* The xor chain encoding (as emitted by encode_xor_chain / xor_out)
     leaves one 2^(k-1) clause block per stage; recovery must lift both
     stages to GF(2) rows. *)
  let f = Formula.create () in
  let a = Formula.fresh_var f in
  let b = Formula.fresh_var f in
  let c = Formula.fresh_var f in
  let t1 = Fl_cnf.Tseytin.xor_out f a b in
  let t2 = Fl_cnf.Tseytin.xor_out f t1 c in
  ignore t2;
  let ip =
    Inprocess.run ~probe:false ~scc:false ~elim:false ~frozen:[| a; b; c |] f
  in
  let st = Inprocess.stats ip in
  check bool_t "sat" false (Inprocess.is_unsat ip);
  check int_t "both stages recovered" 2 st.Inprocess.xor_rows;
  (* Pin the chain output and both inputs: unit reasoning through the
     recovered structure must force the remaining input. *)
  let g = Formula.create () in
  let a = Formula.fresh_var g in
  let b = Formula.fresh_var g in
  let c = Formula.fresh_var g in
  let t1 = Fl_cnf.Tseytin.xor_out g a b in
  let t2 = Fl_cnf.Tseytin.xor_out g t1 c in
  Formula.add_clause g [ t2 ];
  Formula.add_clause g [ a ];
  Formula.add_clause g [ -b ];
  let ip = Inprocess.run ~frozen:[| a; b; c |] g in
  check bool_t "pinned chain sat" false (Inprocess.is_unsat ip);
  (match Cdcl.solve_formula (Inprocess.formula ip) with
   | Cdcl.Sat, Some m, _ ->
     let full = Inprocess.reconstruct ip m in
     check bool_t "model satisfies original" true (model_satisfies g full);
     check bool_t "a" true full.(a);
     check bool_t "b" false full.(b);
     (* a ⊕ b ⊕ c = t2 = 1, so c = 0. *)
     check bool_t "c forced" false full.(c)
   | _ -> Alcotest.fail "reduced formula should be sat")

let test_inp_gauss_unsat () =
  (* a⊕b⊕c = 0, c⊕d⊕e = 0, a⊕b⊕d⊕e = 1: each XOR block is stable under
     subsumption (clauses of one block differ in two literals), and no
     single block is contradictory — only GF(2) elimination across the
     three rows (sum = "0 = 1") refutes it. *)
  let block3 vars rhs =
    (* clauses over [x;y;z] whose positive count p satisfies p ≡ 2+rhs. *)
    let x, y, z = (List.nth vars 0, List.nth vars 1, List.nth vars 2) in
    if rhs = 0 then
      [ [ -x; -y; -z ]; [ x; y; -z ]; [ x; -y; z ]; [ -x; y; z ] ]
    else [ [ x; y; z ]; [ x; -y; -z ]; [ -x; y; -z ]; [ -x; -y; z ] ]
  in
  let block4 vars =
    (* w⊕x⊕y⊕z = 1: even positive count. *)
    let w, x, y, z =
      (List.nth vars 0, List.nth vars 1, List.nth vars 2, List.nth vars 3)
    in
    let clauses = ref [] in
    for m = 0 to 15 do
      let p = (m land 1) + (m lsr 1 land 1) + (m lsr 2 land 1) + (m lsr 3 land 1) in
      if p land 1 = 0 then
        clauses :=
          [
            (if m land 1 = 1 then w else -w);
            (if m land 2 = 2 then x else -x);
            (if m land 4 = 4 then y else -y);
            (if m land 8 = 8 then z else -z);
          ]
          :: !clauses
    done;
    !clauses
  in
  let f =
    formula_of 5
      (block3 [ 1; 2; 3 ] 0 @ block3 [ 3; 4; 5 ] 0 @ block4 [ 1; 2; 4; 5 ])
  in
  let ip =
    Inprocess.run ~probe:false ~scc:false ~elim:false ~frozen:(all_vars f) f
  in
  check bool_t "unsat" true (Inprocess.is_unsat ip);
  check int_t "all rows recovered" 3 (Inprocess.stats ip).Inprocess.xor_rows

let prop_inprocess_pass pass_name ~probe ~scc ~xor ~elim =
  qcheck_case ~count:150
    (Printf.sprintf "inprocess (%s) preserves satisfiability" pass_name)
    random_frozen_formula_gen (fun ((num_vars, _, _) as params, frozen_pct) ->
      let f = make_formula params in
      let frozen =
        Array.init (num_vars * frozen_pct / 100) (fun i -> i + 1)
      in
      let ip = Inprocess.run ~probe ~scc ~xor ~elim ~frozen f in
      if Inprocess.is_unsat ip then not (brute_sat f)
      else
        match Cdcl.solve_formula (Inprocess.formula ip) with
        | Cdcl.Sat, Some m, _ ->
          let full = Inprocess.reconstruct ip m in
          brute_sat f
          && model_satisfies f full
          && Array.for_all (fun v -> full.(v) = m.(v)) frozen
        | Cdcl.Unsat, None, _ -> not (brute_sat f)
        | _ -> false)

let prop_inprocess_probe =
  prop_inprocess_pass "probing" ~probe:true ~scc:false ~xor:false ~elim:false

let prop_inprocess_scc =
  prop_inprocess_pass "scc" ~probe:false ~scc:true ~xor:false ~elim:false

let prop_inprocess_xor =
  prop_inprocess_pass "xor/gauss" ~probe:false ~scc:false ~xor:true ~elim:false

let prop_inprocess_all =
  prop_inprocess_pass "all passes" ~probe:true ~scc:true ~xor:true ~elim:true

let prop_inprocess_map_clause =
  (* Learnt-replay soundness: any clause implied by the original formula,
     mapped onto the reduced space, must keep the reduced formula
     equisatisfiable.  Implied clauses are simulated by extending true
     clauses of a brute-force model (or skipping unsat instances). *)
  qcheck_case ~count:100 "inprocess map_clause keeps models"
    random_frozen_formula_gen (fun ((num_vars, _, _) as params, frozen_pct) ->
      let f = make_formula params in
      let frozen =
        Array.init (num_vars * frozen_pct / 100) (fun i -> i + 1)
      in
      let ip = Inprocess.run ~frozen f in
      if Inprocess.is_unsat ip then not (brute_sat f)
      else begin
        let reduced = Inprocess.formula ip in
        (* Map every original clause (each trivially implied) and add the
           survivors; satisfiability must not change. *)
        Formula.iter_clauses f (fun c ->
            match Inprocess.map_clause ip c with
            | Some c' when Array.length c' > 0 ->
              Formula.add_clause reduced (Array.to_list c')
            | _ -> ());
        match Cdcl.solve_formula reduced with
        | Cdcl.Sat, Some m, _ ->
          brute_sat f && model_satisfies f (Inprocess.reconstruct ip m)
        | Cdcl.Unsat, None, _ -> not (brute_sat f)
        | _ -> false
      end)

(* ------------------------------------------------------------------ *)
(* Random k-SAT + cross-checking                                       *)
(* ------------------------------------------------------------------ *)

let test_random_sat_shape () =
  let rng = Random.State.make [| 1 |] in
  let f = Random_sat.fixed_length rng ~num_vars:20 ~num_clauses:50 ~k:3 in
  check int_t "clauses" 50 (Formula.num_clauses f);
  check int_t "vars" 20 (Formula.num_vars f);
  Fl_cnf.Formula.iter_clauses f (fun c ->
      check int_t "k=3" 3 (Array.length c);
      (* distinct variables in each clause *)
      let vars = Array.map abs c in
      Array.sort compare vars;
      check bool_t "distinct" true (vars.(0) <> vars.(1) && vars.(1) <> vars.(2)))

let test_phase_transition_shape () =
  (* The paper's Fig. 1: the DPLL-calls curve must peak inside the 3..6
     band, dominating both the under- and over-constrained regimes. *)
  let rng = Random.State.make [| 9 |] in
  let sweep =
    Random_sat.ratio_sweep rng ~num_vars:36 ~k:3 ~ratios:[ 2.0; 4.3; 8.0 ]
      ~samples:21
  in
  match sweep with
  | [ (_, low, satfrac_low); (_, peak, _); (_, high, satfrac_high) ] ->
    check bool_t "peak >= under-constrained" true (peak >= low);
    check bool_t "peak >= over-constrained" true (peak >= high);
    check bool_t "under-constrained mostly sat" true (satfrac_low > 0.8);
    check bool_t "over-constrained mostly unsat" true (satfrac_high < 0.2)
  | _ -> Alcotest.fail "sweep shape"

(* ------------------------------------------------------------------ *)
(* Properties: CDCL and DPLL agree with brute force                    *)
(* ------------------------------------------------------------------ *)

let prop_cdcl_correct =
  qcheck_case ~count:200 "cdcl = brute force" random_formula_gen (fun params ->
      let f = make_formula params in
      let outcome, model, _ = Cdcl.solve_formula f in
      match outcome, model with
      | Cdcl.Sat, Some m -> brute_sat f && model_satisfies f m
      | Cdcl.Unsat, None -> not (brute_sat f)
      | _ -> false)

let prop_dpll_correct =
  qcheck_case ~count:150 "dpll = brute force" random_formula_gen (fun params ->
      let f = make_formula params in
      let outcome, _ = Dpll.solve f in
      match outcome with
      | Dpll.Sat -> brute_sat f
      | Dpll.Unsat -> not (brute_sat f)
      | Dpll.Aborted -> false)

let prop_cdcl_dpll_agree =
  qcheck_case ~count:100 "cdcl agrees with dpll" random_formula_gen (fun params ->
      let f = make_formula params in
      let c, _, _ = Cdcl.solve_formula f in
      let d, _ = Dpll.solve f in
      match c, d with
      | Cdcl.Sat, Dpll.Sat | Cdcl.Unsat, Dpll.Unsat -> true
      | _ -> false)

let prop_cdcl_unit_consistency =
  (* A unit clause added after a first solve is honoured: sat means the
     model sets the literal and satisfies the formula, unsat means brute
     force finds no model with it. *)
  qcheck_case ~count:100 "unit clause in model" random_formula_gen (fun params ->
      let f = make_formula params in
      let s = Cdcl.of_formula f in
      ignore (Cdcl.solve s);
      Cdcl.add_clause s [ 1 ];
      match Cdcl.solve s with
      | Cdcl.Sat -> Cdcl.value s 1 && model_satisfies f (Cdcl.model s)
      | Cdcl.Unsat ->
        let g = Formula.copy f in
        Formula.add_clause g [ 1 ];
        not (brute_sat g)
      | Cdcl.Unknown -> false)

let prop_cdcl_circuit_reference =
  (* Post-refactor solver vs the untouched DPLL reference on the circuit
     suite: a Tseytin-encoded c17 with random input/output pins must get
     the same sat/unsat answer, and every Sat model must satisfy the
     encoding clause by clause.  This is the layout refactor's
     end-to-end guard — packed literals, byte assignments, blocking
     literals and arena compaction all sit on this path. *)
  qcheck_case ~count:60 "cdcl matches dpll on pinned c17"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let c = Fl_netlist.Bench_suite.c17 () in
      let f = Formula.create () in
      let enc = Fl_cnf.Tseytin.encode f c in
      let rng = Random.State.make [| seed |] in
      Array.iter
        (fun v -> Formula.add_clause f [ (if Random.State.bool rng then v else -v) ])
        enc.Fl_cnf.Tseytin.output_vars;
      Array.iter
        (fun v ->
          if Random.State.int rng 3 = 0 then
            Formula.add_clause f [ (if Random.State.bool rng then v else -v) ])
        enc.Fl_cnf.Tseytin.input_vars;
      let outcome, model, _ = Cdcl.solve_formula f in
      let d, _ = Dpll.solve f in
      match outcome, model, d with
      | Cdcl.Sat, Some m, Dpll.Sat -> model_satisfies f m
      | Cdcl.Unsat, None, Dpll.Unsat -> true
      | _ -> false)

let () =
  Alcotest.run "sat"
    [
      ( "cdcl",
        [
          Alcotest.test_case "trivial sat" `Quick test_cdcl_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_cdcl_trivial_unsat;
          Alcotest.test_case "unit chain" `Quick test_cdcl_units_chain;
          Alcotest.test_case "pigeonhole unsat" `Quick test_cdcl_pigeonhole;
          Alcotest.test_case "pigeonhole sat" `Quick test_cdcl_pigeonhole_sat_when_fits;
          Alcotest.test_case "incremental" `Quick test_cdcl_incremental;
          Alcotest.test_case "budget" `Quick test_cdcl_budget;
          Alcotest.test_case "stats" `Quick test_cdcl_stats_accumulate;
          Alcotest.test_case "db reduction" `Quick test_cdcl_survives_db_reduction;
          Alcotest.test_case "level0 unsat" `Quick test_cdcl_empty_clause_via_simplification;
          Alcotest.test_case "tautology" `Quick test_cdcl_duplicate_and_tautology;
          Alcotest.test_case "binary watch rebuild" `Quick
            test_cdcl_binary_watch_rebuild;
        ] );
      ( "arena",
        [
          prop_arena_roundtrip;
        ] );
      ( "dpll",
        [
          Alcotest.test_case "trivial" `Quick test_dpll_trivial;
          Alcotest.test_case "unsat" `Quick test_dpll_unsat;
          Alcotest.test_case "pure literal" `Quick test_dpll_pure_literal;
          Alcotest.test_case "abort" `Quick test_dpll_abort;
        ] );
      ( "preprocess",
        [
          Alcotest.test_case "tautology + duplicate" `Quick test_pre_taut_dup;
          Alcotest.test_case "subsumption" `Quick test_pre_subsumption;
          Alcotest.test_case "self-subsumption" `Quick test_pre_self_subsumption;
          Alcotest.test_case "elimination + frozen" `Quick
            test_pre_elimination_and_frozen;
          Alcotest.test_case "reconstruction" `Quick test_pre_reconstruct;
          Alcotest.test_case "unsat" `Quick test_pre_unsat;
          prop_preprocess_preserves_sat;
          prop_preprocess_incremental;
        ] );
      ( "inprocess",
        [
          Alcotest.test_case "failed literal" `Quick test_inp_failed_literal;
          Alcotest.test_case "scc equivalence" `Quick test_inp_scc_equivalence;
          Alcotest.test_case "xor round-trip" `Quick test_inp_xor_roundtrip;
          Alcotest.test_case "gauss unsat" `Quick test_inp_gauss_unsat;
          prop_inprocess_probe;
          prop_inprocess_scc;
          prop_inprocess_xor;
          prop_inprocess_all;
          prop_inprocess_map_clause;
        ] );
      ( "random_sat",
        [
          Alcotest.test_case "shape" `Quick test_random_sat_shape;
          Alcotest.test_case "phase transition" `Slow test_phase_transition_shape;
        ] );
      ( "properties",
        [
          prop_cdcl_correct;
          prop_dpll_correct;
          prop_cdcl_dpll_agree;
          prop_cdcl_unit_consistency;
          prop_cdcl_circuit_reference;
        ] );
    ]
