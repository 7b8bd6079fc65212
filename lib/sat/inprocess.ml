(* Bounded inprocessing over a CNF: failed-literal probing, equivalent-
   literal SCC collapsing and XOR recovery + GF(2) Gaussian elimination,
   layered on the shared {!Simp_db} clause database (subsumption, bounded
   variable elimination, elimination-stack model reconstruction).

   Unlike {!Preprocess}, which runs once at session creation, this engine
   is built to re-run over a formula that has grown an incremental
   observation tail: the attack loop calls it every N DIP iterations,
   swaps the reduced formula in, and rebuilds the solver.  Derived units
   and equivalences are folded into the same reconstruction stack shape
   {!Preprocess} uses — a unit [l] is recorded as the elimination entry
   [(v, [[l]])] and an equivalence [v := l] as [(v, [[v; -l]; [-v; l]])],
   so {!Simp_db.reconstruct_stack} replays all three uniformly.

   Frozen variables (the attack interface) are never substituted or
   eliminated; a unit derived on a frozen variable stays in the reduced
   formula as a unit clause so later-added clauses still interact with
   it. *)

module Formula = Fl_cnf.Formula

let c_runs = Fl_obs.Counter.make "inprocess.runs"
let c_units = Fl_obs.Counter.make "inprocess.units"
let c_failed = Fl_obs.Counter.make "inprocess.failed_literals"
let c_collapsed = Fl_obs.Counter.make "inprocess.equiv_collapsed"
let c_xor_rows = Fl_obs.Counter.make "inprocess.xor_rows"
let c_gauss_pivots = Fl_obs.Counter.make "inprocess.gauss_pivots"
let c_clauses_removed = Fl_obs.Counter.make "inprocess.clauses_removed"
let h_probe_yield = Fl_obs.Hist.make "inprocess.probe_yield"
let h_xor_rows = Fl_obs.Hist.make "inprocess.xor_rows_per_run"
let h_gauss_pivots = Fl_obs.Hist.make "inprocess.gauss_pivots_per_run"

type stats = {
  vars_before : int;
  vars_after : int;
  clauses_before : int;
  clauses_after : int;
  literals_before : int;
  literals_after : int;
  probes : int;
  failed_literals : int;
  shared_implications : int;
  hyper_binaries : int;
  equiv_classes : int;
  equiv_collapsed : int;
  xor_rows : int;
  gauss_pivots : int;
  gauss_units : int;
  gauss_equivs : int;
  units : int;
  subsumed : int;
  strengthened : int;
  eliminated : int;
  resolvents : int;
  rounds : int;
  wall_s : float;
}

type t = {
  reduced : Formula.t;
  unsat : bool;
  stack : (int * int array list) list;
  assign : Bytes.t;  (* var-1 -> '\000' open, '\001' true, '\002' false *)
  subst : int array;  (* var-1 -> representative literal, 0 = itself *)
  elim : Bytes.t;  (* the db's elim_set, for {!map_clause} *)
  nvars : int;
  st : stats;
}

(* Reusable probe buffers, sized to 2*nvars literal slots: the per-probe
   assignment marks and the positive-probe implication set.  A Session
   keeps one scratch across all its inprocessing runs so the repeated
   passes do not reallocate the O(vars) working set every time. *)
type scratch = {
  mutable pval : Bytes.t;  (* lidx -> '\001' when the literal is true *)
  mutable pmark : Bytes.t;  (* lidx -> '\001' when implied by probe(+v) *)
  trail : Simp_db.Vec.t;
}

let scratch () =
  { pval = Bytes.empty; pmark = Bytes.empty; trail = Simp_db.Vec.create () }

let ensure_scratch scr n2 =
  if Bytes.length scr.pval < n2 then begin
    scr.pval <- Bytes.make n2 '\000';
    scr.pmark <- Bytes.make n2 '\000'
  end

(* Mutable pass state: the clause db plus derived-fact maps and work
   counters. *)
type state = {
  db : Simp_db.t;
  assign : Bytes.t;
  subst : int array;
  unit_queue : int Queue.t;
  mutable prop_budget : int;  (* probing clause-visit budget *)
  mutable hyper_budget : int;
  mutable n_units : int;
  mutable n_probes : int;
  mutable n_failed : int;
  mutable n_shared : int;
  mutable n_hyper : int;
  mutable n_classes : int;
  mutable n_collapsed : int;
  mutable n_xor_rows : int;
  mutable n_gauss_pivots : int;
  mutable n_gauss_units : int;
  mutable n_gauss_equivs : int;
}

let truth st l =
  match Bytes.get st.assign (abs l - 1) with
  | '\000' -> `Open
  | '\001' -> if l > 0 then `True else `False
  | _ -> if l > 0 then `False else `True

let enqueue_unit st l =
  match truth st l with
  | `True -> ()
  | `False -> st.db.Simp_db.unsat <- true
  | `Open -> Queue.add l st.unit_queue

(* Commit queued units: satisfied clauses die, falsified literals are
   stripped (cascading into new units).  A non-frozen variable is recorded
   on the elimination stack as [(v, [[l]])] — reconstruction then forces
   it to [l]'s value; a frozen variable keeps a unit clause in the db so
   clauses added after this pass still see the assignment. *)
let apply_units st =
  let db = st.db in
  while (not db.Simp_db.unsat) && not (Queue.is_empty st.unit_queue) do
    let l = Queue.take st.unit_queue in
    match truth st l with
    | `True -> ()
    | `False -> db.Simp_db.unsat <- true
    | `Open ->
      let v = abs l in
      if not (Simp_db.eliminated db v) then begin
        Bytes.set st.assign (v - 1) (if l > 0 then '\001' else '\002');
        st.n_units <- st.n_units + 1;
        List.iter (Simp_db.kill db) (Simp_db.occurrences db l);
        List.iter
          (fun ci ->
            Simp_db.strengthen db ci (-l);
            if (not db.Simp_db.unsat) && Simp_db.alive db ci then begin
              let c = db.Simp_db.cl.(ci) in
              if Array.length c = 1 then enqueue_unit st c.(0)
            end)
          (Simp_db.occurrences db (-l));
        if Simp_db.frozen db v then ignore (Simp_db.append db [| l |])
        else Simp_db.push_elim db v [ [| l |] ]
      end
  done

let harvest_units st =
  let db = st.db in
  for ci = 0 to db.Simp_db.n - 1 do
    if Simp_db.alive db ci then begin
      let c = db.Simp_db.cl.(ci) in
      if Array.length c = 1 then enqueue_unit st c.(0)
    end
  done;
  apply_units st

(* ------------------------------------------------------------------ *)
(* Pass 1: failed-literal probing                                      *)
(* ------------------------------------------------------------------ *)

(* BCP from [root] under the probe-local assignment [scr.pval]; every
   propagated literal lands on [scr.trail] (root first).  [on_hyper]
   receives literals propagated through a clause longer than two — each is
   a hyper-binary resolvent (¬root ∨ lit) of the root with a clause chain.
   Returns [true] on conflict.  The caller must undo the trail. *)
let probe st scr root ~on_hyper =
  let db = st.db in
  let tr = scr.trail in
  tr.Simp_db.Vec.size <- 0;
  let set l =
    Bytes.set scr.pval (Simp_db.lidx l) '\001';
    Simp_db.Vec.push tr l
  in
  let ptrue l = Bytes.get scr.pval (Simp_db.lidx l) = '\001' in
  set root;
  let conflict = ref false in
  let i = ref 0 in
  (try
     while !i < Simp_db.Vec.size tr do
       let t = Simp_db.Vec.get tr !i in
       incr i;
       (* Clauses that may have lost the literal ¬t.  Stale occurrence
          entries just cost a scan: evaluating any live clause is sound. *)
       let occ = db.Simp_db.occ.(Simp_db.lidx (-t)) in
       for oi = 0 to Simp_db.Vec.size occ - 1 do
         let ci = Simp_db.Vec.get occ oi in
         if Simp_db.alive db ci then begin
           st.prop_budget <- st.prop_budget - 1;
           let c = db.Simp_db.cl.(ci) in
           let len = Array.length c in
           let sat = ref false and unassigned = ref 0 and u = ref 0 in
           let j = ref 0 in
           while (not !sat) && !j < len do
             let l = c.(!j) in
             if ptrue l then sat := true
             else if not (ptrue (-l)) then begin
               incr unassigned;
               u := l
             end;
             incr j
           done;
           if not !sat then begin
             if !unassigned = 0 then begin
               conflict := true;
               raise Exit
             end
             else if !unassigned = 1 then begin
               set !u;
               if len > 2 then on_hyper !u
             end
           end
         end
       done
     done
   with Exit -> ());
  !conflict

let undo_trail scr =
  let tr = scr.trail in
  for i = 0 to Simp_db.Vec.size tr - 1 do
    Bytes.set scr.pval (Simp_db.lidx (Simp_db.Vec.get tr i)) '\000'
  done;
  tr.Simp_db.Vec.size <- 0

(* Probe both polarities of the highest-occurrence variables touching the
   binary implication graph.  A conflicting probe of [l] makes ¬l a unit
   (failed literal); a literal implied by both polarities is a unit too
   (shared implication); implications through long clauses become
   hyper-binary clauses, thickening the BIG for the SCC pass. *)
let probe_pass st scr ~max_probes =
  let db = st.db in
  let nv = db.Simp_db.nvars in
  let has_bin = Bytes.make (max 1 nv) '\000' in
  for ci = 0 to db.Simp_db.n - 1 do
    if Simp_db.alive db ci && Array.length db.Simp_db.cl.(ci) = 2 then
      Array.iter
        (fun l -> Bytes.set has_bin (abs l - 1) '\001')
        db.Simp_db.cl.(ci)
  done;
  let cands = ref [] in
  for v = nv downto 1 do
    if
      Bytes.get has_bin (v - 1) = '\001'
      && (not (Simp_db.eliminated db v))
      && truth st v = `Open
    then cands := v :: !cands
  done;
  let roots = Array.of_list !cands in
  Array.sort
    (fun a b -> compare (Simp_db.occ_count db b) (Simp_db.occ_count db a))
    roots;
  let n_roots = min max_probes (Array.length roots) in
  let add_hyper root u =
    if st.hyper_budget > 0 then begin
      st.hyper_budget <- st.hyper_budget - 1;
      st.n_hyper <- st.n_hyper + 1;
      match Simp_db.canonical [| -root; u |] with
      | Some lits -> ignore (Simp_db.append db lits)
      | None -> ()
    end
  in
  (try
     for ri = 0 to n_roots - 1 do
       if db.Simp_db.unsat || st.prop_budget <= 0 then raise Exit;
       let v = roots.(ri) in
       if (not (Simp_db.eliminated db v)) && truth st v = `Open then begin
         st.n_probes <- st.n_probes + 1;
         let pos_hypers = ref [] in
         if probe st scr v ~on_hyper:(fun u -> pos_hypers := u :: !pos_hypers)
         then begin
           undo_trail scr;
           st.n_failed <- st.n_failed + 1;
           enqueue_unit st (-v);
           apply_units st
         end
         else begin
           (* Snapshot the positive implications, then probe ¬v. *)
           let tr = scr.trail in
           let pos = Array.sub tr.Simp_db.Vec.data 0 (Simp_db.Vec.size tr) in
           Array.iter
             (fun l -> Bytes.set scr.pmark (Simp_db.lidx l) '\001')
             pos;
           undo_trail scr;
           List.iter (add_hyper v) !pos_hypers;
           let neg_hypers = ref [] in
           let conflict =
             probe st scr (-v) ~on_hyper:(fun u ->
                 neg_hypers := u :: !neg_hypers)
           in
           let shared = ref [] in
           if not conflict then begin
             let tr = scr.trail in
             for i = 1 to Simp_db.Vec.size tr - 1 do
               let l = Simp_db.Vec.get tr i in
               if Bytes.get scr.pmark (Simp_db.lidx l) = '\001' then
                 shared := l :: !shared
             done
           end;
           undo_trail scr;
           Array.iter
             (fun l -> Bytes.set scr.pmark (Simp_db.lidx l) '\000')
             pos;
           if conflict then begin
             st.n_failed <- st.n_failed + 1;
             enqueue_unit st v
           end
           else begin
             List.iter (add_hyper (-v)) !neg_hypers;
             st.n_shared <- st.n_shared + List.length !shared;
             List.iter (enqueue_unit st) !shared
           end;
           apply_units st
         end
       end
     done
   with Exit -> ())

(* ------------------------------------------------------------------ *)
(* Pass 2: 2-SAT SCC equivalent-literal collapsing                     *)
(* ------------------------------------------------------------------ *)

let lit_of_lidx i = (if i land 1 = 1 then -1 else 1) * ((i / 2) + 1)

(* Tarjan over the binary implication graph (nodes = literals; a binary
   clause (a ∨ b) contributes ¬a→b and ¬b→a).  Literals in one strongly
   connected component are equal in every model: a class with a literal
   and its own negation makes the formula unsat; otherwise every
   non-frozen member is substituted by the class representative (frozen
   preferred, then smallest variable) and recorded on the elimination
   stack as the two equivalence clauses. *)
let scc_pass st =
  let db = st.db in
  let n2 = 2 * max 1 db.Simp_db.nvars in
  (* CSR adjacency. *)
  let deg = Array.make n2 0 in
  let count_edges ci =
    if Simp_db.alive db ci && Array.length db.Simp_db.cl.(ci) = 2 then begin
      let c = db.Simp_db.cl.(ci) in
      deg.(Simp_db.lidx (-c.(0))) <- deg.(Simp_db.lidx (-c.(0))) + 1;
      deg.(Simp_db.lidx (-c.(1))) <- deg.(Simp_db.lidx (-c.(1))) + 1
    end
  in
  for ci = 0 to db.Simp_db.n - 1 do
    count_edges ci
  done;
  let start = Array.make (n2 + 1) 0 in
  for i = 0 to n2 - 1 do
    start.(i + 1) <- start.(i) + deg.(i)
  done;
  let adj = Array.make (max 1 start.(n2)) 0 in
  let fill = Array.copy start in
  for ci = 0 to db.Simp_db.n - 1 do
    if Simp_db.alive db ci && Array.length db.Simp_db.cl.(ci) = 2 then begin
      let c = db.Simp_db.cl.(ci) in
      let edge src dst =
        adj.(fill.(src)) <- dst;
        fill.(src) <- fill.(src) + 1
      in
      edge (Simp_db.lidx (-c.(0))) (Simp_db.lidx c.(1));
      edge (Simp_db.lidx (-c.(1))) (Simp_db.lidx c.(0))
    end
  done;
  (* Iterative Tarjan. *)
  let comp = Array.make n2 (-1) in
  let index = Array.make n2 (-1) in
  let low = Array.make n2 0 in
  let on = Bytes.make n2 '\000' in
  let stk = ref [] in
  let next_index = ref 0 and next_comp = ref 0 in
  let frames = Stack.create () in
  let discover u =
    index.(u) <- !next_index;
    low.(u) <- !next_index;
    incr next_index;
    stk := u :: !stk;
    Bytes.set on u '\001';
    Stack.push (u, ref start.(u)) frames
  in
  for s = 0 to n2 - 1 do
    if index.(s) < 0 then begin
      discover s;
      while not (Stack.is_empty frames) do
        let u, pi = Stack.top frames in
        if !pi < start.(u + 1) then begin
          let w = adj.(!pi) in
          incr pi;
          if index.(w) < 0 then discover w
          else if Bytes.get on w = '\001' && index.(w) < low.(u) then
            low.(u) <- index.(w)
        end
        else begin
          ignore (Stack.pop frames);
          (match Stack.top_opt frames with
           | Some (p, _) -> if low.(u) < low.(p) then low.(p) <- low.(u)
           | None -> ());
          if low.(u) = index.(u) then begin
            let closed = ref false in
            while not !closed do
              match !stk with
              | w :: rest ->
                stk := rest;
                Bytes.set on w '\000';
                comp.(w) <- !next_comp;
                if w = u then closed := true
              | [] -> closed := true
            done;
            incr next_comp
          end
        end
      done
    end
  done;
  (* l and ¬l in one component: the implications force l ↔ ¬l. *)
  for v = 1 to db.Simp_db.nvars do
    if comp.(Simp_db.lidx v) = comp.(Simp_db.lidx (-v)) then
      db.Simp_db.unsat <- true
  done;
  if not db.Simp_db.unsat then begin
    let members = Array.make !next_comp [] in
    for i = n2 - 1 downto 0 do
      let v = (i / 2) + 1 in
      if (not (Simp_db.eliminated db v)) && truth st v = `Open then
        members.(comp.(i)) <- lit_of_lidx i :: members.(comp.(i))
    done;
    let subst_vars = ref [] in
    Array.iter
      (fun cls ->
        match cls with
        | [] | [ _ ] -> ()
        | cls ->
          (* Representative: frozen first, then smallest variable.  The
             mirror component substitutes nothing further: its members'
             variables are already eliminated here (except the rep's). *)
          let better a b =
            let fa = Simp_db.frozen db (abs a)
            and fb = Simp_db.frozen db (abs b) in
            if fa <> fb then fa else abs a < abs b
          in
          let rep =
            List.fold_left (fun r l -> if better l r then l else r)
              (List.hd cls) cls
          in
          let collapsed = ref false in
          List.iter
            (fun m ->
              let v = abs m in
              if
                m <> rep && v <> abs rep
                && (not (Simp_db.frozen db v))
                && not (Simp_db.eliminated db v)
              then begin
                let target = if m > 0 then rep else -rep in
                st.subst.(v - 1) <- target;
                Simp_db.push_elim db v
                  [ [| v; -target |]; [| -v; target |] ];
                st.n_collapsed <- st.n_collapsed + 1;
                collapsed := true;
                subst_vars := v :: !subst_vars
              end)
            cls;
          if !collapsed then st.n_classes <- st.n_classes + 1)
      members;
    (* Rewrite every clause touching a substituted variable. *)
    let map_lit l =
      let s = st.subst.(abs l - 1) in
      if s = 0 then l else if l > 0 then s else -s
    in
    List.iter
      (fun v ->
        List.iter
          (fun ci ->
            let mapped = Array.map map_lit db.Simp_db.cl.(ci) in
            Simp_db.kill db ci;
            match Simp_db.canonical mapped with
            | None -> ()
            | Some lits -> ignore (Simp_db.append db lits))
          (Simp_db.occurrences db v @ Simp_db.occurrences db (-v)))
      !subst_vars;
    harvest_units st
  end

(* ------------------------------------------------------------------ *)
(* Pass 3: XOR recovery + GF(2) Gaussian elimination                   *)
(* ------------------------------------------------------------------ *)

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* Symmetric difference of two sorted variable arrays. *)
let sym_diff a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let w = ref 0 and i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      incr i;
      incr j
    end
    else if x < y then begin
      out.(!w) <- x;
      incr w;
      incr i
    end
    else begin
      out.(!w) <- y;
      incr w;
      incr j
    end
  done;
  while !i < la do
    out.(!w) <- a.(!i);
    incr w;
    incr i
  done;
  while !j < lb do
    out.(!w) <- b.(!j);
    incr w;
    incr j
  done;
  Array.sub out 0 !w

(* A k-ary XOR constraint x1⊕…⊕xk = b appears in CNF as the 2^(k-1)
   clauses over the same variable set whose positive-literal count p
   satisfies p ≡ k-1+b (mod 2) — exactly what {!Fl_cnf.Tseytin}'s xor2
   encoding (and the RLL XOR/XNOR gates) emit.  Detection buckets the
   canonical clauses by variable set and checks one parity class for
   completeness; recovered rows then run through sparse GF(2) elimination
   with back-substitution, and the resulting singleton rows (units) and
   pair rows (equivalences) are exported back to CNF — the SCC pass
   collapses the equivalences, cancelling whole chains. *)
let xor_pass st ~max_arity =
  let db = st.db in
  let tbl = Hashtbl.create 512 in
  for ci = 0 to db.Simp_db.n - 1 do
    if Simp_db.alive db ci then begin
      let c = db.Simp_db.cl.(ci) in
      let k = Array.length c in
      if k >= 3 && k <= max_arity then begin
        let vars = Array.map abs c in
        let mask = ref 0 in
        Array.iteri (fun i l -> if l > 0 then mask := !mask lor (1 lsl i)) c;
        let key = Array.to_list vars in
        match Hashtbl.find_opt tbl key with
        | Some r -> r := !mask :: !r
        | None -> Hashtbl.add tbl key (ref [ !mask ])
      end
    end
  done;
  let rows = ref [] in
  Hashtbl.iter
    (fun key masks ->
      let k = List.length key in
      let need = 1 lsl (k - 1) in
      let ms = List.sort_uniq compare !masks in
      if List.length ms >= need then begin
        let even =
          List.length (List.filter (fun m -> popcount m land 1 = 0) ms)
        in
        let odd = List.length ms - even in
        if even = need then
          rows := (Array.of_list key, (1 + k) land 1 = 1) :: !rows;
        if odd = need then rows := (Array.of_list key, k land 1 = 1) :: !rows
      end)
    tbl;
  st.n_xor_rows <- st.n_xor_rows + List.length !rows;
  (* Forward elimination, pivots keyed by each row's smallest variable. *)
  let pivots = Hashtbl.create 64 in
  let rec reduce vars rhs =
    if Array.length vars = 0 then vars, rhs
    else
      match Hashtbl.find_opt pivots vars.(0) with
      | None -> vars, rhs
      | Some (pv, pr) ->
        st.n_gauss_pivots <- st.n_gauss_pivots + 1;
        reduce (sym_diff vars pv) (rhs <> pr)
  in
  List.iter
    (fun (vars, rhs) ->
      let vars, rhs = reduce vars rhs in
      if Array.length vars = 0 then begin
        if rhs then db.Simp_db.unsat <- true
      end
      else Hashtbl.replace pivots vars.(0) (vars, rhs))
    !rows;
  (* Back-substitution, largest pivot first: afterwards every row's tail
     holds only free variables, so short rows are direct consequences. *)
  let leads =
    List.sort (fun a b -> compare b a)
      (Hashtbl.fold (fun k _ acc -> k :: acc) pivots [])
  in
  List.iter
    (fun lead ->
      match Hashtbl.find_opt pivots lead with
      | None -> ()
      | Some (vars0, rhs0) ->
        let vars = ref vars0 and rhs = ref rhs0 in
        let again = ref true in
        while !again do
          again := false;
          (try
             Array.iteri
               (fun i v ->
                 if i > 0 then
                   match Hashtbl.find_opt pivots v with
                   | Some (pv, pr) when v <> lead ->
                     st.n_gauss_pivots <- st.n_gauss_pivots + 1;
                     vars := sym_diff !vars pv;
                     rhs := !rhs <> pr;
                     again := true;
                     raise Exit
                   | _ -> ())
               !vars
           with Exit -> ())
        done;
        Hashtbl.replace pivots lead (!vars, !rhs))
    leads;
  if not db.Simp_db.unsat then begin
    Hashtbl.iter
      (fun _ (vars, rhs) ->
        match Array.length vars with
        | 1 ->
          st.n_gauss_units <- st.n_gauss_units + 1;
          enqueue_unit st (if rhs then vars.(0) else -vars.(0))
        | 2 ->
          let x = vars.(0) and y = vars.(1) in
          st.n_gauss_equivs <- st.n_gauss_equivs + 1;
          if rhs then begin
            (* x ⊕ y = 1 *)
            ignore (Simp_db.append db [| x; y |]);
            ignore (Simp_db.append db [| -x; -y |])
          end
          else begin
            ignore (Simp_db.append db [| x; -y |]);
            ignore (Simp_db.append db [| -x; y |])
          end
        | _ -> ())
      pivots;
    apply_units st
  end

(* ------------------------------------------------------------------ *)

(* Budget of one run: at most [max_rounds] XOR -> probe -> SCC ->
   subsume -> eliminate rounds (with progress-based early exit),
   [max_probes] probe roots per pass, XOR detection up to [max_xor_arity]
   inputs, and variable elimination bounded as in {!Preprocess} but with a
   tighter occurrence cap. *)
let max_rounds = 2
let max_probes = 512
let max_xor_arity = 5
let elim_growth = 0
let elim_max_occ = 30

let run ?(probe = true) ?(scc = true) ?(xor = true) ?(elim = true)
    ?scratch:scr ?(label = "inprocess") ~frozen f =
  Fl_obs.with_span "inprocess.run" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Fl_obs.Counter.incr c_runs;
  let db = Simp_db.create ~frozen f in
  let scr = match scr with Some s -> s | None -> scratch () in
  ensure_scratch scr (2 * max 1 db.Simp_db.nvars);
  let st =
    {
      db;
      assign = Bytes.make (max 1 db.Simp_db.nvars) '\000';
      subst = Array.make (max 1 db.Simp_db.nvars) 0;
      unit_queue = Queue.create ();
      prop_budget = 4_000_000;
      hyper_budget = 4_096;
      n_units = 0;
      n_probes = 0;
      n_failed = 0;
      n_shared = 0;
      n_hyper = 0;
      n_classes = 0;
      n_collapsed = 0;
      n_xor_rows = 0;
      n_gauss_pivots = 0;
      n_gauss_units = 0;
      n_gauss_equivs = 0;
    }
  in
  let vars_before = Simp_db.count_occurring_vars db in
  let clauses_before = Formula.num_clauses f in
  let literals_before = Formula.num_literals f in
  harvest_units st;
  Simp_db.drain_subsumption db;
  let round = ref 0 in
  let progressing = ref true in
  while !progressing && (not db.Simp_db.unsat) && !round < max_rounds do
    incr round;
    let mark =
      st.n_units + st.n_collapsed + db.Simp_db.n_elim + db.Simp_db.n_sub
    in
    if xor && not db.Simp_db.unsat then xor_pass st ~max_arity:max_xor_arity;
    if probe && not db.Simp_db.unsat then probe_pass st scr ~max_probes;
    if scc && not db.Simp_db.unsat then scc_pass st;
    if not db.Simp_db.unsat then begin
      harvest_units st;
      Simp_db.drain_subsumption db
    end;
    if elim && not db.Simp_db.unsat then
      ignore
        (Simp_db.elimination_sweep db ~growth:elim_growth ~max_occ:elim_max_occ);
    progressing :=
      st.n_units + st.n_collapsed + db.Simp_db.n_elim + db.Simp_db.n_sub
      > mark
  done;
  let reduced = Simp_db.extract db in
  let clauses_after, literals_after = Simp_db.live_counts db in
  let stats =
    {
      vars_before;
      vars_after = Simp_db.count_occurring_vars db;
      clauses_before;
      clauses_after;
      literals_before;
      literals_after;
      probes = st.n_probes;
      failed_literals = st.n_failed;
      shared_implications = st.n_shared;
      hyper_binaries = st.n_hyper;
      equiv_classes = st.n_classes;
      equiv_collapsed = st.n_collapsed;
      xor_rows = st.n_xor_rows;
      gauss_pivots = st.n_gauss_pivots;
      gauss_units = st.n_gauss_units;
      gauss_equivs = st.n_gauss_equivs;
      units = st.n_units;
      subsumed = db.Simp_db.n_sub;
      strengthened = db.Simp_db.n_str;
      eliminated = db.Simp_db.n_elim;
      resolvents = db.Simp_db.n_res;
      rounds = !round;
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  Fl_obs.Counter.add c_units stats.units;
  Fl_obs.Counter.add c_failed stats.failed_literals;
  Fl_obs.Counter.add c_collapsed stats.equiv_collapsed;
  Fl_obs.Counter.add c_xor_rows stats.xor_rows;
  Fl_obs.Counter.add c_gauss_pivots stats.gauss_pivots;
  Fl_obs.Counter.add c_clauses_removed
    (max 0 (stats.clauses_before - stats.clauses_after));
  if Fl_obs.deep_enabled () then begin
    Fl_obs.Hist.record h_probe_yield
      (stats.failed_literals + stats.shared_implications);
    Fl_obs.Hist.record h_xor_rows stats.xor_rows;
    Fl_obs.Hist.record h_gauss_pivots stats.gauss_pivots
  end;
  if Fl_obs.enabled () then
    Fl_obs.emit "inprocess.done"
      ~fields:
        [
          "label", Fl_obs.String label;
          "rounds", Fl_obs.Int stats.rounds;
          "vars_before", Fl_obs.Int stats.vars_before;
          "vars_after", Fl_obs.Int stats.vars_after;
          "clauses_before", Fl_obs.Int stats.clauses_before;
          "clauses_after", Fl_obs.Int stats.clauses_after;
          "probes", Fl_obs.Int stats.probes;
          "failed_literals", Fl_obs.Int stats.failed_literals;
          "shared_implications", Fl_obs.Int stats.shared_implications;
          "hyper_binaries", Fl_obs.Int stats.hyper_binaries;
          "equiv_collapsed", Fl_obs.Int stats.equiv_collapsed;
          "xor_rows", Fl_obs.Int stats.xor_rows;
          "gauss_units", Fl_obs.Int stats.gauss_units;
          "gauss_equivs", Fl_obs.Int stats.gauss_equivs;
          "units", Fl_obs.Int stats.units;
          "eliminated", Fl_obs.Int stats.eliminated;
          "subsumed", Fl_obs.Int stats.subsumed;
          "unsat", Fl_obs.Bool db.Simp_db.unsat;
          "wall_s", Fl_obs.Float stats.wall_s;
        ];
  {
    reduced;
    unsat = db.Simp_db.unsat;
    stack = db.Simp_db.elim_stack;
    assign = st.assign;
    subst = st.subst;
    elim = db.Simp_db.elim_set;
    nvars = db.Simp_db.nvars;
    st = stats;
  }

let formula t = t.reduced
let is_unsat (t : t) = t.unsat
let stats t = t.st
let reconstruct t model = Simp_db.reconstruct_stack t.stack model

(* Map a clause of the pre-inprocessing formula (e.g. an exported learnt
   clause) onto the reduced formula: substituted literals follow the
   representative chain, literals over derived units evaluate, and any
   mention of an eliminated-but-unvalued variable drops the clause (it is
   subsumed by the reconstruction contract, not expressible after
   elimination). *)
let map_clause t lits =
  let resolve l =
    let rec go l depth =
      let v = abs l in
      if v > t.nvars || depth > 64 then `Lit l
      else
        match Bytes.get t.assign (v - 1) with
        | '\001' -> if l > 0 then `True else `False
        | '\002' -> if l > 0 then `False else `True
        | _ ->
          let s = t.subst.(v - 1) in
          if s <> 0 then go (if l > 0 then s else -s) (depth + 1)
          else if Bytes.get t.elim (v - 1) = '\001' then `Drop
          else `Lit l
    in
    go l 0
  in
  let out = Array.make (Array.length lits) 0 in
  let w = ref 0 in
  let keep = ref true in
  (try
     Array.iter
       (fun l ->
         match resolve l with
         | `True | `Drop ->
           keep := false;
           raise Exit
         | `False -> ()
         | `Lit l' ->
           out.(!w) <- l';
           incr w)
       lits
   with Exit -> ());
  if not !keep then None
  else
    match Simp_db.canonical (Array.sub out 0 !w) with
    | None -> None
    | Some [||] -> None
    | Some c -> Some c

let pp_stats fmt st =
  Format.fprintf fmt
    "%d->%d vars, %d->%d clauses (%d units, %d failed literals, %d shared, %d equiv collapsed, %d xor rows, %d gauss pivots, %d eliminated, %d subsumed) in %d round%s, %.3fs"
    st.vars_before st.vars_after st.clauses_before st.clauses_after st.units
    st.failed_literals st.shared_implications st.equiv_collapsed st.xor_rows
    st.gauss_pivots st.eliminated st.subsumed st.rounds
    (if st.rounds = 1 then "" else "s")
    st.wall_s
