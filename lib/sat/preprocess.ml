(* One-shot SatELite-style CNF simplification: tautology/duplicate removal,
   backward subsumption, self-subsuming resolution and bounded variable
   elimination (NiVER/SatELite).  The clause database, occurrence lists,
   signatures and the reconstruction stack live in {!Simp_db}, shared with
   the between-iterations {!Inprocess} engine; this module is the
   subsumption + BVE fixpoint driver on top. *)

module Formula = Fl_cnf.Formula

let c_runs = Fl_obs.Counter.make "preprocess.runs"
let c_eliminated = Fl_obs.Counter.make "preprocess.vars_eliminated"
let c_subsumed = Fl_obs.Counter.make "preprocess.clauses_subsumed"
let c_strengthened = Fl_obs.Counter.make "preprocess.literals_strengthened"
let c_resolvents = Fl_obs.Counter.make "preprocess.resolvents_added"
let c_clauses_removed = Fl_obs.Counter.make "preprocess.clauses_removed"

type stats = {
  vars_before : int;
  vars_after : int;
  clauses_before : int;
  clauses_after : int;
  literals_before : int;
  literals_after : int;
  tautologies : int;
  duplicates : int;
  subsumed : int;
  strengthened : int;
  eliminated : int;
  resolvents : int;
  wall_s : float;
}

type t = {
  reduced : Formula.t;
  unsat : bool;
  (* (variable, clauses removed at its elimination), most recent first *)
  stack : (int * int array list) list;
  st : stats;
}

(* Elimination bound: no clause-count growth per eliminated variable, and
   variables with more than [max_occ] occurrences are skipped (the
   quadratic-resolvent guard). *)
let growth = 0
let max_occ = 40

let run ?(label = "preprocess") ~frozen f =
  let t0 = Unix.gettimeofday () in
  Fl_obs.Counter.incr c_runs;
  let db = Simp_db.create ~frozen f in
  let vars_before = Simp_db.count_occurring_vars db in
  let clauses_before = Formula.num_clauses f in
  let literals_before = Formula.num_literals f in
  (* Fixpoint: subsumption to quiescence, then one elimination sweep over
     the variables (cheapest first); resolvents re-arm the subsumption
     queue, so loop until a sweep eliminates nothing. *)
  Simp_db.drain_subsumption db;
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && (not db.Simp_db.unsat) && !rounds < 12 do
    incr rounds;
    progress := Simp_db.elimination_sweep db ~growth ~max_occ > 0
  done;
  let reduced = Simp_db.extract db in
  let clauses_after, literals_after = Simp_db.live_counts db in
  let st =
    {
      vars_before;
      vars_after = Simp_db.count_occurring_vars db;
      clauses_before;
      clauses_after;
      literals_before;
      literals_after;
      tautologies = db.Simp_db.n_taut;
      duplicates = db.Simp_db.n_dup;
      subsumed = db.Simp_db.n_sub;
      strengthened = db.Simp_db.n_str;
      eliminated = db.Simp_db.n_elim;
      resolvents = db.Simp_db.n_res;
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  Fl_obs.Counter.add c_eliminated st.eliminated;
  Fl_obs.Counter.add c_subsumed st.subsumed;
  Fl_obs.Counter.add c_strengthened st.strengthened;
  Fl_obs.Counter.add c_resolvents st.resolvents;
  Fl_obs.Counter.add c_clauses_removed
    (max 0 (st.clauses_before - st.clauses_after));
  if Fl_obs.enabled () then
    Fl_obs.emit "preprocess.done"
      ~fields:
        [
          "label", Fl_obs.String label;
          "vars_before", Fl_obs.Int st.vars_before;
          "vars_after", Fl_obs.Int st.vars_after;
          "clauses_before", Fl_obs.Int st.clauses_before;
          "clauses_after", Fl_obs.Int st.clauses_after;
          "eliminated", Fl_obs.Int st.eliminated;
          "subsumed", Fl_obs.Int st.subsumed;
          "strengthened", Fl_obs.Int st.strengthened;
          "resolvents", Fl_obs.Int st.resolvents;
          "unsat", Fl_obs.Bool db.Simp_db.unsat;
          "wall_s", Fl_obs.Float st.wall_s;
        ];
  { reduced; unsat = db.Simp_db.unsat; stack = db.Simp_db.elim_stack; st }

let formula t = t.reduced
let is_unsat (t : t) = t.unsat
let stats t = t.st
let reconstruct t model = Simp_db.reconstruct_stack t.stack model

let pp_stats fmt st =
  Format.fprintf fmt
    "%d->%d vars, %d->%d clauses, %d->%d literals (%d eliminated, %d subsumed, %d strengthened, %d resolvents, %d taut, %d dup) in %.3fs"
    st.vars_before st.vars_after st.clauses_before st.clauses_after
    st.literals_before st.literals_after st.eliminated st.subsumed
    st.strengthened st.resolvents st.tautologies st.duplicates st.wall_s
