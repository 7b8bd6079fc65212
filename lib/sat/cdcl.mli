(** Conflict-driven clause-learning SAT solver.

    A from-scratch MiniSAT-style solver: two-watched-literal propagation
    with blocking literals, first-UIP conflict analysis, VSIDS decision
    heuristic with a binary heap, phase saving, Luby restarts and
    incremental clause addition between solves.  Detailed search
    statistics are exposed because the paper's argument is about the
    *shape* of the search (recursive calls / decisions per attack
    iteration), not just sat/unsat answers.

    Memory layout (DESIGN.md §4e): every clause lives in one flat int
    {!Arena} addressed by word offset; assignments, saved phases and the
    analysis scratch are byte arrays ({!Lit.Lbool}); watcher lists carry
    blocking literals so satisfied clauses are skipped without touching
    the arena. *)

type t

type outcome =
  | Sat
  | Unsat
  | Unknown  (** budget exhausted *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned_clauses : int;
  learned_literals : int;
  reductions : int;  (** learnt-database reductions *)
  max_decision_level : int;
}

val zero_stats : stats

(** [add_stats a b] sums the monotone fields; [max_decision_level] takes the
    max. *)
val add_stats : stats -> stats -> stats

(** [sub_stats a b] is the per-field delta [a - b] of the monotone fields;
    [max_decision_level] (a running max, not a counter) is kept from [a]. *)
val sub_stats : stats -> stats -> stats

(** Resource budget for one {!solve} call.  [max_conflicts < 0] and
    [deadline < 0.] mean unlimited. *)
type budget = { max_conflicts : int; deadline : float  (** Unix time *) }

val no_budget : budget
val budget_conflicts : int -> budget
val budget_seconds : float -> budget

(** [create ()] builds an empty solver. *)
val create : unit -> t

(** [of_formula f] loads every clause of [f] into a fresh solver. *)
val of_formula : Fl_cnf.Formula.t -> t

(** [ensure_vars s n] makes variables [1..n] known to the solver. *)
val ensure_vars : t -> int -> unit

(** [add_clause s lits] adds a clause (DIMACS literals).  May be called
    between [solve] calls; the solver backtracks to level 0 first.  Adding
    an empty clause makes the instance permanently unsat. *)
val add_clause : t -> int list -> unit

val add_clause_a : t -> int array -> unit

(** [solve ?budget s] runs the CDCL loop.  Statistics accumulate across
    calls. *)
val solve : ?budget:budget -> t -> outcome

(** [value s v] is the model value of variable [v] after [Sat].
    @raise Invalid_argument if the last call did not return Sat or [v] is
    unknown. *)
val value : t -> int -> bool

(** [model s] is the full model as (variable -> value), index 0 unused. *)
val model : t -> bool array

val num_vars : t -> int

(** Current clause count in the arena (problem + live learnt clauses). *)
val num_clauses : t -> int

(** Live learnt clauses (shrinks when the database is reduced, unlike the
    monotone [stats.learned_clauses]). *)
val num_learnts : t -> int

(** [iter_learnts s f] calls [f] on every live learnt clause, as a fresh
    array of DIMACS literals — inprocessing replays them into the rebuilt
    solver.  [f] must not modify the solver. *)
val iter_learnts : t -> (int array -> unit) -> unit

(** [reduce_now s] backtracks to level 0 and forces one learnt-database
    reduction (arena compaction + watch-list rebuild) — the same path
    search takes when the database outgrows its budget.  Exposed for
    tests and inprocessing hooks; a no-op on a permanently-unsat
    solver. *)
val reduce_now : t -> unit

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** [set_progress s ~every cb] arms a periodic progress hook: during search,
    after every [every] conflicts, [cb] is called with the stat deltas
    accumulated since the previous firing (first firing: since arming).
    One hook per solver; re-arming replaces it.  When unarmed the search
    loop pays one integer compare per conflict.
    @raise Invalid_argument when [every <= 0]. *)
val set_progress : t -> every:int -> (stats -> unit) -> unit

(** [solve_formula ?budget f] is a convenience one-shot solve; returns the
    outcome, the model when Sat, and the stats. *)
val solve_formula :
  ?budget:budget -> Fl_cnf.Formula.t -> outcome * bool array option * stats
