(** SatELite-style CNF preprocessing with model reconstruction.

    [run ~frozen f] simplifies [f] by tautology and duplicate removal,
    backward subsumption, self-subsuming resolution (clause strengthening)
    and bounded variable elimination (NiVER/SatELite: a variable is
    eliminated only when the non-tautological resolvent count does not
    exceed the number of clauses removed).  Variables in
    [frozen] are never eliminated, so clauses added {e after} preprocessing
    may mention them freely — the contract the incremental attack loop
    relies on (DIP constraints only touch frozen key variables plus fresh
    variables).

    Variable numbering is preserved: the reduced formula has the same
    [num_vars] as the input and eliminated variables simply no longer
    occur, so literals, shared variables and incremental fresh-variable
    allocation all keep working unchanged.

    Every transformation except variable elimination preserves logical
    equivalence; elimination preserves equisatisfiability and is undone by
    {!reconstruct}, which extends any model of the reduced formula (plus
    any clauses over frozen/fresh variables added later) to a model of the
    original formula by replaying the elimination stack in reverse. *)

type t

type stats = {
  vars_before : int;  (** variables occurring in at least one clause *)
  vars_after : int;
  clauses_before : int;
  clauses_after : int;
  literals_before : int;
  literals_after : int;
  tautologies : int;  (** input clauses dropped as tautological *)
  duplicates : int;  (** input clauses dropped as exact duplicates *)
  subsumed : int;  (** clauses removed by subsumption *)
  strengthened : int;  (** literals removed by self-subsuming resolution *)
  eliminated : int;  (** variables eliminated *)
  resolvents : int;  (** clauses added by elimination *)
  wall_s : float;
}

(** [run ?label ~frozen f] preprocesses [f].  Elimination never grows the
    clause count and skips variables with more than 40 occurrences (the
    quadratic-resolvent guard).  [frozen] lists variable numbers that must
    survive.  When an {!Fl_obs} sink is installed a
    ["preprocess.done"] event is emitted, labelled [label] (default
    ["preprocess"]); the ["preprocess.*"] counters tick regardless. *)
val run : ?label:string -> frozen:int array -> Fl_cnf.Formula.t -> t

(** The reduced formula.  Same [num_vars] as the input; meaningless when
    {!is_unsat} holds. *)
val formula : t -> Fl_cnf.Formula.t

(** [true] when preprocessing derived the empty clause: the input formula
    is unsatisfiable. *)
val is_unsat : t -> bool

val stats : t -> stats

(** [reconstruct t model] extends [model] — indexed by variable with slot 0
    unused, the {!Cdcl.model} convention, satisfying {!formula}[ t] (and
    possibly further clauses over frozen or fresh variables) — to a model
    of the {e original} formula by assigning each eliminated variable so
    that every clause removed at its elimination is satisfied.  Returns a
    fresh array; values of non-eliminated (in particular frozen) variables
    are unchanged. *)
val reconstruct : t -> bool array -> bool array

val pp_stats : Format.formatter -> stats -> unit
