(** CycSAT (Zhou, Shamsi et al., ICCAD'17) — the cycle-aware SAT attack the
    paper uses for Table 4.

    Preprocessing computes, for every feedback edge, a "no structural cycle"
    (NC) condition over the key variables: somewhere along each potential
    cycle a key-selected MUX must deselect the cycle edge.  The conditions
    are conjoined onto both miter key copies and onto the key-recovery
    formula, after which the ordinary DIP loop runs.  This is CycSAT-I: NC
    may over-constrain (it rejects keys with structural-but-functionally-open
    cycles), which is the attack's documented incompleteness. *)

(** [no_cycle_condition c] analyses the locked circuit and returns an
    emitter that asserts the NC conditions over a key-variable vector
    (ordered like [c.keys]) inside a formula.  Circuits whose cycles cannot
    be blocked by any key make the formula unsatisfiable. *)
val no_cycle_condition :
  Fl_netlist.Circuit.t -> Fl_cnf.Formula.t -> int array -> unit

(** Number of feedback edges the preprocessing breaks (0 for acyclic
    circuits — then {!run} degenerates to the plain SAT attack). *)
val num_feedback_edges : Fl_netlist.Circuit.t -> int

(** [run ?base ?timeout ?max_conflicts ?progress ?preprocess locked] —
    CycSAT attack; parameters as in {!Sat_attack.run}.  [base] must have
    been prepared with {!no_cycle_condition} as its extra key constraint;
    when given, the cycle analysis is not recomputed (the base carries the
    emitter) and [preprocess] is superseded by the base's setting. *)
val run :
  ?base:Session.Base.t ->
  ?timeout:float ->
  ?max_conflicts:int ->
  ?progress:Sat_attack.progress ->
  ?preprocess:bool ->
  Fl_locking.Locked.t ->
  Sat_attack.result
