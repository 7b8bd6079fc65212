(** CNF formulas in DIMACS literal convention.

    A literal is a non-zero integer: variable [v >= 1] appears positively as
    [v] and negatively as [-v].  The formula tracks the variable count and
    accumulates clauses; it is the exchange format between the Tseytin
    encoder, the SAT solvers and the attack framework. *)

type lit = int

type t

val create : unit -> t

(** [fresh_var f] allocates a new variable (numbered from 1). *)
val fresh_var : t -> int

(** [fresh_vars f n] allocates [n] consecutive variables. *)
val fresh_vars : t -> int -> int array

(** [reserve f n] ensures variables [1..n] are allocated. *)
val reserve : t -> int -> unit

(** [add_clause f lits] appends a clause.
    @raise Invalid_argument on an empty clause, a zero literal, or a literal
    whose variable was never allocated. *)
val add_clause : t -> lit list -> unit

val add_clause_a : t -> lit array -> unit

val num_vars : t -> int
val num_clauses : t -> int

(** Total number of literal occurrences. *)
val num_literals : t -> int

(** Clauses in insertion order.  The returned arrays are owned by the
    formula; callers must not mutate them. *)
val clauses : t -> lit array array

val iter_clauses : t -> (lit array -> unit) -> unit

(** Clauses-to-variables ratio — the paper's SAT-hardness metric (§3). *)
val ratio : t -> float

val copy : t -> t

(** {1 DIMACS} *)

val to_dimacs : t -> string

exception Dimacs_error of string

(** Parses a DIMACS [cnf] problem.  Exactly one [p cnf V C] header, with
    non-negative [V] and [C], must precede the first clause, and every
    literal must lie in [[-V, V]]; the clause count [C] is not checked.
    The formula's variable count is the largest variable that occurs.
    @raise Dimacs_error on a missing, repeated or malformed header, a
    literal outside the declared range, a non-numeric token, an empty
    clause or a clause without its terminating [0]. *)
val of_dimacs : string -> t

val pp_stats : Format.formatter -> t -> unit
