(** SAT-based combinational equivalence checking.

    Builds the miter of two acyclic netlists (shared primary inputs, outputs
    pairwise XORed into a disjunction) and decides it with {!Cdcl}:
    UNSAT proves equivalence, SAT yields a distinguishing counterexample.
    Key inputs, when present, are pinned to caller-supplied values — this is
    how a recovered attack key is checked {e formally} rather than by
    sampling. *)

type verdict =
  | Equivalent
  | Different of { inputs : bool array; outputs_a : bool array; outputs_b : bool array }
      (** concrete counterexample *)
  | Unknown  (** solver budget exhausted *)

(** [check ?budget ?keys_a ?keys_b a b] compares circuit [a] under key
    [keys_a] with circuit [b] under [keys_b] ([ [||] ] by default).
    @raise Invalid_argument when input/output counts differ, a circuit is
    cyclic, or a key length mismatches. *)
val check :
  ?budget:Cdcl.budget ->
  ?keys_a:bool array ->
  ?keys_b:bool array ->
  Fl_netlist.Circuit.t ->
  Fl_netlist.Circuit.t ->
  verdict

(** [check_key ?budget ~locked ~oracle key] — formal version of
    {!Fl_locking.Locked.key_matches}: proves the key correct instead of
    sampling vectors (acyclic locked netlists only). *)
val check_key :
  ?budget:Cdcl.budget ->
  locked:Fl_netlist.Circuit.t ->
  oracle:Fl_netlist.Circuit.t ->
  bool array ->
  verdict

