(** Tseytin transformation of circuits into CNF (Table 1 of the paper).

    Each circuit node gets a CNF variable; each gate contributes the clause
    set of Table 1 (n-ary gates and LUTs use their standard generalisation;
    n-ary XOR/XNOR introduce fresh chain variables). *)

(** Result of encoding one circuit copy. *)
type encoding = {
  node_var : int array;  (** node id -> CNF variable *)
  input_vars : int array;  (** PI order *)
  key_vars : int array;  (** key order *)
  output_vars : int array;  (** output order *)
}

(** [encode_gate f kind ~out ~fanins] appends the clauses forcing variable
    [out] to equal [kind(fanins)].
    @raise Invalid_argument for [Input]/[Key_input] or a fanin-count
    mismatch. *)
val encode_gate : Formula.t -> Fl_netlist.Gate.t -> out:int -> fanins:int array -> unit

(** [encode f c] encodes circuit [c] into [f] with fresh variables.

    [share_inputs]/[share_keys] pre-assign the variables of primary/key
    inputs — this is how the SAT-attack miter instantiates two copies with
    common inputs and distinct keys.
    @raise Invalid_argument on a length mismatch. *)
val encode :
  ?share_inputs:int array -> ?share_keys:int array -> Formula.t -> Fl_netlist.Circuit.t -> encoding

(** [xor_out f a b] allocates and returns [x = a XOR b]. *)
val xor_out : Formula.t -> int -> int -> int

(** [assert_any_differs f pairs] adds clauses forcing at least one pair to
    differ — the miter output constraint.  Returns the fresh difference
    variables (one per pair). *)
val assert_any_differs : Formula.t -> (int * int) list -> int array

(** [assert_lit f lit] adds the unit clause \[lit\]. *)
val assert_lit : Formula.t -> Formula.lit -> unit

(** [assert_vector f vars bits] pins each variable to the corresponding bit. *)
val assert_vector : Formula.t -> int array -> bool array -> unit
