(** Interpretive reference simulation and scalar vector helpers.

    Circuits are evaluated through {!View}, the one compiled and cached
    evaluator.  This module keeps the original interpretive walk as the
    uncached reference that the equivalence tests and the throughput
    benchmark compare {!View} against: acyclic circuits are evaluated in a
    fresh topological order every call, cyclic circuits (produced by cyclic
    PLR insertion) by three-valued (0/1/X) fixpoint iteration, so with a
    key that functionally opens every cycle all outputs resolve to 0/1. *)

(** [eval_reference c ~inputs ~keys] is the output vector (in [c.outputs]
    order).
    @raise Invalid_argument on input/key length mismatch.
    @raise View.Unresolved when a combinational cycle does not settle. *)
val eval_reference :
  Circuit.t -> inputs:bool array -> keys:bool array -> bool array

(** [eval_tristate_reference c ~inputs ~keys] never raises on unsettled
    cycles; the returned vector may contain [VX]. *)
val eval_tristate_reference :
  Circuit.t -> inputs:bool array -> keys:bool array -> View.tristate array

(** {1 Vector helpers} *)

(** [vector_of_int ~width v] is the LSB-first bit vector of [v]. *)
val vector_of_int : width:int -> int -> bool array

val int_of_vector : bool array -> int

(** [random_vector rng width] draws a uniform bit vector. *)
val random_vector : Random.State.t -> int -> bool array
