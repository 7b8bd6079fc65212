(** Packed literals and byte-coded truth values for the solver core.

    A literal is [2*var + sign] in one unboxed int (0-based variables,
    sign 1 = negated); negation is one xor and the literal doubles as its
    own watch-list index.  Truth values are byte-coded as
    0 = false, 1 = true, 2 = undef so that a literal evaluates with a
    single byte load and xor ({!value}). *)

(** Transparent alias: literals index watch lists and live in the int
    arena directly, so the packing is part of the contract. *)
type t = int

val of_dimacs : int -> t
val to_dimacs : t -> int

module Lbool : sig
  type t = int

  val undef : t

  (** Values [>= undef] are undefined ({!value} can yield 2 or 3). *)
  val is_undef : t -> bool
end

(** [value_var assigns v] is the stored {!Lbool.t} of variable [v]. *)
val value_var : Bytes.t -> int -> Lbool.t

(** [value assigns l] is the value of literal [l]: 0 false, 1 true,
    [>= 2] undef.  The assignment bytes must be initialised to ['\002']
    (undef). *)
val value : Bytes.t -> t -> Lbool.t

(** [assign assigns l] makes [l] true. *)
val assign : Bytes.t -> t -> unit

(** [unassign assigns v] resets variable [v] to undef. *)
val unassign : Bytes.t -> int -> unit
