(** Flat clause arena.

    All clauses live in one growable int array; a clause is addressed by
    an abstract word offset ({!Cref.t}).  Each clause is a header word
    (size, learnt flag, dead bit), an activity slot and its literals
    inline, so propagation walks a contiguous cache stream instead of
    dereferencing a heap object per clause.  Deletion is lazy (a header
    bit); {!compact} slides live clauses down and hands back a cref
    remap.  See DESIGN.md §4e for the layout and lifetime rules. *)

module Cref : sig
  (** A clause reference: the clause's word offset in the arena.  Crefs
      are stable under {!alloc} and {!kill} but invalidated by
      {!compact} (use the returned remap). *)
  type t = int

  (** Sentinel for "no clause" (reason slots, remap of a dead cref). *)
  val none : t
end

type t

val create : unit -> t

(** [alloc a ~learnt lits] appends a clause of packed literals and
    returns its cref.  @raise Invalid_argument on fewer than 2 literals
    (units belong on the trail, not in the arena). *)
val alloc : t -> learnt:bool -> int array -> Cref.t

val size : t -> Cref.t -> int
val learnt : t -> Cref.t -> bool

(** [lit a c i] is the [i]-th literal (packed, {!Lit.t} encoding). *)
val lit : t -> Cref.t -> int -> int

val set_lit : t -> Cref.t -> int -> int -> unit
val swap_lits : t -> Cref.t -> int -> int -> unit

(** Learnt-clause activity, stored inline (1 ulp precision loss). *)
val activity : t -> Cref.t -> float

val set_activity : t -> Cref.t -> float -> unit

(** [kill a c] marks [c] dead; the words are reclaimed at the next
    {!compact}.  Killing twice is a no-op. *)
val kill : t -> Cref.t -> unit

val num_clauses : t -> int
val num_learnts : t -> int

(** Words held by dead clauses. *)
val wasted : t -> int

(** [iter a f] calls [f] on every live cref in address order. *)
val iter : t -> (Cref.t -> unit) -> unit

val iter_learnts : t -> (Cref.t -> unit) -> unit

(** The literals of a clause, as a fresh array. *)
val lits : t -> Cref.t -> int array

(** [compact a] drops dead clauses and returns the remap old cref ->
    new cref ([Cref.none] for dead ones).  Every cref held outside the
    arena must be remapped; the remap is valid until the next
    [compact]. *)
val compact : t -> Cref.t -> Cref.t
