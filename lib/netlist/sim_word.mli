(** Bit-parallel (word-level) simulation: one native-int word per wire
    simulates {!lanes} independent input vectors at once.

    Semantics match {!Sim}'s three-valued evaluation lane-for-lane: each
    wire carries a (defined, value) word pair, combinational cycles settle
    by fixpoint, and a MUX with a defined select ignores its undefined
    branch.  Used by corruption measurements and random-vector equivalence
    checks, which become ~60x cheaper than scalar simulation. *)

(** Number of parallel lanes (= [Sys.int_size], 63 on 64-bit systems). *)
val lanes : int

type word = View.word = { defined : int; value : int }
(** Per-wire lane bundle; bit [i] of [value] is meaningful only when bit [i]
    of [defined] is set (re-export of {!View.word}). *)

(** [eval_tristate c ~inputs ~keys] — packed counterpart of
    {!Sim.eval_tristate}; input/key words are treated as fully defined.
    @raise Invalid_argument on width mismatch. *)
val eval_tristate : Circuit.t -> inputs:int array -> keys:int array -> word array

(** [eval c ~inputs ~keys] — packed outputs.
    @raise Sim.Unresolved when any lane of any output is undefined. *)
val eval : Circuit.t -> inputs:int array -> keys:int array -> int array

(** [pack vectors] turns up to {!lanes} scalar vectors (all of equal width)
    into packed input words; lane [i] is vector [i]. *)
val pack : bool array list -> int array

(** [unpack ~lanes_used word_outputs] — scalar vectors back, lane-major. *)
val unpack : lanes_used:int -> int array -> bool array list

(** [random_words rng ~width] draws uniformly random packed inputs. *)
val random_words : Random.State.t -> width:int -> int array

(** [count_diff_lanes a b] — number of lanes where the packed output words
    differ (both assumed fully defined). *)
val count_diff_lanes : int array -> int array -> int
