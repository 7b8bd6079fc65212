(** Stuck-at fault simulation.

    The classic manufacturing-test model: a fault fixes one gate output (or
    primary input) at 0 or 1; a test vector {e detects} it when some primary
    output differs from the fault-free response.  Fault simulation is
    word-parallel (63 vectors per pass, on {!View}'s compiled evaluator),
    serial in faults.

    Logic locking interacts with testability in both directions: an
    unactivated (wrongly keyed) circuit cannot be meaningfully tested, and
    the lock's own gates must be covered by production tests — this module
    quantifies both (see the [testability] example and the locking tests). *)

type fault = {
  node : int;  (** faulty node id (gate output or primary input wire) *)
  stuck_at : bool;
}

(** All collapsed single stuck-at faults: two per primary input and per gate
    output (constants and key inputs excluded — key inputs are pinned by
    activation, not testable logic). *)
val enumerate : Circuit.t -> fault list

(** [detects c ~keys ~inputs fault] — whether any of the packed test vectors
    detects [fault] (the key word vector is applied to both good and faulty
    machine).  Cyclic circuits use fixpoint evaluation; lanes that settle
    differently (or only one machine settles) count as detections. *)
val detects : Circuit.t -> keys:int array -> inputs:int array -> fault -> bool

type coverage = {
  total : int;
  detected : int;
  undetected : fault list;
}

(** [coverage c ~keys ~vectors] — fault coverage of a test set (scalar
    vectors, internally packed).  [keys] are scalar key values applied
    throughout (use the correct key for an activated part). *)
val coverage : Circuit.t -> keys:bool array -> vectors:bool array list -> coverage

(** [random_coverage c ~keys ~count ~seed] — coverage of [count] random
    vectors. *)
val random_coverage :
  Circuit.t -> keys:bool array -> count:int -> seed:int -> coverage

val coverage_fraction : coverage -> float
val pp_coverage : Format.formatter -> coverage -> unit
