(** Stuck-at fault simulation.

    The classic manufacturing-test model: a fault fixes one gate output (or
    primary input) at 0 or 1; a test vector {e detects} it when some primary
    output differs from the fault-free response.  Fault simulation runs on
    {!View}'s compiled word evaluator: the test set is packed
    {!View.lanes} vectors per batch, the good machine is simulated once per
    batch, and each fault costs at most one faulty-machine pass per batch.

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

(** A test set packed into {!View.lanes}-wide batches, with the fault-free
    response of every batch simulated once. *)
type test_set

(** [test_set c ~keys vectors] packs [vectors] and simulates the good
    machine under the scalar [keys] (applied to the faulty machines too). *)
val test_set : Circuit.t -> keys:bool array -> bool array list -> test_set

(** [detects t fault] — whether some vector of [t] detects [fault]: one
    faulty-machine pass per batch, compared with the stored good response.
    Cyclic circuits use fixpoint evaluation; lanes that settle differently
    (or settle only in the good machine) count as detections. *)
val detects : test_set -> fault -> bool

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
