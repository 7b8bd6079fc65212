(** Shared per-circuit analysis view with a compiled evaluator.

    A view is a lazily-computed, cached bundle of everything the layers
    above repeatedly ask of one circuit: topological order, acyclicity,
    logic levels, fanout lists, cone of influence, strongly connected
    components — plus a {e compiled evaluator}: a flat instruction array
    built once per circuit that evaluates three-valued scalar and 64-wide
    bitsliced word values with zero per-node allocation on the hot path.

    {!of_circuit} memoizes views per {!Circuit.t} {e physical identity}
    (circuits are immutable, so a view never goes stale); the table is
    ephemeron-keyed, so views die with their circuits, and {e domain-local}:
    each domain builds and caches its own view of a circuit, because the
    scratch arrays below are single-threaded state.  [Fl_par] sweep tasks
    therefore get an isolated view per worker domain for free.  [Sim] and
    [Sim_word] are thin wrappers over this module and share one backend.

    Views are not re-entrant: the scratch value arrays are reused by every
    evaluation, so do not evaluate the same view from within an evaluation
    of it (nothing in this codebase does), and never ship a view value
    across domains — re-call {!of_circuit} on the receiving domain. *)

type t

(** Three-valued logic value (the canonical definition; [Sim.tristate] is a
    re-export). *)
type tristate = V0 | V1 | VX

exception Unresolved of string
(** Raised by the strict evaluators when a combinational cycle leaves an
    output at X.  [Sim.Unresolved] is a re-export of this exception. *)

type word = { defined : int; value : int }
(** Per-wire lane bundle of the bitsliced evaluator; bit [i] of [value] is
    meaningful only when bit [i] of [defined] is set.  [Sim_word.word] is a
    re-export. *)

(** Number of parallel lanes of the word evaluator (= [Sys.int_size]). *)
val lanes : int

(** [of_circuit c] is the cached view of [c], building (and memoizing) it on
    first use. *)
val of_circuit : Circuit.t -> t

val circuit : t -> Circuit.t

(** {1 Cached structural analyses} *)

(** Cached {!Circuit.topological_order}.  Do not mutate the returned
    array — it is shared by every consumer of the view. *)
val topo_order : t -> int array option

val is_acyclic : t -> bool

(** Logic level of every node (longest distance from any source), or [None]
    when cyclic.  Shared array — do not mutate. *)
val levels : t -> int array option

(** Levelised logic depth, as {!Circuit.depth}. *)
val depth : t -> int option

(** Cached {!Circuit.fanouts}.  Shared — do not mutate. *)
val fanouts : t -> int array array

(** Cached {!Circuit.strongly_connected_components}.  Shared — do not
    mutate. *)
val scc : t -> int array

(** [cone_of_influence v id] is the transitive fanin mask of [id] (see
    {!Circuit.transitive_fanin}), cached per node id on first request.
    Shared array — do not mutate.  Hit/miss rates are reported on the
    [view.memo.coi.*] {!Fl_obs} counters, as are the other memoized
    analyses ([view.memo.fanouts.*], [view.memo.levels.*],
    [view.memo.scc.*]) and the evaluator ([view.builds],
    [view.cache.hit], [view.evals], [view.fixpoint_sweeps]). *)
val cone_of_influence : t -> int -> bool array

(** {1 Structural hash}

    A canonical 64-bit digest of the circuit {e structure}: invariant
    under node renaming and node-id permutation (names never enter the
    hash; every node digest depends only on its gate kind — plus
    primary-input / key-bit position for interface nodes, constant value
    and LUT truth table — and its fanins' digests in fanin order), but
    sensitive to the interface shape, output port order and any gate or
    wiring change.  Two structurally isomorphic circuits whose input,
    key and output orders match hash identically; this is the cache key
    of the [Fl_serve] content-addressed miter cache.

    Acyclic circuits are digested exactly in one topological pass.
    Cyclic circuits use bounded Weisfeiler–Leman refinement (96
    simultaneous sweeps), still order-invariant, with the usual WL
    caveat that structures differing only beyond that radius may
    collide.  As with any 64-bit content hash, collisions of genuinely
    different circuits are possible in principle — equality of hashes is
    strong evidence, not proof, of isomorphism (the serve cache probes
    candidate hits with random simulation vectors before trusting
    them).  Memoized per view; hit/miss on [view.memo.shash.*]. *)

val structural_hash : t -> int64

(** [structural_hash_hex v] is the digest as 16 lowercase hex digits. *)
val structural_hash_hex : t -> string

(** {1 Compiled evaluation}

    Acyclic circuits run the instruction array once in topological order;
    cyclic circuits run monotone fixpoint sweeps where lanes move from
    undefined to defined (so a key that functionally opens every cycle
    resolves all outputs). *)

(** [eval v ~inputs ~keys] — output vector in [outputs] order.
    @raise Invalid_argument on input/key width mismatch.
    @raise Unresolved when a combinational cycle does not settle. *)
val eval : t -> inputs:bool array -> keys:bool array -> bool array

(** [eval_tristate v ~inputs ~keys] never raises on unsettled cycles. *)
val eval_tristate : t -> inputs:bool array -> keys:bool array -> tristate array

(** [eval_node_values v ~inputs ~keys] — settled value of every node,
    id-indexed (freshly allocated). *)
val eval_node_values :
  t -> inputs:bool array -> keys:bool array -> tristate array

(** [eval_words v ~inputs ~keys] — bitsliced evaluation of {!lanes} input
    vectors at once; input/key words are treated as fully defined. *)
val eval_words : t -> inputs:int array -> keys:int array -> word array

(** [eval_words_stuck v ~inputs ~keys ~node ~value] is {!eval_words} with
    node [node] held at [value] on every lane — the faulty machine of a
    stuck-at fault at [node] (a gate output or an input wire). *)
val eval_words_stuck :
  t -> inputs:int array -> keys:int array -> node:int -> value:bool -> word array

(** [eval_packed v ~inputs ~keys] — packed outputs.
    @raise Unresolved when any lane of any output is undefined. *)
val eval_packed : t -> inputs:int array -> keys:int array -> int array

(** [broadcast bits] packs a scalar vector into fully-replicated words
    (every lane carries the same bit), for mixing scalar keys with packed
    inputs. *)
val broadcast : bool array -> int array

(** {1 Key-correctness probing}

    The shared "do two circuits agree" helper used by key verification
    ([Locked.key_matches]) and attack post-checks ([Removal]): exhaustive
    when the input space is small, word-batched random probes otherwise. *)

(** [agree_on_probes a ~keys_a b ~keys_b] is whether [a] under [keys_a] and
    [b] under [keys_b] produce identical outputs — on all [2^n] input
    vectors when [n <= exhaustive_limit] (default 10), else on [vectors]
    (default 256) random vectors drawn from [seed] (default 7).  Probes are
    batched {!lanes} per word-sim pass; an output that fails to settle
    counts as disagreement.
    @raise Invalid_argument when the two circuits' input counts differ. *)
val agree_on_probes :
  ?exhaustive_limit:int ->
  ?vectors:int ->
  ?seed:int ->
  t ->
  keys_a:bool array ->
  t ->
  keys_b:bool array ->
  bool
