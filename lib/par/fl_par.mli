(** Domain-based parallel work queue for attack sweeps.

    A pool is a fixed set of worker domains pulling tasks from a shared
    queue.  One batch at a time is submitted through {!run} (or the
    {!map_list} convenience); results land by {e task index},
    so the output order is deterministic regardless of completion order,
    and a [jobs = 1] pool executes every task inline on the calling
    domain in index order — bit-for-bit the sequential behaviour.

    Per-task semantics:

    - {e soft timeout}: a task that finishes after its deadline is marked
      {!constructor:Late} (the value is kept — domains cannot be killed, so
      the timeout is advisory; long-running tasks such as SAT attacks
      enforce their own hard budgets internally).
    - {e bounded retry}: a task that raises is re-run up to [retries]
      times before it is declared {!constructor:Failed}.
    - {e cancellation}: the first fatal (retries-exhausted) failure cancels
      every task of the batch that has not started yet; those report
      {!constructor:Cancelled}.

    Observability: the pool emits [par.task.start] / [par.task.done] /
    [par.task.timeout] (plus [par.task.error], [par.task.cancelled] and
    [par.batch.done]) through {!Fl_obs}, each tagged with the pool name,
    task index and domain id, and keeps [par.*] counters.  {!Fl_obs}
    counters are striped per domain, so worker-side increments always
    merge into the global snapshot.

    Tasks must be self-contained: build circuits and views {e inside} the
    task (views are domain-local) and do not touch shared mutable state.
    Submitting a batch to a pool from inside one of its own tasks would
    deadlock; {!run} raises [Invalid_argument] instead (the queue is not
    re-entrant). *)

type t
(** A pool of worker domains.  Values of this type are not themselves
    domain-safe: submit batches from one domain at a time. *)

(** Outcome of one task, in task-index order. *)
type 'a outcome =
  | Done of 'a  (** completed within its (optional) soft deadline *)
  | Late of 'a * float
      (** completed, but after [timeout] seconds; carries elapsed time *)
  | Failed of string * int
      (** raised on every attempt; exception text and attempts made *)
  | Cancelled  (** skipped: an earlier task of the batch failed fatally *)

(** Aggregate accounting of the most recent batch. *)
type batch_stats = {
  tasks : int;
  completed : int;  (** [Done] + [Late] *)
  late : int;
  failed : int;
  cancelled : int;
  retries : int;  (** re-runs performed across the batch *)
  task_seconds : float;  (** summed per-task wall time *)
  wall_seconds : float;  (** batch wall time; speedup = task/wall *)
}

(** [create ~jobs ()] builds a pool of width [jobs]: [jobs >= 2] spawns
    [jobs] worker domains, [jobs = 1] spawns none and runs every batch
    inline on the submitting domain (sequential semantics, no domain
    overhead).  [name] tags the pool's events and defaults to ["pool"].
    @raise Invalid_argument when [jobs < 1]. *)
val create : ?name:string -> jobs:int -> unit -> t

val jobs : t -> int

(** [run p ?timeout ?retries tasks] executes every task and returns their
    outcomes by index.  [timeout] is the per-task soft deadline in
    seconds; [retries] (default 0) bounds re-runs after an exception.
    Blocks until the whole batch settles.
    @raise Invalid_argument from inside a task of the same pool. *)
val run :
  t -> ?timeout:float -> ?retries:int -> (unit -> 'a) array -> 'a outcome array

(** [map_list p f xs] is [run p] over one task [fun () -> f x] per [x],
    with no timeout and no retries. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b outcome list

(** Accounting of the most recent finished batch (zeros before any). *)
val last_stats : t -> batch_stats

(** [value o] is the task's value, late or not. *)
val value : 'a outcome -> 'a option

(** [get o] is the task's value.
    @raise Failure on [Failed] / [Cancelled]. *)
val get : 'a outcome -> 'a

(** [shutdown p] joins the worker domains.  Idempotent; the pool accepts
    no further batches. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] is [f pool] with {!shutdown} guaranteed. *)
val with_pool : ?name:string -> jobs:int -> (t -> 'a) -> 'a
