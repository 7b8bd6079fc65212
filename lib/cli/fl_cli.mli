(** Shared command-line plumbing for the executables and the bench
    harness: flag scanning, the --trace/--stats wiring, and the bench
    baseline regression gate.

    Input-validating helpers follow CLI convention — they print a
    diagnostic to stderr and [exit 2] on bad user input. *)

(** [take_opt flag args] strips every [flag VALUE] pair out of [args] and
    returns the last VALUE seen.  Exits 2 when [flag] is last with no
    value. *)
val take_opt : string -> string list -> string option * string list

(** [take_flag flag args] is whether [flag] occurs, and [args] without
    it. *)
val take_flag : string -> string list -> bool * string list

(** [slurp path] reads the whole file as raw bytes; ["-"] reads stdin to
    EOF.  Exits 2 when the file cannot be opened. *)
val slurp : string -> string

(** Pool width default: [recommended_domain_count () - 1], at least 1. *)
val default_jobs : unit -> int

(** [parse_jobs s] is [s] as a positive int; exits 2 otherwise. *)
val parse_jobs : string -> int

(** [install_trace file] truncates [file], installs a JSONL sink writing
    to it, and closes it at exit. *)
val install_trace : string -> unit

(** [print_stats ()] prints the full metric snapshot (counters and
    histogram summaries) to stderr. *)
val print_stats : unit -> unit

(** [stats_on_exit ()] registers {!print_stats} with [at_exit]. *)
val stats_on_exit : unit -> unit

(** Regression gate over two BENCH_<name>.json reports (see
    EXPERIMENTS.md).  Gating rules:
    - top-level strings must be equal;
    - a [true] boolean in the baseline must stay [true];
    - all-string sections (the per-cell attack statuses) must match
      member-wise — any flip, missing or extra cell fails;
    - watched numeric metrics must stay within the ratio tolerance
      ([current/baseline <= tolerance] for lower-is-better metrics,
      [>= 1/tolerance] for higher-is-better ones);
    - everything else (wall time, speedup, counters, histograms,
      per-cell numeric sections) is informational. *)
module Baseline : sig
  (** [gate ?tolerance ?watch_lower ?watch_higher ~baseline ~current ()]
      loads both report files, prints a ratio table and a per-section
      status summary to stdout, and returns the list of gate failures (if
      any).  [tolerance] defaults to 1.25; [watch_lower] defaults to
      [["solve_ratio_geomean"]], [watch_higher] to
      [["max_clause_reduction_pct"]].  Like {!slurp}, exits 2 when
      either file cannot be read.
      @raise Failure when either file is not a JSON object. *)
  val gate :
    ?tolerance:float ->
    ?watch_lower:string list ->
    ?watch_higher:string list ->
    baseline:string ->
    current:string ->
    unit ->
    (unit, string list) result
end
