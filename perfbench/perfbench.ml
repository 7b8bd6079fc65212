(* The attack-pipeline benchmark.

   One run measures one workload: a fixed list of attack shapes, played in
   rounds (a sequential loop, or one Fl_par batch) until the run length is
   spent, each round locking fresh instances from the seed.  Every attack
   is driven through the library's public calls in the order
   Sat_attack.run makes them:

     lock -> Cycsat.no_cycle_condition -> Session.Base.prepare
          -> Session.create -> (find_dip; observe)* -> candidate_key
          -> Equiv.check_key | Locked.key_matches

   Attacks are timed by the CPU clock of the domain that runs them.
   Untraced runs report the end-to-end metrics.
   Traced runs play every round twice: the traced play records one span
   per public call and gives the per-layer metrics, the untraced one the
   tracing overhead.  README.md lists the
   workloads and which layer metric should move which end-to-end metric. *)

module Bench_suite = Fl_netlist.Bench_suite
module View = Fl_netlist.View
module Fulllock = Fl_core.Fulllock
module Sarlock = Fl_locking.Sarlock
module Locked = Fl_locking.Locked
module Cycsat = Fl_attacks.Cycsat
module Session = Fl_attacks.Session
module Cdcl = Fl_sat.Cdcl
module Equiv = Fl_sat.Equiv
module Preprocess = Fl_sat.Preprocess

(* CPU seconds of the calling domain's thread.  The run length, the
   deadline backstop and the Fl_par queue are on the wall clock. *)
external cpu : unit -> (float[@unboxed]) = "perfbench_thread_cpu_byte" "perfbench_thread_cpu"
[@@noalloc]

let wall = Unix.gettimeofday

(* Backstop only: every workload is bounded by its conflict budget, so the
   work done never depends on machine load. *)
let deadline_s = 600.0

(* {1 Workloads} *)

type scheme =
  | Full_lock of int list  (** CLN width of each PLR, cyclic insertion *)
  | Sar_lock of int  (** key bits *)

type spec = { host : string; scale : int; scheme : scheme }

type workload = {
  name : string;
  specs : spec list;
  max_conflicts : int;
  parallel : bool;  (** one Fl_par batch per round, else a sequential loop *)
}

let full host plrs = { host; scale = 4; scheme = Full_lock plrs }

let workloads =
  [
    {
      name = "fulllock-budget";
      specs =
        List.concat_map
          (fun host -> [ full host [ 4; 4 ]; full host [ 8 ] ])
          [ "c432"; "c499"; "c880" ];
      max_conflicts = 2_000;
      parallel = false;
    };
    {
      name = "sarlock-dips";
      specs =
        List.map
          (fun host -> { host; scale = 2; scheme = Sar_lock 7 })
          [ "c432"; "c880"; "c1355" ];
      max_conflicts = 1_000_000;
      parallel = false;
    };
    {
      name = "table4-sweep";
      specs =
        (* Heaviest PLR shape first, so the batch tail is short. *)
        List.concat_map
          (fun plrs -> List.map (fun host -> full host plrs) [ "c432"; "c499"; "c880"; "c1355"; "i4" ])
          [ [ 4; 4 ]; [ 8 ]; [ 4 ] ];
      max_conflicts = 1_500;
      parallel = true;
    };
  ]

let spec_label s =
  match s.scheme with
  | Full_lock plrs ->
    Printf.sprintf "%s/%d fulllock %s" s.host s.scale
      (String.concat "+" (List.map (fun n -> Printf.sprintf "%dx%d" n n) plrs))
  | Sar_lock k -> Printf.sprintf "%s/%d sarlock k=%d" s.host s.scale k

(* Round [round] of a run locks attack [index] with its own generator, so
   every round measures fresh instances and a run averages over many. *)
let lock ~seed ~round index spec host =
  let rng = Random.State.make [| seed; round; index |] in
  match spec.scheme with
  | Full_lock plrs ->
    let configs = List.map (fun n -> Fulllock.default_config ~n) plrs in
    Fulllock.lock rng ~policy:`Cyclic ~configs host
  | Sar_lock key_bits -> Sarlock.lock rng ~key_bits host

(* {1 One attack} *)

(* Span and attack times are [cpu] readings. *)
type span = {
  name : string;
  start : float;
  stop : float;
  screened : bool;  (** a find_dip call whose miter-solver stats did not move *)
}

type status =
  | Broken  (** key recovered and passed the check *)
  | Wrong_key
  | Budget  (** conflict budget spent *)
  | No_key
  | Raised of string

type attack = {
  index : int;
  status : status;
  cyclic : bool;
  t_start : float;
  t_search : float;  (** just before the first find_dip *)
  t_end : float;
  w_start : float;  (** wall clock at the start, for the queue wait *)
  dips : int;
  screened : int;
  stats : Cdcl.stats;  (** Session.solver_stats at the verdict *)
  find_delta : Cdcl.stats;  (** miter-solver deltas summed over find_dip *)
  pre : Preprocess.stats option;
  ratio : float;
  minor_words : float;
  major_words : float;
  domain : int;
  spans : span list;  (** traced attacks only: the attack, then its calls in order *)
}

let failed a =
  match a.status with
  | Broken | Budget -> false
  | No_key -> not a.cyclic
  | Wrong_key | Raised _ -> true

let status_name = function
  | Broken -> "broken"
  | Wrong_key -> "wrong-key"
  | Budget -> "budget"
  | No_key -> "no-key"
  | Raised _ -> "raised"

let moved (d : Cdcl.stats) = d.decisions + d.propagations + d.conflicts > 0

(* Peak major heap of the current round, sampled by every domain after
   each public call.  The heap is compacted before a round, so the peak is
   that round's own. *)
let heap_peak = Atomic.make 0

let note_heap () =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  let rec raise_to () =
    let p = Atomic.get heap_peak in
    if h > p && not (Atomic.compare_and_set heap_peak p h) then raise_to ()
  in
  raise_to ()

let run_attack ~traced ~max_conflicts ~seed ~round index spec host =
  let spans = ref [] in
  let timed name f =
    let start = cpu () in
    let v = f () in
    if traced then spans := { name; start; stop = cpu (); screened = false } :: !spans;
    note_heap ();
    v
  in
  let domain = (Domain.self () :> int) in
  let g0 = Gc.quick_stat () in
  let w_start = wall () in
  let t_start = cpu () in
  let t_search = ref t_start in
  let dips = ref 0 and screened = ref 0 and find_delta = ref Cdcl.zero_stats in
  let session = ref None and pre = ref None and cyclic = ref true in
  let is_cyclic locked = not (View.is_acyclic (View.of_circuit locked.Locked.locked)) in
  let status =
    match
      let locked = timed "lock" (fun () -> lock ~seed ~round index spec host) in
      let emitter =
        timed "cycsat.nc" (fun () -> Cycsat.no_cycle_condition locked.Locked.locked)
      in
      let base =
        timed "prepare" (fun () ->
            Session.Base.prepare ~extra_key_constraint:emitter locked.Locked.locked)
      in
      pre := Session.Base.preprocess_stats base;
      let label = match spec.scheme with Full_lock _ -> "cycsat" | Sar_lock _ -> "sat" in
      let s =
        timed "session.create" (fun () ->
            Session.create ~base ~label ~max_conflicts ~deadline:(wall () +. deadline_s)
              locked)
      in
      session := Some s;
      t_search := cpu ();
      let find_dip () =
        if not traced then begin
          let r = Session.find_dip s in
          note_heap ();
          r
        end
        else begin
          let before = Session.solver_stats s in
          let start = cpu () in
          let r = Session.find_dip s in
          let stop = cpu () in
          let delta = Cdcl.sub_stats (Session.solver_stats s) before in
          let is_screened = (match r with `Dip _ -> true | _ -> false) && not (moved delta) in
          if is_screened then incr screened;
          find_delta := Cdcl.add_stats !find_delta delta;
          spans := { name = "find_dip"; start; stop; screened = is_screened } :: !spans;
          note_heap ();
          r
        end
      in
      let rec loop () =
        match find_dip () with
        | `Dip dip ->
          incr dips;
          timed "observe" (fun () -> Session.observe s dip);
          loop ()
        | `Timeout -> Budget
        | `Exhausted -> (
          match timed "key_solve" (fun () -> Session.candidate_key s) with
          | `Timeout -> Budget
          | `None ->
            cyclic := is_cyclic locked;
            No_key
          | `Key key ->
            let ok =
              timed "key_check" (fun () ->
                  if is_cyclic locked then Locked.key_matches locked ~key
                  else begin
                    cyclic := false;
                    Equiv.check_key
                      ~budget:(Cdcl.budget_conflicts (max 10_000 max_conflicts))
                      ~locked:locked.Locked.locked ~oracle:locked.Locked.oracle key
                    = Equiv.Equivalent
                  end)
            in
            if ok then Broken else Wrong_key)
      in
      loop ()
    with
    | st -> st
    | exception e -> Raised (Printexc.to_string e)
  in
  let t_end = cpu () in
  let g1 = Gc.quick_stat () in
  let stats, ratio =
    match !session with
    | Some s -> Session.solver_stats s, Session.clause_var_ratio s
    | None -> Cdcl.zero_stats, 0.0
  in
  {
    index;
    status;
    cyclic = !cyclic;
    t_start;
    t_search = !t_search;
    t_end;
    w_start;
    dips = !dips;
    screened = !screened;
    stats;
    find_delta = !find_delta;
    pre = !pre;
    ratio;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    domain;
    spans =
      (if traced then
         { name = "attack"; start = t_start; stop = t_end; screened = false } :: List.rev !spans
       else []);
  }

(* {1 Rounds} *)

(* Library counters read around each round; per attack they would mix
   concurrent attacks on the sweep. *)
let counter_names =
  [ "session.dip.screened"; "session.dip.solver"; "session.screen.passes";
    "view.evals"; "view.fixpoint_sweeps" ]

let read_counters () =
  let snap = Fl_obs.snapshot () in
  List.map
    (fun name ->
      match List.assoc_opt name snap with
      | Some (Fl_obs.Int n) -> name, n
      | _ -> name, 0)
    counter_names

type round = {
  number : int;
  traced : bool;
  jobs : int;
  submit : float;  (** wall clock *)
  busy : float;  (** CPU seconds of the busiest domain: the sum over attacks when sequential *)
  makespan : float;  (** wall seconds from submit to last verdict *)
  task_s : float;  (** Fl_par's task wall seconds; the summed attack CPU seconds when sequential *)
  attacks : attack list;  (** in index order *)
  counters : (string * int) list;  (** deltas over the round *)
  minor_gcs : int;
  major_gcs : int;
  heap_peak_words : int;
}

let raised index msg t =
  {
    index; status = Raised msg; cyclic = false; t_start = 0.0; t_search = 0.0; t_end = 0.0;
    w_start = t; dips = 0; screened = 0; stats = Cdcl.zero_stats; find_delta = Cdcl.zero_stats;
    pre = None; ratio = 0.0; minor_words = 0.0; major_words = 0.0; domain = -1; spans = [];
  }

let run_round (w : workload) ~seed ~traced ~pool hosts number =
  Atomic.set heap_peak 0;
  let c0 = read_counters () and g0 = Gc.quick_stat () in
  let task index spec () =
    run_attack ~traced ~max_conflicts:w.max_conflicts ~seed ~round:number index spec
      hosts.(index)
  in
  let submit = wall () in
  let attacks, task_s, jobs =
    match pool with
    | None ->
      let attacks = List.mapi (fun i spec -> task i spec ()) w.specs in
      attacks, List.fold_left (fun acc a -> acc +. (a.t_end -. a.t_start)) 0.0 attacks, 1
    | Some pool ->
      let outcomes = Fl_par.run pool (Array.of_list (List.mapi task w.specs)) in
      let attacks =
        Array.to_list
          (Array.mapi
             (fun i -> function
               | Fl_par.Done a | Fl_par.Late (a, _) -> a
               | Fl_par.Failed (msg, _) -> raised i msg submit
               | Fl_par.Cancelled -> raised i "cancelled" submit)
             outcomes)
      in
      attacks, (Fl_par.last_stats pool).Fl_par.task_seconds, Fl_par.jobs pool
  in
  let makespan = wall () -. submit in
  let busy =
    List.fold_left
      (fun acc d ->
        Float.max acc
          (List.fold_left
             (fun acc a -> if a.domain = d then acc +. (a.t_end -. a.t_start) else acc)
             0.0 attacks))
      0.0
      (List.sort_uniq compare (List.map (fun a -> a.domain) attacks))
  in
  let c1 = read_counters () and g1 = Gc.quick_stat () in
  {
    number; traced; jobs; submit; busy; makespan; task_s; attacks;
    counters = List.map2 (fun (n, a) (_, b) -> n, b - a) c0 c1;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    heap_peak_words = Atomic.get heap_peak;
  }

(* Everything about a round's work that must repeat exactly for one seed:
   per-attack statuses and solver counts, and the library counters. *)
let signature r =
  let attack a =
    let s = a.stats in
    Printf.sprintf "%d:%s:%d:%d:%d:%d:%d:%d:%d" a.index (status_name a.status) a.dips
      s.Cdcl.conflicts s.Cdcl.decisions s.Cdcl.propagations s.Cdcl.restarts
      s.Cdcl.learned_literals s.Cdcl.reductions
  in
  String.concat " "
    (List.map attack r.attacks
    @ List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) r.counters)

(* {1 Metrics} *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let conflicts r = isum (fun a -> a.stats.Cdcl.conflicts) r.attacks

let verdict_s a = a.t_end -. a.t_start
let per_round f rounds = median (List.map f rounds)

(* (name, unit, value over the untraced rounds of a run).  The time of one
   attack, and so a round's time and heap peak, varies several-fold
   between lock instances of one shape.  Means over all the run's rounds
   keep a run's figure steadier than medians of round figures do; set-up
   is still a median over rounds, the verdict time one over attacks. *)
let end_to_end rounds =
  let attacks = List.concat_map (fun r -> r.attacks) rounds in
  let mean f = sum f rounds /. fi (List.length rounds) in
  let busy = sum (fun r -> r.busy) rounds in
  let per_s f = ratio (sum f attacks) busy in
  [
    "round_cpu_s", "s", mean (fun r -> r.busy);
    "setup_s", "s", per_round (fun r -> sum (fun a -> a.t_search -. a.t_start) r.attacks) rounds;
    "verdict_p50_s", "s", median (List.map verdict_s attacks);
    "conflicts_per_s", "1/s", per_s (fun a -> fi a.stats.Cdcl.conflicts);
    "dips_per_s", "1/s", per_s (fun a -> fi a.dips);
    "peak_heap_mb", "MB", mean (fun r -> fi (r.heap_peak_words * (Sys.word_size / 8)) /. 1e6);
  ]

(* Self time of each layer over the round's traced attacks.  An attack's
   call spans are all direct children of its root span and run one after
   another, so a call's self time is its duration; what they leave of the
   root is [coverage]'s complement. *)
let self_times r =
  let tbl = Hashtbl.create 16 in
  let add name v =
    Hashtbl.replace tbl name (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))
  in
  List.iter
    (fun a ->
      List.iter
        (fun s ->
          let d = s.stop -. s.start in
          if s.name <> "attack" then add s.name d;
          if s.name = "find_dip" then
            add (if s.screened then "find_dip.screened" else "find_dip.solve") d)
        a.spans)
    r.attacks;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

let calls r name =
  isum (fun a -> List.length (List.filter (fun s -> s.name = name) a.spans)) r.attacks

let coverage a =
  let child = sum (fun s -> if s.name = "attack" then 0.0 else s.stop -. s.start) a.spans in
  ratio child (a.t_end -. a.t_start)

(* (name, unit, value of one traced round) *)
let per_layer ~overhead =
  let counter r name = fi (List.assoc name r.counters) in
  let stat f r = fi (isum (fun a -> f a.stats) r.attacks) in
  let pre f r =
    fi (isum (fun a -> match a.pre with Some p -> f p | None -> 0) r.attacks)
  in
  let self name r = self_times r name in
  let domains r = List.length (List.sort_uniq compare (List.map (fun a -> a.domain) r.attacks)) in
  let minor r = sum (fun a -> a.minor_words) r.attacks in
  [
    "lock.s", "s", self "lock";
    "cycsat.nc_s", "s", self "cycsat.nc";
    "prepare.s", "s", self "prepare";
    "preprocess.s", "s",
    (fun r -> sum (fun a -> match a.pre with Some p -> p.Preprocess.wall_s | None -> 0.0) r.attacks);
    "preprocess.clause_reduction", "ratio",
    (fun r ->
      1.0 -. ratio (pre (fun p -> p.Preprocess.clauses_after) r)
               (pre (fun p -> p.Preprocess.clauses_before) r));
    "preprocess.vars_eliminated", "count", pre (fun p -> p.Preprocess.eliminated);
    "session.create_s", "s", self "session.create";
    "find_dip.s", "s", self "find_dip";
    "find_dip.calls", "count", (fun r -> fi (calls r "find_dip"));
    "find_dip.solve_s", "s", self "find_dip.solve";
    "find_dip.screened_s", "s", self "find_dip.screened";
    "screen.dips", "count", (fun r -> fi (isum (fun a -> a.screened) r.attacks));
    "screen.passes", "count", (fun r -> counter r "session.screen.passes");
    "screen.hit_ratio", "ratio",
    (fun r -> ratio (fi (isum (fun a -> a.screened) r.attacks)) (counter r "session.screen.passes"));
    "cdcl.conflicts", "count", stat (fun s -> s.Cdcl.conflicts);
    "cdcl.decisions", "count", stat (fun s -> s.Cdcl.decisions);
    "cdcl.propagations", "count", stat (fun s -> s.Cdcl.propagations);
    "cdcl.restarts", "count", stat (fun s -> s.Cdcl.restarts);
    "cdcl.reductions", "count", stat (fun s -> s.Cdcl.reductions);
    "cdcl.learned_literals", "count", stat (fun s -> s.Cdcl.learned_literals);
    "cdcl.us_per_conflict", "us",
    (fun r -> 1e6 *. ratio (self "find_dip.solve" r) (stat (fun s -> s.Cdcl.conflicts) r));
    "cdcl.ns_per_propagation", "ns",
    (fun r -> 1e9 *. ratio (self "find_dip.solve" r) (stat (fun s -> s.Cdcl.propagations) r));
    "observe.s", "s", self "observe";
    "observe.calls", "count", (fun r -> fi (calls r "observe"));
    "formula.clause_var_ratio", "ratio",
    (fun r -> sum (fun a -> a.ratio) r.attacks /. fi (List.length r.attacks));
    "key_solve.s", "s", self "key_solve";
    "key_solve.calls", "count", (fun r -> fi (calls r "key_solve"));
    "key_check.s", "s", self "key_check";
    "view.evals", "count", (fun r -> counter r "view.evals");
    "view.fixpoint_sweeps", "count", (fun r -> counter r "view.fixpoint_sweeps");
    "gc.minor_words", "words", minor;
    "gc.major_words", "words", (fun r -> sum (fun a -> a.major_words) r.attacks);
    "gc.minor_collections", "count", (fun r -> fi r.minor_gcs);
    "gc.major_collections", "count", (fun r -> fi r.major_gcs);
    "gc.minor_words_per_conflict", "words", (fun r -> ratio (minor r) (fi (conflicts r)));
    "gc.minor_words_per_domain", "words", (fun r -> minor r /. fi (max 1 (domains r)));
    "par.jobs", "count", (fun r -> fi r.jobs);
    "par.speedup", "ratio", (fun r -> ratio r.task_s r.makespan);
    "par.efficiency", "ratio", (fun r -> ratio r.task_s r.makespan /. fi r.jobs);
    "par.queue_wait_s", "s",
    (fun r -> sum (fun a -> a.w_start -. r.submit) r.attacks /. fi (List.length r.attacks));
    "par.tail_s", "s", (fun r -> r.makespan -. (r.task_s /. fi r.jobs));
    "trace.coverage", "ratio",
    (fun r -> List.fold_left (fun acc a -> Float.min acc (coverage a)) 1.0 r.attacks);
    "trace.overhead", "ratio", (fun _ -> overhead);
  ]

(* The attribution check of a traced round: per attack, the find_dip
   deltas sum to Session.solver_stats; over the round, the screened
   find_dip calls equal the library's screened-DIP counter; every attack's
   layer spans cover at least 95% of its wall time. *)
let attribution_errors r =
  let per_attack a =
    let s = a.stats and d = a.find_delta in
    let same =
      s.Cdcl.conflicts = d.Cdcl.conflicts && s.decisions = d.decisions
      && s.propagations = d.propagations && s.restarts = d.restarts
      && s.learned_clauses = d.learned_clauses && s.learned_literals = d.learned_literals
      && s.reductions = d.reductions
    in
    (if same then [] else [ Printf.sprintf "attack %d: find_dip deltas differ from solver_stats" a.index ])
    @
    if coverage a < 0.95 then
      [ Printf.sprintf "attack %d: spans cover %.3f of its wall time" a.index (coverage a) ]
    else []
  in
  let screened = isum (fun a -> a.screened) r.attacks in
  let counted = List.assoc "session.dip.screened" r.counters in
  List.concat_map per_attack r.attacks
  @
  if screened = counted then []
  else [ Printf.sprintf "screened find_dip calls %d, session.dip.screened %d" screened counted ]

(* {1 Main} *)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let write_trace path ~facts rounds =
  let oc = open_out path in
  output_string oc (facts ^ "\n");
  List.iter
    (fun r ->
      List.iter
        (fun a ->
          List.iteri
            (fun id s ->
              Printf.fprintf oc
                "{\"round\":%d,\"attack\":%d,\"span\":%d,\"parent\":%d,\"name\":\"%s\",\"start\":%s,\"end\":%s%s}\n"
                r.number a.index id
                (if id = 0 then -1 else 0)
                s.name (json_float s.start) (json_float s.stop)
                (if s.screened then ",\"screened\":true" else ""))
            a.spans)
        r.attacks)
    rounds;
  close_out oc

(* Rounds run while the next one is expected to end within the run
   length, and at least [min_rounds].  A traced run plays every round
   twice, traced and untraced, alternating which goes first, so both see
   the same instances. *)
let run_workload (w : workload) ~seed ~seconds ~trace ~jobs ~min_rounds =
  let hosts =
    Array.of_list (List.map (fun s -> Bench_suite.load_scaled s.host ~scale:s.scale) w.specs)
  in
  let body pool =
    let t0 = wall () in
    let play traced number =
      Gc.compact ();
      run_round w ~seed ~traced ~pool hosts number
    in
    let rec go number acc =
      let spent = wall () -. t0 in
      let per_round = if number = 0 then 0.0 else spent /. fi number in
      if number >= min_rounds && spent +. per_round > seconds then List.rev acc
      else
        let played =
          if not trace then [ play false number ]
          else if number mod 2 = 0 then [ play false number; play true number ]
          else [ play true number; play false number ]
        in
        go (number + 1) (List.rev_append played acc)
    in
    go 0 []
  in
  if w.parallel then Fl_par.with_pool ~name:"perfbench" ~jobs (fun p -> body (Some p))
  else body None

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self_check = ref false in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, "NAME workload to run";
      "--seed", Arg.Set_int seed, "N workload seed (default 1)";
      "--seconds", Arg.Set_float seconds, "S run length in seconds (default 10)";
      "--trace", Arg.Set_int trace, "0|1 per-layer run with spans (default 0)";
      "--self-check", Arg.Set self_check,
      " check that work repeats exactly for one seed, and at pool widths nproc and 1";
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--self-check]";
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let seed = !seed and trace = !trace = 1 in
  let jobs = if w.parallel then Domain.recommended_domain_count () else 1 in
  let facts =
    Printf.sprintf
      "{\"nproc\":%d,\"ocaml\":\"%s\",\"domains\":%d,\"workload\":\"%s\",\"seed\":%d,\"max_conflicts\":%d,\"seconds\":%s,\"trace\":%b}"
      (Domain.recommended_domain_count ()) Sys.ocaml_version jobs w.name seed w.max_conflicts
      (json_float !seconds) trace
  in
  Printf.printf "host %s\n%!" facts;
  if !self_check then begin
    (* Rounds 0 and 1, twice at the run's width; the sweep also at width 1. *)
    let work width =
      List.map signature
        (run_workload w ~seed ~seconds:0.0 ~trace:false ~jobs:width ~min_rounds:2)
    in
    let reference = work jobs in
    let widths = if w.parallel && jobs > 1 then [ jobs; 1 ] else [ jobs ] in
    let ok = List.for_all (fun width -> work width = reference) widths in
    Printf.printf "self-check %s seed %d: rounds 0 and 1 at widths %s: work %s\n" w.name seed
      (String.concat ", " (List.map string_of_int (jobs :: widths)))
      (if ok then "repeats exactly" else "DIFFERS");
    exit (if ok then 0 else 1)
  end;
  let rounds = run_workload w ~seed ~seconds:!seconds ~trace ~jobs ~min_rounds:4 in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let plain = List.filter (fun r -> not r.traced) rounds in
  (* Round 0 warms the heap up; it is checked but not timed. *)
  let measured = List.filter (fun r -> r.number > 0) in
  let traced = List.filter (fun r -> r.traced) rounds in
  let twin t = List.find (fun r -> (not r.traced) && r.number = t.number) plain in
  let errors =
    List.concat_map
      (fun t ->
        (if String.equal (signature t) (signature (twin t)) then []
         else [ Printf.sprintf "round %d: traced and untraced work differ" t.number ])
        @ attribution_errors t)
      traced
  in
  let all_attacks = List.concat_map (fun r -> r.attacks) rounds in
  let attempted = List.length all_attacks in
  let n_failed = List.length (List.filter failed all_attacks) in
  let count st = List.length (List.filter (fun a -> status_name a.status = st) all_attacks) in
  let first = List.hd plain in
  List.iter
    (fun r ->
      List.iter
        (fun a ->
          if failed a then
            Printf.printf "FAILED round %d attack %d (%s): %s\n" r.number a.index
              (spec_label (List.nth w.specs a.index))
              (match a.status with Raised m -> m | st -> status_name st))
        r.attacks)
    rounds;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  Printf.printf "rounds %d (%d traced), attacks %d: broken %d, budget %d, no-key %d, failed %d\n"
    (List.length plain) (List.length traced) attempted (count "broken") (count "budget")
    (count "no-key") n_failed;
  Printf.printf "broken_share %.4f  failed_share %.4f  run top_heap_words %.1f MB\n"
    (ratio (fi (count "broken")) (fi attempted))
    (ratio (fi n_failed) (fi attempted))
    (fi (top_heap_words * (Sys.word_size / 8)) /. 1e6);
  Printf.printf "round cpu_s:%s\n"
    (String.concat "" (List.map (fun r -> Printf.sprintf " %.3f" r.busy) plain));
  Printf.printf "round makespan_s (wall):%s\n"
    (String.concat "" (List.map (fun r -> Printf.sprintf " %.3f" r.makespan) plain));
  Printf.printf "work of round 0: %s\n" (Digest.to_hex (Digest.string (signature first)));
  List.iter
    (fun a ->
      Printf.printf "  attack %2d %-26s %-9s dips %5d conflicts %7d %8.3f s\n" a.index
        (spec_label (List.nth w.specs a.index))
        (status_name a.status) a.dips a.stats.Cdcl.conflicts (verdict_s a))
    first.attacks;
  let metrics =
    if trace then begin
      let overhead = median (List.map (fun t -> ratio t.busy (twin t).busy) (measured traced)) in
      let t = List.hd traced in
      List.iter
        (fun d ->
          let mine = List.filter (fun a -> a.domain = d) t.attacks in
          Printf.printf "  domain %d: %d attacks, minor words %.0f, major words %.0f\n" d
            (List.length mine) (sum (fun a -> a.minor_words) mine)
            (sum (fun a -> a.major_words) mine))
        (List.sort_uniq compare (List.map (fun a -> a.domain) t.attacks));
      (try Unix.mkdir ".bench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      write_trace (Printf.sprintf ".bench_out/trace-%s-seed%d.jsonl" w.name seed) ~facts traced;
      List.map (fun (name, unit, f) -> name, unit, per_round f (measured traced))
        (per_layer ~overhead)
    end
    else
      end_to_end (measured plain)
  in
  List.iter (fun (name, unit, v) -> Printf.printf "%-30s %16.6f %s\n" name v unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (errors = [] && n_failed = 0) attempted n_failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_float v) unit)
          metrics))
