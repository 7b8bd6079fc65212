module Circuit = Fl_netlist.Circuit
module Bench_io = Fl_netlist.Bench_io
module View = Fl_netlist.View
module Locked = Fl_locking.Locked
module Fulllock = Fl_core.Fulllock
module Ppa = Fl_ppa.Ppa
module Session = Fl_attacks.Session
module Sat_attack = Fl_attacks.Sat_attack
module Cycsat = Fl_attacks.Cycsat
module Appsat = Fl_attacks.Appsat
module Cdcl = Fl_sat.Cdcl
module Json = Fl_obs.Json

let c_requests = Fl_obs.Counter.make "serve.requests"
let c_errors = Fl_obs.Counter.make "serve.errors"
let c_events_sent = Fl_obs.Counter.make "serve.events.sent"

type config = {
  socket : string;
  jobs : int;
  max_timeout : float;
  max_conflicts : int;
  cache_circuits : int;
  cache_bases : int;
}

let default_config ~socket =
  {
    socket;
    jobs = 1;
    max_timeout = 300.0;
    max_conflicts = 2_000_000;
    cache_circuits = 64;
    cache_bases = 64;
  }

(* One client connection.  [wlock] serializes frame writes (worker
   domains stream events mid-task while the reader thread may answer a
   concurrent status request on the same connection) and guards the
   [alive]/[closed]/[inflight] state.  The fd is closed exactly once:
   by whoever observes "reader finished and no task in flight". *)
type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wlock : Mutex.t;
  mutable alive : bool;  (* reader still running *)
  mutable closed : bool;
  mutable inflight : int;  (* queued or executing requests *)
}

type job = { req : Protocol.request; jconn : conn }

type counts = {
  mutable n_requests : int;
  mutable n_lock : int;
  mutable n_attack : int;
  mutable n_analyze : int;
  mutable n_status : int;
  mutable n_errors : int;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  pool : Fl_par.t;
  cache : Cache.t;
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable stopping : bool;  (* guarded by qlock *)
  slock : Mutex.t;  (* guards conns + counts *)
  mutable conns : conn list;
  counts : counts;
  start_time : float;
  mutable listener : Thread.t option;
  mutable scheduler : Thread.t option;
  mutable readers : Thread.t list;  (* guarded by slock *)
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------------------------------------------ *)
(* Connection plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let close_conn_locked conn =
  if not conn.closed then begin
    conn.closed <- true;
    (* close_out flushes and closes the shared fd; the in_channel must
       not be closed again. *)
    try close_out conn.oc with _ -> (try Unix.close conn.fd with _ -> ())
  end

(* [write_line conn line] returns whether the write reached the socket;
   a failed write marks the connection dead so later frames are dropped
   silently (the client is gone — aborting the attack would waste the
   cache warm-up it paid for). *)
let write_line conn line =
  locked conn.wlock (fun () ->
      if conn.closed then false
      else
        try
          output_string conn.oc line;
          output_char conn.oc '\n';
          flush conn.oc;
          true
        with _ -> false)

let task_started conn = locked conn.wlock (fun () -> conn.inflight <- conn.inflight + 1)

let task_finished conn =
  locked conn.wlock (fun () ->
      conn.inflight <- conn.inflight - 1;
      if (not conn.alive) && conn.inflight <= 0 then close_conn_locked conn)

let reader_finished conn =
  locked conn.wlock (fun () ->
      conn.alive <- false;
      if conn.inflight <= 0 then close_conn_locked conn)

(* ------------------------------------------------------------------ *)
(* Request helpers                                                     *)
(* ------------------------------------------------------------------ *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

let require what = function
  | Some v -> v
  | None -> reject "missing %S member" what

let send_error t conn ~id msg =
  locked t.slock (fun () -> t.counts.n_errors <- t.counts.n_errors + 1);
  Fl_obs.Counter.incr c_errors;
  ignore (write_line conn (Protocol.error_frame ~id msg))

(* Server-enforced budget clamping: a missing ask gets the cap as its
   default, an ask above the cap is clamped (and reported as such). *)
let clamp_float cap = function
  | None -> (cap, false)
  | Some v when v > cap -> (cap, true)
  | Some v -> ((if v <= 0.0 then cap else v), false)

let clamp_int cap = function
  | None -> (cap, false)
  | Some v when v > cap -> (cap, true)
  | Some v -> ((if v <= 0 then cap else v), false)

let hit_string = function `Hit -> "hit" | `Miss -> "miss"

let key_to_string key =
  String.init (Array.length key) (fun i -> if key.(i) then '1' else '0')

(* Per-request telemetry: run [f] under a scoped sink forwarding the
   selected events to the requesting client.  The sink runs on the
   domain executing the attack, outside the global sink lock; a write
   failure flips [dead] so a vanished client costs one failed syscall,
   not one per iteration. *)
let with_request_sink (req : Protocol.request) conn f =
  match req.Protocol.events with
  | Protocol.Events_none -> f ()
  | mode ->
    let dead = ref false in
    let keep name =
      match mode with
      | Protocol.Events_all -> true
      | _ ->
        String.length name >= 7 && String.equal (String.sub name 0 7) "attack."
    in
    let sink e =
      if (not !dead) && keep e.Fl_obs.name then
        if write_line conn (Protocol.event_frame ~id:req.Protocol.id e) then
          Fl_obs.Counter.incr c_events_sent
        else dead := true
    in
    Fl_obs.with_scoped_sink sink f

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

let run_lock t (req : Protocol.request) conn =
  let text = require "circuit" req.Protocol.circuit in
  let c, hit = Cache.circuit_of_text t.cache text in
  let rng = Random.State.make [| req.Protocol.seed |] in
  let bundle =
    try
      Fulllock.lock_scheme rng ~scheme:req.Protocol.scheme ~plr:req.Protocol.plr
        ~cyclic:req.Protocol.cyclic ~key_bits:req.Protocol.key_bits c
    with Invalid_argument msg -> reject "lock failed: %s" msg
  in
  if not (Locked.verify bundle) then
    reject "internal error: correct key does not verify";
  let a, p, d = Ppa.locking_overhead ~original:c bundle.Locked.locked in
  let lc = bundle.Locked.locked in
  ignore
    (write_line conn
       (Protocol.result_frame ~id:req.Protocol.id ~op:"lock"
          [
            "scheme", Json.Jstring bundle.Locked.scheme;
            "locked", Json.Jstring (Bench_io.to_string lc);
            "key", Json.Jstring (key_to_string bundle.Locked.correct_key);
            "key_bits", Json.Jint (Array.length bundle.Locked.correct_key);
            "gates", Json.Jint (Circuit.num_gates lc);
            ( "structural_hash",
              Json.Jstring (View.structural_hash_hex (View.of_circuit lc)) );
            "area_overhead", Json.Jfloat a;
            "power_overhead", Json.Jfloat p;
            "delay_overhead", Json.Jfloat d;
            "cache", Json.Jstring (hit_string hit);
          ]))

let stats_json (s : Cdcl.stats) rest =
  ("decisions", Json.Jint s.Cdcl.decisions)
  :: ("propagations", Json.Jint s.Cdcl.propagations)
  :: ("conflicts", Json.Jint s.Cdcl.conflicts)
  :: ("restarts", Json.Jint s.Cdcl.restarts)
  :: ("learned_clauses", Json.Jint s.Cdcl.learned_clauses)
  :: ("learned_literals", Json.Jint s.Cdcl.learned_literals)
  :: ("reductions", Json.Jint s.Cdcl.reductions)
  :: ("max_decision_level", Json.Jint s.Cdcl.max_decision_level)
  :: rest

let run_attack t (req : Protocol.request) conn =
  let locked_text = require "locked" req.Protocol.locked in
  let oracle_text = require "oracle" req.Protocol.oracle in
  let lc0, _ = Cache.circuit_of_text t.cache locked_text in
  let orc, _ = Cache.circuit_of_text t.cache oracle_text in
  if Circuit.num_keys lc0 = 0 then
    reject "locked circuit has no key inputs";
  if Circuit.num_inputs orc <> Circuit.num_inputs lc0 then
    reject "oracle input count %d does not match locked circuit's %d"
      (Circuit.num_inputs orc) (Circuit.num_inputs lc0);
  if Circuit.num_outputs orc <> Circuit.num_outputs lc0 then
    reject "oracle output count %d does not match locked circuit's %d"
      (Circuit.num_outputs orc) (Circuit.num_outputs lc0);
  let mode =
    match req.Protocol.kind with
    | "sat" | "appsat" -> Cache.Sat
    | "cycsat" -> Cache.Cycsat
    | k -> reject "unknown attack kind %S (sat|cycsat|appsat)" k
  in
  let base, base_hit = Cache.base_for t.cache ~mode lc0 in
  (* Attack the cached circuit: the base's miter encodes its node
     numbering, and position-preserving isomorphism (what the structural
     hash certifies, probe-checked in the cache) makes the recovered key
     valid for the request's circuit too. *)
  let lc = Session.Base.circuit base in
  let bundle =
    {
      Locked.locked = lc;
      oracle = orc;
      correct_key = Array.make (Circuit.num_keys lc) false;
      scheme = "serve";
    }
  in
  let timeout, t_clamped = clamp_float t.cfg.max_timeout req.Protocol.timeout in
  let max_conflicts, c_clamped =
    clamp_int t.cfg.max_conflicts req.Protocol.max_conflicts
  in
  let budget_fields rest =
    ("timeout_s", Json.Jfloat timeout)
    :: ("max_conflicts", Json.Jint max_conflicts)
    :: ("clamped", Json.Jbool (t_clamped || c_clamped))
    :: ("cache", Json.Jstring (hit_string base_hit))
    :: rest
  in
  let frame =
    with_request_sink req conn (fun () ->
        match req.Protocol.kind with
        | "appsat" ->
          let r = Appsat.run ~base ~timeout bundle in
          Protocol.result_frame ~id:req.Protocol.id ~op:"attack"
            (("kind", Json.Jstring "appsat")
             :: ( "status",
                  Json.Jstring
                    (match r.Appsat.key with
                     | Some _ when r.Appsat.exact -> "broken"
                     | Some _ -> "approximate"
                     | None -> "no_key_found") )
             :: (match r.Appsat.key with
                 | Some k -> [ "key", Json.Jstring (key_to_string k) ]
                 | None -> [])
             @ budget_fields
                 [
                   "estimated_error", Json.Jfloat r.Appsat.estimated_error;
                   "exact", Json.Jbool r.Appsat.exact;
                   "iterations", Json.Jint r.Appsat.iterations;
                   "random_queries", Json.Jint r.Appsat.random_queries;
                   "wall_s", Json.Jfloat r.Appsat.wall_time;
                 ])
        | kind ->
          let r =
            if kind = "cycsat" then
              Cycsat.run ~base ~timeout ~max_conflicts bundle
            else Sat_attack.run ~base ~timeout ~max_conflicts bundle
          in
          let status, key =
            match r.Sat_attack.status with
            | Sat_attack.Broken key -> ("broken", Some key)
            | Sat_attack.Timeout -> ("timeout", None)
            | Sat_attack.No_key_found -> ("no_key_found", None)
          in
          Protocol.result_frame ~id:req.Protocol.id ~op:"attack"
            (("kind", Json.Jstring kind)
             :: ("status", Json.Jstring status)
             :: (match key with
                 | Some k -> [ "key", Json.Jstring (key_to_string k) ]
                 | None -> [])
             @ ("key_is_correct", Json.Jbool r.Sat_attack.key_is_correct)
               :: ("iterations", Json.Jint r.Sat_attack.iterations)
               :: ("wall_s", Json.Jfloat r.Sat_attack.wall_time)
               :: ( "clause_var_ratio",
                    Json.Jfloat r.Sat_attack.clause_var_ratio )
               :: stats_json r.Sat_attack.solver (budget_fields [])))
  in
  ignore (write_line conn frame)

let run_analyze t (req : Protocol.request) conn =
  let text = require "circuit" req.Protocol.circuit in
  let c, hit = Cache.circuit_of_text t.cache text in
  let v = View.of_circuit c in
  let e = Ppa.of_circuit c in
  let shape_fields rest =
    ("name", Json.Jstring c.Circuit.name)
    :: ("gates", Json.Jint (Circuit.num_gates c))
    :: ("inputs", Json.Jint (Circuit.num_inputs c))
    :: ("keys", Json.Jint (Circuit.num_keys c))
    :: ("outputs", Json.Jint (Circuit.num_outputs c))
    :: (match View.depth v with
        | Some d -> [ "depth", Json.Jint d ]
        | None ->
          [ "feedback_edges", Json.Jint (Cycsat.num_feedback_edges c) ])
    @ ("structural_hash", Json.Jstring (View.structural_hash_hex v))
      :: ("area_um2", Json.Jfloat e.Ppa.area_um2)
      :: ("power_nw", Json.Jfloat e.Ppa.power_nw)
      :: ("delay_ns", Json.Jfloat e.Ppa.delay_ns)
      :: rest
  in
  (* Security stats need an oracle to compare against and a keyed
     netlist to corrupt. *)
  let corruption =
    match req.Protocol.oracle with
    | Some otext when Circuit.num_keys c > 0 ->
      let orc, _ = Cache.circuit_of_text t.cache otext in
      if
        Circuit.num_inputs orc = Circuit.num_inputs c
        && Circuit.num_outputs orc = Circuit.num_outputs c
      then begin
        let bundle =
          {
            Locked.locked = c;
            oracle = orc;
            correct_key = Array.make (Circuit.num_keys c) false;
            scheme = "serve";
          }
        in
        let rng = Random.State.make [| req.Protocol.seed; 0xc0de |] in
        [
          ( "output_corruption",
            Json.Jfloat (Locked.output_corruption bundle rng) );
        ]
      end
      else reject "oracle interface does not match the circuit"
    | _ -> []
  in
  ignore
    (write_line conn
       (Protocol.result_frame ~id:req.Protocol.id ~op:"analyze"
          (shape_fields
             (corruption @ [ "cache", Json.Jstring (hit_string hit) ]))))

let status_fields t =
  let cache_stats = Cache.stats t.cache in
  let cache_member k =
    match List.assoc_opt k cache_stats with Some v -> v | None -> 0
  in
  let counts = locked t.slock (fun () ->
      let c = t.counts in
      ( c.n_requests, c.n_lock, c.n_attack, c.n_analyze, c.n_status,
        c.n_errors ))
  in
  let requests, locks, attacks, analyzes, statuses, errors = counts in
  let queue_depth, inflight =
    locked t.qlock (fun () ->
        ( Queue.length t.queue,
          locked t.slock (fun () ->
              List.fold_left (fun acc c -> acc + c.inflight) 0 t.conns) ))
  in
  [
    "uptime_s", Json.Jfloat (Unix.gettimeofday () -. t.start_time);
    "jobs", Json.Jint t.cfg.jobs;
    "max_timeout_s", Json.Jfloat t.cfg.max_timeout;
    "max_conflicts", Json.Jint t.cfg.max_conflicts;
    "queue_depth", Json.Jint queue_depth;
    "inflight", Json.Jint inflight;
    "requests", Json.Jint requests;
    "requests.lock", Json.Jint locks;
    "requests.attack", Json.Jint attacks;
    "requests.analyze", Json.Jint analyzes;
    "requests.status", Json.Jint statuses;
    "errors", Json.Jint errors;
    (* [cache.hit] / [cache.miss] are the prepared-base cache — the
       counters that prove Tseytin + preprocessing were skipped. *)
    "cache.hit", Json.Jint (cache_member "base.hit");
    "cache.miss", Json.Jint (cache_member "base.miss");
    "cache.circuit.hit", Json.Jint (cache_member "circuit.hit");
    "cache.circuit.miss", Json.Jint (cache_member "circuit.miss");
    "cache.collisions", Json.Jint (cache_member "collisions");
    "cache.circuits", Json.Jint (cache_member "circuits");
    "cache.bases", Json.Jint (cache_member "bases");
  ]

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let exec_job t { req; jconn } =
  Fun.protect
    ~finally:(fun () -> task_finished jconn)
    (fun () ->
      try
        match req.Protocol.op with
        | "lock" -> run_lock t req jconn
        | "attack" -> run_attack t req jconn
        | "analyze" -> run_analyze t req jconn
        | op -> send_error t jconn ~id:req.Protocol.id ("bad queued op " ^ op)
      with
      | Reject msg -> send_error t jconn ~id:req.Protocol.id msg
      | Bench_io.Parse_error (line, msg) ->
        send_error t jconn ~id:req.Protocol.id
          (Printf.sprintf "bench parse error at line %d: %s" line msg)
      | exn ->
        send_error t jconn ~id:req.Protocol.id
          ("internal error: " ^ Printexc.to_string exn))

let scheduler_loop t =
  let rec loop () =
    let batch =
      locked t.qlock (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.qcond t.qlock
          done;
          let jobs = ref [] in
          while not (Queue.is_empty t.queue) do
            jobs := Queue.pop t.queue :: !jobs
          done;
          List.rev !jobs)
    in
    match batch with
    | [] -> () (* stopping and drained *)
    | jobs ->
      let tasks =
        Array.of_list (List.map (fun j () -> exec_job t j) jobs)
      in
      (* Tasks catch everything and write their own frames, so Failed /
         Cancelled outcomes are harness-level surprises — answer the
         affected clients so nobody hangs awaiting a terminal frame. *)
      let outcomes = Fl_par.run t.pool tasks in
      Array.iteri
        (fun i outcome ->
          match outcome with
          | Fl_par.Done () | Fl_par.Late ((), _) -> ()
          | Fl_par.Failed (msg, _) ->
            let j = List.nth jobs i in
            send_error t j.jconn ~id:j.req.Protocol.id
              ("task failed: " ^ msg)
          | Fl_par.Cancelled ->
            let j = List.nth jobs i in
            send_error t j.jconn ~id:j.req.Protocol.id "task cancelled")
        outcomes;
      loop ()
  in
  loop ()

let initiate_stop t =
  let fresh =
    locked t.qlock (fun () ->
        let fresh = not t.stopping in
        t.stopping <- true;
        Condition.broadcast t.qcond;
        fresh)
  in
  if fresh then begin
    (* Closing a listening fd does not wake a thread blocked in accept
       (Linux semantics); a throwaway self-connection does.  The
       listener re-checks [stopping] after every accept and exits; the
       fd itself is closed in [wait] after the join. *)
    (let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket) with _ -> ());
     try Unix.close fd with _ -> ());
    (* Wake every reader blocked in input_line; owners close the fds. *)
    locked t.slock (fun () ->
        List.iter
          (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ())
          t.conns)
  end

let stopping t = locked t.qlock (fun () -> t.stopping)

(* ------------------------------------------------------------------ *)
(* Connection reader                                                   *)
(* ------------------------------------------------------------------ *)

let handle_line t conn line =
  let line = String.trim line in
  if line <> "" then begin
    Fl_obs.Counter.incr c_requests;
    match Protocol.parse_request line with
    | Error msg -> send_error t conn ~id:"" msg
    | Ok req ->
      let count f =
        locked t.slock (fun () ->
            t.counts.n_requests <- t.counts.n_requests + 1;
            f t.counts)
      in
      (match req.Protocol.op with
       | "status" ->
         count (fun c -> c.n_status <- c.n_status + 1);
         ignore
           (write_line conn
              (Protocol.result_frame ~id:req.Protocol.id ~op:"status"
                 (status_fields t)))
       | "shutdown" ->
         count (fun _ -> ());
         ignore
           (write_line conn
              (Protocol.result_frame ~id:req.Protocol.id ~op:"shutdown"
                 [ "stopping", Json.Jbool true ]));
         initiate_stop t
       | ("lock" | "attack" | "analyze") as op ->
         count (fun c ->
             match op with
             | "lock" -> c.n_lock <- c.n_lock + 1
             | "attack" -> c.n_attack <- c.n_attack + 1
             | _ -> c.n_analyze <- c.n_analyze + 1);
         let enqueued =
           locked t.qlock (fun () ->
               if t.stopping then false
               else begin
                 task_started conn;
                 Queue.push { req; jconn = conn } t.queue;
                 Condition.signal t.qcond;
                 true
               end)
         in
         if not enqueued then
           send_error t conn ~id:req.Protocol.id "server is shutting down"
       | op -> send_error t conn ~id:req.Protocol.id ("unknown op " ^ op))
  end

let reader_loop t conn =
  (try
     while not (stopping t) do
       handle_line t conn (input_line conn.ic)
     done
   with End_of_file | Sys_error _ -> ());
  reader_finished conn

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let listener_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if stopping t then () else loop ()
    | exception Unix.Unix_error _ -> () (* listener closed: stopping *)
    | exception Sys_error _ -> ()
    | fd, _ when stopping t ->
      (* The wake-up self-connection (or a late client). *)
      (try Unix.close fd with _ -> ())
    | fd, _ ->
      let conn =
        {
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
          wlock = Mutex.create ();
          alive = true;
          closed = false;
          inflight = 0;
        }
      in
      let th = Thread.create (fun () -> reader_loop t conn) () in
      locked t.slock (fun () ->
          t.conns <- conn :: t.conns;
          t.readers <- th :: t.readers);
      loop ()
  in
  loop ()

let start cfg =
  if Sys.os_type = "Unix" then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
     Unix.listen listen_fd 16
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  let t =
    {
      cfg;
      listen_fd;
      pool = Fl_par.create ~name:"serve" ~jobs:(max 1 cfg.jobs) ();
      cache =
        Cache.create ~max_circuits:cfg.cache_circuits
          ~max_bases:cfg.cache_bases ();
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      stopping = false;
      slock = Mutex.create ();
      conns = [];
      counts =
        {
          n_requests = 0;
          n_lock = 0;
          n_attack = 0;
          n_analyze = 0;
          n_status = 0;
          n_errors = 0;
        };
      start_time = Unix.gettimeofday ();
      listener = None;
      scheduler = None;
      readers = [];
    }
  in
  t.listener <- Some (Thread.create (fun () -> listener_loop t) ());
  t.scheduler <- Some (Thread.create (fun () -> scheduler_loop t) ());
  t

let stop t = initiate_stop t

let wait t =
  (match t.listener with Some th -> Thread.join th | None -> ());
  (try Unix.close t.listen_fd with _ -> ());
  (match t.scheduler with Some th -> Thread.join th | None -> ());
  let readers = locked t.slock (fun () -> t.readers) in
  List.iter Thread.join readers;
  Fl_par.shutdown t.pool;
  (try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ())

let run cfg = wait (start cfg)
