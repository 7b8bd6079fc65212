(* In-process integration tests for the Fl_serve daemon: the wire
   protocol codec, the content-addressed cache (second identical attack
   must skip parse + Tseytin + preprocessing), the streamed-telemetry
   delta-sum invariant held over the socket, concurrent clients on a
   shared pool, and clean shutdown. *)

module Circuit = Fl_netlist.Circuit
module Bench_io = Fl_netlist.Bench_io
module Generator = Fl_netlist.Generator
module Cdcl = Fl_sat.Cdcl
module Obs = Fl_obs
module Json = Fl_obs.Json
module Protocol = Fl_serve.Protocol
module Server = Fl_serve.Server
module Client = Fl_serve.Client

let check = Alcotest.check
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let host seed =
  Generator.random ~seed ~name:(Printf.sprintf "serve-host%d" seed)
    {
      Generator.num_inputs = 6;
      num_outputs = 3;
      num_gates = 40;
      max_fanin = 3;
      and_bias = 0.8;
    }

let bundle seed =
  let c = host seed in
  Fl_locking.Rll.lock (Random.State.make [| seed; 0x5e7 |]) ~key_bits:8 c

let texts seed =
  let b = bundle seed in
  ( Bench_io.to_string b.Fl_locking.Locked.locked,
    Bench_io.to_string b.Fl_locking.Locked.oracle )

let with_server ?(jobs = 1) f =
  let socket = Filename.temp_file "flserve" ".sock" in
  Sys.remove socket;
  let t = Server.start { (Server.default_config ~socket) with Server.jobs } in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f socket)

let attack_req ~id ~locked ~oracle =
  {
    Protocol.default_request with
    Protocol.id;
    op = "attack";
    locked = Some locked;
    oracle = Some oracle;
    timeout = Some 60.0;
  }

let jstr k j =
  match Json.member k j with
  | Some (Json.Jstring s) -> s
  | _ -> Alcotest.failf "result member %S missing or not a string" k

let jint k j =
  match Json.member k j with
  | Some (Json.Jint i) -> i
  | _ -> Alcotest.failf "result member %S missing or not an int" k

let jbool k j =
  match Json.member k j with
  | Some (Json.Jbool b) -> b
  | _ -> Alcotest.failf "result member %S missing or not a bool" k

let ok = function
  | Result.Ok j -> j
  | Result.Error msg -> Alcotest.failf "request failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Delta-sum invariant, held over the socket                           *)
(* ------------------------------------------------------------------ *)

let field_int name e =
  match List.assoc_opt name e.Obs.fields with
  | Some (Obs.Int i) -> i
  | Some (Obs.Float f) -> int_of_float f
  | _ -> 0

let sum_records events =
  List.fold_left
    (fun acc e ->
      match e.Obs.name with
      | "attack.iteration" | "attack.exhausted" | "attack.timeout" ->
        Cdcl.add_stats acc
          {
            Cdcl.decisions = field_int "decisions" e;
            propagations = field_int "propagations" e;
            conflicts = field_int "conflicts" e;
            restarts = field_int "restarts" e;
            learned_clauses = field_int "learned_clauses" e;
            learned_literals = field_int "learned_literals" e;
            reductions = field_int "reductions" e;
            max_decision_level = field_int "max_decision_level" e;
          }
      | _ -> acc)
    Cdcl.zero_stats events

let test_attack_streams_and_delta_sum () =
  with_server (fun socket ->
      let locked, oracle = texts 1 in
      let c = Client.connect socket in
      let events = ref [] in
      let r =
        ok
          (Client.request
             ~on_event:(fun e -> events := e :: !events)
             c
             (attack_req ~id:"a1" ~locked ~oracle))
      in
      Client.close c;
      check string_t "status" "broken" (jstr "status" r);
      check bool_t "key verified against oracle" true
        (jbool "key_is_correct" r);
      check string_t "first request misses" "miss" (jstr "cache" r);
      let events = List.rev !events in
      check bool_t "iteration telemetry streamed" true
        (List.exists (fun e -> e.Obs.name = "attack.iteration") events)
        ;
      (* The per-record solver-stat deltas forwarded over the socket must
         reproduce the result frame's totals exactly — the same invariant
         test_obs checks in-process. *)
      let sum = sum_records events in
      let total =
        {
          Cdcl.decisions = jint "decisions" r;
          propagations = jint "propagations" r;
          conflicts = jint "conflicts" r;
          restarts = jint "restarts" r;
          learned_clauses = jint "learned_clauses" r;
          learned_literals = jint "learned_literals" r;
          reductions = jint "reductions" r;
          max_decision_level = jint "max_decision_level" r;
        }
      in
      if sum <> total then
        Alcotest.failf "socket deltas do not sum to result totals:@.%a@.%a"
          Cdcl.pp_stats sum Cdcl.pp_stats total)

(* ------------------------------------------------------------------ *)
(* Content-addressed cache                                             *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_on_identical_and_commented () =
  with_server (fun socket ->
      let locked, oracle = texts 2 in
      let c = Client.connect socket in
      let r1 = ok (Client.request c (attack_req ~id:"c1" ~locked ~oracle)) in
      check string_t "cold" "miss" (jstr "cache" r1);
      let r2 = ok (Client.request c (attack_req ~id:"c2" ~locked ~oracle)) in
      check string_t "identical text hits" "hit" (jstr "cache" r2);
      check string_t "same key" (jstr "key" r1) (jstr "key" r2);
      (* A comment-prepended variant has different text (circuit-cache
         miss) but the same structure — the prepared-base cache is keyed
         by structural hash, so it must still hit. *)
      let commented = "# same circuit, different bytes\n" ^ locked in
      let r3 =
        ok (Client.request c (attack_req ~id:"c3" ~locked:commented ~oracle))
      in
      check string_t "content-addressed hit" "hit" (jstr "cache" r3);
      check string_t "same key again" (jstr "key" r1) (jstr "key" r3);
      let s =
        ok
          (Client.request c
             { Protocol.default_request with Protocol.id = "s"; op = "status" })
      in
      check bool_t "status counts base hits" true (jint "cache.hit" s >= 2);
      check bool_t "one prepared base" true (jint "cache.bases" s = 1);
      check bool_t "no collisions" true (jint "cache.collisions" s = 0);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Concurrent clients on a shared pool                                 *)
(* ------------------------------------------------------------------ *)

let test_concurrent_clients () =
  with_server ~jobs:2 (fun socket ->
      let run seed out =
        let locked, oracle = texts seed in
        let c = Client.connect socket in
        let events = ref 0 in
        let r =
          Client.request
            ~on_event:(fun e ->
              if e.Obs.name = "attack.iteration" then incr events)
            c
            (attack_req ~id:(Printf.sprintf "p%d" seed) ~locked ~oracle)
        in
        Client.close c;
        out := Some (r, !events)
      in
      let o1 = ref None and o2 = ref None in
      let t1 = Thread.create (fun () -> run 31 o1) () in
      let t2 = Thread.create (fun () -> run 32 o2) () in
      Thread.join t1;
      Thread.join t2;
      List.iter
        (fun out ->
          match !out with
          | None -> Alcotest.fail "client did not finish"
          | Some (r, events) ->
            let r = ok r in
            check string_t "status" "broken" (jstr "status" r);
            check bool_t "key verified" true (jbool "key_is_correct" r);
            (* Per-request scoped sinks: each client sees only its own
               stream, and every stream is complete. *)
            check bool_t "own telemetry complete" true
              (events = jint "iterations" r))
        [ o1; o2 ])

(* ------------------------------------------------------------------ *)
(* Errors and shutdown                                                 *)
(* ------------------------------------------------------------------ *)

let test_bad_requests_get_error_frames () =
  with_server (fun socket ->
      let c = Client.connect socket in
      (match
         Client.request c
           { Protocol.default_request with Protocol.id = "e1"; op = "attack" }
       with
       | Result.Ok _ -> Alcotest.fail "attack without circuits must fail"
       | Result.Error msg ->
         let contains needle hay =
           let nh = String.length hay and nn = String.length needle in
           let rec go i =
             i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
           in
           go 0
         in
         check bool_t "names the member" true (contains "locked" msg));
      (* The connection survives an error frame. *)
      let s =
        ok
          (Client.request c
             { Protocol.default_request with Protocol.id = "e2"; op = "status" })
      in
      check bool_t "error counted" true (jint "errors" s >= 1);
      Client.close c)

let test_unknown_scheme_is_rejected () =
  with_server (fun socket ->
      let c = Client.connect socket in
      let circuit, _ = texts 5 in
      (match
         Client.request c
           {
             Protocol.default_request with
             Protocol.id = "s1";
             op = "lock";
             circuit = Some circuit;
             scheme = "frob";
           }
       with
       | Result.Ok _ -> Alcotest.fail "lock with an unknown scheme must fail"
       | Result.Error msg ->
         check Alcotest.string "error text"
           "lock failed: unknown scheme \"frob\" (full-lock, rll, mux, sarlock, \
            antisat, sfll, lutlock, crosslock, cyclic)"
           msg);
      Client.close c)

let test_shutdown_is_clean () =
  let socket = Filename.temp_file "flserve" ".sock" in
  Sys.remove socket;
  let t = Server.start (Server.default_config ~socket) in
  let c = Client.connect socket in
  let r =
    ok
      (Client.request c
         { Protocol.default_request with Protocol.id = "z"; op = "shutdown" })
  in
  check bool_t "acknowledged" true (jbool "stopping" r);
  Client.close c;
  (* wait must return (joining listener, scheduler and readers) and
     remove the socket file. *)
  Server.wait t;
  check bool_t "socket removed" false (Sys.file_exists socket)

let () =
  Alcotest.run "fl_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "delta sum over socket" `Quick
            test_attack_streams_and_delta_sum;
        ] );
      ( "cache",
        [
          Alcotest.test_case "content-addressed hits" `Quick
            test_cache_hit_on_identical_and_commented;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "two clients, shared pool" `Quick
            test_concurrent_clients;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "error frames" `Quick
            test_bad_requests_get_error_frames;
          Alcotest.test_case "unknown scheme" `Quick test_unknown_scheme_is_rejected;
          Alcotest.test_case "clean shutdown" `Quick test_shutdown_is_clean;
        ] );
    ]
