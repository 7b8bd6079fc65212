(* Tests for Fl_par: deterministic result ordering (parallel = jobs-1
   semantics), retry and failure bookkeeping, cancellation, soft-timeout
   marking, pool reuse across batches, the map_list/List.map
   equivalence, and the par.* event stream. *)

module Par = Fl_par
module Obs = Fl_obs

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let qcheck_case ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let values outcomes = List.filter_map Par.value outcomes

(* ------------------------------------------------------------------ *)
(* Ordering and determinism                                            *)
(* ------------------------------------------------------------------ *)

let test_results_land_by_index () =
  (* Tasks finish in scrambled order (later tasks sleep less); results must
     come back by submission index regardless. *)
  let n = 12 in
  let tasks =
    Array.init n (fun i () ->
        Unix.sleepf (0.002 *. float_of_int (n - i));
        i * i)
  in
  Par.with_pool ~jobs:4 (fun p ->
      let out = Par.run p tasks in
      check (Alcotest.list int_t) "squares in index order"
        (List.init n (fun i -> i * i))
        (values (Array.to_list out)))

let test_parallel_matches_sequential () =
  let xs = List.init 40 (fun i -> i) in
  let f x = (x * 7919) mod 101 in
  let seq = Par.with_pool ~jobs:1 (fun p -> Par.map_list p f xs) in
  let par = Par.with_pool ~jobs:3 (fun p -> Par.map_list p f xs) in
  check (Alcotest.list int_t) "jobs=3 equals jobs=1"
    (List.filter_map Par.value seq)
    (List.filter_map Par.value par)

(* ------------------------------------------------------------------ *)
(* Retry, failure, cancellation                                        *)
(* ------------------------------------------------------------------ *)

let test_retry_then_succeed () =
  (* Fails on the first two attempts, succeeds on the third. *)
  let attempts = Atomic.make 0 in
  let flaky () =
    if Atomic.fetch_and_add attempts 1 < 2 then failwith "flaky" else 42
  in
  Par.with_pool ~jobs:1 (fun p ->
      let out = Par.run p ~retries:2 [| flaky |] in
      (match out.(0) with
       | Par.Done 42 -> ()
       | _ -> Alcotest.fail "expected Done 42 after retries");
      let s = Par.last_stats p in
      check int_t "two retries recorded" 2 s.Par.retries;
      check int_t "completed" 1 s.Par.completed)

let test_failure_and_cancellation () =
  (* jobs=1 runs in index order, so everything after the fatal task is
     deterministically cancelled. *)
  let tasks =
    [|
      (fun () -> 1);
      (fun () -> failwith "boom");
      (fun () -> 3);
      (fun () -> 4);
    |]
  in
  Par.with_pool ~jobs:1 (fun p ->
      let out = Par.run p ~retries:1 tasks in
      (match out.(0) with Par.Done 1 -> () | _ -> Alcotest.fail "task 0 Done");
      (match out.(1) with
       | Par.Failed (msg, attempts) ->
         let contains_boom =
           let n = String.length msg in
           let rec go i = i + 4 <= n && (String.sub msg i 4 = "boom" || go (i + 1)) in
           go 0
         in
         check bool_t "message kept" true contains_boom;
         check int_t "initial try + one retry" 2 attempts
       | _ -> Alcotest.fail "task 1 Failed");
      (match out.(2), out.(3) with
       | Par.Cancelled, Par.Cancelled -> ()
       | _ -> Alcotest.fail "tasks after the failure cancelled");
      let s = Par.last_stats p in
      check int_t "failed" 1 s.Par.failed;
      check int_t "cancelled" 2 s.Par.cancelled;
      check int_t "retries" 1 s.Par.retries;
      (* get surfaces the failure as an exception. *)
      check bool_t "get raises" true
        (match Par.get out.(1) with
         | _ -> false
         | exception Failure _ -> true))

(* ------------------------------------------------------------------ *)
(* Soft timeout                                                        *)
(* ------------------------------------------------------------------ *)

let test_late_marking () =
  Par.with_pool ~jobs:1 (fun p ->
      let out =
        Par.run p ~timeout:0.005
          [| (fun () -> Unix.sleepf 0.03; "slow"); (fun () -> "fast") |]
      in
      (match out.(0) with
       | Par.Late ("slow", elapsed) ->
         check bool_t "elapsed recorded" true (elapsed >= 0.005)
       | _ -> Alcotest.fail "slow task marked Late");
      (match out.(1) with
       | Par.Done "fast" -> ()
       | _ -> Alcotest.fail "fast task Done");
      check int_t "late counted" 1 (Par.last_stats p).Par.late;
      (* Late results still carry their value. *)
      check bool_t "value kept" true (Par.value out.(0) = Some "slow"))

(* ------------------------------------------------------------------ *)
(* Pool reuse                                                          *)
(* ------------------------------------------------------------------ *)

let test_pool_reuse_across_batches () =
  Par.with_pool ~jobs:3 (fun p ->
      let b1 = Par.map_list p (fun x -> x + 1) (List.init 10 Fun.id) in
      check (Alcotest.list int_t) "first batch"
        (List.init 10 (fun i -> i + 1))
        (values b1);
      let b2 = Par.map_list p (fun x -> x * 2) (List.init 7 Fun.id) in
      check (Alcotest.list int_t) "second batch on same workers"
        (List.init 7 (fun i -> 2 * i))
        (values b2);
      check int_t "stats are per batch" 7 (Par.last_stats p).Par.tasks)

let test_empty_batch () =
  Par.with_pool ~jobs:2 (fun p ->
      check int_t "empty batch" 0 (Array.length (Par.run p [||])))

(* ------------------------------------------------------------------ *)
(* map_list = List.map                                                *)
(* ------------------------------------------------------------------ *)

let map_list_matches_sequential =
  qcheck_case "parallel map_list = List.map"
    QCheck2.Gen.(pair (list_size (0 -- 25) small_int) (2 -- 4))
    (fun (xs, jobs) ->
      let f x = (x * 31) lxor 5 in
      let got =
        Par.with_pool ~jobs (fun p -> List.map Par.get (Par.map_list p f xs))
      in
      List.map f xs = got)

(* ------------------------------------------------------------------ *)
(* Events and counters                                                 *)
(* ------------------------------------------------------------------ *)

let test_par_events () =
  let events = ref [] in
  Obs.with_sink
    (fun e -> if String.length e.Obs.name >= 4
               && String.sub e.Obs.name 0 4 = "par." then events := e :: !events)
    (fun () ->
      Par.with_pool ~name:"evpool" ~jobs:2 (fun p ->
          ignore (Par.map_list p (fun x -> x) (List.init 3 Fun.id))));
  let count name =
    List.length (List.filter (fun e -> e.Obs.name = name) !events)
  in
  check int_t "three starts" 3 (count "par.task.start");
  check int_t "three dones" 3 (count "par.task.done");
  check int_t "one batch record" 1 (count "par.batch.done");
  List.iter
    (fun e ->
      if e.Obs.name = "par.task.start" then
        match List.assoc_opt "pool" e.Obs.fields with
        | Some (Obs.String "evpool") -> ()
        | _ -> Alcotest.fail "task event tagged with pool name")
    !events

let test_counters_merge_across_domains () =
  (* Worker-domain increments must be visible in the global snapshot:
     par.tasks grows by exactly the number of tasks submitted. *)
  let before = Obs.Counter.value (Obs.Counter.make "par.tasks") in
  Par.with_pool ~jobs:3 (fun p ->
      ignore (Par.map_list p (fun x -> x) (List.init 11 Fun.id)));
  let after = Obs.Counter.value (Obs.Counter.make "par.tasks") in
  check int_t "worker increments merged" 11 (after - before)

let test_run_inline_jobs1 () =
  (* A jobs = 1 pool runs every task on the calling domain, in index
     order. *)
  Par.with_pool ~jobs:1 (fun p ->
      let self = (Domain.self () :> int) in
      let order = ref [] in
      let out =
        Par.run p
          (Array.init 4 (fun i () ->
               order := i :: !order;
               (Domain.self () :> int)))
      in
      check (Alcotest.list int_t) "index order" [ 0; 1; 2; 3 ]
        (List.rev !order);
      check bool_t "ran on the calling domain" true
        (List.for_all (fun d -> d = self) (values (Array.to_list out))))

let test_nested_run_rejected () =
  (* The documented deadlock is a fail-fast error: calling back into the
     pool from one of its own tasks raises Invalid_argument — on the
     jobs = 1 inline path and from a worker domain alike. *)
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun p ->
          let out =
            Par.run p
              [|
                (fun () ->
                  match Par.run p [| (fun () -> 0) |] with
                  | _ -> "no-raise"
                  | exception Invalid_argument _ -> "raised");
              |]
          in
          match out with
          | [| Par.Done "raised" |] -> ()
          | _ ->
            Alcotest.failf "jobs=%d: nested run must raise Invalid_argument"
              jobs))
    [ 1; 2 ]

let () =
  Alcotest.run "fl_par"
    [
      ( "ordering",
        [
          Alcotest.test_case "results land by index" `Quick
            test_results_land_by_index;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_matches_sequential;
        ] );
      ( "failures",
        [
          Alcotest.test_case "retry then succeed" `Quick test_retry_then_succeed;
          Alcotest.test_case "failure cancels the rest" `Quick
            test_failure_and_cancellation;
          Alcotest.test_case "late marking" `Quick test_late_marking;
        ] );
      ( "batches",
        [
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse_across_batches;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "jobs=1 inline" `Quick test_run_inline_jobs1;
          Alcotest.test_case "nested run rejected" `Quick
            test_nested_run_rejected;
          map_list_matches_sequential;
        ] );
      ( "observability",
        [
          Alcotest.test_case "par events" `Quick test_par_events;
          Alcotest.test_case "counters merge" `Quick
            test_counters_merge_across_domains;
        ] );
    ]
