(** Tests of the execution engine (lib/exec): the fixed-size domain
    pool and its deterministic [parallel_map]. *)

(* A pure function heavy enough that domains genuinely interleave. *)
let heavy x =
  let acc = ref x in
  for i = 1 to 2_000 do
    acc := (!acc * 31 + i) mod 1_000_003
  done;
  !acc

let inputs n = List.init n (fun i -> i * 7 + 1)

let test_matches_sequential () =
  let xs = inputs 200 in
  let expected = List.map heavy xs in
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int))
        "parallel_map = List.map" expected
        (Exec.Pool.parallel_map pool heavy xs))

let test_repeatable_and_jobs_invariant () =
  let xs = inputs 157 in
  let seq = List.map heavy xs in
  List.iter
    (fun jobs ->
      Exec.Pool.with_pool ~jobs (fun pool ->
          for _ = 1 to 3 do
            Alcotest.(check (list int))
              (Printf.sprintf "jobs=%d run matches sequential" jobs)
              seq
              (Exec.Pool.parallel_map pool heavy xs)
          done))
    [ 1; 2; 3; 8 ]

let test_edge_sizes () =
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty list" []
        (Exec.Pool.parallel_map pool heavy []);
      Alcotest.(check (list int)) "singleton" [ heavy 42 ]
        (Exec.Pool.parallel_map pool heavy [ 42 ]);
      (* Fewer elements than workers. *)
      Alcotest.(check (list int)) "two elements"
        (List.map heavy [ 1; 2 ])
        (Exec.Pool.parallel_map pool heavy [ 1; 2 ]))

let test_exception_propagation () =
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      let f x = if x = 50 then failwith "boom" else heavy x in
      (match Exec.Pool.parallel_map pool f (inputs 100 |> List.mapi (fun i _ -> i)) with
       | _ -> Alcotest.fail "expected Failure"
       | exception Failure msg ->
         Alcotest.(check string) "exception payload" "boom" msg);
      (* The pool survives a failed map and keeps producing correct
         results. *)
      let xs = inputs 80 in
      Alcotest.(check (list int)) "pool reusable after failure"
        (List.map heavy xs)
        (Exec.Pool.parallel_map pool heavy xs))

let test_lowest_index_exception () =
  (* Sequential List.map surfaces the first failing element; the pool
     must do the same regardless of scheduling. *)
  let exception Boom of int in
  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      let f x = if x mod 10 = 3 then raise (Boom x) else heavy x in
      for _ = 1 to 5 do
        match Exec.Pool.parallel_map pool f (List.init 120 Fun.id) with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom x ->
          Alcotest.(check int) "first failing element" 3 x
      done)

let test_exec_map_wrapper () =
  let xs = inputs 60 in
  Alcotest.(check (list int)) "map without pool = List.map"
    (List.map heavy xs)
    (Exec.map ?pool:None heavy xs);
  Exec.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int)) "map with pool = List.map"
        (List.map heavy xs)
        (Exec.map ~pool heavy xs))

let test_default_jobs () =
  let j = Exec.default_jobs () in
  Alcotest.(check bool) "default_jobs in [1;8]" true (j >= 1 && j <= 8)

let test_shutdown_idempotent () =
  let pool = Exec.Pool.create ~jobs:3 in
  Alcotest.(check int) "jobs recorded" 3 (Exec.Pool.jobs pool);
  ignore (Exec.Pool.parallel_map pool heavy (inputs 10));
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool

let test_deadline_api () =
  let a = Exec.Deadline.after_ms 1_000.0 in
  let b = Exec.Deadline.after_ms 60_000.0 in
  Alcotest.(check bool) "future deadline not expired" false
    (Exec.Deadline.expired b);
  (match Exec.Deadline.min_opt (Some a) (Some b) with
   | Some m ->
     Alcotest.(check bool) "min picks the earlier bound" true
       (Exec.Deadline.to_ns m = Exec.Deadline.to_ns a)
   | None -> Alcotest.fail "min of two bounds is a bound");
  (match Exec.Deadline.min_opt None (Some a) with
   | Some m ->
     Alcotest.(check bool) "None is unbounded" true
       (Exec.Deadline.to_ns m = Exec.Deadline.to_ns a)
   | None -> Alcotest.fail "one-sided min keeps the bound");
  Alcotest.(check bool) "min of unbounded is unbounded" true
    (Exec.Deadline.min_opt None None = None);
  (* Negative input clamps to "now": already expired, never negative. *)
  Alcotest.(check bool) "negative ms expired" true
    (Exec.Deadline.expired (Exec.Deadline.after_ms (-5.0)))

let test_context_propagation () =
  (* A request context installed around parallel_map must reach the
     worker domains: every span recorded inside [f] carries the same
     trace id, whether the map runs inline (jobs=1) or fans out. *)
  let n = 64 in
  let run jobs =
    Telemetry.enable ();
    let ctx = Telemetry.Context.root () in
    Exec.Pool.with_pool ~jobs (fun pool ->
        Telemetry.Context.with_context ctx (fun () ->
            ignore
              (Exec.Pool.parallel_map pool
                 (fun x -> Telemetry.with_span "ctx-span" (fun () -> heavy x))
                 (inputs n))));
    Telemetry.disable ();
    let spans = Telemetry.spans_named "ctx-span" in
    Alcotest.(check int)
      (Printf.sprintf "jobs=%d: every element spanned" jobs)
      n (List.length spans);
    List.iter
      (fun (s : Telemetry.span) ->
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d: span carries the request trace id" jobs)
          true
          (s.Telemetry.sp_trace_id = ctx.Telemetry.Context.trace_id))
      spans;
    (* The flight events emitted for those spans are attributed too. *)
    let span_events =
      List.filter
        (fun (e : Telemetry.Flight.event) ->
          e.Telemetry.Flight.f_kind = "span"
          && e.Telemetry.Flight.f_label = "ctx-span")
        (Telemetry.Flight.events ())
    in
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d: span flight events recorded" jobs)
      true
      (span_events <> []);
    List.iter
      (fun (e : Telemetry.Flight.event) ->
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d: flight event carries the trace id" jobs)
          true
          (e.Telemetry.Flight.f_trace_id = ctx.Telemetry.Context.trace_id))
      span_events;
    Telemetry.reset ()
  in
  run 1;
  run 4

let suite =
  [
    ("parallel_map matches List.map", `Quick, test_matches_sequential);
    ("repeatable across runs and job counts", `Quick,
     test_repeatable_and_jobs_invariant);
    ("empty/singleton/small inputs", `Quick, test_edge_sizes);
    ("exception propagation + reuse", `Quick, test_exception_propagation);
    ("lowest-index exception wins", `Quick, test_lowest_index_exception);
    ("Exec.map wrapper", `Quick, test_exec_map_wrapper);
    ("default_jobs bounds", `Quick, test_default_jobs);
    ("shutdown is idempotent", `Quick, test_shutdown_idempotent);
    ("deadline arithmetic", `Quick, test_deadline_api);
    ("trace context reaches pool workers", `Quick, test_context_propagation);
  ]
