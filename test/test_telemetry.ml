(** Tests of the telemetry subsystem: span nesting and durations,
    counter/histogram snapshots, the disabled no-op mode, and the JSONL
    export shape. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_span_nesting () =
  Telemetry.enable ();
  let result =
    Telemetry.with_span "outer" ~attrs:[ ("who", Telemetry.S "test") ]
      (fun () ->
        Telemetry.with_span "inner" (fun () -> ());
        Telemetry.with_span "inner" (fun () -> ());
        42)
  in
  Telemetry.disable ();
  Alcotest.(check int) "with_span returns the thunk's value" 42 result;
  let spans = Telemetry.spans () in
  Alcotest.(check int) "three spans recorded" 3 (List.length spans);
  let outer =
    List.find (fun s -> s.Telemetry.sp_name = "outer") spans
  in
  let inners = Telemetry.spans_named "inner" in
  Alcotest.(check int) "two inner spans" 2 (List.length inners);
  List.iter
    (fun (i : Telemetry.span) ->
      Alcotest.(check bool) "inner's parent is outer" true
        (i.Telemetry.sp_parent = Some outer.Telemetry.sp_id);
      (* Duration monotonicity: a child span cannot run longer than its
         enclosing span, and no duration is negative. *)
      Alcotest.(check bool) "child duration <= parent duration" true
        (Int64.compare i.Telemetry.sp_dur_ns outer.Telemetry.sp_dur_ns <= 0);
      Alcotest.(check bool) "child starts after parent" true
        (Int64.compare outer.Telemetry.sp_start_ns i.Telemetry.sp_start_ns
         <= 0))
    inners;
  Alcotest.(check bool) "no negative durations" true
    (List.for_all (fun s -> Int64.compare s.Telemetry.sp_dur_ns 0L >= 0) spans);
  Alcotest.(check bool) "outer has no parent" true
    (outer.Telemetry.sp_parent = None);
  Alcotest.(check bool) "outer kept its attribute" true
    (List.mem_assoc "who" outer.Telemetry.sp_attrs)

let test_span_survives_exception () =
  Telemetry.enable ();
  (try
     Telemetry.with_span "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  Telemetry.disable ();
  Alcotest.(check int) "span recorded despite the exception" 1
    (List.length (Telemetry.spans_named "failing"))

let test_metrics_snapshot () =
  Telemetry.enable ();
  let c = Telemetry.counter "test.counter" in
  let h = Telemetry.histogram "test.histogram" in
  Telemetry.incr c;
  Telemetry.incr ~by:9 c;
  List.iter (Telemetry.observe h) [ 2.0; 4.0; 6.0 ];
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Alcotest.(check int) "counter accumulated" 10
    (Telemetry.find_counter snap "test.counter");
  Alcotest.(check int) "unknown counter defaults to 0" 0
    (Telemetry.find_counter snap "test.no-such-counter");
  let hs = List.assoc "test.histogram" snap.Telemetry.histograms in
  Alcotest.(check int) "histogram count" 3 hs.Telemetry.h_count;
  Alcotest.(check (float 1e-9)) "histogram mean" 4.0 hs.Telemetry.h_mean;
  Alcotest.(check (float 1e-9)) "histogram min" 2.0 hs.Telemetry.h_min;
  Alcotest.(check (float 1e-9)) "histogram max" 6.0 hs.Telemetry.h_max;
  (* enable() resets values but keeps registered handles. *)
  Telemetry.enable ();
  let snap2 = Telemetry.snapshot () in
  Telemetry.disable ();
  Alcotest.(check int) "enable() zeroes counters" 0
    (Telemetry.find_counter snap2 "test.counter")

let test_noop_when_disabled () =
  Telemetry.disable ();
  Telemetry.reset ();
  let c = Telemetry.counter "test.disabled-counter" in
  let h = Telemetry.histogram "test.disabled-histogram" in
  let v =
    Telemetry.with_span "disabled-span" (fun () ->
        Telemetry.incr ~by:100 c;
        Telemetry.observe h 5.0;
        Telemetry.add_attr "k" (Telemetry.I 1);
        "through")
  in
  Alcotest.(check string) "thunk still runs" "through" v;
  Alcotest.(check int) "no spans recorded" 0
    (List.length (Telemetry.spans ()));
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "counter untouched" 0
    (Telemetry.find_counter snap "test.disabled-counter");
  let hs = List.assoc "test.disabled-histogram" snap.Telemetry.histograms in
  Alcotest.(check int) "histogram untouched" 0 hs.Telemetry.h_count

let test_jsonl_export () =
  Telemetry.enable ();
  Telemetry.with_span "export.root"
    ~attrs:[ ("q", Telemetry.S "say \"hi\""); ("n", Telemetry.I 7) ]
    (fun () -> Telemetry.with_span "export.child" (fun () -> ()));
  Telemetry.disable ();
  let path = Filename.temp_file "telemetry" ".jsonl" in
  (match Telemetry.write_jsonl path with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "write_jsonl failed: %s" msg);
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  let lines = read [] in
  Sys.remove path;
  Alcotest.(check int) "one line per span" 2 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length line > 1 && line.[0] = '{'
         && line.[String.length line - 1] = '}');
      List.iter
        (fun field ->
          Alcotest.(check bool) (field ^ " present") true
            (contains ~needle:("\"" ^ field ^ "\":") line))
        [ "name"; "id"; "parent"; "start_ms"; "dur_ms"; "attrs" ])
    lines;
  let root = List.hd lines in
  Alcotest.(check bool) "root parent is null" true
    (contains ~needle:"\"parent\":null" root);
  Alcotest.(check bool) "string attr is escaped" true
    (contains ~needle:"say \\\"hi\\\"" root);
  let child = List.nth lines 1 in
  Alcotest.(check bool) "child parent is the root id" true
    (contains ~needle:"\"parent\":0" child)

let test_render () =
  Telemetry.enable ();
  let c = Telemetry.counter "test.render-counter" in
  Telemetry.incr ~by:3 c;
  let metrics = Telemetry.render_metrics (Telemetry.snapshot ()) in
  Telemetry.disable ();
  Alcotest.(check bool) "metrics table has the counter" true
    (contains ~needle:"test.render-counter" metrics)

let test_multi_domain_metrics () =
  (* Counters and histograms accept concurrent updates from several
     domains without losing any (atomics / per-domain shards). *)
  Telemetry.reset ();
  Telemetry.enable ();
  let c = Telemetry.counter "test.domains-counter" in
  let h = Telemetry.histogram "test.domains-histogram" in
  let per_domain = 1_000 in
  let worker d () =
    for _ = 1 to per_domain do
      Telemetry.incr c;
      Telemetry.observe h (float_of_int (d + 1))
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Alcotest.(check int) "no lost counter increments" (4 * per_domain)
    (Telemetry.find_counter snap "test.domains-counter");
  let hs = List.assoc "test.domains-histogram" snap.Telemetry.histograms in
  Alcotest.(check int) "no lost observations" (4 * per_domain)
    hs.Telemetry.h_count;
  Alcotest.(check (float 1e-9)) "min across domains" 1.0 hs.Telemetry.h_min;
  Alcotest.(check (float 1e-9)) "max across domains" 4.0 hs.Telemetry.h_max;
  Alcotest.(check (float 1e-6)) "mean across domains" 2.5 hs.Telemetry.h_mean;
  Telemetry.reset ()

let test_context () =
  (* Outside any context: no identity, zero trace id. *)
  Alcotest.(check bool) "no current context initially" true
    (Telemetry.Context.current () = None);
  Alcotest.(check bool) "trace_id is 0 outside any context" true
    (Telemetry.Context.trace_id () = 0L);
  let a = Telemetry.Context.root () in
  let b = Telemetry.Context.root () in
  Alcotest.(check bool) "trace ids are non-zero" true
    (a.Telemetry.Context.trace_id <> 0L && b.Telemetry.Context.trace_id <> 0L);
  Alcotest.(check bool) "trace ids are distinct" true
    (a.Telemetry.Context.trace_id <> b.Telemetry.Context.trace_id);
  Alcotest.(check bool) "request ids are distinct" true
    (a.Telemetry.Context.request_id <> b.Telemetry.Context.request_id);
  let hex = Telemetry.Context.trace_id_hex a in
  Alcotest.(check int) "hex id is 16 digits" 16 (String.length hex);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    hex;
  (* Nesting installs and restores, exception-safe. *)
  Telemetry.Context.with_context a (fun () ->
      Alcotest.(check bool) "outer installed" true
        (Telemetry.Context.trace_id () = a.Telemetry.Context.trace_id);
      Telemetry.Context.with_context b (fun () ->
          Alcotest.(check bool) "inner shadows outer" true
            (Telemetry.Context.trace_id () = b.Telemetry.Context.trace_id));
      (try
         Telemetry.Context.with_context b (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check bool) "outer restored after inner (and exception)" true
        (Telemetry.Context.trace_id () = a.Telemetry.Context.trace_id));
  Alcotest.(check bool) "no context after with_context returns" true
    (Telemetry.Context.current () = None);
  Telemetry.Context.with_current (Some a) (fun () ->
      Alcotest.(check bool) "with_current Some installs" true
        (Telemetry.Context.trace_id () = a.Telemetry.Context.trace_id));
  Telemetry.Context.with_current None (fun () ->
      Alcotest.(check bool) "with_current None is transparent" true
        (Telemetry.Context.current () = None))

let test_generation_race () =
  (* Regression: a reset/enable racing a span open on another domain
     must drop the stale span rather than misattribute it to the new
     run — and must not corrupt subsequent recording. *)
  Telemetry.enable ();
  let started = Atomic.make false in
  let release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Telemetry.with_span "stale-span" (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (* Lifecycle swap while the span is still open on the other domain. *)
  Telemetry.enable ();
  Atomic.set release true;
  Domain.join d;
  Telemetry.with_span "fresh-span" (fun () -> ());
  Telemetry.disable ();
  Alcotest.(check int) "stale-generation span dropped" 0
    (List.length (Telemetry.spans_named "stale-span"));
  Alcotest.(check int) "fresh span still recorded" 1
    (List.length (Telemetry.spans_named "fresh-span"));
  Telemetry.reset ()

let test_sketch_quantiles () =
  (* Four domains observe disjoint slices of 1..1000; the merged sketch
     quantiles must land within the documented ~5% relative error of
     the exact nearest-rank answers. *)
  Telemetry.enable ();
  let h = Telemetry.histogram "test.sketch-merge" in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 250 do
              Telemetry.observe h (float_of_int ((d * 250) + i))
            done))
  in
  List.iter Domain.join domains;
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  let hs = List.assoc "test.sketch-merge" snap.Telemetry.histograms in
  Alcotest.(check int) "all observations merged" 1000 hs.Telemetry.h_count;
  Alcotest.(check (float 1e-9)) "exact min survives" 1.0 hs.Telemetry.h_min;
  Alcotest.(check (float 1e-9)) "exact max survives" 1000.0 hs.Telemetry.h_max;
  let close name est exact =
    let rel = Float.abs (est -. exact) /. exact in
    Alcotest.(check bool)
      (Printf.sprintf "%s within 5%% (est %.2f exact %.2f)" name est exact)
      true (rel <= 0.05)
  in
  close "p50" hs.Telemetry.h_p50 500.0;
  close "p95" hs.Telemetry.h_p95 950.0;
  close "p99" hs.Telemetry.h_p99 990.0;
  Telemetry.reset ()

let test_flight_recorder () =
  Telemetry.Flight.clear ();
  (* Overfill this domain's stripe to force ring wrap-around. *)
  for i = 1 to 600 do
    Telemetry.Flight.record ~kind:"test" ~value:(float_of_int i) "wrap-evt"
  done;
  let evs = Telemetry.Flight.events () in
  Alcotest.(check bool) "ring keeps a bounded window" true
    (List.length evs > 0 && List.length evs <= Telemetry.Flight.capacity);
  Alcotest.(check bool) "wrap-around counted" true
    (Telemetry.Flight.overwritten () >= 600 - Telemetry.Flight.capacity
     && Telemetry.Flight.overwritten () > 0);
  let rec sorted = function
    | (a : Telemetry.Flight.event) :: (b :: _ as rest) ->
      Int64.compare a.Telemetry.Flight.f_ns b.Telemetry.Flight.f_ns <= 0
      && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "events come back in time order" true (sorted evs);
  Alcotest.(check bool) "unattributed events carry trace id 0" true
    (List.for_all
       (fun (e : Telemetry.Flight.event) -> e.Telemetry.Flight.f_trace_id = 0L)
       evs);
  (* A context-attributed event, then a JSONL dump. *)
  let ctx = Telemetry.Context.root () in
  Telemetry.Context.with_context ctx (fun () ->
      Telemetry.Flight.record ~kind:"test" "attributed-evt");
  let path = Filename.temp_file "autotype-flight" ".jsonl" in
  (match Telemetry.Flight.dump path with
   | Ok n ->
     Alcotest.(check bool) "dump writes every ring event" true
       (n > 0 && n <= Telemetry.Flight.capacity)
   | Error msg -> Alcotest.failf "flight dump failed: %s" msg);
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  let lines = read [] in
  Sys.remove path;
  Alcotest.(check bool) "one JSON object per line" true
    (List.for_all
       (fun l ->
         String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}')
       lines);
  let hex = Telemetry.Context.trace_id_hex ctx in
  Alcotest.(check bool) "attributed event dumps with its trace id" true
    (List.exists
       (fun l -> contains ~needle:"attributed-evt" l && contains ~needle:hex l)
       lines);
  Alcotest.(check bool) "unattributed events dump with zero trace id" true
    (List.exists
       (fun l ->
         contains ~needle:"wrap-evt" l
         && contains ~needle:"0000000000000000" l)
       lines);
  Telemetry.Flight.clear ();
  Alcotest.(check int) "clear empties the ring" 0
    (List.length (Telemetry.Flight.events ()));
  Alcotest.(check int) "clear resets the overwrite count" 0
    (Telemetry.Flight.overwritten ())

let test_expose_prometheus () =
  Telemetry.enable ();
  Telemetry.incr ~by:3 (Telemetry.counter "test.expose-counter");
  let h = Telemetry.histogram "test.expose-hist" in
  List.iter (Telemetry.observe h) [ 1.0; 2.0; 3.0 ];
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  let text = Telemetry.Expose.render_prometheus snap in
  Alcotest.(check bool) "counter family rendered" true
    (contains ~needle:"# TYPE autotype_test_expose_counter_total counter" text
     && contains ~needle:"autotype_test_expose_counter_total 3" text);
  Alcotest.(check bool) "histogram rendered as summary" true
    (contains ~needle:"# TYPE autotype_test_expose_hist summary" text
     && contains ~needle:"quantile=\"0.99\"" text
     && contains ~needle:"autotype_test_expose_hist_count 3" text);
  (* Our own exposition must pass our own lint. *)
  (match Telemetry.Expose.lint text with
   | Ok n -> Alcotest.(check bool) "lint counts families" true (n >= 3)
   | Error msgs ->
     Alcotest.failf "exposition failed lint: %s" (String.concat "; " msgs));
  Telemetry.reset ()

let test_expose_lint_rejects () =
  let expect_error what text =
    match Telemetry.Expose.lint text with
    | Ok _ -> Alcotest.failf "lint accepted %s" what
    | Error msgs ->
      Alcotest.(check bool) (what ^ " reported") true (msgs <> [])
  in
  expect_error "sample without HELP/TYPE" "autotype_orphan 1\n";
  expect_error "duplicate family"
    "# HELP autotype_x x\n# TYPE autotype_x counter\n# TYPE autotype_x counter\nautotype_x 1\n";
  expect_error "malformed metric name"
    "# HELP autotype_y y\n# TYPE autotype_y counter\nautotype_y 1\n9bad 2\n";
  expect_error "unparsable sample value"
    "# HELP autotype_z z\n# TYPE autotype_z counter\nautotype_z nope\n";
  expect_error "non-contiguous family samples"
    "# HELP autotype_a a\n# TYPE autotype_a counter\nautotype_a 1\n\
     # HELP autotype_b b\n# TYPE autotype_b counter\nautotype_b 1\n\
     autotype_a 2\n";
  expect_error "declared family with no samples"
    "# HELP autotype_ghost g\n# TYPE autotype_ghost counter\n"

let suite =
  [ Alcotest.test_case "span nesting and durations" `Quick test_span_nesting;
    Alcotest.test_case "multi-domain counters and histograms" `Quick
      test_multi_domain_metrics;
    Alcotest.test_case "span survives exception" `Quick
      test_span_survives_exception;
    Alcotest.test_case "counter and histogram snapshots" `Quick
      test_metrics_snapshot;
    Alcotest.test_case "no-op when disabled" `Quick test_noop_when_disabled;
    Alcotest.test_case "jsonl export shape" `Quick test_jsonl_export;
    Alcotest.test_case "metrics rendering" `Quick test_render;
    Alcotest.test_case "trace contexts: ids, nesting, restore" `Quick
      test_context;
    Alcotest.test_case "reset race drops stale-generation spans" `Quick
      test_generation_race;
    Alcotest.test_case "sketch quantiles merge across domains" `Quick
      test_sketch_quantiles;
    Alcotest.test_case "flight recorder: wrap, dump, attribution" `Quick
      test_flight_recorder;
    Alcotest.test_case "prometheus exposition passes lint" `Quick
      test_expose_prometheus;
    Alcotest.test_case "exposition lint rejects malformed text" `Quick
      test_expose_lint_rejects ]
