(** Tests of the serving layer (DESIGN.md §15): column/snapshot
    ingestion (the empty-line and truncated-read fixes), the framing
    codec, the protocol codec, and the daemon itself — round-trips over
    pipes and a Unix socket, verdict parity with the library serve
    path, and admission-control rejections. *)

module J = Model.Jsonx

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let fresh_path =
  let n = ref 0 in
  fun suffix ->
    incr n;
    let stamp = Filename.temp_file "autotype-serve" "" in
    Sys.remove stamp;
    Printf.sprintf "%s-%d%s" stamp !n suffix

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ------------------------------ ingestion --------------------------- *)

let test_read_column_preserves_empties () =
  let path = fresh_path ".col" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path "1.2.3.4\n\n5.6.7.8\r\n\r\n  \n9.9.9.9";
  Telemetry.enable ();
  (match Serve.Ingest.read_column path with
   | Error m -> Alcotest.fail m
   | Ok values ->
     (* Blank lines are values; CR is stripped; interior spaces kept;
        the unterminated last line still counts. *)
     Alcotest.(check (list string))
       "empty lines are real values"
       [ "1.2.3.4"; ""; "5.6.7.8"; ""; "  "; "9.9.9.9" ]
       values);
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Alcotest.(check int) "empty values counted" 2
    (Telemetry.find_counter snap "detect.empty_values")

let test_read_examples_drops_blanks () =
  let path = fresh_path ".ex" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path "  a \n\nb\r\n   \nc\n";
  (match Serve.Ingest.read_examples path with
   | Error m -> Alcotest.fail m
   | Ok values ->
     Alcotest.(check (list string))
       "examples are trimmed, blanks dropped" [ "a"; "b"; "c" ] values);
  match Serve.Ingest.read_column "/nonexistent/column/file" with
  | Ok _ -> Alcotest.fail "missing file must not read"
  | Error _ -> ()

let test_read_channel_truncation () =
  let path = fresh_path ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path "0123456789";
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  (match Serve.Ingest.read_channel ic ~len:4 with
   | Ok s -> Alcotest.(check string) "exact read" "0123" s
   | Error m -> Alcotest.fail m);
  (* Asking for more than remains is the file-shrank-mid-read case:
     it must come back as Error, not an escaped End_of_file. *)
  match Serve.Ingest.read_channel ic ~len:1000 with
  | Ok _ -> Alcotest.fail "truncated read must not succeed"
  | Error m ->
    Alcotest.(check bool) "error mentions truncation" true
      (String.length m > 0)

let test_read_file () =
  let path = fresh_path ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write_file path "whole\nfile\n";
  (match Serve.Ingest.read_file path with
   | Ok s -> Alcotest.(check string) "whole file" "whole\nfile\n" s
   | Error m -> Alcotest.fail m);
  match Serve.Ingest.read_file "/nonexistent/snapshot.json" with
  | Ok _ -> Alcotest.fail "missing file must not read"
  | Error _ -> ()

(* ------------------------------- framing ---------------------------- *)

let feed_all dec chunks =
  let out = ref [] in
  List.iter
    (fun chunk ->
      Serve.Frame.feed dec chunk;
      let rec drain () =
        match Serve.Frame.next dec with
        | Some item -> out := item :: !out; drain ()
        | None -> ()
      in
      drain ())
    chunks;
  List.rev !out

let test_frame_roundtrip () =
  let payloads = [ "{}"; "{\"id\":1}"; ""; "embedded\nnewline" ] in
  let stream = String.concat "" (List.map Serve.Frame.encode payloads) in
  (* Whole stream at once, then byte-by-byte: same frames either way. *)
  let whole = feed_all (Serve.Frame.decoder ()) [ stream ] in
  let dribble =
    feed_all (Serve.Frame.decoder ())
      (List.init (String.length stream) (fun i -> String.make 1 stream.[i]))
  in
  let expect = List.map (fun p -> Serve.Frame.Payload p) payloads in
  Alcotest.(check bool) "whole-stream decode" true (whole = expect);
  Alcotest.(check bool) "byte-dribble decode" true (dribble = expect)

let test_frame_resync () =
  let good = Serve.Frame.encode "{\"id\":7}" in
  let items =
    feed_all (Serve.Frame.decoder ()) [ "not-a-number\n" ^ good ]
  in
  (match items with
   | [ Serve.Frame.Bad_header h; Serve.Frame.Payload p ] ->
     Alcotest.(check string) "offending header" "not-a-number" h;
     Alcotest.(check string) "frame after resync" "{\"id\":7}" p
   | _ -> Alcotest.fail "expected Bad_header then Payload");
  (* A header that lies about the length costs one frame, not the
     connection. *)
  let items =
    feed_all (Serve.Frame.decoder ()) [ "3\nwrong!\n" ^ good ]
  in
  (match items with
   | [ Serve.Frame.Bad_terminator; Serve.Frame.Payload _ ] -> ()
   | _ -> Alcotest.fail "expected Bad_terminator then Payload");
  (* An over-limit declaration poisons the decoder: the payload bytes
     were never read, so there is nothing to resync on. *)
  let dec = Serve.Frame.decoder () in
  let items = feed_all dec [ Printf.sprintf "%d\n" (Serve.Frame.max_payload + 1) ] in
  (match items with
   | [ Serve.Frame.Too_large _ ] -> ()
   | _ -> Alcotest.fail "expected Too_large");
  Serve.Frame.feed dec good;
  Alcotest.(check bool) "poisoned decoder yields nothing" true
    (Serve.Frame.next dec = None)

(* ------------------------------- protocol --------------------------- *)

let test_request_codec () =
  (match
     Serve.Protocol.request_of_json
       {|{"id":3,"op":"validate","type":"ipv4","values":["a","","b"],"value_budget_ms":2.5,"trace_id":"00000000000000ff"}|}
   with
   | Error pe -> Alcotest.fail pe.Serve.Protocol.pe_reason
   | Ok rq ->
     Alcotest.(check int) "id" 3 rq.Serve.Protocol.rq_id;
     Alcotest.(check bool) "op" true
       (rq.Serve.Protocol.rq_op = Serve.Protocol.Validate);
     Alcotest.(check (list string)) "values (empties kept)"
       [ "a"; ""; "b" ] rq.Serve.Protocol.rq_values;
     Alcotest.(check bool) "trace id adopted" true
       (rq.Serve.Protocol.rq_trace_id = Some 0xffL));
  (* Missing id, missing type, bad trace ids: typed errors, and the id
     still comes back when it was readable. *)
  (match Serve.Protocol.request_of_json {|{"op":"health"}|} with
   | Ok _ -> Alcotest.fail "missing id must not parse"
   | Error pe ->
     Alcotest.(check bool) "no id recovered" true
       (pe.Serve.Protocol.pe_id = None));
  (match Serve.Protocol.request_of_json {|{"id":9,"op":"validate"}|} with
   | Ok _ -> Alcotest.fail "validate without type must not parse"
   | Error pe ->
     Alcotest.(check bool) "id recovered" true
       (pe.Serve.Protocol.pe_id = Some 9));
  match Serve.Protocol.request_of_json {|{"id":1,"op":"health","trace_id":"xyz"}|} with
  | Ok _ -> Alcotest.fail "malformed trace_id must not parse"
  | Error _ -> ()

(* ------------------------------ the daemon -------------------------- *)

(* One compiled ipv4 model, built once for the whole suite (the
   pipeline run is the expensive part). *)
let registry_dir = lazy begin
  let ty = Semtypes.Registry.find_exn "ipv4" in
  let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
  let compiled =
    Autotype_core.Pipeline.compile ~index:(Corpus.search_index ())
      ~query:ty.Semtypes.Registry.name ~positives ()
  in
  let artifact =
    match Model.Artifact.of_compiled compiled with
    | Some a -> Model.Artifact.with_type_id "ipv4" a
    | None -> Alcotest.fail "no ipv4 function synthesized"
  in
  let dir = fresh_path ".models" in
  (match Model.Registry.create_dir dir with
   | Error m -> Alcotest.fail m
   | Ok registry ->
     (match Model.Registry.save registry artifact with
      | Error m -> Alcotest.fail m
      | Ok _ -> ()));
  at_exit (fun () -> try rm_rf dir with Sys_error _ -> ());
  dir
end

let open_registry () =
  match Model.Registry.open_dir (Lazy.force registry_dir) with
  | Ok r -> r
  | Error m -> Alcotest.fail m

let ipv4_synthesis () =
  match Model.Registry.find (open_registry ()) "ipv4" with
  | Ok entry -> entry.Model.Registry.synthesis
  | Error e -> Alcotest.fail (Model.Artifact.load_error_to_string e)

(* Run the daemon synchronously over pipes: all request bytes are
   written up front and the write end closed, so the first drain cycle
   sees every frame at once — which makes admission-control outcomes
   deterministic.  Returns the decoded replies in order. *)
let run_bytes_over_pipes ?pool ?max_inflight ?registry request_bytes =
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let b = Bytes.of_string request_bytes in
  let n = Unix.write in_w b 0 (Bytes.length b) in
  Alcotest.(check int) "all requests fit the pipe" (Bytes.length b) n;
  Unix.close in_w;
  let registry =
    match registry with Some r -> r | None -> open_registry ()
  in
  let cfg = Serve.Daemon.config ?pool ?max_inflight registry in
  let served, rejected = Serve.Daemon.run_fds cfg ~in_fd:in_r ~out_fd:out_w in
  Unix.close in_r;
  Unix.close out_w;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec slurp () =
    match Unix.read out_r chunk 0 65536 with
    | 0 -> ()
    | n -> Buffer.add_subbytes buf chunk 0 n; slurp ()
  in
  slurp ();
  Unix.close out_r;
  let dec = Serve.Frame.decoder () in
  Serve.Frame.feed dec (Buffer.contents buf);
  let rec drain acc =
    match Serve.Frame.next dec with
    | Some (Serve.Frame.Payload p) ->
      (match Serve.Protocol.reply_of_json p with
       | Ok r -> drain (r :: acc)
       | Error m -> Alcotest.fail ("unparsable reply: " ^ m))
    | Some _ -> Alcotest.fail "daemon emitted a malformed frame"
    | None -> List.rev acc
  in
  (drain [], served, rejected)

let run_over_pipes ?pool ?max_inflight frames =
  run_bytes_over_pipes ?pool ?max_inflight
    (String.concat "" (List.map Serve.Frame.encode frames))

let str_list j = List.map J.to_str (J.to_list j)

let test_daemon_pipe_roundtrip () =
  let values = [ "1.2.3.4"; "not-an-ip"; ""; "255.255.255.255" ] in
  let column = [ "10.0.0.1"; "8.8.8.8"; "1.1.1.1"; "bogus"; "2.2.2.2" ] in
  let enc vs = J.List (List.map (fun v -> J.Str v) vs) in
  let frames =
    [ J.to_string
        (J.Obj [ ("id", J.Int 1); ("op", J.Str "validate");
                 ("type", J.Str "ipv4"); ("values", enc values) ]);
      J.to_string
        (J.Obj [ ("id", J.Int 2); ("op", J.Str "detect");
                 ("type", J.Str "ipv4"); ("values", enc column) ]);
      J.to_string (J.Obj [ ("id", J.Int 3); ("op", J.Str "health") ]);
      "this is not json";
      J.to_string
        (J.Obj [ ("id", J.Int 5); ("op", J.Str "validate");
                 ("type", J.Str "no-such-type"); ("values", enc values) ]);
      J.to_string (J.Obj [ ("id", J.Int 6); ("op", J.Str "shutdown") ]) ]
  in
  let replies, served, rejected = run_over_pipes frames in
  Alcotest.(check int) "six replies" 6 (List.length replies);
  Alcotest.(check int) "no rejections" 0 rejected;
  Alcotest.(check bool) "health+validate+detect+shutdown served" true
    (served >= 4);
  let reply id = List.find (fun r -> r.Serve.Protocol.rp_id = id) replies in
  (* Verdict parity with the library serve path. *)
  let syn = ipv4_synthesis () in
  let expected =
    List.map
      (fun v ->
        Tablecorpus.Detect.value_verdict_to_string
          (if Autotype_core.Synthesis.validate syn v then
             Tablecorpus.Detect.V_valid
           else Tablecorpus.Detect.V_invalid))
      values
  in
  Alcotest.(check (list string)) "validate verdict parity" expected
    (str_list (J.member "verdicts" (reply 1).Serve.Protocol.rp_body));
  (* Detect parity with serve_column over the same values. *)
  let frac = J.to_float (J.member "fraction" (reply 2).Serve.Protocol.rp_body) in
  (match Tablecorpus.Detect.serve_column syn column with
   | Tablecorpus.Detect.Column_match f ->
     Alcotest.(check bool) "daemon detected" true
       (J.to_bool (J.member "detected" (reply 2).Serve.Protocol.rp_body));
     Alcotest.(check (float 1e-9)) "fraction parity" f frac
   | Tablecorpus.Detect.Column_no_match f ->
     Alcotest.(check bool) "daemon not detected" false
       (J.to_bool (J.member "detected" (reply 2).Serve.Protocol.rp_body));
     Alcotest.(check (float 1e-9)) "fraction parity" f frac
   | Tablecorpus.Detect.Column_degraded _ ->
     Alcotest.fail "unbudgeted serve_column cannot degrade");
  Alcotest.(check int) "health sees one model" 1
    (J.to_int (J.member "models" (reply 3).Serve.Protocol.rp_body));
  (* The unframed-JSON payload gets a typed error, id -1. *)
  let bad = List.find (fun r -> r.Serve.Protocol.rp_id = -1) replies in
  Alcotest.(check bool) "bad payload rejected" false bad.Serve.Protocol.rp_ok;
  Alcotest.(check string) "bad_request code" "bad_request"
    (J.to_str (J.member "error" bad.Serve.Protocol.rp_body));
  let missing = reply 5 in
  Alcotest.(check string) "unknown type code" "unknown_type"
    (J.to_str (J.member "error" missing.Serve.Protocol.rp_body));
  Alcotest.(check bool) "shutdown acknowledged" true
    (reply 6).Serve.Protocol.rp_ok

let test_daemon_trace_id_echo () =
  let frames =
    [ {|{"id":1,"op":"health","trace_id":"00000000000000ab"}|};
      {|{"id":2,"op":"shutdown"}|} ]
  in
  let replies, _, _ = run_over_pipes frames in
  let r1 = List.find (fun r -> r.Serve.Protocol.rp_id = 1) replies in
  Alcotest.(check string) "client trace id echoed" "00000000000000ab"
    r1.Serve.Protocol.rp_trace_id;
  let r2 = List.find (fun r -> r.Serve.Protocol.rp_id = 2) replies in
  Alcotest.(check bool) "minted trace id is non-zero" true
    (r2.Serve.Protocol.rp_trace_id <> "0000000000000000")

let test_daemon_overload () =
  let mk id =
    Printf.sprintf
      {|{"id":%d,"op":"validate","type":"ipv4","values":["1.2.3.4"]}|} id
  in
  let frames =
    List.init 5 (fun i -> mk (i + 1)) @ [ {|{"id":9,"op":"shutdown"}|} ]
  in
  (* All six frames land in one drain cycle; with an admission budget
     of 2 exactly three validates must be shed (shutdown is exempt). *)
  let replies, served, rejected = run_over_pipes ~max_inflight:2 frames in
  Alcotest.(check int) "six replies" 6 (List.length replies);
  Alcotest.(check int) "three rejected" 3 rejected;
  Alcotest.(check int) "two validates + shutdown served" 3 served;
  let overloaded =
    List.filter
      (fun r ->
        (not r.Serve.Protocol.rp_ok)
        && J.to_str (J.member "error" r.Serve.Protocol.rp_body) = "overloaded")
      replies
  in
  Alcotest.(check int) "overloaded responses" 3 (List.length overloaded)

let reply_of replies id =
  (List.find (fun r -> r.Serve.Protocol.rp_id = id) replies)
    .Serve.Protocol.rp_body

let verdicts_of replies id =
  str_list (J.member "verdicts" (reply_of replies id))

let with_faults config f =
  Fun.protect ~finally:(fun () -> Faults.set None) @@ fun () ->
  Faults.set (Some config);
  f ()

let test_daemon_batching_budgets () =
  (* Budgeted requests take the same route as unbudgeted ones: a
     generous budget must agree with the unbudgeted path on every
     verdict, and with the local library result — including the empty
     value.  The budgeted request runs with every VM run killed: ipv4
     answers from its compiled tree under any budget, so nothing may
     change. *)
  let values = [ "1.2.3.4"; ""; "nope"; "4.3.2.1" ] in
  let enc = J.List (List.map (fun v -> J.Str v) values) in
  let shutdown = {|{"id":9,"op":"shutdown"}|} in
  let unbudgeted, _, _ =
    run_over_pipes
      [ J.to_string
          (J.Obj [ ("id", J.Int 1); ("op", J.Str "validate");
                   ("type", J.Str "ipv4"); ("values", enc) ]);
        shutdown ]
  in
  Telemetry.enable ();
  let budgeted, _, _ =
    with_faults { Faults.default with Faults.p_kill = 1.0; seed = 7 }
    @@ fun () ->
    run_over_pipes
      [ J.to_string
          (J.Obj [ ("id", J.Int 2); ("op", J.Str "validate");
                   ("type", J.Str "ipv4"); ("values", enc);
                   ("deadline_ms", J.Float 60000.0);
                   ("value_budget_ms", J.Float 60000.0) ]);
        shutdown ]
  in
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  Telemetry.reset ();
  Alcotest.(check int) "budgeted total matches value count"
    (List.length values)
    (List.length (verdicts_of budgeted 2));
  Alcotest.(check (list string)) "budgeted agrees with unbudgeted"
    (verdicts_of unbudgeted 1) (verdicts_of budgeted 2);
  let syn = ipv4_synthesis () in
  Alcotest.(check (list string)) "budgeted agrees with fault-free validate"
    (List.map
       (fun v ->
         if Autotype_core.Synthesis.validate syn v then "VALID" else "invalid")
       values)
    (verdicts_of budgeted 2);
  Alcotest.(check int) "the budgeted request took the compiled tree"
    (List.length values)
    (Telemetry.find_counter snap "serve.fastpath_hits");
  let local =
    List.map Tablecorpus.Detect.value_verdict_to_string
      (Tablecorpus.Detect.serve (Tablecorpus.Detect.Synthesized syn) values)
  in
  Alcotest.(check (list string)) "daemon agrees with serve" local
    (verdicts_of budgeted 2)

let test_route_independent_of_budgets () =
  (* With every VM run killed, ipv4's answers come from its compiled
     tree whether or not a budget is sent, over the wire and through
     the one-shot [validate --model] route alike. *)
  let values = [ "192.168.0.1"; "8.8.8.8"; "nope" ] in
  let ips = [ "192.168.0.1"; "8.8.8.8"; "10.0.0.1" ] in
  let enc vs = J.List (List.map (fun v -> J.Str v) vs) in
  let budget = [ ("deadline_ms", J.Float 10000.0) ] in
  let req id op vs extra =
    J.to_string
      (J.Obj
         ([ ("id", J.Int id); ("op", J.Str op); ("type", J.Str "ipv4");
            ("values", enc vs) ]
         @ extra))
  in
  with_faults { Faults.default with Faults.p_kill = 1.0; seed = 7 }
  @@ fun () ->
  let replies, _, _ =
    run_over_pipes
      [ req 1 "validate" values []; req 2 "validate" values budget;
        req 3 "detect" ips []; req 4 "detect" ips budget;
        {|{"id":5,"op":"shutdown"}|} ]
  in
  let expected = [ "VALID"; "VALID"; "invalid" ] in
  Alcotest.(check (list string)) "unbudgeted validate" expected
    (verdicts_of replies 1);
  Alcotest.(check (list string)) "budgeted validate" expected
    (verdicts_of replies 2);
  List.iter
    (fun id ->
      let body = reply_of replies id in
      Alcotest.(check bool) (Printf.sprintf "detect %d detected" id) true
        (J.to_bool (J.member "detected" body));
      Alcotest.(check (float 0.0)) (Printf.sprintf "detect %d fraction" id)
        1.0 (J.to_float (J.member "fraction" body)))
    [ 3; 4 ];
  let path = Option.get (Model.Registry.path_of (open_registry ()) "ipv4") in
  match Model.Artifact.load path with
  | Error e -> Alcotest.fail (Model.Artifact.load_error_to_string e)
  | Ok artifact ->
    Alcotest.(check (list string)) "validate --model" expected
      (List.map Tablecorpus.Detect.value_verdict_to_string
         (Tablecorpus.Detect.serve
            (Tablecorpus.Detect.Loaded
               (Model.Registry.entry_of_artifact artifact))
            values))

let test_daemon_serve_telemetry () =
  (* Every detect is one served column, budgeted or not; a validate cut
     by its batch deadline is degraded exactly like a detect: counted,
     flight-recorded and dumped. *)
  let ips = J.List [ J.Str "10.0.0.1"; J.Str "8.8.8.8" ] in
  let path = fresh_path ".jsonl" in
  let saved_dump = Telemetry.Flight.dump_path () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Flight.set_dump_path saved_dump;
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Telemetry.enable ();
  let replies, _, _ =
    run_over_pipes
      [ J.to_string
          (J.Obj [ ("id", J.Int 1); ("op", J.Str "detect");
                   ("type", J.Str "ipv4"); ("values", ips) ]);
        J.to_string
          (J.Obj [ ("id", J.Int 2); ("op", J.Str "detect");
                   ("type", J.Str "ipv4"); ("values", ips);
                   ("deadline_ms", J.Float 60000.0) ]);
        {|{"id":3,"op":"shutdown"}|} ]
  in
  let snap = Telemetry.snapshot () in
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "detect %d detected" id) true
        (J.to_bool (J.member "detected" (reply_of replies id))))
    [ 1; 2 ];
  Alcotest.(check int) "both detects counted as served columns" 2
    (List.assoc "serve.columns" snap.Telemetry.rates).Telemetry.rt_count;
  Alcotest.(check int) "both detects timed" 2
    (List.assoc "serve.column_latency_ms" snap.Telemetry.histograms)
      .Telemetry.h_count;
  Alcotest.(check int) "both detects decided a column" 2
    (Telemetry.find_counter snap "detect.columns_scanned");
  Telemetry.enable ();
  Telemetry.Flight.set_dump_path (Some path);
  let replies, _, _ =
    run_over_pipes
      [ J.to_string
          (J.Obj [ ("id", J.Int 1); ("op", J.Str "validate");
                   ("type", J.Str "ipv4"); ("values", ips);
                   ("deadline_ms", J.Float 0.0) ]);
        {|{"id":2,"op":"shutdown"}|} ]
  in
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  Alcotest.(check (list string)) "expired batch skips every value"
    [ "SKIPPED"; "SKIPPED" ] (verdicts_of replies 1);
  Alcotest.(check int) "cut validate counted as degraded" 1
    (Telemetry.find_counter snap "serve.degraded");
  Alcotest.(check bool) "cut validate left a degraded flight event" true
    (List.exists
       (fun (e : Telemetry.Flight.event) ->
         e.Telemetry.Flight.f_kind = "degraded")
       (Telemetry.Flight.events ()));
  Alcotest.(check bool) "cut validate dumped the flight ring" true
    (Sys.file_exists path);
  Telemetry.reset ()

let test_daemon_socket () =
  let path = fresh_path ".sock" in
  let cfg = Serve.Daemon.config (open_registry ()) in
  let daemon = Domain.spawn (fun () -> Serve.Daemon.run_socket cfg ~path) in
  (* The daemon unlinks and rebinds; wait for the socket to appear. *)
  let rec connect tries =
    let fd = Unix.socket ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      connect (tries - 1)
  in
  let fd = connect 250 in
  let send payload =
    let s = Serve.Frame.encode payload in
    let b = Bytes.of_string s in
    ignore (Unix.write fd b 0 (Bytes.length b))
  in
  send {|{"id":1,"op":"validate","type":"ipv4","values":["1.2.3.4","x"]}|};
  send {|{"id":2,"op":"shutdown"}|};
  let dec = Serve.Frame.decoder () in
  let chunk = Bytes.create 4096 in
  let rec read_replies acc =
    if List.length acc >= 2 then List.rev acc
    else
      match Unix.read fd chunk 0 4096 with
      | 0 -> List.rev acc
      | n ->
        Serve.Frame.feed dec (Bytes.sub_string chunk 0 n);
        let rec drain acc =
          match Serve.Frame.next dec with
          | Some (Serve.Frame.Payload p) ->
            (match Serve.Protocol.reply_of_json p with
             | Ok r -> drain (r :: acc)
             | Error m -> Alcotest.fail ("unparsable reply: " ^ m))
          | Some _ -> Alcotest.fail "malformed frame from daemon"
          | None -> acc
        in
        read_replies (drain acc)
  in
  let replies = read_replies [] in
  Unix.close fd;
  let _served, _rejected = Domain.join daemon in
  Alcotest.(check int) "two replies over the socket" 2 (List.length replies);
  let r1 = List.find (fun r -> r.Serve.Protocol.rp_id = 1) replies in
  Alcotest.(check (list string)) "socket verdicts" [ "VALID"; "invalid" ]
    (str_list (J.member "verdicts" r1.Serve.Protocol.rp_body));
  Alcotest.(check bool) "socket file removed on shutdown" false
    (Sys.file_exists path)

(* The budgeted and unbudgeted column paths must agree that empty
   values are part of the denominator (the read_column fix feeds both). *)
let test_empty_column_totals () =
  let syn = ipv4_synthesis () in
  let values = [ "1.2.3.4"; ""; "5.6.7.8"; ""; "9.9.9.9" ] in
  let frac_unbudgeted =
    match Tablecorpus.Detect.serve_column syn values with
    | Tablecorpus.Detect.Column_match f | Tablecorpus.Detect.Column_no_match f
      -> f
    | Tablecorpus.Detect.Column_degraded _ ->
      Alcotest.fail "unbudgeted serve cannot degrade"
  in
  let b = Tablecorpus.Detect.budgets ~deadline_ms:60000.0 () in
  let frac_budgeted =
    match Tablecorpus.Detect.serve_column ~budgets:b syn values with
    | Tablecorpus.Detect.Column_match f | Tablecorpus.Detect.Column_no_match f
      -> f
    | Tablecorpus.Detect.Column_degraded _ ->
      Alcotest.fail "generous budget must not degrade"
  in
  Alcotest.(check (float 1e-9)) "3 of 5 values pass (empties count)"
    0.6 frac_unbudgeted;
  Alcotest.(check (float 1e-9)) "budgeted path agrees on the denominator"
    frac_unbudgeted frac_budgeted;
  Alcotest.(check int) "serve answers every value, empties too"
    (List.length values)
    (List.length
       (Tablecorpus.Detect.serve (Tablecorpus.Detect.Synthesized syn) values))

let suite =
  [ ("read_column preserves empty values", `Quick,
     test_read_column_preserves_empties);
    ("read_examples trims and drops blanks", `Quick,
     test_read_examples_drops_blanks);
    ("read_channel reports truncation", `Quick, test_read_channel_truncation);
    ("read_file closes and reports errors", `Quick, test_read_file);
    ("frame round-trip (whole and dribbled)", `Quick, test_frame_roundtrip);
    ("frame resync and poisoning", `Quick, test_frame_resync);
    ("request codec", `Quick, test_request_codec);
    ("daemon round-trip over pipes", `Slow, test_daemon_pipe_roundtrip);
    ("daemon trace-id adoption", `Slow, test_daemon_trace_id_echo);
    ("daemon admission control", `Slow, test_daemon_overload);
    ("daemon budgeted/unbudgeted parity", `Slow, test_daemon_batching_budgets);
    ("verdicts independent of budgets under VM kills", `Slow,
     test_route_independent_of_budgets);
    ("daemon serve telemetry: columns and cut validates", `Slow,
     test_daemon_serve_telemetry);
    ("daemon over a Unix socket", `Slow, test_daemon_socket);
    ("empty values count in column totals", `Slow, test_empty_column_totals) ]
