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
     (* reported by its first eight bytes, as a header that has not
        met its newline yet would be *)
     Alcotest.(check string) "offending header" "not-a-nu" h;
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
   | [ Serve.Frame.Too_large n ] ->
     Alcotest.(check int) "declared length" (Serve.Frame.max_payload + 1) n
   | _ -> Alcotest.fail "expected Too_large");
  Serve.Frame.feed dec good;
  Alcotest.(check bool) "poisoned decoder yields nothing" true
    (Serve.Frame.next dec = None);
  (* A header line is answered by its eighth byte, newline or not:
     anything but eight digits is a bad header, resynced past at the
     next newline, and nothing of it stays buffered. *)
  let dec = Serve.Frame.decoder () in
  (match feed_all dec (List.init 12 (fun _ -> "x")) with
   | [ Serve.Frame.Bad_header h ] ->
     Alcotest.(check string) "cut at the eighth byte" "xxxxxxxx" h
   | _ -> Alcotest.fail "expected one Bad_header by the eighth byte");
  Alcotest.(check int) "nothing stays buffered" 0 (Serve.Frame.pending dec);
  (match feed_all dec [ "xx\n" ^ good ] with
   | [ Serve.Frame.Payload p ] ->
     Alcotest.(check string) "frame after the cut line" "{\"id\":7}" p
   | _ -> Alcotest.fail "expected the frame after the newline");
  match feed_all (Serve.Frame.decoder ()) [ "1234"; "5678" ] with
  | [ Serve.Frame.Too_large n ] ->
    Alcotest.(check int) "eight digits reported as max_int" max_int n
  | _ -> Alcotest.fail "expected Too_large at the eighth digit"

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
   deterministic.  Returns the bytes the daemon wrote. *)
let run_raw_over_pipes ?pool ?max_inflight ?registry request_bytes =
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
  let outcome = Serve.Daemon.run_fds cfg ~in_fd:in_r ~out_fd:out_w in
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
  match outcome with
  | Ok (served, rejected) -> (Buffer.contents buf, served, rejected)
  | Error msg -> Alcotest.fail ("daemon refused its input: " ^ msg)

(* Decode replies from [dec] after feeding it [bytes]. *)
let decode_replies dec bytes =
  Serve.Frame.feed dec bytes;
  let rec drain acc =
    match Serve.Frame.next dec with
    | Some (Serve.Frame.Payload p) ->
      (match Serve.Protocol.reply_of_json p with
       | Ok r -> drain (r :: acc)
       | Error m -> Alcotest.fail ("unparsable reply: " ^ m))
    | Some _ -> Alcotest.fail "daemon emitted a malformed frame"
    | None -> List.rev acc
  in
  drain []

(* As [run_raw_over_pipes], returning the decoded replies in order. *)
let run_bytes_over_pipes ?pool ?max_inflight ?registry request_bytes =
  let raw, served, rejected =
    run_raw_over_pipes ?pool ?max_inflight ?registry request_bytes
  in
  (decode_replies (Serve.Frame.decoder ()) raw, served, rejected)

let run_over_pipes ?pool ?max_inflight frames =
  run_bytes_over_pipes ?pool ?max_inflight
    (String.concat "" (List.map Serve.Frame.encode frames))

let str_list j = List.map J.to_str (J.to_list j)

let test_daemon_pipe_roundtrip () =
  let values = [ "1.2.3.4"; "not-an-ip"; ""; "255.255.255.255" ] in
  let column = [ "10.0.0.1"; "8.8.8.8"; "1.1.1.1"; "bogus"; "2.2.2.2" ] in
  let enc vs = J.List (List.map (fun v -> J.Str v) vs) in
  (* Each request names its trace id, so no reply byte is minted. *)
  let req id fields =
    J.to_string
      (J.Obj
         ((("id", J.Int id) :: fields)
         @ [ ("trace_id", J.Str (Printf.sprintf "%016x" (0x100 + id))) ]))
  in
  let health = req 3 [ ("op", J.Str "health") ] in
  let frames =
    [ req 1 [ ("op", J.Str "validate"); ("type", J.Str "ipv4");
              ("values", enc values) ];
      req 2 [ ("op", J.Str "detect"); ("type", J.Str "ipv4");
              ("values", enc column) ];
      health;
      "this is not json";
      req 5 [ ("op", J.Str "validate"); ("type", J.Str "no-such-type");
              ("values", enc values) ];
      req 6 [ ("op", J.Str "shutdown") ] ]
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
    (reply 6).Serve.Protocol.rp_ok;
  (* A pool spreads the cycle's requests and keeps their order: the
     replies are the same bytes with or without one.  Health is left
     out, since its uptime is a clock reading. *)
  let stream =
    String.concat ""
      (List.map Serve.Frame.encode (List.filter (( <> ) health) frames))
  in
  let bare, _, _ = run_raw_over_pipes stream in
  let pooled, _, _ =
    Exec.Pool.with_pool ~jobs:2 (fun pool -> run_raw_over_pipes ~pool stream)
  in
  Alcotest.(check string) "a pool changes no reply byte" bare pooled;
  (* An oversized header is named as the client sent it, never by a
     length no client sent. *)
  List.iter
    (fun (header, detail) ->
      match run_bytes_over_pipes header with
      | [ r ], _, _ ->
        Alcotest.(check string) (String.escaped header) detail
          (J.to_str (J.member "detail" r.Serve.Protocol.rp_body))
      | _ -> Alcotest.fail "expected one bad_frame reply")
    [ ("5000000\n",
       {|frame header "5000000" declares more than the 4194304-byte limit|});
      ("123456789\n",
       "frame header of eight or more digits declares more than the \
        4194304-byte limit") ]

(* Every rejection code has a counter: two malformed requests, one
   request for a type the registry lacks, one validate past the
   admission budget, and no internal error.  All frames land in one
   drain cycle, which answers its three admitted validates one by one:
   one counted cycle, one registry lookup each. *)
let test_daemon_counts_rejections () =
  Telemetry.enable ();
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.disable (); Telemetry.reset ())
  @@ fun () ->
  let replies, _, _ =
    run_over_pipes ~max_inflight:3
      [ "this is not json";
        {|{"id":2,"op":"validate","values":["1.2.3.4"]}|};
        {|{"id":3,"op":"validate","type":"no-such-type","values":["1.2.3.4"]}|};
        {|{"id":4,"op":"validate","type":"ipv4","values":["1.2.3.4"]}|};
        {|{"id":5,"op":"validate","type":"ipv4","values":["1.2.3.4"]}|};
        {|{"id":6,"op":"validate","type":"ipv4","values":["1.2.3.4"]}|};
        {|{"id":7,"op":"shutdown"}|} ]
  in
  let codes =
    List.map
      (fun r ->
        if r.Serve.Protocol.rp_ok then "ok"
        else J.to_str (J.member "error" r.Serve.Protocol.rp_body))
      replies
  in
  Alcotest.(check (list string)) "reply codes"
    [ "bad_request"; "bad_request"; "unknown_type"; "ok"; "ok"; "overloaded";
      "ok" ]
    codes;
  let snap = Telemetry.snapshot () in
  let count = Telemetry.find_counter snap in
  List.iter
    (fun (name, n) -> Alcotest.(check int) name n (count name))
    [ ("daemon.bad_requests", 2); ("daemon.unknown_types", 1);
      ("daemon.internal_errors", 0); ("daemon.overloaded", 1);
      ("daemon.batches", 1) ];
  Alcotest.(check int) "one registry lookup per admitted validate" 3
    (count "serve.cache_hits" + count "serve.cache_misses")

(* A request's type goes to the registry as a key: one that is no
   model file name of the directory is an unknown type, even when the
   path it spells leads to the registry's own ipv4 model. *)
let test_daemon_refuses_path_types () =
  let dir = Lazy.force registry_dir in
  let escape =
    Filename.concat Filename.parent_dir_name
      (Filename.concat (Filename.basename dir) "ipv4")
  in
  Alcotest.(check bool) "the escaping path holds a model" true
    (Sys.file_exists (Filename.concat dir (escape ^ Model.Artifact.extension)));
  let types = [ "ipv4"; escape; ".hidden"; "" ] in
  let frames =
    List.mapi
      (fun i ty ->
        J.to_string
          (J.Obj [ ("id", J.Int (i + 1)); ("op", J.Str "validate");
                   ("type", J.Str ty);
                   ("values", J.List [ J.Str "192.168.0.1" ]) ]))
      types
    @ [ {|{"id":9,"op":"shutdown"}|} ]
  in
  let replies, _, _ = run_over_pipes frames in
  let reply id = List.find (fun r -> r.Serve.Protocol.rp_id = id) replies in
  Alcotest.(check bool) "ipv4 serves" true (reply 1).Serve.Protocol.rp_ok;
  List.iteri
    (fun i ty ->
      if i > 0 then
        Alcotest.(check string)
          (Printf.sprintf "type %S is unknown" ty)
          "unknown_type"
          (J.to_str (J.member "error" (reply (i + 1)).Serve.Protocol.rp_body)))
    types

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

(* A daemon left running with telemetry on must keep a bounded record:
   a request opens no span and copies no counter into the flight ring,
   so a few hundred validates leave the same span list as one (the
   registry's model load), and the latency histogram counts them. *)
let test_daemon_telemetry_bounded () =
  let run n =
    Telemetry.enable ();
    let frames =
      List.init n (fun i ->
          J.to_string
            (J.Obj [ ("id", J.Int (i + 1)); ("op", J.Str "validate");
                     ("type", J.Str "ipv4");
                     ("values", J.List [ J.Str "10.0.0.1" ]) ]))
      @ [ Printf.sprintf {|{"id":%d,"op":"shutdown"}|} (n + 1) ]
    in
    let replies, _, rejected = run_over_pipes ~max_inflight:n frames in
    Telemetry.disable ();
    Alcotest.(check (pair int int))
      (Printf.sprintf "%d validates answered" n) (n + 1, 0)
      (List.length replies, rejected);
    let snap = Telemetry.snapshot () in
    Alcotest.(check int)
      (Printf.sprintf "%d validates timed" n) n
      (List.assoc "serve.column_latency_ms" snap.Telemetry.histograms)
        .Telemetry.h_count;
    Alcotest.(check int) "no counter flight events" 0
      (List.length
         (List.filter
            (fun (e : Telemetry.Flight.event) ->
              e.Telemetry.Flight.f_kind = "counter")
            (Telemetry.Flight.events ())));
    List.map (fun (s : Telemetry.span) -> s.Telemetry.sp_name)
      (Telemetry.spans ())
  in
  let one = run 1 in
  let many = run 300 in
  Alcotest.(check (list string)) "one validate: the model load only"
    [ "model.load" ] one;
  Alcotest.(check (list string)) "300 validates: the same spans" one many;
  Telemetry.reset ()

(* The daemon's [stats] reply nests the snapshot in the one snapshot
   format: its [stats] member, printed, is a file [autotype stats
   --snapshot] reads, and it counts the requests decoded before it. *)
let test_daemon_stats_reply () =
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> Telemetry.disable (); Telemetry.reset ())
  @@ fun () ->
  let replies, _, _ =
    run_over_pipes
      [ {|{"id":1,"op":"validate","type":"ipv4","values":["10.0.0.1"]}|};
        {|{"id":2,"op":"stats"}|};
        {|{"id":3,"op":"shutdown"}|} ]
  in
  let text = J.to_string (J.member "stats" (reply_of replies 2)) in
  match Serve.Ingest.snapshot_of_string text with
  | Error msg -> Alcotest.failf "stats reply is no snapshot: %s" msg
  | Ok snap ->
    Alcotest.(check int) "both requests before it counted" 2
      (Telemetry.find_counter snap "daemon.requests");
    Alcotest.(check bool) "histograms travel too" true
      (List.mem_assoc "serve.column_latency_ms" snap.Telemetry.histograms);
    Alcotest.(check string) "the reply is the codec's own text" text
      (J.to_string (Serve.Ingest.snapshot_to_json snap))

(* Dup [fd] until [select] refuses the copy: every copy, the refused
   one first, or [] (all closed again) when the descriptor limit stops
   [dup] first. *)
let rec occupy_fds fd acc =
  match Unix.dup ~cloexec:true fd with
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
    List.iter Unix.close acc;
    []
  | d ->
    (match Unix.select [ d ] [] [] 0.0 with
     | _ -> occupy_fds fd (d :: acc)
     | exception Unix.Unix_error (Unix.EINVAL, _, _) -> d :: acc)

(* The daemon runs as a Domain of this process and shares its
   descriptor table, so occupying descriptors here decides which ones
   the daemon's [accept] gets. *)
let test_daemon_socket () =
  Telemetry.enable ();
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.disable (); Telemetry.reset ())
  @@ fun () ->
  let path = fresh_path ".sock" in
  let cfg = Serve.Daemon.config (open_registry ()) in
  let daemon = Domain.spawn (fun () -> Serve.Daemon.run_socket cfg ~path) in
  (* The daemon unlinks and rebinds; wait for the socket to appear. *)
  let rec connect tries =
    let fd = Unix.socket ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      (* a daemon that died answers nothing: fail rather than hang *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      connect (tries - 1)
  in
  let send fd payload =
    let s = Serve.Frame.encode payload in
    let b = Bytes.of_string s in
    ignore (Unix.write fd b 0 (Bytes.length b))
  in
  (* Replies on [fd] until [n] have come or the daemon closed it. *)
  let read_replies fd n =
    let dec = Serve.Frame.decoder () in
    let chunk = Bytes.create 4096 in
    let rec go acc =
      if List.length acc >= n then acc
      else
        match Unix.read fd chunk 0 4096 with
        | 0 -> acc
        | k -> go (acc @ decode_replies dec (Bytes.sub_string chunk 0 k))
    in
    go []
  in
  let validate id =
    Printf.sprintf
      {|{"id":%d,"op":"validate","type":"ipv4","values":["1.2.3.4","x"]}|} id
  in
  let fd = connect 250 in
  (* Its first reply means the daemon holds this connection, at a
     descriptor it took before any were occupied. *)
  send fd (validate 1);
  let first = read_replies fd 1 in
  let r, w = Unix.pipe ~cloexec:true () in
  let refused =
    match occupy_fds r [] with
    | [] -> false  (* the descriptor limit comes before select's *)
    | unwatchable :: _ as dups ->
      Fun.protect ~finally:(fun () -> List.iter Unix.close dups) @@ fun () ->
      (match Serve.Daemon.run_fds cfg ~in_fd:unwatchable ~out_fd:w with
       | Ok _ -> Alcotest.fail "run_fds served a descriptor select refuses"
       | Error _ -> ());
      let late = connect 0 in
      let replies = read_replies late max_int in
      Unix.close late;
      (match replies with
       | [ rp ] ->
         Alcotest.(check int) "refusal names no request" (-1)
           rp.Serve.Protocol.rp_id;
         Alcotest.(check string) "refused connection told overloaded"
           "overloaded"
           (J.to_str (J.member "error" rp.Serve.Protocol.rp_body))
       | _ -> Alcotest.fail "expected one overloaded frame, then EOF");
      true
  in
  Unix.close r;
  Unix.close w;
  send fd (validate 2);
  send fd {|{"id":3,"op":"shutdown"}|};
  let replies = first @ read_replies fd 2 in
  Unix.close fd;
  let served, rejected =
    match Domain.join daemon with
    | Ok totals -> totals
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "three replies over the socket" 3 (List.length replies);
  List.iter
    (fun id ->
      let rp = List.find (fun r -> r.Serve.Protocol.rp_id = id) replies in
      Alcotest.(check (list string)) "socket verdicts" [ "VALID"; "invalid" ]
        (str_list (J.member "verdicts" rp.Serve.Protocol.rp_body)))
    [ 1; 2 ];
  let rejections = if refused then 1 else 0 in
  Alcotest.(check (pair int int)) "served and rejected" (3, rejections)
    (served, rejected);
  Alcotest.(check int) "refusals counted" rejections
    (Telemetry.find_counter (Telemetry.snapshot ()) "daemon.overloaded");
  Alcotest.(check bool) "refusals flight-recorded" refused
    (List.exists
       (fun (e : Telemetry.Flight.event) ->
         e.Telemetry.Flight.f_kind = "overloaded"
         && e.Telemetry.Flight.f_label = "daemon.connections")
       (Telemetry.Flight.events ()));
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
    ("daemon refuses types that are no model file", `Slow,
     test_daemon_refuses_path_types);
    ("daemon trace-id adoption", `Slow, test_daemon_trace_id_echo);
    ("daemon admission control", `Slow, test_daemon_overload);
    ("daemon budgeted/unbudgeted parity", `Slow, test_daemon_batching_budgets);
    ("verdicts independent of budgets under VM kills", `Slow,
     test_route_independent_of_budgets);
    ("daemon serve telemetry: columns and cut validates", `Slow,
     test_daemon_serve_telemetry);
    ("daemon telemetry stays bounded: no span or counter event per request",
     `Slow, test_daemon_telemetry_bounded);
    ("daemon stats reply decodes as a snapshot", `Slow,
     test_daemon_stats_reply);
    ("daemon over a Unix socket", `Slow, test_daemon_socket);
    ("empty values count in column totals", `Slow, test_empty_column_totals);
    ("daemon counts bad_request and unknown_type replies", `Slow,
     test_daemon_counts_rejections) ]
