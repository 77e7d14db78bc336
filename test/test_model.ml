(** Tests of the compile/serve split (DESIGN.md §9): the Jsonx codec,
    artifact round-trips, corruption/version rejection, and the model
    registry's LRU serving path. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic; s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A unique scratch directory per call; the registry layer mkdirs it. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let stamp = Filename.temp_file "autotype-test-models" "" in
    Sys.remove stamp;
    Printf.sprintf "%s-%d" stamp !n

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ------------------------------- jsonx ----------------------------- *)

let test_jsonx_roundtrip () =
  let v =
    Model.Jsonx.Obj
      [ ("s", Model.Jsonx.Str "quote \" slash \\ newline \n ctrl \x01 tab \t");
        ("i", Model.Jsonx.Int (-42));
        ("f", Model.Jsonx.Float 0.30000000000000004);
        ("b", Model.Jsonx.Bool true);
        ("n", Model.Jsonx.Null);
        ( "l",
          Model.Jsonx.List
            [ Model.Jsonx.Int 0; Model.Jsonx.Str "caf\xc3\xa9";
              Model.Jsonx.Obj [] ] ) ]
  in
  let s = Model.Jsonx.to_string v in
  Alcotest.(check bool) "single line" false (String.contains s '\n');
  (match Model.Jsonx.parse s with
   | Ok v' -> Alcotest.(check bool) "value round-trips" true (v = v')
   | Error e -> Alcotest.fail ("parse of own output failed: " ^ e));
  (* \uXXXX escapes decode to UTF-8. *)
  (match Model.Jsonx.parse {|"aAé"|} with
   | Ok (Model.Jsonx.Str s) ->
     Alcotest.(check string) "unicode escapes" "aA\xc3\xa9" s
   | _ -> Alcotest.fail "string with escapes must parse")

let test_jsonx_parse_errors () =
  List.iter
    (fun bad ->
      match Model.Jsonx.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" bad)
      | Error _ -> ())
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{\"a\":1,}"; "1 2"; "" ]

let test_jsonx_surrogate_pairs () =
  (* Non-BMP characters arrive as UTF-16 surrogate pairs (RFC 8259 §7);
     the halves must combine into one 4-byte UTF-8 code point. *)
  (match Model.Jsonx.parse {|"\ud83d\ude00"|} with
   | Ok (Model.Jsonx.Str s) ->
     Alcotest.(check string) "U+1F600 as UTF-8" "\xf0\x9f\x98\x80" s
   | Ok _ -> Alcotest.fail "expected a string"
   | Error e -> Alcotest.fail ("surrogate pair must parse: " ^ e));
  (match Model.Jsonx.parse {|"\uD834\uDD1E after"|} with
   | Ok (Model.Jsonx.Str s) ->
     Alcotest.(check string) "U+1D11E with a tail" "\xf0\x9d\x84\x9e after" s
   | Ok _ -> Alcotest.fail "expected a string"
   | Error e -> Alcotest.fail ("surrogate pair must parse: " ^ e));
  (* The decoded bytes survive a print/parse round-trip. *)
  (match Model.Jsonx.parse {|"\ud83d\ude00"|} with
   | Ok v ->
     (match Model.Jsonx.parse (Model.Jsonx.to_string v) with
      | Ok v' -> Alcotest.(check bool) "non-BMP round-trips" true (v = v')
      | Error e -> Alcotest.fail ("round-trip failed: " ^ e))
   | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Model.Jsonx.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" bad)
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error is positioned" bad)
          true
          (contains ~needle:"offset" e))
    [ {|"\ud83d"|};        (* lone high surrogate at end of string *)
      {|"\ud83d rest"|};   (* lone high surrogate before plain text *)
      {|"\udc00"|};        (* lone low surrogate *)
      {|"\ud83d\u0041"|};  (* high surrogate paired with a non-low escape *)
      {|"\u12g4"|};        (* non-hex digit *)
      {|"\u12_4"|};        (* OCaml-ism int_of_string used to accept *)
      {|"\u 123"|};
      {|"\u123"|} ]        (* short escape *)

let test_jsonx_number_grammar () =
  let ok s expected =
    match Model.Jsonx.parse s with
    | Ok v -> Alcotest.(check bool) (s ^ " parses") true (v = expected)
    | Error e -> Alcotest.fail (s ^ " must parse: " ^ e)
  in
  ok "0" (Model.Jsonx.Int 0);
  ok "-0.5" (Model.Jsonx.Float (-0.5));
  ok "10" (Model.Jsonx.Int 10);
  ok "1e2" (Model.Jsonx.Float 100.0);
  ok "1.25E+2" (Model.Jsonx.Float 125.0);
  ok "2e-2" (Model.Jsonx.Float 0.02);
  ok "[0.0]" (Model.Jsonx.List [ Model.Jsonx.Float 0.0 ]);
  (* RFC 8259 rejects these; float_of_string used to accept several. *)
  List.iter
    (fun bad ->
      match Model.Jsonx.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" bad)
      | Error _ -> ())
    [ "+1"; "1."; ".5"; "01"; "-"; "-."; "1e"; "1e+"; "0x10"; "1_000";
      "[1.]"; "[01]"; "[+1]"; "--1"; "1.2.3"; "nan"; "inf" ];
  (* Trailing garbage after a complete value stays rejected. *)
  List.iter
    (fun bad ->
      match Model.Jsonx.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" bad)
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S reports trailing garbage" bad)
          true
          (contains ~needle:"trailing" e))
    [ "1 2"; "{} {}"; "[1] ]"; "null null"; "\"a\" \"b\"" ]

(* ------------------------------ artifacts --------------------------- *)

let roundtrip_type_ids = [ "credit-card"; "ipv4"; "email"; "isbn" ]

(* Compiling runs the whole pipeline; do it once per type for the whole
   suite. *)
let compiled_cache : (string, Autotype_core.Pipeline.compiled) Hashtbl.t =
  Hashtbl.create 8

let compiled_for id =
  match Hashtbl.find_opt compiled_cache id with
  | Some c -> c
  | None ->
    let ty = Semtypes.Registry.find_exn id in
    let positives = Semtypes.Registry.positive_examples ~n:20 ~seed:11 ty in
    let c =
      Autotype_core.Pipeline.compile ~index:(Corpus.search_index ())
        ~query:ty.Semtypes.Registry.name ~positives ()
    in
    Hashtbl.add compiled_cache id c;
    c

let artifact_for id =
  match Model.Artifact.of_compiled (compiled_for id) with
  | Some a -> Model.Artifact.with_type_id id a
  | None -> Alcotest.fail ("no function synthesized for " ^ id)

(* The acceptance workload: held-out positives, true negatives, and a
   few degenerate strings. *)
let workload id =
  let ty = Semtypes.Registry.find_exn id in
  Semtypes.Registry.positive_examples ~n:30 ~seed:99 ty
  @ Eval.Benchmark.negative_test_pool ~n:100 ~seed:7 ty
  @ [ ""; " "; "0"; "null"; String.make 200 'x' ]

let verdicts syn values =
  List.map (Autotype_core.Synthesis.validate syn) values

let test_roundtrip_verdict_parity () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (match Model.Registry.create_dir dir with
   | Error m -> Alcotest.fail m
   | Ok registry ->
     List.iter
       (fun id ->
         let artifact = artifact_for id in
         let live =
           match Autotype_core.Pipeline.best (compiled_for id).c_outcome with
           | Some syn -> syn
           | None -> Alcotest.fail ("no live synthesis for " ^ id)
         in
         let values = workload id in
         let live_verdicts = verdicts live values in
         (* encode/decode round-trip without touching disk *)
         (match Model.Artifact.decode (Model.Artifact.encode artifact) with
          | Error e ->
            Alcotest.fail
              (id ^ ": decode(encode) failed: "
              ^ Model.Artifact.load_error_to_string e)
          | Ok decoded ->
            Alcotest.(check string)
              (id ^ " key survives") (Model.Artifact.key artifact)
              (Model.Artifact.key decoded);
            Alcotest.(check bool)
              (id ^ " decoded verdicts byte-match live") true
              (verdicts (Model.Artifact.to_synthesis decoded) values
              = live_verdicts));
         (* save/load through the registry *)
         (match Model.Registry.save registry artifact with
          | Error m -> Alcotest.fail m
          | Ok _ -> ());
         (match Model.Registry.find registry id with
          | Error e ->
            Alcotest.fail
              (id ^ ": " ^ Model.Artifact.load_error_to_string e)
          | Ok entry ->
            Alcotest.(check bool)
              (id ^ " served verdicts byte-match live") true
              (verdicts entry.Model.Registry.synthesis values = live_verdicts)))
       roundtrip_type_ids)

(* A checksum-valid credit-card model whose embedded source gained a
   line that does not lex (an integer literal past max_int) must not
   load: it used to decode and then answer [invalid] for every value.
   The error names the file and line. *)
let test_unparseable_source_rejected () =
  let artifact = artifact_for "credit-card" in
  let c = artifact.Model.Artifact.candidate in
  let repo = c.Repolib.Candidate.repo in
  let files =
    List.map
      (fun (f : Repolib.Repo.file) ->
        if f.path = c.Repolib.Candidate.file then
          { f with source = f.source ^ "x = 99999999999999999999\n" }
        else f)
      repo.Repolib.Repo.files
  in
  let line =
    List.length
      (String.split_on_char '\n'
         (List.find
            (fun (f : Repolib.Repo.file) -> f.path = c.Repolib.Candidate.file)
            files)
           .source)
    - 1
  in
  let tampered =
    { artifact with
      Model.Artifact.candidate =
        { c with Repolib.Candidate.repo = { repo with Repolib.Repo.files } } }
  in
  match Model.Artifact.decode (Model.Artifact.encode tampered) with
  | Error (Model.Artifact.Malformed msg) ->
    let place = Printf.sprintf "%s:%d" c.Repolib.Candidate.file line in
    Alcotest.(check bool) (msg ^ " names " ^ place) true (contains ~needle:place msg)
  | Error e ->
    Alcotest.fail ("expected malformed, got: " ^ Model.Artifact.load_error_to_string e)
  | Ok _ -> Alcotest.fail "an artifact whose source does not lex must not load"

(* Seeded mutations of the payloads of the four compiled artifacts,
   each with its checksum recomputed and then served: a mutant either
   fails to decode with a typed error, or every embedded source parses
   (checked without the parse cache) and serving answers every value
   with no exception escaping. *)
let test_artifact_mutations () =
  let rng = Random.State.make [| 0x4D07; 17 |] in
  let decoded = ref 0 and unparsed = ref [] and escaped = ref [] in
  List.iter
    (fun id ->
      let encoded = Model.Artifact.encode (artifact_for id) in
      let payload =
        let nl = String.index encoded '\n' in
        String.sub encoded (nl + 1) (String.length encoded - nl - 2)
      in
      let values = [ "4532015112830366"; "192.168.0.1"; "a@b.co"; ""; "x" ] in
      for _ = 1 to 150 do
        let n = String.length payload in
        let i = Random.State.int rng n in
        let c = Char.chr (32 + Random.State.int rng 95) in
        let mutant =
          match Random.State.int rng 3 with
          | 0 -> String.mapi (fun j x -> if j = i then c else x) payload
          | 1 -> String.sub payload 0 i ^ String.sub payload (i + 1) (n - i - 1)
          | _ -> String.sub payload 0 i ^ String.make 1 c ^ String.sub payload i (n - i)
        in
        let contents =
          Printf.sprintf "%s v%d md5=%s\n%s\n" Model.Artifact.magic
            Model.Artifact.format_version
            (Digest.to_hex (Digest.string mutant))
            mutant
        in
        match Model.Artifact.decode contents with
        | Error _ -> ()
        | Ok a ->
          incr decoded;
          let repo = a.Model.Artifact.candidate.Repolib.Candidate.repo in
          (match Repolib.Repo.parse_all repo with
           | Ok _ -> ()
           | Error msg -> unparsed := msg :: !unparsed);
          (match
             Tablecorpus.Detect.serve
               (Tablecorpus.Detect.Loaded (Model.Registry.entry_of_artifact a))
               values
           with
           | _ -> ()
           | exception e -> escaped := Printexc.to_string e :: !escaped)
      done)
    roundtrip_type_ids;
  Alcotest.(check bool) "some mutants decode" true (!decoded > 0);
  Alcotest.(check (list string)) "decoded mutants whose sources do not parse" []
    !unparsed;
  Alcotest.(check (list string)) "exceptions escaping serving" [] !escaped

let save_one_to dir =
  let artifact = artifact_for "ipv4" in
  let path = Filename.concat dir ("ipv4" ^ Model.Artifact.extension) in
  (match Model.Registry.create_dir dir with
   | Error m -> Alcotest.fail m
   | Ok _ -> ());
  (match Model.Artifact.save artifact path with
   | Error m -> Alcotest.fail m
   | Ok () -> ());
  path

let test_truncated_rejected () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = save_one_to dir in
  let bytes = read_file path in
  let truncated = Filename.concat dir "truncated.model" in
  write_file truncated (String.sub bytes 0 (String.length bytes * 2 / 3));
  (match Model.Artifact.load truncated with
   | Error (Model.Artifact.Checksum_mismatch _) -> ()
   | Error e ->
     Alcotest.fail
       ("expected checksum mismatch, got: "
       ^ Model.Artifact.load_error_to_string e)
   | Ok _ -> Alcotest.fail "truncated artifact must not load");
  (* Truncation inside the header is not even a model. *)
  let headerless = Filename.concat dir "headerless.model" in
  write_file headerless (String.sub bytes 0 5);
  match Model.Artifact.load headerless with
  | Error (Model.Artifact.Not_a_model _) -> ()
  | Error e ->
    Alcotest.fail
      ("expected not-a-model, got: " ^ Model.Artifact.load_error_to_string e)
  | Ok _ -> Alcotest.fail "headerless artifact must not load"

let test_checksum_flip_rejected () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = save_one_to dir in
  let bytes = Bytes.of_string (read_file path) in
  (* Flip one hex digit of the recorded md5 (the header's last field). *)
  let md5_pos =
    let s = Bytes.to_string bytes in
    let rec find j =
      if j + 4 > String.length s then Alcotest.fail "no md5 field"
      else if String.sub s j 4 = "md5=" then j + 4
      else find (j + 1)
    in
    find 0
  in
  Bytes.set bytes md5_pos
    (if Bytes.get bytes md5_pos = '0' then '1' else '0');
  let flipped = Filename.concat dir "flipped.model" in
  write_file flipped (Bytes.to_string bytes);
  match Model.Artifact.load flipped with
  | Error (Model.Artifact.Checksum_mismatch { expected; actual }) ->
    Alcotest.(check bool) "expected != actual" true (expected <> actual)
  | Error e ->
    Alcotest.fail
      ("expected checksum mismatch, got: "
      ^ Model.Artifact.load_error_to_string e)
  | Ok _ -> Alcotest.fail "checksum-flipped artifact must not load"

let test_version_unsupported () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = save_one_to dir in
  let bytes = read_file path in
  let v_old = Printf.sprintf "%s v%d " Model.Artifact.magic
      Model.Artifact.format_version in
  let v_new = Printf.sprintf "%s v99 " Model.Artifact.magic in
  let idx =
    let rec find j =
      if j + String.length v_old > String.length bytes then
        Alcotest.fail "version field not found"
      else if String.sub bytes j (String.length v_old) = v_old then j
      else find (j + 1)
    in
    find 0
  in
  let bumped =
    String.sub bytes 0 idx ^ v_new
    ^ String.sub bytes
        (idx + String.length v_old)
        (String.length bytes - idx - String.length v_old)
  in
  let bumped_path = Filename.concat dir "bumped.model" in
  write_file bumped_path bumped;
  match Model.Artifact.load bumped_path with
  | Error (Model.Artifact.Version_unsupported { found; supported } as e) ->
    Alcotest.(check int) "found version" 99 found;
    Alcotest.(check int) "supported version"
      Model.Artifact.format_version supported;
    (* Satellite 2: the message must name the format version. *)
    Alcotest.(check bool) "message names the format version" true
      (contains
         ~needle:(string_of_int Model.Artifact.format_version)
         (Model.Artifact.load_error_to_string e))
  | Error e ->
    Alcotest.fail
      ("expected version-unsupported, got: "
      ^ Model.Artifact.load_error_to_string e)
  | Ok _ -> Alcotest.fail "future-version artifact must not load"

let test_missing_file () =
  match Model.Artifact.load "/nonexistent/never/here.model" with
  | Error (Model.Artifact.File_error _) -> ()
  | Error e ->
    Alcotest.fail
      ("expected file error, got: " ^ Model.Artifact.load_error_to_string e)
  | Ok _ -> Alcotest.fail "missing artifact must not load"

(* ------------------------------ registry ---------------------------- *)

let test_registry_lru () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  match Model.Registry.create_dir ~capacity:2 dir with
  | Error m -> Alcotest.fail m
  | Ok registry ->
    (* Three keys from one compiled artifact: serving is key-based. *)
    let base = artifact_for "ipv4" in
    List.iter
      (fun k ->
        match Model.Registry.save registry (Model.Artifact.with_type_id k base)
        with
        | Ok _ -> ()
        | Error m -> Alcotest.fail m)
      [ "ka"; "kb"; "kc" ];
    Alcotest.(check (list string)) "keys sorted" [ "ka"; "kb"; "kc" ]
      (Model.Registry.keys registry);
    let find k =
      match Model.Registry.find registry k with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Model.Artifact.load_error_to_string e)
    in
    Telemetry.enable ();
    find "ka";  (* miss *)
    find "ka";  (* hit *)
    find "kb";  (* miss *)
    find "kc";  (* miss; capacity 2 evicts ka *)
    find "ka";  (* miss again: was evicted *)
    Telemetry.disable ();
    let hits, misses = Model.Registry.cache_stats registry in
    Alcotest.(check int) "hits" 1 hits;
    Alcotest.(check int) "misses" 4 misses;
    let snap = Telemetry.snapshot () in
    Alcotest.(check bool) "serve.cache_hits counted" true
      (Telemetry.find_counter snap "serve.cache_hits" >= 1);
    Alcotest.(check bool) "serve.cache_misses counted" true
      (Telemetry.find_counter snap "serve.cache_misses" >= 4);
    (* Unknown keys are a clean error naming the available ones. *)
    (match Model.Registry.find registry "nope" with
     | Error (Model.Artifact.File_error msg) ->
       Alcotest.(check bool) "lists available keys" true
         (contains ~needle:"ka" msg)
     | Error e ->
       Alcotest.fail
         ("expected file error, got: " ^ Model.Artifact.load_error_to_string e)
     | Ok _ -> Alcotest.fail "unknown key must not serve")

let test_serving_runs_no_pipeline () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (match Model.Registry.create_dir dir with
   | Error m -> Alcotest.fail m
   | Ok registry ->
     (match Model.Registry.save registry (artifact_for "ipv4") with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m));
  Telemetry.enable ();
  Telemetry.reset ();
  let served_fast = ref false in
  (match Model.Registry.open_dir dir with
   | Error m -> Alcotest.fail m
   | Ok registry ->
     (match Model.Registry.find registry "ipv4" with
      | Error e -> Alcotest.fail (Model.Artifact.load_error_to_string e)
      | Ok entry ->
        served_fast :=
          entry.Model.Registry.artifact.Model.Artifact.summary <> None;
        let det = Tablecorpus.Detect.serve_detector entry in
        Alcotest.(check bool) "serves ipv4" true
          (det.Tablecorpus.Detect.accepts "192.168.0.1");
        Alcotest.(check bool) "rejects junk" false
          (det.Tablecorpus.Detect.accepts "not an ip")));
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "no search spans while serving" 0
    (List.length (Telemetry.spans_named "pipeline.search"));
  Alcotest.(check int) "no analyze spans while serving" 0
    (List.length (Telemetry.spans_named "pipeline.analyze"));
  (* An artifact with a compiled summary serves without even the
     interpreter; otherwise the interpreter route must have run. *)
  if !served_fast then
    Alcotest.(check bool) "the fast path served both values" true
      (Telemetry.find_counter snap "serve.fastpath_hits" >= 2)
  else
    Alcotest.(check bool) "the interpreter did run" true
      (Telemetry.find_counter snap "interp.runs" > 0);
  Alcotest.(check int) "one load span" 1
    (List.length (Telemetry.spans_named "model.load"))

(* -------------------- registry/index desync ------------------------ *)

(* A registry directory whose index.json knows about exactly one model
   (ipv4), built through the registry's own save path. *)
let registry_with_ipv4 dir =
  (match Model.Registry.create_dir dir with
   | Error m -> Alcotest.fail m
   | Ok registry ->
     (match Model.Registry.save registry (artifact_for "ipv4") with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m))

let find_model_file dir =
  match
    List.find_opt
      (fun f -> Filename.check_suffix f Model.Artifact.extension)
      (Array.to_list (Sys.readdir dir))
  with
  | Some f -> Filename.concat dir f
  | None -> Alcotest.fail "no .model file in registry dir"

let test_registry_index_desync () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  registry_with_ipv4 dir;
  (* The index survives; the artifact it points to does not. *)
  Sys.remove (find_model_file dir);
  Telemetry.enable ();
  Telemetry.reset ();
  (match Model.Registry.open_dir dir with
   | Error m -> Alcotest.fail m
   | Ok registry ->
     Alcotest.(check bool) "index still lists ipv4" true
       (Model.Registry.mem registry "ipv4");
     (match Model.Registry.find registry "ipv4" with
      | Error (Model.Artifact.File_error _) -> ()
      | Error e ->
        Alcotest.fail
          ("expected file error, got: "
          ^ Model.Artifact.load_error_to_string e)
      | Ok _ -> Alcotest.fail "deleted artifact must not serve"));
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  (* A missing file is transient (it may be a racing writer), so the
     bounded retry runs to exhaustion before giving up. *)
  Alcotest.(check int) "retry attempts exhausted" 2
    (Telemetry.find_counter snap "retry.attempts");
  Alcotest.(check int) "gave up once" 1
    (Telemetry.find_counter snap "retry.gave_up")

let test_registry_orphan_model () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  registry_with_ipv4 dir;
  (* A .model file the index does not know about. *)
  write_file
    (Filename.concat dir ("orphan" ^ Model.Artifact.extension))
    "not even a model";
  match Model.Registry.open_dir dir with
  | Error m -> Alcotest.fail m
  | Ok registry ->
    Alcotest.(check (list string)) "only indexed keys serve" [ "ipv4" ]
      (Model.Registry.keys registry);
    (match Model.Registry.find registry "orphan" with
     | Error (Model.Artifact.File_error msg) ->
       Alcotest.(check bool) "names the available keys" true
         (contains ~needle:"ipv4" msg)
     | Error e ->
       Alcotest.fail
         ("expected file error, got: "
         ^ Model.Artifact.load_error_to_string e)
     | Ok _ -> Alcotest.fail "orphan must not serve");
    (* The indexed model is unaffected by its orphan neighbour. *)
    (match Model.Registry.find registry "ipv4" with
     | Ok _ -> ()
     | Error e -> Alcotest.fail (Model.Artifact.load_error_to_string e))

let test_registry_truncated_artifact () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  registry_with_ipv4 dir;
  (* Truncate the artifact in place — a torn read mid-load. *)
  let path = find_model_file dir in
  let bytes = read_file path in
  write_file path (String.sub bytes 0 (String.length bytes * 2 / 3));
  Telemetry.enable ();
  Telemetry.reset ();
  (match Model.Registry.open_dir dir with
   | Error m -> Alcotest.fail m
   | Ok registry ->
     (match Model.Registry.find registry "ipv4" with
      | Error (Model.Artifact.Checksum_mismatch _) -> ()
      | Error e ->
        Alcotest.fail
          ("expected checksum mismatch, got: "
          ^ Model.Artifact.load_error_to_string e)
      | Ok _ -> Alcotest.fail "truncated artifact must not serve"));
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "retry attempts exhausted" 2
    (Telemetry.find_counter snap "retry.attempts");
  Alcotest.(check int) "gave up once" 1
    (Telemetry.find_counter snap "retry.gave_up")

let test_fault_corruption_and_recovery () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      Faults.set None;
      rm_rf dir)
  @@ fun () ->
  registry_with_ipv4 dir;
  (* Every read corrupted: the checksum rejects it, the retry gives up,
     the caller gets a clean error. *)
  Faults.set (Some { Faults.default with Faults.p_corrupt = 1.0 });
  Alcotest.(check bool) "fault injection active" true (Faults.active ());
  (match Model.Registry.open_dir dir with
   | Error m -> Alcotest.fail m
   | Ok registry ->
     (match Model.Registry.find registry "ipv4" with
      | Error (Model.Artifact.Checksum_mismatch _) -> ()
      | Error e ->
        Alcotest.fail
          ("expected checksum mismatch, got: "
          ^ Model.Artifact.load_error_to_string e)
      | Ok _ -> Alcotest.fail "corrupted read must not serve"));
  (* Injection off: the same bytes on disk serve fine. *)
  Faults.set None;
  match Model.Registry.open_dir dir with
  | Error m -> Alcotest.fail m
  | Ok registry ->
    (match Model.Registry.find registry "ipv4" with
     | Ok _ -> ()
     | Error e -> Alcotest.fail (Model.Artifact.load_error_to_string e))

let suite =
  [
    ("jsonx round-trip", `Quick, test_jsonx_roundtrip);
    ("jsonx parse errors", `Quick, test_jsonx_parse_errors);
    ("artifact round-trip verdict parity", `Slow, test_roundtrip_verdict_parity);
    ("truncated artifact rejected", `Quick, test_truncated_rejected);
    ("artifact with an unparseable source rejected", `Slow,
     test_unparseable_source_rejected);
    ("mutated artifacts decode whole or not at all", `Slow,
     test_artifact_mutations);
    ("checksum flip rejected", `Quick, test_checksum_flip_rejected);
    ("future version rejected", `Quick, test_version_unsupported);
    ("missing file is a file error", `Quick, test_missing_file);
    ("registry LRU and counters", `Quick, test_registry_lru);
    ("serving runs no pipeline stages", `Quick, test_serving_runs_no_pipeline);
    ("jsonx surrogate pairs", `Quick, test_jsonx_surrogate_pairs);
    ("jsonx number grammar", `Quick, test_jsonx_number_grammar);
    ("registry index desync", `Quick, test_registry_index_desync);
    ("registry orphan artifact", `Quick, test_registry_orphan_model);
    ("registry truncated artifact", `Quick, test_registry_truncated_artifact);
    ("fault-corrupted reads degrade and recover", `Quick,
     test_fault_corruption_and_recovery);
  ]
