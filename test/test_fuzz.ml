(** Seeded fuzzers over the inputs that arrive from outside the
    program: framed request streams on the serve path, MiniScript
    sources and regex patterns on the front end, and the metrics
    snapshot files that [autotype stats --snapshot] reads.  Each input must give
    a result or a typed error, never an escaping exception. *)

module Frame = Serve.Frame
module J = Model.Jsonx
module Repo = Repolib.Repo
module Candidate = Repolib.Candidate

let int = Random.State.int
let pick rng a = a.(int rng (Array.length a))

(* ------------------------ serve path: frames ------------------------ *)

let ipv4_values =
  [| "192.168.0.1"; "10.0.0.7"; "255.255.255.255"; "1.2.3"; "not an ip"; "";
     "256.1.1.1"; "8.8.8.8" |]

let request rng id =
  let values () =
    J.List
      (List.init (1 + int rng 4) (fun _ -> J.Str (pick rng ipv4_values)))
  in
  let typed op =
    [ ("op", J.Str op); ("type", J.Str "ipv4"); ("values", values ()) ]
  in
  let fields =
    match int rng 3 with
    | 0 -> typed "validate"
    | 1 -> typed "detect"
    | _ -> [ ("op", J.Str "health") ]
  in
  J.to_string (J.Obj (("id", J.Int id) :: fields))

(* Replace one to three bytes with random ones. *)
let flip rng s =
  let b = Bytes.of_string s in
  if Bytes.length b > 0 then
    for _ = 1 to 1 + int rng 3 do
      Bytes.set b (int rng (Bytes.length b)) (Char.chr (int rng 256))
    done;
  Bytes.to_string b

(* Up to 200 bytes with no newline: a header line that never ends. *)
let newline_free rng =
  String.init (1 + int rng 200) (fun _ ->
      match Char.chr (int rng 256) with '\n' -> ' ' | c -> c)

(* One piece of a stream: a well-formed frame, or one damaged in one of
   the ways a client or a link can damage it. *)
let piece rng id =
  let p = request rng id in
  let n = String.length p in
  match int rng 11 with
  | 10 -> newline_free rng
  | 0 | 1 | 2 | 3 -> Frame.encode p
  | 4 -> Frame.encode (flip rng p)
  | 5 -> flip rng (Frame.encode p)
  | 6 -> Printf.sprintf "%d\n%s\n" (n + int rng 7 - 3) p  (* lying length *)
  | 7 -> String.init (int rng 12) (fun _ -> Char.chr (32 + int rng 95)) ^ "\n"
  | 8 -> Printf.sprintf "%d\n%s" n p  (* no terminator *)
  | _ ->
    let f = Frame.encode p in
    String.sub f 0 (int rng (String.length f))

(* An oversized header or a run of eight or more digits poisons the
   connection by design, so it only ever comes last; so does a
   newline-free tail, which would swallow what follows. *)
let stream rng =
  let pieces = List.init (5 + int rng 25) (piece rng) in
  let tail =
    match int rng 8 with
    | 0 -> [ Printf.sprintf "%d\n" (Frame.max_payload + 1 + int rng 1000) ]
    | 1 -> [ String.init (8 + int rng 40) (fun _ -> Char.chr (48 + int rng 10)) ]
    | 2 -> [ newline_free rng ]
    | _ -> []
  in
  String.concat "" (pieces @ tail)

(* After a drain, what stays buffered is a header line of at most seven
   bytes still waiting for its newline, or one frame still waiting for
   the rest of its payload — never more — until the decoder is
   poisoned.  [fed] holds every byte fed so far. *)
let check_pending fed dec =
  let n = Frame.pending dec in
  let buffered = Buffer.sub fed (Buffer.length fed - n) n in
  let ok =
    match String.index_opt buffered '\n' with
    | None -> n <= 7
    | Some nl ->
      let header = String.sub buffered 0 nl in
      nl >= 1 && nl <= 7
      && String.for_all (fun c -> c >= '0' && c <= '9') header
      && n < nl + 1 + int_of_string header + 1
  in
  if not ok then Alcotest.failf "%d bytes stay buffered: %S" n buffered

let decode chunks =
  let dec = Frame.decoder () in
  let fed = Buffer.create 1024 in
  let poisoned = ref false in
  List.concat_map
    (fun chunk ->
      Frame.feed dec chunk;
      Buffer.add_string fed chunk;
      let rec drain acc =
        match Frame.next dec with
        | Some item ->
          (match item with Frame.Too_large _ -> poisoned := true | _ -> ());
          drain (item :: acc)
        | None -> List.rev acc
      in
      let items = drain [] in
      if not !poisoned then check_pending fed dec;
      items)
    chunks

(* [s] in chunks of 1 to 64 bytes. *)
let chunks rng s =
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else
      let n = min (1 + int rng 64) (String.length s - off) in
      go (off + n) (String.sub s off n :: acc)
  in
  go 0 []

(* The id the daemon answers an item with. *)
let reply_id = function
  | Frame.Payload p ->
    (match Serve.Protocol.request_of_json p with
     | Ok rq -> rq.Serve.Protocol.rq_id
     | Error pe -> Option.value pe.Serve.Protocol.pe_id ~default:(-1))
  | Frame.Bad_header _ | Frame.Bad_terminator | Frame.Too_large _ -> -1

let is_bad = function Frame.Payload _ -> false | _ -> true

let test_frame_streams () =
  let registry = Test_serve.open_registry () in
  Exec.Pool.with_pool ~jobs:2 @@ fun two_domains ->
  for seed = 1 to 1_000 do
    let rng = Random.State.make [| 0x5e7e; seed |] in
    let s = stream rng in
    let escaped what e =
      Alcotest.failf "seed %d: %s raised %s" seed what (Printexc.to_string e)
    in
    let items = try decode [ s ] with e -> escaped "the decoder" e in
    for _ = 1 to 3 do
      if decode (chunks rng s) <> items then
        Alcotest.failf "seed %d: a chunking changed the items" seed
    done;
    let ids =
      try List.map reply_id items with e -> escaped "request_of_json" e
    in
    if seed mod 5 = 0 then
      (* with no pool, and with the cycle's requests spread over two
         domains *)
      List.iter
        (fun (pool, how) ->
          Telemetry.enable ();
          Telemetry.reset ();
          let replies, _, _ =
            Test_serve.run_bytes_over_pipes ?pool ~registry s
          in
          Telemetry.disable ();
          Alcotest.(check (list int))
            (Printf.sprintf "seed %d %s: one reply per item, in order" seed
               how)
            ids
            (List.map (fun r -> r.Serve.Protocol.rp_id) replies);
          Alcotest.(check int)
            (Printf.sprintf "seed %d %s: daemon.bad_frames" seed how)
            (List.length (List.filter is_bad items))
            (Telemetry.find_counter (Telemetry.snapshot ()) "daemon.bad_frames"))
        [ (None, "without a pool"); (Some two_domains, "on a pool") ]
  done

(* ---------------------- front end: MiniScript ----------------------- *)

let source_chars = "():[]{}=+-*/%<>,.'\"\\#\n\t 0123456789abcdefxyz_"

(* Replace, delete or insert one byte. *)
let mutate_bytes rng src =
  let c () =
    String.make 1
      (if int rng 4 = 0 then Char.chr (int rng 256)
       else source_chars.[int rng (String.length source_chars)])
  in
  let n = String.length src in
  let at = int rng (n + 1) in
  let rest from = String.sub src from (n - from) in
  match int rng 3 with
  | 0 when at < n -> String.sub src 0 at ^ c () ^ rest (at + 1)
  | 1 when at < n -> String.sub src 0 at ^ rest (at + 1)
  | _ -> String.sub src 0 at ^ c () ^ rest at

(* Delete, duplicate, swap or re-indent lines. *)
let mutate_lines rng src =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let n = Array.length lines in
  let i = int rng n and j = int rng n in
  let out =
    match int rng 4 with
    | 0 -> List.filteri (fun k _ -> k <> i) (Array.to_list lines)
    | 1 ->
      List.concat
        (List.mapi (fun k l -> if k = i then [ l; l ] else [ l ])
           (Array.to_list lines))
    | 2 ->
      let a = Array.copy lines in
      a.(i) <- lines.(j);
      a.(j) <- lines.(i);
      Array.to_list a
    | _ ->
      let a = Array.copy lines in
      a.(i) <-
        (if Random.State.bool rng then "    " ^ a.(i) else String.trim a.(i));
      Array.to_list a
  in
  String.concat "\n" out

let small = { Minilang.Interp.max_steps = 2_000; max_call_depth = 32 }

(* Every corpus source, mutated five ways: each mutant parses or raises
   a typed parse error, and each Direct candidate of a mutant that
   parses runs with only [Infra_failure] escaping. *)
let test_miniscript_mutants () =
  let rng = Random.State.make [| 0xf0f0 |] in
  let mutate (f : Repo.file) mutation =
    let source = mutation rng f.Repo.source in
    match Minilang.Parser.parse ~file:f.Repo.path source with
    | exception (Minilang.Parser.Parse_error _ | Minilang.Lexer.Lex_error _)
      ->
      ()
    | exception e ->
      Alcotest.failf "%s: parse raised %s" f.Repo.path (Printexc.to_string e)
    | _ ->
      let repo = Repo.make "fuzz/mutant" "" [ { f with Repo.source } ] in
      let run (c : Candidate.t) input =
        match Repolib.Driver.run ~config:small c input with
        | _ -> ()
        | exception Repolib.Driver.Infra_failure _ -> ()
        | exception e ->
          Alcotest.failf "%s: run of %s raised %s" f.Repo.path
            c.Candidate.func_name (Printexc.to_string e)
      in
      List.iter
        (fun (c : Candidate.t) ->
          if c.Candidate.invocation = Candidate.Direct then
            List.iter (run c) [ "192.168.0.1"; ""; "978-3-16-148410-0" ])
        (Repolib.Analyzer.candidates_of_repo repo)
  in
  List.iter
    (fun (r : Repo.t) ->
      List.iter
        (fun f ->
          List.iter (mutate f)
            [ mutate_bytes; mutate_bytes; mutate_bytes; mutate_lines;
              mutate_lines ])
        r.Repo.files)
    Corpus.all_repos

(* ------------------------ front end: regexes ------------------------ *)

let regex_atoms =
  [| "a"; "b"; "."; "^"; "$"; "*"; "+"; "?"; "|"; "("; ")"; "(?:"; "["; "]";
     "[^"; "-"; "{"; "}"; "{2}"; "{1,3}"; "{,2}"; "\\"; "\\d"; "\\w"; "\\s";
     "\\b"; "\\1"; ","; "0"; "9"; "*?"; "+?"; "??"; "(a*)*"; "(a|ab)+";
     "{99999}"; "{99999999999999999999}"; "(?="; "(?!"; "(?P<n>"; "(?P=n)" |]

(* Patterns parse or raise [Parse_error]; a pattern that parses matches
   random inputs without raising. *)
let test_regex_patterns () =
  let rng = Random.State.make [| 0xe6e6 |] in
  let input () = String.init (int rng 24) (fun _ -> "ab{}-0 \n".[int rng 8]) in
  for _ = 1 to 20_000 do
    let pattern =
      String.concat "" (List.init (int rng 10) (fun _ -> pick rng regex_atoms))
    in
    let raised what e =
      Alcotest.failf "%S: %s raised %s" pattern what (Printexc.to_string e)
    in
    match Regexlite.parse pattern with
    | exception Regexlite.Parse_error _ -> ()
    | exception e -> raised "parse" e
    | re ->
      for _ = 1 to 3 do
        let s = input () in
        try
          ignore (Regexlite.match_prefix re s);
          ignore (Regexlite.full_match re s);
          ignore (Regexlite.search re s)
        with e -> raised (Printf.sprintf "matching %S" s) e
      done
  done

(* -------------------------- snapshot files -------------------------- *)

let hist count sum =
  { Telemetry.h_count = count; h_sum = sum; h_min = 0.125; h_max = 9.5;
    h_mean = sum /. float_of_int count; h_p50 = 1.25; h_p95 = 7.0;
    h_p99 = 9.0 }

let render snap = J.to_string (Serve.Ingest.snapshot_to_json snap)

let snapshot_text =
  render
    { Telemetry.counters =
        [ ("daemon.requests", 1200); ("serve.degraded", 3);
          ("serve.fastpath_hits", 0) ];
      histograms =
        [ ("interp.steps_per_run", hist 7 63.0);
          ("serve.column_latency_ms", hist 1200 1800.0) ] }

(* JSON has no infinity or NaN, so these render as strings. *)
let nonfinite_text =
  render
    { Telemetry.counters = [];
      histograms =
        [ ( "serve.column_latency_ms",
            { (hist 2 1.0) with h_sum = Float.infinity; h_mean = Float.nan;
              h_min = Float.neg_infinity } ) ] }

(* [%.17g] alone writes -0.0 as "-0", which reads back as 0. *)
let negzero_text =
  render
    { Telemetry.counters = [];
      histograms =
        [ ("serve.column_latency_ms", { (hist 2 1.0) with h_min = -0.0 }) ] }

(* Replace the value after a random ':' (the snapshot's names hold
   none) with a value of another type. *)
let swap_value rng s =
  let n = String.length s in
  let colons = List.filter (fun i -> s.[i] = ':') (List.init n Fun.id) in
  let at = 1 + List.nth colons (int rng (List.length colons)) in
  (* A number ends at its first other character, an object at its
     closing brace; the text always ends with a brace. *)
  let rec value_end i depth =
    let c = s.[i] in
    if depth = 0 && c <> '{' then
      if String.contains "-0123456789.eE+" c then value_end (i + 1) 0 else i
    else
      let depth =
        match c with '{' -> depth + 1 | '}' -> depth - 1 | _ -> depth
      in
      if depth = 0 then i + 1 else value_end (i + 1) depth
  in
  let stop = value_end at 0 in
  String.sub s 0 at
  ^ pick rng [| {|"7"|}; "null"; "true"; "[]"; "{}"; "1.5"; "-2"; "1e400";
                "-0.0"; "-0"; {|{"count":1}|} |]
  ^ String.sub s stop (n - stop)

(* The decoder behind [autotype stats --snapshot]: the bench's own file
   and snapshots with non-finite or -0.0 fields round-trip, anything
   that is not two objects of metrics is an Error, no mutant raises,
   and every mutant that loads renders to text that round-trips. *)
let test_snapshot_files () =
  let decode text =
    match Serve.Ingest.snapshot_of_string text with
    | r -> r
    | exception e ->
      Alcotest.failf "%S raised %s" text (Printexc.to_string e)
  in
  let round_trips label text =
    match decode text with
    | Ok snap ->
      Alcotest.(check string) (label ^ " round-trips") text (render snap)
    | Error msg -> Alcotest.failf "%s is refused: %s" label msg
  in
  round_trips "the bench's format" snapshot_text;
  round_trips "a snapshot with non-finite fields" nonfinite_text;
  round_trips "a snapshot with a -0.0 field" negzero_text;
  (match decode negzero_text with
   | Ok { Telemetry.histograms = [ (_, h) ]; _ } ->
     Alcotest.(check bool) "a -0.0 min keeps its sign" true
       (h.Telemetry.h_min = 0.0 && Float.sign_bit h.Telemetry.h_min)
   | Ok _ | Error _ -> Alcotest.fail "the -0.0 snapshot decodes to one histogram");
  (* A sum past the float range decodes to infinity, which renders as
     "+Inf" and reads back; the other fields differ, so each must come
     back under its own key. *)
  let one_hist ~mean ~sum =
    Printf.sprintf
      {|{"counters":{},"histograms":{"h":{"count":1,"max":4,"mean":%s,"min":0.5,"p50":1,"p95":2,"p99":3,"sum":%s}}}|}
      mean sum
  in
  (match decode (one_hist ~mean:"1" ~sum:"1e400") with
   | Ok snap ->
     Alcotest.(check string) "a sum of 1e400 renders as \"+Inf\""
       (one_hist ~mean:"1" ~sum:{|"+Inf"|})
       (render snap)
   | Error msg -> Alcotest.failf "a sum of 1e400 is refused: %s" msg);
  List.iter
    (fun text ->
      Alcotest.(check bool) (text ^ " is refused") true
        (Result.is_error (decode text)))
    [ "42"; "[]"; "{}"; {|{"foo":1}|}; {|{"counters":{},"histograms":[]}|};
      {|{"counters":{"c":1.5},"histograms":{}}|};
      {|{"counters":{"c":"+Inf"},"histograms":{}}|};
      one_hist ~mean:{|"inf"|} ~sum:"1.0"; one_hist ~mean:{|"7"|} ~sum:"1.0" ];
  Alcotest.(check bool) "unknown members are ignored" true
    (Result.is_ok
       (decode {|{"counters":{},"histograms":{},"rates":{"r":{}}}|}));
  let oks = ref 0 and errors = ref 0 in
  for seed = 1 to 3_000 do
    let rng = Random.State.make [| 0x5a95; seed |] in
    let text =
      match seed mod 3 with
      | 0 -> flip rng snapshot_text
      | 1 -> String.sub snapshot_text 0 (int rng (String.length snapshot_text))
      | _ -> swap_value rng snapshot_text
    in
    match decode text with
    | Ok snap ->
      incr oks;
      (* What loads renders to text that loads back to the same bytes. *)
      let once = render snap in
      (match decode once with
       | Ok snap' when render snap' = once -> ()
       | Ok _ | Error _ ->
         Alcotest.failf "%S: its rendering %S does not round-trip" text once);
      (match Telemetry.Expose.lint (Telemetry.Expose.render_prometheus snap)
       with
       | Ok _ | Error _ -> ()
       | exception e ->
         Alcotest.failf "%S: exposition raised %s" text (Printexc.to_string e))
    | Error _ -> incr errors
  done;
  Alcotest.(check bool)
    (Printf.sprintf "mutants both load (%d) and fail (%d)" !oks !errors)
    true
    (!oks > 0 && !errors > 0)

let suite =
  [ ("serve: framed request streams", `Slow, test_frame_streams);
    ("front end: mutated MiniScript sources", `Slow, test_miniscript_mutants);
    ("front end: hostile regex patterns", `Quick, test_regex_patterns);
    ("stats: mutated snapshot files", `Quick, test_snapshot_files) ]
