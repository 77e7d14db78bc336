(** Seeded fuzzers over the inputs that arrive from outside the
    program: framed request streams on the serve path, and MiniScript
    sources and regex patterns on the front end.  Each input must give
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

(* One piece of a stream: a well-formed frame, or one damaged in one of
   the ways a client or a link can damage it. *)
let piece rng id =
  let p = request rng id in
  let n = String.length p in
  match int rng 10 with
  | 0 | 1 | 2 | 3 -> Frame.encode p
  | 4 -> Frame.encode (flip rng p)
  | 5 -> flip rng (Frame.encode p)
  | 6 -> Printf.sprintf "%d\n%s\n" (n + int rng 7 - 3) p  (* lying length *)
  | 7 -> String.init (int rng 12) (fun _ -> Char.chr (32 + int rng 95)) ^ "\n"
  | 8 -> Printf.sprintf "%d\n%s" n p  (* no terminator *)
  | _ ->
    let f = Frame.encode p in
    String.sub f 0 (int rng (String.length f))

(* An oversized header poisons the connection by design, so it only
   ever comes last. *)
let stream rng =
  let pieces = List.init (5 + int rng 25) (piece rng) in
  let oversized =
    if int rng 4 = 0 then
      [ Printf.sprintf "%d\n" (Frame.max_payload + 1 + int rng 1000) ]
    else []
  in
  String.concat "" (pieces @ oversized)

let decode chunks =
  let dec = Frame.decoder () in
  List.concat_map
    (fun chunk ->
      Frame.feed dec chunk;
      let rec drain acc =
        match Frame.next dec with
        | Some item -> drain (item :: acc)
        | None -> List.rev acc
      in
      drain [])
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
    if seed mod 5 = 0 then begin
      Telemetry.enable ();
      Telemetry.reset ();
      let replies, _, _ = Test_serve.run_bytes_over_pipes ~registry s in
      Telemetry.disable ();
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: one reply per item, in order" seed)
        ids
        (List.map (fun r -> r.Serve.Protocol.rp_id) replies);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: daemon.bad_frames" seed)
        (List.length (List.filter is_bad items))
        (Telemetry.find_counter (Telemetry.snapshot ()) "daemon.bad_frames")
    end
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

let suite =
  [ ("serve: framed request streams", `Slow, test_frame_streams);
    ("front end: mutated MiniScript sources", `Slow, test_miniscript_mutants);
    ("front end: hostile regex patterns", `Quick, test_regex_patterns) ]
