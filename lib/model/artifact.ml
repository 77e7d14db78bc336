(** Persistent model artifacts (see artifact.mli and DESIGN.md §9). *)

(* v3: the payload is the candidate's code, its DNF and provenance;
   the compiled tree is derived at load (DESIGN.md §13).  Strict
   versioning — older artifacts are rejected with
   [Version_unsupported] and must be recompiled. *)
let format_version = 3
let magic = "AUTOTYPE-MODEL"
let extension = ".model"

type provenance = {
  query : string;
  type_id : string option;
  seed : int;
  pipeline : Autotype_core.Pipeline.config;
  strategy : Autotype_core.Negative.strategy option;
  candidates_tried : int;
  repos_searched : int;
}

type t = {
  provenance : provenance;
  candidate : Repolib.Candidate.t;
  dnf : Autotype_core.Dnf.result;
  summary : Absint.Domain.compiled option;
}

let m_saves = Telemetry.counter "model.saves"
let m_loads = Telemetry.counter "model.loads"
let m_load_failures = Telemetry.counter "model.load_failures"

(* ------------------------------------------------------------------ *)
(* Compile: exporting                                                  *)
(* ------------------------------------------------------------------ *)

(* Ship only what execution needs: sources that parse (execution skips
   the others, and a loaded artifact must parse whole) and popularity
   metadata.  The README is dead weight and [truth] is evaluation
   ground truth that must not leak into a served artifact. *)
let slim_repo (repo : Repolib.Repo.t) : Repolib.Repo.t =
  let _, skipped = Repolib.Repo.parse_each repo in
  Repolib.Repo.make ~readme:"" ~stars:repo.Repolib.Repo.stars ~truth:[]
    repo.Repolib.Repo.repo_name repo.Repolib.Repo.description
    (List.filter
       (fun (f : Repolib.Repo.file) ->
         not (List.exists (fun (path, _, _) -> path = f.Repolib.Repo.path) skipped))
       repo.Repolib.Repo.files)

let of_synthesis ~provenance (syn : Autotype_core.Synthesis.t) : t =
  let candidate = syn.Autotype_core.Synthesis.candidate in
  {
    provenance;
    candidate =
      { candidate with
        Repolib.Candidate.repo = slim_repo candidate.Repolib.Candidate.repo };
    dnf = syn.Autotype_core.Synthesis.dnf;
    (* Resolved before slimming: absint facts are memoized against the
       original repo (the slimmed one has identical sources anyway). *)
    summary = Autotype_core.Summarize.compile syn;
  }

let provenance_of_compiled (c : Autotype_core.Pipeline.compiled) : provenance =
  let o = c.Autotype_core.Pipeline.c_outcome in
  let config = c.Autotype_core.Pipeline.c_config in
  {
    query = o.Autotype_core.Pipeline.query;
    type_id = None;
    seed = config.Autotype_core.Pipeline.seed;
    pipeline = config;
    strategy = o.Autotype_core.Pipeline.strategy_used;
    candidates_tried = o.Autotype_core.Pipeline.candidates_tried;
    repos_searched = o.Autotype_core.Pipeline.repos_searched;
  }

let of_compiled (c : Autotype_core.Pipeline.compiled) : t option =
  let provenance = provenance_of_compiled c in
  Option.map
    (of_synthesis ~provenance)
    (Autotype_core.Pipeline.best c.Autotype_core.Pipeline.c_outcome)

let with_type_id id t =
  { t with provenance = { t.provenance with type_id = Some id } }

(* ------------------------------------------------------------------ *)
(* Serve: importing                                                    *)
(* ------------------------------------------------------------------ *)

let to_synthesis (t : t) : Autotype_core.Synthesis.t =
  Autotype_core.Synthesis.make t.candidate t.dnf

let slug s =
  let b = Buffer.create (String.length s) in
  let last_dash = ref true in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' ->
        Buffer.add_char b c;
        last_dash := false
      | 'A' .. 'Z' ->
        Buffer.add_char b (Char.lowercase_ascii c);
        last_dash := false
      | _ ->
        if not !last_dash then begin
          Buffer.add_char b '-';
          last_dash := true
        end)
    s;
  let s = Buffer.contents b in
  let n = String.length s in
  if n > 0 && s.[n - 1] = '-' then String.sub s 0 (n - 1) else s

let key t =
  match t.provenance.type_id with
  | Some id -> id
  | None ->
    let s = slug t.provenance.query in
    if s = "" then "model" else s

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                       *)
(* ------------------------------------------------------------------ *)

type artifact = t  (** alias: [open Jsonx] below shadows [t] *)

open Jsonx

let json_of_invocation (inv : Repolib.Candidate.invocation) : Jsonx.t =
  let obj kind fields = Obj (("kind", Str kind) :: fields) in
  match inv with
  | Repolib.Candidate.Direct -> obj "direct" []
  | Repolib.Candidate.Class_then_method (c, m) ->
    obj "class_then_method" [ ("class", Str c); ("method", Str m) ]
  | Repolib.Candidate.Ctor_then_method (c, m) ->
    obj "ctor_then_method" [ ("class", Str c); ("method", Str m) ]
  | Repolib.Candidate.Via_argv f -> obj "via_argv" [ ("func", Str f) ]
  | Repolib.Candidate.Via_stdin f -> obj "via_stdin" [ ("func", Str f) ]
  | Repolib.Candidate.Via_file f -> obj "via_file" [ ("func", Str f) ]
  | Repolib.Candidate.Script_var (path, var) ->
    obj "script_var" [ ("path", Str path); ("var", Str var) ]
  | Repolib.Candidate.Script_argv path ->
    obj "script_argv" [ ("path", Str path) ]
  | Repolib.Candidate.Script_stdin path ->
    obj "script_stdin" [ ("path", Str path) ]
  | Repolib.Candidate.Split_call (f, sep, k) ->
    obj "split_call"
      [ ("func", Str f); ("sep", Int (Char.code sep)); ("arity", Int k) ]

let invocation_of_json j : Repolib.Candidate.invocation =
  let str k = to_str (member k j) in
  match to_str (member "kind" j) with
  | "direct" -> Repolib.Candidate.Direct
  | "class_then_method" ->
    Repolib.Candidate.Class_then_method (str "class", str "method")
  | "ctor_then_method" ->
    Repolib.Candidate.Ctor_then_method (str "class", str "method")
  | "via_argv" -> Repolib.Candidate.Via_argv (str "func")
  | "via_stdin" -> Repolib.Candidate.Via_stdin (str "func")
  | "via_file" -> Repolib.Candidate.Via_file (str "func")
  | "script_var" -> Repolib.Candidate.Script_var (str "path", str "var")
  | "script_argv" -> Repolib.Candidate.Script_argv (str "path")
  | "script_stdin" -> Repolib.Candidate.Script_stdin (str "path")
  | "split_call" ->
    let sep = to_int (member "sep" j) in
    if sep < 0 || sep > 255 then raise (Decode_error "split_call sep range");
    Repolib.Candidate.Split_call
      (str "func", Char.chr sep, to_int (member "arity" j))
  | k -> raise (Decode_error ("unknown invocation kind " ^ k))

let json_of_candidate (c : Repolib.Candidate.t) : Jsonx.t =
  let repo = c.Repolib.Candidate.repo in
  Obj
    [ ("repo",
       Obj
         [ ("name", Str repo.Repolib.Repo.repo_name);
           ("description", Str repo.Repolib.Repo.description);
           ("stars", Int repo.Repolib.Repo.stars);
           ("files",
            List
              (List.map
                 (fun (f : Repolib.Repo.file) ->
                   Obj
                     [ ("path", Str f.Repolib.Repo.path);
                       ("source", Str f.Repolib.Repo.source) ])
                 repo.Repolib.Repo.files)) ]);
      ("file", Str c.Repolib.Candidate.file);
      ("func_name", Str c.Repolib.Candidate.func_name);
      ("doc_text", Str c.Repolib.Candidate.doc_text);
      ("invocation", json_of_invocation c.Repolib.Candidate.invocation) ]

let candidate_of_json j : Repolib.Candidate.t =
  let rj = member "repo" j in
  let files =
    List.map
      (fun fj ->
        { Repolib.Repo.path = to_str (member "path" fj);
          source = to_str (member "source" fj) })
      (to_list (member "files" rj))
  in
  let repo =
    Repolib.Repo.make ~readme:"" ~stars:(to_int (member "stars" rj)) ~truth:[]
      (to_str (member "name" rj))
      (to_str (member "description" rj))
      files
  in
  {
    Repolib.Candidate.repo;
    file = to_str (member "file" j);
    func_name = to_str (member "func_name" j);
    doc_text = to_str (member "doc_text" j);
    invocation = invocation_of_json (member "invocation" j);
  }

let json_of_ret (r : Minilang.Trace.ret_abstract) : Jsonx.t =
  Str
    (match r with
     | Minilang.Trace.Rbool true -> "true"
     | Minilang.Trace.Rbool false -> "false"
     | Minilang.Trace.Rzero -> "zero"
     | Minilang.Trace.Rnonzero -> "nonzero"
     | Minilang.Trace.Rnone -> "none"
     | Minilang.Trace.Rnotnone -> "notnone"
     | Minilang.Trace.Rvoid -> "void")

let ret_of_json j : Minilang.Trace.ret_abstract =
  match to_str j with
  | "true" -> Minilang.Trace.Rbool true
  | "false" -> Minilang.Trace.Rbool false
  | "zero" -> Minilang.Trace.Rzero
  | "nonzero" -> Minilang.Trace.Rnonzero
  | "none" -> Minilang.Trace.Rnone
  | "notnone" -> Minilang.Trace.Rnotnone
  | "void" -> Minilang.Trace.Rvoid
  | s -> raise (Decode_error ("unknown return abstraction " ^ s))

let json_of_literal (l : Autotype_core.Feature.literal) : Jsonx.t =
  match l with
  | Autotype_core.Feature.Branch_is (site, taken) ->
    Obj
      [ ("t", Str "branch");
        ("file", Str site.Minilang.Trace.s_file);
        ("line", Int site.Minilang.Trace.s_line);
        ("taken", Bool taken) ]
  | Autotype_core.Feature.Return_is (site, ret) ->
    Obj
      [ ("t", Str "return");
        ("file", Str site.Minilang.Trace.s_file);
        ("line", Int site.Minilang.Trace.s_line);
        ("ret", json_of_ret ret) ]
  | Autotype_core.Feature.Raised kind ->
    Obj [ ("t", Str "raised"); ("kind", Str kind) ]

let literal_of_json j : Autotype_core.Feature.literal =
  let site () =
    { Minilang.Trace.s_file = to_str (member "file" j);
      s_line = to_int (member "line" j) }
  in
  match to_str (member "t" j) with
  | "branch" ->
    Autotype_core.Feature.Branch_is (site (), to_bool (member "taken" j))
  | "return" ->
    Autotype_core.Feature.Return_is (site (), ret_of_json (member "ret" j))
  | "raised" -> Autotype_core.Feature.Raised (to_str (member "kind" j))
  | t -> raise (Decode_error ("unknown literal tag " ^ t))

let json_of_clauses (cs : Autotype_core.Dnf.clause list) : Jsonx.t =
  List (List.map (fun c -> List (List.map json_of_literal c)) cs)

let clauses_of_json j : Autotype_core.Dnf.clause list =
  List.map (fun c -> List.map literal_of_json (to_list c)) (to_list j)

let json_of_dnf (d : Autotype_core.Dnf.result) : Jsonx.t =
  Obj
    [ ("n_pos", Int d.Autotype_core.Dnf.n_pos);
      ("n_neg", Int d.Autotype_core.Dnf.n_neg);
      ("cov_p", Int d.Autotype_core.Dnf.cov_p);
      ("cov_n", Int d.Autotype_core.Dnf.cov_n);
      ("clauses", json_of_clauses d.Autotype_core.Dnf.clauses);
      ("expanded", json_of_clauses d.Autotype_core.Dnf.expanded) ]

let dnf_of_json j : Autotype_core.Dnf.result =
  {
    Autotype_core.Dnf.clauses = clauses_of_json (member "clauses" j);
    expanded = clauses_of_json (member "expanded" j);
    cov_p = to_int (member "cov_p" j);
    cov_n = to_int (member "cov_n" j);
    n_pos = to_int (member "n_pos" j);
    n_neg = to_int (member "n_neg" j);
  }

let json_of_pipeline_config (c : Autotype_core.Pipeline.config) : Jsonx.t =
  Obj
    [ ("k", Int c.Autotype_core.Pipeline.k);
      ("theta", Float c.Autotype_core.Pipeline.theta);
      ("top_repos", Int c.Autotype_core.Pipeline.top_repos);
      ("neg_per_positive", Int c.Autotype_core.Pipeline.neg_per_positive);
      ("mutation_p", Float c.Autotype_core.Pipeline.mutation_p);
      ("found_fraction", Float c.Autotype_core.Pipeline.found_fraction);
      ("seed", Int c.Autotype_core.Pipeline.seed);
      ("staticcheck", Bool c.Autotype_core.Pipeline.staticcheck) ]

let pipeline_config_of_json j : Autotype_core.Pipeline.config =
  {
    Autotype_core.Pipeline.k = to_int (member "k" j);
    theta = to_float (member "theta" j);
    top_repos = to_int (member "top_repos" j);
    neg_per_positive = to_int (member "neg_per_positive" j);
    mutation_p = to_float (member "mutation_p" j);
    found_fraction = to_float (member "found_fraction" j);
    seed = to_int (member "seed" j);
    staticcheck = to_bool (member "staticcheck" j);
  }

let json_of_provenance (p : provenance) : Jsonx.t =
  Obj
    [ ("query", Str p.query);
      ("type_id", match p.type_id with Some id -> Str id | None -> Null);
      ("seed", Int p.seed);
      ("pipeline", json_of_pipeline_config p.pipeline);
      ("strategy",
       (match p.strategy with
        | Some s -> Str (Autotype_core.Negative.strategy_to_string s)
        | None -> Null));
      ("candidates_tried", Int p.candidates_tried);
      ("repos_searched", Int p.repos_searched) ]

let provenance_of_json j : provenance =
  {
    query = to_str (member "query" j);
    type_id =
      (match member "type_id" j with Null -> None | v -> Some (to_str v));
    seed = to_int (member "seed" j);
    pipeline = pipeline_config_of_json (member "pipeline" j);
    strategy =
      (match member "strategy" j with
       | Null -> None
       | Str "S1" -> Some Autotype_core.Negative.S1
       | Str "S2" -> Some Autotype_core.Negative.S2
       | Str "S3" -> Some Autotype_core.Negative.S3
       | Str s -> raise (Decode_error ("unknown strategy " ^ s))
       | _ -> raise (Decode_error "strategy must be a string or null"));
    candidates_tried = to_int (member "candidates_tried" j);
    repos_searched = to_int (member "repos_searched" j);
  }

let payload_of (t : artifact) : Jsonx.t =
  Obj
    [ ("provenance", json_of_provenance t.provenance);
      ("candidate", json_of_candidate t.candidate);
      ("dnf", json_of_dnf t.dnf) ]

(* ------------------------------------------------------------------ *)
(* Framing: header line + checksummed payload line                     *)
(* ------------------------------------------------------------------ *)

type load_error =
  | File_error of string
  | Not_a_model of string
  | Version_unsupported of { found : int; supported : int }
  | Checksum_mismatch of { expected : string; actual : string }
  | Malformed of string

let load_error_to_string = function
  | File_error msg -> Printf.sprintf "cannot read model artifact: %s" msg
  | Not_a_model msg ->
    Printf.sprintf
      "not a %s artifact (expected a \"%s v%d md5=...\" header): %s" magic
      magic format_version msg
  | Version_unsupported { found; supported } ->
    Printf.sprintf
      "model artifact has format version v%d, but this build only supports \
       v%d — recompile the model with `autotype compile`"
      found supported
  | Checksum_mismatch { expected; actual } ->
    Printf.sprintf
      "model artifact is corrupt (format v%d): header says md5=%s but the \
       payload hashes to %s — the file was truncated or modified"
      format_version expected actual
  | Malformed msg ->
    Printf.sprintf "model artifact payload is malformed (format v%d): %s"
      format_version msg

(* A loaded model must not fail on every value it serves for a reason
   visible at load: every embedded source parses (into the parse cache
   that serving then reuses).  Only then is the compiled tree derived,
   by this build's own proofs over the decoded code and DNF, so no tree
   can disagree with the code it stands for. *)
let of_payload j : (artifact, load_error) result =
  let provenance = provenance_of_json (member "provenance" j) in
  let candidate = candidate_of_json (member "candidate" j) in
  let dnf = dnf_of_json (member "dnf" j) in
  match Repolib.Repo.parse_each candidate.Repolib.Candidate.repo with
  | _, (file, line, msg) :: _ ->
    Error
      (Malformed
         (Printf.sprintf "embedded source %s:%d does not parse: %s" file line
            msg))
  | _, [] ->
    let summary =
      Autotype_core.Summarize.compile
        (Autotype_core.Synthesis.make candidate dnf)
    in
    Ok { provenance; candidate; dnf; summary }

let encode (t : artifact) : string =
  let payload = Jsonx.to_string (payload_of t) in
  let checksum = Digest.to_hex (Digest.string payload) in
  Printf.sprintf "%s v%d md5=%s\n%s\n" magic format_version checksum payload

let decode (contents : string) : (artifact, load_error) result =
  match String.index_opt contents '\n' with
  | None -> Error (Not_a_model "no header line")
  | Some nl ->
    let header = String.sub contents 0 nl in
    let payload =
      let rest = String.sub contents (nl + 1) (String.length contents - nl - 1) in
      let n = String.length rest in
      if n > 0 && rest.[n - 1] = '\n' then String.sub rest 0 (n - 1) else rest
    in
    (match String.split_on_char ' ' header with
     | [ m; version; md5 ]
       when m = magic
            && String.length version > 1
            && version.[0] = 'v'
            && String.length md5 > 4
            && String.sub md5 0 4 = "md5=" -> begin
         match
           int_of_string_opt (String.sub version 1 (String.length version - 1))
         with
         | None -> Error (Not_a_model ("bad version field " ^ version))
         | Some v when v <> format_version ->
           Error (Version_unsupported { found = v; supported = format_version })
         | Some _ ->
           let expected = String.sub md5 4 (String.length md5 - 4) in
           let actual = Digest.to_hex (Digest.string payload) in
           if not (String.equal expected actual) then
             Error (Checksum_mismatch { expected; actual })
           else begin
             match Jsonx.parse payload with
             | Error msg -> Error (Malformed msg)
             | Ok j ->
               (try of_payload j
                with Jsonx.Decode_error msg -> Error (Malformed msg))
           end
       end
     | _ -> Error (Not_a_model ("bad header line: " ^ header)))

let save (t : artifact) (path : string) : (unit, string) result =
  Telemetry.with_span "model.save" ~attrs:[ ("path", Telemetry.S path) ]
  @@ fun () ->
  let contents = encode t in
  Telemetry.add_attr "bytes" (Telemetry.I (String.length contents));
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    output_string oc contents;
    close_out oc;
    Sys.rename tmp path
  with
  | () ->
    Telemetry.incr m_saves;
    Ok ()
  | exception Sys_error msg -> Error msg

let load (path : string) : (artifact, load_error) result =
  Telemetry.with_span "model.load" ~attrs:[ ("path", Telemetry.S path) ]
  @@ fun () ->
  let read () =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    contents
  in
  match read () with
  | exception Sys_error msg ->
    Telemetry.incr m_load_failures;
    Error (File_error msg)
  | contents ->
    (* Fault injection may hand back corrupted bytes here — the torn
       read the checksum/retry machinery exists for. *)
    let contents =
      match Faults.corrupt contents with
      | Some corrupted -> corrupted
      | None -> contents
    in
    (match decode contents with
     | Ok t ->
       Telemetry.incr m_loads;
       Telemetry.add_attr "bytes" (Telemetry.I (String.length contents));
       Ok t
     | Error e ->
       Telemetry.incr m_load_failures;
       Error e)
