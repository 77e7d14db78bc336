(** The repository model of the simulated open-source ecosystem.

    A repository has a name, a description, a README, some MiniScript
    source files, and a star count (used as a weak popularity prior by
    the search engine, like real code search does).  [truth] records
    which benchmark types each function *intends* to process — this is
    the ground truth behind the human intention score I(F) of
    Section 8.1; it is never visible to the synthesis pipeline itself. *)

type file = { path : string; source : string }

type t = {
  repo_name : string;  (** "owner/project" *)
  description : string;
  readme : string;
  stars : int;
  files : file list;
  truth : (string * string list) list;
      (** function name -> benchmark type ids it intends to process.
          Script-level candidates use the pseudo-name "<script:path>". *)
}

let make ?(readme = "") ?(stars = 10) ?(truth = []) repo_name description
    files =
  { repo_name; description; readme; stars; files; truth }

(** Does [func_name] (as reported by the analyzer) intend to process
    benchmark type [type_id]?  This is I(F) in the evaluation metric. *)
let intends repo ~func_name ~type_id =
  match List.assoc_opt func_name repo.truth with
  | Some types -> List.mem type_id types
  | None -> false

let parse_all repo : (Minilang.Ast.program list, string) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest ->
      (match Minilang.Parser.parse ~file:f.path f.source with
       | prog -> go (prog :: acc) rest
       | exception Minilang.Parser.Parse_error (msg, line) ->
         Error (Printf.sprintf "%s:%d: %s" f.path line msg)
       | exception Minilang.Lexer.Lex_error (msg, line) ->
         Error (Printf.sprintf "%s:%d: lex: %s" f.path line msg))
  in
  go [] repo.files

(* Repository identity, the one rule every per-repository cache keys
   on: the name and the physical [files] list.  Corpus repositories are
   built once and reused, so [==] on the list is free, and two
   repositories built apart under one name (tests, decoded artifacts)
   never share an entry.  Hashing the sources instead would cost more
   than a short run.  One entry per name and key: a repository built
   anew under a known name replaces the old entry.  The table is keyed
   by the name alone, so a hit hashes and compares one string; a name
   holds few keys (one for a repository-wide entry, one per candidate
   for the analyzer's memos, 34 at most in the corpus), kept in a list
   where a [unit] key matches by [==] without a compare. *)
module Tbl = struct
  module Names = Hashtbl.Make (String)

  type repo = t
  type ('k, 'v) t = ('k * (file list * 'v)) list Names.t

  let create n : ('k, 'v) t = Names.create n
  let same_key k k' = k == k' || k = k'

  let rec assoc k = function
    | [] -> None
    | (k', entry) :: rest -> if same_key k k' then Some entry else assoc k rest

  let find_opt (tbl : ('k, 'v) t) (repo : repo) k =
    match Names.find_opt tbl repo.repo_name with
    | None -> None
    | Some entries ->
      (match assoc k entries with
       | Some (files, v) when files == repo.files -> Some v
       | _ -> None)

  let replace (tbl : ('k, 'v) t) (repo : repo) k v =
    let others =
      match Names.find_opt tbl repo.repo_name with
      | Some entries -> List.filter (fun (k', _) -> not (same_key k k')) entries
      | None -> []
    in
    Names.replace tbl repo.repo_name ((k, (repo.files, v)) :: others)
end

(* A [Tbl] the tracing domains share.  The computation runs outside the
   lock, so two domains may compute one entry concurrently — benign,
   the results are equal and the first insert wins. *)
type ('k, 'v) memo = { lock : Mutex.t; tbl : ('k, 'v) Tbl.t }

let memo () = { lock = Mutex.create (); tbl = Tbl.create 64 }

let memoized m repo k compute =
  Mutex.lock m.lock;
  match Tbl.find_opt m.tbl repo k with
  | Some v ->
    Mutex.unlock m.lock;
    v
  | None ->
    Mutex.unlock m.lock;
    let v = compute () in
    Mutex.lock m.lock;
    if Option.is_none (Tbl.find_opt m.tbl repo k) then
      Tbl.replace m.tbl repo k v;
    Mutex.unlock m.lock;
    v

(* Parse results are cached per repository: the analyzer and the
   execution driver both re-load modules many times. *)
let parse_memo = memo ()

let parse_each repo =
  memoized parse_memo repo () (fun () ->
      let progs, errs =
        List.fold_left
          (fun (progs, errs) f ->
            match Minilang.Parser.parse ~file:f.path f.source with
            | prog -> (prog :: progs, errs)
            | exception Minilang.Parser.Parse_error (msg, line) ->
              (progs, (f.path, line, msg) :: errs)
            | exception Minilang.Lexer.Lex_error (msg, line) ->
              (progs, (f.path, line, "lex: " ^ msg) :: errs))
          ([], []) repo.files
      in
      (List.rev progs, List.rev errs))

let programs repo =
  match parse_each repo with
  | progs, [] -> Some progs
  | _, _ :: _ -> None
