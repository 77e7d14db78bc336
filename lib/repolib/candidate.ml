(** Candidate functions and the ways to invoke them with a single input
    string (Section 4.2 and Appendix D.1).

    The six single-parameter variants of Listing 2, plus script-level
    snippets with hard-coded inputs, plus multi-parameter functions fed
    by splitting the input string. *)

type invocation =
  | Direct  (** [F(s)] — variant 1 *)
  | Class_then_method of string * string
      (** [a = C(); a.m(s)] — variant 2: paramless ctor, 1-param method *)
  | Ctor_then_method of string * string
      (** [a = C(s); a.m()] — variant 3: 1-param ctor, paramless method *)
  | Via_argv of string  (** [F()] reading sys.argv — variant 4 *)
  | Via_stdin of string  (** [F()] reading input() — variant 5 *)
  | Via_file of string
      (** [F('f.txt')] where the file holds the input — variant 6 *)
  | Script_var of string * string
      (** run whole file [path], overriding hard-coded constant [var]
          (Appendix D.1, Listing 3) *)
  | Script_argv of string
      (** run whole file [path] with sys.argv fed the input
          (Appendix D.1: "feed input example by replacing system
          argument") *)
  | Script_stdin of string
      (** run whole file [path] with input() fed the input *)
  | Split_call of string * char * int
      (** [F(p1, …, pk)] after splitting the input on a delimiter
          (Appendix D.1, multi-parameter functions) *)

type t = {
  repo : Repo.t;
  file : string;
  func_name : string;
      (** the name reported to users; "<script:path#var>" for snippets *)
  invocation : invocation;
  doc_text : string;
      (** identifier + nearby text used by the KW baseline and for human
          inspection *)
}

let invocation_to_string = function
  | Direct -> "F(s)"
  | Class_then_method (c, m) -> Printf.sprintf "a=%s(); a.%s(s)" c m
  | Ctor_then_method (c, m) -> Printf.sprintf "a=%s(s); a.%s()" c m
  | Via_argv f -> Printf.sprintf "%s()  # sys.argv <- s" f
  | Via_stdin f -> Printf.sprintf "%s()  # input() <- s" f
  | Via_file f -> Printf.sprintf "%s('f.txt')  # file <- s" f
  | Script_var (path, var) -> Printf.sprintf "run %s  # %s <- s" path var
  | Script_argv path -> Printf.sprintf "run %s  # sys.argv <- s" path
  | Script_stdin path -> Printf.sprintf "run %s  # input() <- s" path
  | Split_call (f, sep, k) ->
    Printf.sprintf "%s(*s.split(%C))  # %d args" f sep k

let describe c =
  Printf.sprintf "%s :: %s [%s]" c.repo.Repo.repo_name c.func_name
    (invocation_to_string c.invocation)

(** A stable identifier used for deduplication and reporting. *)
let id c = c.repo.Repo.repo_name ^ "/" ^ c.file ^ "#" ^ c.func_name

let key c = id c ^ " " ^ invocation_to_string c.invocation
