(** Indentation-sensitive lexer for MiniScript.

    Follows the usual Python tokenization scheme: physical lines are
    split into tokens, leading whitespace drives an indentation stack
    that emits INDENT/DEDENT tokens, blank lines and comment-only lines
    are skipped, and newlines inside brackets are ignored. *)

type token =
  | INT of int
  | FLOAT of float
  | STRING of string
  | NAME of string
  | KEYWORD of string
  | OP of string
  | NEWLINE
  | INDENT
  | DEDENT
  | EOF

type loc_token = { tok : token; tline : int }

exception Lex_error of string * int  (** message, line *)

let keywords =
  [ "def"; "class"; "if"; "elif"; "else"; "while"; "for"; "in"; "return";
    "raise"; "try"; "except"; "finally"; "break"; "continue"; "pass";
    "and"; "or"; "not"; "is"; "True"; "False"; "None"; "global"; "lambda";
    "import"; "from"; "as"; "del"; "assert" ]

let is_keyword s = List.mem s keywords

(* Identifier interning (domain-local, so lexing in the Exec pool never
   contends on a shared table).  Every occurrence of a name across every
   candidate file maps to one canonical string, so downstream consumers
   that hash identifiers per candidate — Staticcheck name resolution,
   the VM compiler's slot assignment — hash each distinct spelling once
   and get physical equality on the hot comparison path. *)
let intern_table : (string, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let intern s =
  let tbl = Domain.DLS.get intern_table in
  match Hashtbl.find_opt tbl s with
  | Some canon -> canon
  | None ->
    Hashtbl.add tbl s s;
    s

(* Canonical keyword spellings come straight from [keywords]. *)
let keyword_canonical s =
  match List.find_opt (String.equal s) keywords with
  | Some canon -> canon
  | None -> s

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* Multi-character operators, longest first so matching is greedy. *)
let operators =
  [ "**"; "//"; "=="; "!="; "<="; ">="; "+="; "-="; "*="; "/="; "%=";
    "->"; "<<"; ">>"; "+"; "-"; "*"; "/"; "%"; "="; "<"; ">"; "("; ")";
    "["; "]"; "{"; "}"; ","; ":"; "."; ";"; "^"; "&"; "|"; "~" ]

let tokenize ~file:_ (src : string) : loc_token list =
  let n = String.length src in
  let toks = ref [] in
  let emit tok tline = toks := { tok; tline } :: !toks in
  let indents = ref [ 0 ] in
  let bracket_depth = ref 0 in
  let line = ref 1 in
  let i = ref 0 in
  let at_line_start = ref true in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let read_string quote =
    (* Supports '...' and "..." with backslash escapes; no triple quotes. *)
    let start_line = !line in
    let buf = Buffer.create 16 in
    incr i;
    let rec go () =
      if !i >= n then raise (Lex_error ("unterminated string", start_line))
      else
        let c = src.[!i] in
        if c = quote then incr i
        else if c = '\\' then begin
          (match peek 1 with
           | Some 'n' -> Buffer.add_char buf '\n'
           | Some 't' -> Buffer.add_char buf '\t'
           | Some 'r' -> Buffer.add_char buf '\r'
           | Some '\\' -> Buffer.add_char buf '\\'
           | Some '\'' -> Buffer.add_char buf '\''
           | Some '"' -> Buffer.add_char buf '"'
           | Some '0' -> Buffer.add_char buf '\000'
           | Some c ->
             (* Unknown escapes keep the backslash, as Python does —
                essential for regex patterns like "\d" and "\.". *)
             Buffer.add_char buf '\\';
             Buffer.add_char buf c
           | None -> raise (Lex_error ("dangling backslash", start_line)));
          i := !i + 2;
          go ()
        end
        else if c = '\n' then
          raise (Lex_error ("newline in string", start_line))
        else begin
          Buffer.add_char buf c;
          incr i;
          go ()
        end
    in
    go ();
    emit (STRING (Buffer.contents buf)) start_line
  in
  let read_number () =
    let start = !i in
    let start_line = !line in
    while !i < n && is_digit src.[!i] do incr i done;
    let is_float =
      !i < n && src.[!i] = '.' && (match peek 1 with
        | Some c -> is_digit c
        | None -> false)
    in
    if is_float then begin
      incr i;
      while !i < n && is_digit src.[!i] do incr i done;
      let s = String.sub src start (!i - start) in
      emit (FLOAT (float_of_string s)) start_line
    end
    else begin
      let s = String.sub src start (!i - start) in
      match int_of_string_opt s with
      | Some v -> emit (INT v) start_line
      | None -> raise (Lex_error ("integer literal too large", start_line))
    end
  in
  let handle_indentation () =
    (* Measure leading spaces of the logical line starting at !i. *)
    let start = !i in
    while !i < n && (src.[!i] = ' ' || src.[!i] = '\t') do incr i done;
    let width =
      let w = ref 0 in
      for k = start to !i - 1 do
        w := !w + (if src.[k] = '\t' then 8 - (!w mod 8) else 1)
      done;
      !w
    in
    (* Blank or comment-only lines produce no tokens at all. *)
    if !i >= n || src.[!i] = '\n' || src.[!i] = '#' then ()
    else begin
      let cur = List.hd !indents in
      if width > cur then begin
        indents := width :: !indents;
        emit INDENT !line
      end
      else if width < cur then begin
        let rec pop () =
          match !indents with
          | top :: rest when top > width ->
            indents := rest;
            emit DEDENT !line;
            pop ()
          | top :: _ ->
            if top <> width then
              raise (Lex_error ("inconsistent dedent", !line))
          | [] -> raise (Lex_error ("indent stack underflow", !line))
        in
        pop ()
      end
    end
  in
  while !i < n do
    if !at_line_start && !bracket_depth = 0 then begin
      handle_indentation ();
      at_line_start := false
    end
    else begin
      let c = src.[!i] in
      if c = '\n' then begin
        if !bracket_depth = 0 then begin
          (* Suppress NEWLINE for blank lines (no tokens since last NEWLINE). *)
          (match !toks with
           | { tok = NEWLINE; _ } :: _ | [] -> ()
           | { tok = INDENT; _ } :: _ | { tok = DEDENT; _ } :: _ -> ()
           | _ -> emit NEWLINE !line)
        end;
        incr i;
        incr line;
        at_line_start := true
      end
      else if c = ' ' || c = '\t' || c = '\r' then incr i
      else if c = '#' then begin
        while !i < n && src.[!i] <> '\n' do incr i done
      end
      else if c = '\'' || c = '"' then read_string c
      else if is_digit c then read_number ()
      else if is_ident_start c then begin
        let start = !i in
        while !i < n && is_ident_char src.[!i] do incr i done;
        let s = String.sub src start (!i - start) in
        if is_keyword s then emit (KEYWORD (keyword_canonical s)) !line
        else emit (NAME (intern s)) !line
      end
      else begin
        let matched =
          List.find_opt
            (fun op ->
              let l = String.length op in
              !i + l <= n && String.sub src !i l = op)
            operators
        in
        match matched with
        | Some op ->
          (match op with
           | "(" | "[" | "{" -> incr bracket_depth
           | ")" | "]" | "}" -> decr bracket_depth
           | _ -> ());
          emit (OP op) !line;
          i := !i + String.length op
        | None ->
          raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line))
      end
    end
  done;
  (* Final NEWLINE if the last line had tokens, then close open indents. *)
  (match !toks with
   | { tok = NEWLINE; _ } :: _ | [] -> ()
   | _ -> emit NEWLINE !line);
  List.iter
    (fun level -> if level > 0 then emit DEDENT !line)
    (List.filter (fun l -> l > 0) !indents);
  emit EOF !line;
  List.rev !toks

let token_to_string = function
  | INT i -> string_of_int i
  | FLOAT f -> string_of_float f
  | STRING s -> Printf.sprintf "%S" s
  | NAME s -> s
  | KEYWORD s -> s
  | OP s -> Printf.sprintf "`%s`" s
  | NEWLINE -> "NEWLINE"
  | INDENT -> "INDENT"
  | DEDENT -> "DEDENT"
  | EOF -> "EOF"
