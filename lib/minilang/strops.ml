(** String-method primitives shared between the interpreter ({!Rt},
    which the bytecode VM dispatches to) and the interpreter-free fast
    path ({!Absint} compiled summaries).

    They are the single source of truth for MiniScript string
    semantics: the fast path calls the very same functions the
    interpreter dispatches to, so the two routes cannot drift (the
    bench asserts byte-identical verdicts between them).

    Semantics worth restating because both callers rely on them:
    - [string_forall] is Python's: [s.isdigit()] etc. are [false] on
      the empty string.
    - [replace_substring] with an empty needle is the identity (the
      interpreter never raises there).
    - [strip_chars] with [chars = None] strips the four ASCII
      whitespace characters, matching [str.strip()]. *)

let strip_chars s chars ~left ~right =
  let is_strip c =
    match chars with
    | None -> c = ' ' || c = '\t' || c = '\n' || c = '\r'
    | Some cs -> String.contains cs c
  in
  let n = String.length s in
  let lo = ref 0 and hi = ref n in
  if left then while !lo < n && is_strip s.[!lo] do incr lo done;
  if right then while !hi > !lo && is_strip s.[!hi - 1] do decr hi done;
  String.sub s !lo (!hi - !lo)

(* Needle comparison at a position, without materialising a substring:
   these scans run once per haystack character on interpreter hot paths,
   where a per-position [String.sub] allocation costs more than the
   comparison itself. *)
let match_at s i needle =
  let nl = String.length needle in
  let rec go j = j = nl || (s.[i + j] = needle.[j] && go (j + 1)) in
  go 0

(** @raise Invalid_argument on an empty separator — callers guard. *)
let split_on_string sep s =
  if sep = "" then invalid_arg "split_on_string: empty separator";
  let sl = String.length sep and n = String.length s in
  let rec go start i acc =
    if i + sl > n then List.rev (String.sub s start (n - start) :: acc)
    else if match_at s i sep then
      go (i + sl) (i + sl) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

(* Split on the three-character whitespace class in one scan; dropping
   empty runs as we go is equivalent to split-then-filter. *)
let split_whitespace s =
  let n = String.length s in
  let rec go i start acc =
    if i = n then
      List.rev (if i > start then String.sub s start (i - start) :: acc else acc)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' ->
        let acc =
          if i > start then String.sub s start (i - start) :: acc else acc
        in
        go (i + 1) (i + 1) acc
      | _ -> go (i + 1) start acc
  in
  go 0 0 []

let find_substring ?(from = 0) hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = if i + nl > hl then -1 else if match_at hay i needle then i else go (i + 1) in
  if nl = 0 then min from hl else go (max 0 from)

let replace_substring s old_s new_s =
  if old_s = "" then s
  else if find_substring s old_s < 0 then s  (* no match: nothing to build *)
  else begin
    let ol = String.length old_s and n = String.length s in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i <= n - ol do
      if match_at s !i old_s then begin
        Buffer.add_string buf new_s;
        i := !i + ol
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.add_substring buf s !i (n - !i);
    Buffer.contents buf
  end

(** Python's truthiness-compatible [forall]: false on "". *)
let string_forall p s = String.for_all p s && String.length s > 0

let is_digit_char c = c >= '0' && c <= '9'
let is_alpha_char c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_alnum_char c = is_alpha_char c || is_digit_char c
let is_space_char c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let starts_with ~prefix s =
  String.length s >= String.length prefix && match_at s 0 prefix

let ends_with ~suffix s =
  let pl = String.length suffix and sl = String.length s in
  sl >= pl && match_at s (sl - pl) suffix
