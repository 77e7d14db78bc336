(** Minimal JSON value type, printer and parser (see jsonx.mli). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    (* %.17g round-trips every binary64 but writes -0.0 as "-0", which
       reads back as the integer 0, so negative zero keeps a fraction;
       normalize nan/inf (invalid in JSON) to null — they never occur
       in artifacts. *)
    if Float.is_nan f || Float.abs f = Float.infinity then
      Buffer.add_string buf "null"
    else if f = 0.0 && Float.sign_bit f then Buffer.add_string buf "-0.0"
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s -> escape_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_fail of string * int  (** message, offset *)

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_fail (msg, st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st; go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

(* UTF-8 encode a code point decoded from \uXXXX escapes (including a
   combined surrogate pair, hence the 4-byte branch). *)
let add_code_point buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* Exactly four hex digits.  Hand-rolled rather than [int_of_string
   "0x..."], which accepts OCaml literal syntax the JSON grammar does
   not (underscores, a leading sign after the prefix). *)
let hex_quad st =
  if st.pos + 4 > String.length st.src then fail st "short \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let c = st.src.[st.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ ->
        st.pos <- st.pos + i;
        fail st (Printf.sprintf "bad \\u escape: %C is not a hex digit" c)
    in
    v := (!v lsl 4) lor d
  done;
  st.pos <- st.pos + 4;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st; Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek st with
       | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
       | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
       | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
       | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
       | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
       | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
       | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
       | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
       | Some 'u' ->
         advance st;
         let cp = hex_quad st in
         if cp >= 0xD800 && cp <= 0xDBFF then begin
           (* High surrogate: RFC 8259 encodes non-BMP characters as a
              \u pair; the two halves combine into one code point
              (emitting them separately would produce CESU-8, not
              UTF-8). *)
           if
             st.pos + 2 <= String.length st.src
             && st.src.[st.pos] = '\\'
             && st.src.[st.pos + 1] = 'u'
           then begin
             st.pos <- st.pos + 2;
             let lo = hex_quad st in
             if lo >= 0xDC00 && lo <= 0xDFFF then begin
               add_code_point buf
                 (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00));
               go ()
             end
             else
               fail st
                 (Printf.sprintf
                    "invalid surrogate pair: \\u%04X after a high surrogate"
                    lo)
           end
           else fail st (Printf.sprintf "lone high surrogate \\u%04X" cp)
         end
         else if cp >= 0xDC00 && cp <= 0xDFFF then
           fail st (Printf.sprintf "lone low surrogate \\u%04X" cp)
         else begin
           add_code_point buf cp;
           go ()
         end
       | _ -> fail st "bad escape")
    | Some c -> advance st; Buffer.add_char buf c; go ()
  in
  go ()

(* RFC 8259 number grammar, checked structurally while scanning:
   minus? int frac? exp?  where int is 0 or a nonzero-led digit run,
   frac is '.' digits, exp is [eE] sign? digits.
   The old greedy char-class scan let [float_of_string]/[int_of_string]
   arbitrate, which accepted non-JSON forms like "01", "1." and
   (inside the scanned text) OCaml literal leniencies. *)
let parse_number st =
  let start = st.pos in
  let digits what =
    let before = st.pos in
    let rec go () =
      match peek st with Some '0' .. '9' -> advance st; go () | _ -> ()
    in
    go ();
    if st.pos = before then fail st ("expected a digit " ^ what)
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  (match peek st with
   | Some '0' ->
     advance st;
     (match peek st with
      | Some '0' .. '9' -> fail st "leading zeros are not allowed"
      | _ -> ())
   | Some '1' .. '9' -> digits "in the integer part"
   | _ -> fail st "expected a digit");
  let is_float = ref false in
  (match peek st with
   | Some '.' ->
     is_float := true;
     advance st;
     digits "after the decimal point"
   | _ -> ());
  (match peek st with
   | Some ('e' | 'E') ->
     is_float := true;
     advance st;
     (match peek st with Some ('+' | '-') -> advance st | _ -> ());
     digits "in the exponent"
   | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail st ("bad number " ^ text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None ->
      (* Integer overflow: fall back to float. *)
      (match float_of_string_opt text with
       | Some f -> Float f
       | None -> fail st ("bad number " ^ text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin advance st; Obj [] end
    else begin
      let rec fields acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> advance st; fields ((k, v) :: acc)
        | Some '}' -> advance st; Obj (List.rev ((k, v) :: acc))
        | _ -> fail st "expected ',' or '}'"
      in
      fields []
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin advance st; List [] end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> advance st; items (v :: acc)
        | Some ']' -> advance st; List (List.rev (v :: acc))
        | _ -> fail st "expected ',' or ']'"
      in
      items []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected %C" c)

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos < String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Parse_fail (msg, pos) ->
    Error (Printf.sprintf "%s at offset %d" msg pos)

(* ------------------------------------------------------------------ *)
(* Decoding helpers                                                    *)
(* ------------------------------------------------------------------ *)

exception Decode_error of string

let decode_fail msg = raise (Decode_error msg)

let member key = function
  | Obj fields ->
    (match List.assoc_opt key fields with
     | Some v -> v
     | None -> decode_fail (Printf.sprintf "missing field %S" key))
  | _ -> decode_fail (Printf.sprintf "field %S of a non-object" key)

let member_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int i -> i
  | _ -> decode_fail "expected an integer"

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> decode_fail "expected a number"

let to_bool = function
  | Bool b -> b
  | _ -> decode_fail "expected a boolean"

let to_str = function
  | Str s -> s
  | _ -> decode_fail "expected a string"

let to_list = function
  | List l -> l
  | _ -> decode_fail "expected a list"
