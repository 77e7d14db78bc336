(** A small backtracking regular-expression engine.

    Supports the subset of syntax that appears in real-world
    type-validation code and in Potter's-Wheel-style inferred patterns:

    - literals, [.] (any character but a newline), escapes
      [\d \D \w \W \s \S], character classes [[a-z0-9_]] with negation
      [[^...]] and ranges,
    - grouping [( )], alternation [|],
    - quantifiers [* + ?] and bounded repetition [{m}] [{m,n}] [{m,}]
      [{,n}], each greedy or lazy ([*?] [+?] [??] [{m,n}?]),
    - anchors [^] and [$].

    Used both by MiniScript's [re_match]/[re_search] builtins (mined code
    frequently validates with regexes, Section 8.2.2) and by the REGEX
    baseline of Section 9, so it must answer as CPython's [re] does:
    repetition follows CPython's [MAX_UNTIL] and [MIN_UNTIL] rules (see
    {!rinstr}), a [{] that starts no repeat is a literal, and [$] also
    matches before a final newline. *)

type node =
  | Lit of char
  | Any
  | Class of (char * char) list * bool  (** ranges, negated? *)
  | Repeat of node * int * int option * bool
      (** [{m,n}]; [None] = unbounded; greedy?  [*] [+] [?] parse to
          [{0,}] [{1,}] [{0,1}] *)
  | Seq of node list
  | Alt of node list
  | Bol
  | Eol

exception Parse_error of string

(* CPython rejects a repeat count at or above [MAXREPEAT] (2^32 - 1). *)
let max_count = 4_294_967_294

(* The pattern lowers to a flat backtracking program executed with
   explicit integer stacks, so a match attempt allocates nothing.  A
   backtrack restores the whole matcher state: position, aux depth, and
   (through undo entries) any aux slot overwritten since.

   Repetition over a multi-character body is one loop: [RLoop] pushes
   a frame of two aux slots (iterations started, and where the last
   optional iteration started), [RTest] runs before every iteration,
   then come one copy of the body and a jump back to the test.  The
   test is CPython's [MAX_UNTIL] rule: a mandatory iteration (fewer
   than [lo] done) always runs; an optional one runs first and leaves
   the exit as the backtrack point, but never starts at the position
   where the previous optional iteration started, which is what stops
   a nullable body from looping.  A lazy loop ([MIN_UNTIL]) asks the
   same question in the other order: [RTestLazy] leaves by the exit and
   keeps the next optional iteration, which [RIterate] starts, as the
   backtrack point.  Repetition over one character is a single [RScan]
   or [RScanLazy].  No instruction count depends on a repeat count. *)
type rinstr =
  | RChar of char
  | RClass of Bytes.t  (** 256-entry membership table *)
  | RAny
  | RBol
  | REol
  | RSplit of int * int  (** try first, push second as backtrack point *)
  | RJmp of int
  | RScan of Bytes.t * int * int
      (** greedy repeat [{min,max}] ([max = -1]: unbounded) over one
          character class: consume up to [max] class characters in a
          tight loop, fail below [min], and leave one range-backtrack
          entry that retreats a character at a time down to [min] *)
  | RScanLazy of Bytes.t * int * int
      (** lazy [RScan]: consume [min] class characters, then go on, and
          leave one range-backtrack entry that advances a character at a
          time up to [max] *)
  | RLoop  (** push a loop frame: no iterations, no optional start *)
  | RTest of int * int * int
      (** [lo], [hi] ([-1]: unbounded), exit pc: start the next
          iteration, or pop the frame and leave *)
  | RTestLazy of int * int * int
      (** lazy [RTest]: start a mandatory iteration (jumping over the
          [RIterate] that follows), or pop the frame and leave, keeping
          an optional iteration as the backtrack point *)
  | RIterate
      (** start the optional iteration a lazy loop kept: record where
          it starts, count it *)
  | RAccept  (** succeed; under [full] only at the end of the input *)

type t = {
  ast : node;
  source : string;
  program : rinstr array;
  first : Bytes.t option;
      (** characters a match can start with; [None] when the pattern is
          nullable (can match the empty string), in which case no start
          position can be skipped *)
  anchored : bool;  (** every alternative begins with [^] *)
}

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let rec parse (pattern : string) : t =
  let n = String.length pattern in
  let pos = ref 0 in
  let peek () = if !pos < n then Some pattern.[!pos] else None in
  let advance () = incr pos in
  let eat c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Parse_error (Printf.sprintf "expected %C at %d" c !pos))
  in
  let escape_class c =
    match c with
    | 'd' -> Some ([ ('0', '9') ], false)
    | 'D' -> Some ([ ('0', '9') ], true)
    | 'w' -> Some ([ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ], false)
    | 'W' -> Some ([ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ], true)
    | 's' -> Some ([ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ], false)
    | 'S' -> Some ([ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ], true)
    | _ -> None
  in
  let parse_escape () =
    advance ();  (* consume backslash *)
    match peek () with
    | None -> raise (Parse_error "dangling backslash")
    | Some c ->
      advance ();
      (match escape_class c with
       | Some (ranges, neg) -> Class (ranges, neg)
       | None ->
         (match c with
          | 'n' -> Lit '\n'
          | 't' -> Lit '\t'
          | 'r' -> Lit '\r'
          | _ -> Lit c))
  in
  let parse_class () =
    eat '[';
    let negated =
      match peek () with
      | Some '^' -> advance (); true
      | _ -> false
    in
    let ranges = ref [] in
    let rec loop first =
      match peek () with
      | None -> raise (Parse_error "unterminated character class")
      | Some ']' when not first -> advance ()
      | Some c ->
        advance ();
        let c =
          if c = '\\' then begin
            match peek () with
            | Some e ->
              advance ();
              (match escape_class e with
               | Some (rs, false) ->
                 ranges := rs @ !ranges;
                 '\000'  (* sentinel: ranges already added *)
               | Some (_, true) ->
                 raise (Parse_error "negated escape inside class")
               | None ->
                 (match e with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c))
            | None -> raise (Parse_error "dangling backslash in class")
          end
          else c
        in
        if c <> '\000' then begin
          match peek () with
          | Some '-' when (match !pos + 1 < n with
                           | true -> pattern.[!pos + 1] <> ']'
                           | false -> false) ->
            advance ();
            (match peek () with
             | Some hi ->
               advance ();
               if hi < c then raise (Parse_error "inverted range");
               ranges := (c, hi) :: !ranges
             | None -> raise (Parse_error "unterminated range"))
          | _ -> ranges := (c, c) :: !ranges
        end;
        loop false
    in
    loop true;
    Class (List.rev !ranges, negated)
  in
  (* CPython's repeat syntax at the ['{'] under [!pos]: [{m}], [{m,}],
     [{,n}], [{m,n}] or [{,}].  [None], consuming nothing, when the
     brace starts no repeat, as in [a{], [x{a}] or [a{}]: it is then a
     literal. *)
  let repeat_syntax () =
    let here = !pos in
    let digits () =
      let start = !pos in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      String.sub pattern start (!pos - start)
    in
    let count d =
      match int_of_string_opt d with
      | Some v when v <= max_count -> v
      | _ -> raise (Parse_error "repetition count too large")
    in
    advance ();
    let lo = digits () in
    let hi = if peek () = Some ',' then (advance (); Some (digits ())) else None in
    if peek () <> Some '}' || (lo = "" && hi = None) then begin
      pos := here;
      None
    end
    else begin
      advance ();
      let lo = if lo = "" then 0 else count lo in
      let hi =
        match hi with
        | None -> Some lo
        | Some "" -> None
        | Some d -> Some (count d)
      in
      (match hi with
       | Some h when h < lo -> raise (Parse_error "inverted repetition bounds")
       | _ -> ());
      Some (lo, hi)
    end
  in
  let quantifier () =
    match peek () with
    | Some '*' -> advance (); Some (0, None)
    | Some '+' -> advance (); Some (1, None)
    | Some '?' -> advance (); Some (0, Some 1)
    | Some '{' -> repeat_syntax ()
    | _ -> None
  in
  let rec parse_alt () =
    let first = parse_seq () in
    let rec loop acc =
      match peek () with
      | Some '|' ->
        advance ();
        loop (parse_seq () :: acc)
      | _ -> List.rev acc
    in
    match loop [ first ] with
    | [ single ] -> single
    | alts -> Alt alts
  and parse_seq () =
    let rec loop acc =
      match peek () with
      | None | Some '|' | Some ')' -> List.rev acc
      | Some _ -> loop (parse_quantified () :: acc)
    in
    match loop [] with
    | [ single ] -> single
    | items -> Seq items
  and parse_quantified () =
    let anchor = match peek () with Some ('^' | '$') -> true | _ -> false in
    let atom = parse_atom () in
    match quantifier () with
    | None -> atom
    | Some _ when anchor -> raise (Parse_error "nothing to repeat")
    | Some (lo, hi) ->
      let greedy = if peek () = Some '?' then (advance (); false) else true in
      (* A quantifier right after a quantifier is CPython's "multiple
         repeat", except one [+] after a greedy one: CPython 3.11 reads
         [a*+] as possessive, this library as a second repeat. *)
      let rec more node ~plus =
        match peek () with
        | Some '+' when plus ->
          advance ();
          more (Repeat (node, 1, None, true)) ~plus:false
        | Some ('*' | '+' | '?') -> raise (Parse_error "multiple repeat")
        | Some '{' when repeat_syntax () <> None -> raise (Parse_error "multiple repeat")
        | _ -> node
      in
      more (Repeat (atom, lo, hi, greedy)) ~plus:greedy
  and parse_atom () =
    match peek () with
    | None -> raise (Parse_error "unexpected end of pattern")
    | Some '(' ->
      advance ();
      (* Ignore non-capturing marker. *)
      if !pos + 1 < n && pattern.[!pos] = '?' && pattern.[!pos + 1] = ':' then begin
        advance (); advance ()
      end;
      let inner = parse_alt () in
      eat ')';
      inner
    | Some '[' -> parse_class ()
    | Some '\\' -> parse_escape ()
    | Some '.' -> advance (); Any
    | Some '^' -> advance (); Bol
    | Some '$' -> advance (); Eol
    | Some ('*' | '+' | '?') ->
      raise (Parse_error "quantifier with nothing to repeat")
    | Some '{' when repeat_syntax () <> None ->
      raise (Parse_error "nothing to repeat")
    | Some c -> advance (); Lit c
  in
  let ast = parse_alt () in
  if !pos <> n then raise (Parse_error "trailing characters in pattern");
  compile ast pattern

(* Character classes become 256-byte membership tables, negation
   folded in. *)
and class_table ranges negated =
  let tbl = Bytes.make 256 (if negated then '\001' else '\000') in
  let mark = if negated then '\000' else '\001' in
  List.iter
    (fun (lo, hi) ->
      for c = Char.code lo to Char.code hi do
        Bytes.set tbl c mark
      done)
    ranges;
  tbl

and compile ast pattern =
  (* First-set and nullability, for the search skip loop.  [first_of]
     returns whether the node can match without consuming; along the
     way it marks every character that could be the first one consumed. *)
  let rec first_of node (tbl : Bytes.t) : bool =
    match node with
    | Lit c ->
      Bytes.set tbl (Char.code c) '\001';
      false
    | Any ->
      Bytes.fill tbl 0 256 '\001';
      Bytes.set tbl (Char.code '\n') '\000';
      false
    | Class (ranges, negated) ->
      let cls = class_table ranges negated in
      for c = 0 to 255 do
        if Bytes.unsafe_get cls c <> '\000' then Bytes.set tbl c '\001'
      done;
      false
    | Bol | Eol -> true
    | Seq items -> List.for_all (fun g -> first_of g tbl) items
    | Alt alts ->
      List.fold_left (fun nullable a -> first_of a tbl || nullable) false alts
    | Repeat (g, lo, _, _) -> first_of g tbl || lo = 0
  in
  let tbl = Bytes.make 256 '\000' in
  let nullable = first_of ast tbl in
  (* Leading-[^] detection: a pattern whose every alternative starts
     with [^] can only ever match at offset 0, so [search] needs a
     single attempt.  Conservative: [false] just means no shortcut. *)
  let rec leading_bol = function
    | Bol -> true
    | Seq (g :: _) -> leading_bol g
    | Alt (_ :: _ as alts) -> List.for_all leading_bol alts
    | Repeat (g, lo, _, _) -> lo > 0 && leading_bol g
    | _ -> false
  in
  {
    ast;
    source = pattern;
    program = lower ast;
    first = (if nullable then None else Some tbl);
    anchored = leading_bol ast;
  }

and lower (ast : node) : rinstr array =
  let buf = ref (Array.make 64 RAccept) in
  let len = ref 0 in
  let emit i =
    if !len = Array.length !buf then begin
      let bigger = Array.make (2 * !len) RAccept in
      Array.blit !buf 0 bigger 0 !len;
      buf := bigger
    end;
    !buf.(!len) <- i;
    incr len;
    !len - 1
  in
  let patch idx i = !buf.(idx) <- i in
  let scan_tbl = function
    | Class (ranges, negated) -> Some (class_table ranges negated)
    | Lit c ->
      let t = Bytes.make 256 '\000' in
      Bytes.set t (Char.code c) '\001';
      Some t
    | Any -> Some (class_table [ ('\n', '\n') ] true)
    | _ -> None
  in
  let rec go node =
    match node with
    | Lit c -> ignore (emit (RChar c))
    | Class (ranges, negated) -> ignore (emit (RClass (class_table ranges negated)))
    | Any -> ignore (emit RAny)
    | Bol -> ignore (emit RBol)
    | Eol -> ignore (emit REol)
    | Seq items -> List.iter go items
    | Alt alts ->
      let rec alt = function
        | [] -> []
        | [ a ] -> go a; []
        | a :: rest ->
          let sp = emit (RSplit (0, 0)) in
          go a;
          let j = emit (RJmp 0) in
          patch sp (RSplit (sp + 1, !len));
          j :: alt rest
      in
      List.iter (fun j -> patch j (RJmp !len)) (alt alts)
    | Repeat (g, lo, hi, greedy) -> (
      let hi = Option.value hi ~default:(-1) in
      match scan_tbl g with
      | Some tbl ->
        ignore (emit (if greedy then RScan (tbl, lo, hi) else RScanLazy (tbl, lo, hi)))
      | None when lo = 0 && hi = 1 ->
        (* One optional iteration: the last-start rule cannot apply. *)
        let sp = emit (RSplit (0, 0)) in
        go g;
        patch sp (if greedy then RSplit (sp + 1, !len) else RSplit (!len, sp + 1))
      | None when greedy ->
        ignore (emit RLoop);
        let test = emit (RTest (0, 0, 0)) in
        go g;
        ignore (emit (RJmp test));
        patch test (RTest (lo, hi, !len))
      | None ->
        ignore (emit RLoop);
        let test = emit (RTestLazy (0, 0, 0)) in
        ignore (emit RIterate);
        go g;
        ignore (emit (RJmp test));
        patch test (RTestLazy (lo, hi, !len)))
  in
  go ast;
  ignore (emit RAccept);
  Array.sub !buf 0 !len

(* ------------------------------------------------------------------ *)
(* Matcher: explicit-stack backtracking with a fuel bound to avoid      *)
(* blow-ups on adversarial corpus patterns (sandboxing concern).        *)
(* ------------------------------------------------------------------ *)

exception Out_of_fuel

let default_fuel = 2_000_000

(* Per-domain scratch: backtrack entries are (pc, pos, aux-depth)
   triples in one int array, [aux] holds the loop frames.  Reused
   across calls; grown copies are kept.  The executor is not
   re-entrant, and never needs to be — a match runs no user code. *)
type rbufs = { mutable bt : int array; mutable aux : int array }

let rbufs_key : rbufs Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { bt = Array.make 192 0; aux = Array.make 64 0 })

(* Backtrack entries are (pc, pos, nad) triples.  A pc below [-1] tags
   a range entry from the [RScan] or [RScanLazy] at [-pc - 2]: pos is
   the next untried scan end, and the third slot packs the saved aux
   depth with the last scan end to try (the minimum for [RScan], the
   maximum for [RScanLazy]) — retreating or advancing reuses the entry
   in place until that end is reached.  Positions and aux depths stay
   far below 2^31 in practice (inputs are cell values, depth is bounded
   by pattern nesting), so the packing never overflows a 63-bit int.

   A pc of exactly [-1] is an undo entry (slot, old value): a loop
   frame is written in place, and older backtrack entries (a choice
   inside an earlier iteration, or inside a loop whose frame was popped
   and whose slots were reused) may still read the old value, so a
   write leaves it behind and [fail] puts it back on the way down. *)
let exec ~fuel (prog : rinstr array) ~full (s : string) (start : int) :
    int option =
  let n = String.length s in
  let b = Domain.DLS.get rbufs_key in
  let fuel = ref fuel in
  let pc = ref 0 in
  let pos = ref start in
  let nbt = ref 0 in
  let nad = ref 0 in
  let result = ref (-2) in
  (* -2 = running, -1 = failed *)
  let rec fail () =
    if !nbt = 0 then result := -1
    else begin
      let a = b.bt in
      let top = 3 * (!nbt - 1) in
      let tag = Array.unsafe_get a top in
      if tag >= 0 then begin
        decr nbt;
        pc := tag;
        pos := Array.unsafe_get a (top + 1);
        nad := Array.unsafe_get a (top + 2)
      end
      else if tag = -1 then begin
        decr nbt;
        b.aux.(Array.unsafe_get a (top + 1)) <- Array.unsafe_get a (top + 2);
        fail ()
      end
      else begin
        let scan = -tag - 2 in
        let cur = Array.unsafe_get a (top + 1) in
        let packed = Array.unsafe_get a (top + 2) in
        let last = packed land 0x7FFF_FFFF in
        match Array.unsafe_get prog scan with
        | RScanLazy (tbl, _, _) ->
          (* [cur] ends the scan so far: take one more character. *)
          if Bytes.unsafe_get tbl (Char.code (String.unsafe_get s cur)) = '\000'
          then begin
            decr nbt;
            fail ()
          end
          else begin
            pc := scan + 1;
            pos := cur + 1;
            nad := packed lsr 31;
            if cur + 1 < last then Array.unsafe_set a (top + 1) (cur + 1)
            else decr nbt
          end
        | _ ->
          pc := scan + 1;
          pos := cur;
          nad := packed lsr 31;
          if cur > last then Array.unsafe_set a (top + 1) (cur - 1)
          else decr nbt
      end
    end
  in
  let push_bt tag p third =
    if (3 * !nbt) + 3 > Array.length b.bt then begin
      let bigger = Array.make (2 * Array.length b.bt) 0 in
      Array.blit b.bt 0 bigger 0 (3 * !nbt);
      b.bt <- bigger
    end;
    let a = b.bt in
    let top = 3 * !nbt in
    Array.unsafe_set a top tag;
    Array.unsafe_set a (top + 1) p;
    Array.unsafe_set a (top + 2) third;
    incr nbt
  in
  let set_aux slot v =
    if slot = Array.length b.aux then begin
      let bigger = Array.make (2 * slot) 0 in
      Array.blit b.aux 0 bigger 0 slot;
      b.aux <- bigger
    end;
    if !nbt > 0 then push_bt (-1) slot b.aux.(slot);
    b.aux.(slot) <- v
  in
  while !result = -2 do
    decr fuel;
    if !fuel <= 0 then raise Out_of_fuel;
    match Array.unsafe_get prog !pc with
    | RChar c ->
      if !pos < n && String.unsafe_get s !pos = c then begin
        incr pos;
        incr pc
      end
      else fail ()
    | RClass tbl ->
      if
        !pos < n
        && Bytes.unsafe_get tbl (Char.code (String.unsafe_get s !pos)) <> '\000'
      then begin
        incr pos;
        incr pc
      end
      else fail ()
    | RAny ->
      if !pos < n && String.unsafe_get s !pos <> '\n' then begin
        incr pos;
        incr pc
      end
      else fail ()
    | RBol -> if !pos = 0 then incr pc else fail ()
    | REol ->
      if !pos = n || (!pos = n - 1 && String.unsafe_get s !pos = '\n') then
        incr pc
      else fail ()
    | RSplit (first, second) ->
      push_bt second !pos !nad;
      pc := first
    | RJmp t -> pc := t
    | RScan (tbl, min, max) ->
      let lo = !pos in
      let limit = if max < 0 || lo + max > n then n else lo + max in
      let j = ref lo in
      while
        !j < limit
        && Bytes.unsafe_get tbl (Char.code (String.unsafe_get s !j)) <> '\000'
      do
        incr j
      done;
      fuel := !fuel - (!j - lo);
      if !fuel <= 0 then raise Out_of_fuel;
      let floor = lo + min in
      if !j < floor then fail ()
      else begin
        if !j > floor then push_bt (-(!pc) - 2) (!j - 1) ((!nad lsl 31) lor floor);
        pos := !j;
        incr pc
      end
    | RScanLazy (tbl, min, max) ->
      let lo = !pos in
      let limit = if max < 0 || lo + max > n then n else lo + max in
      let floor = lo + min in
      let j = ref lo in
      while
        !j < floor && !j < n
        && Bytes.unsafe_get tbl (Char.code (String.unsafe_get s !j)) <> '\000'
      do
        incr j
      done;
      fuel := !fuel - min;
      if !fuel <= 0 then raise Out_of_fuel;
      if !j < floor then fail ()
      else begin
        if floor < limit then push_bt (-(!pc) - 2) floor ((!nad lsl 31) lor limit);
        pos := floor;
        incr pc
      end
    | RLoop ->
      set_aux !nad 0;
      set_aux (!nad + 1) (-1);
      nad := !nad + 2;
      incr pc
    | RTest (lo, hi, exit) ->
      let count = b.aux.(!nad - 2) in
      if
        count < lo
        || ((hi < 0 || count < hi) && !pos <> b.aux.(!nad - 1))
      then begin
        if count >= lo then begin
          push_bt exit !pos (!nad - 2);
          set_aux (!nad - 1) !pos
        end;
        set_aux (!nad - 2) (count + 1);
        incr pc
      end
      else begin
        nad := !nad - 2;
        pc := exit
      end
    | RTestLazy (lo, hi, exit) ->
      let count = b.aux.(!nad - 2) in
      if count < lo then begin
        set_aux (!nad - 2) (count + 1);
        pc := !pc + 2
      end
      else begin
        if (hi < 0 || count < hi) && !pos <> b.aux.(!nad - 1) then
          push_bt (!pc + 1) !pos !nad;
        nad := !nad - 2;
        pc := exit
      end
    | RIterate ->
      set_aux (!nad - 1) !pos;
      set_aux (!nad - 2) (b.aux.(!nad - 2) + 1);
      incr pc
    | RAccept -> if full && !pos <> n then fail () else result := !pos
  done;
  if !result >= 0 then Some !result else None

let run ~fuel re ~full s start =
  try exec ~fuel re.program ~full s start with Out_of_fuel -> None

let match_at ?(fuel = default_fuel) (re : t) (s : string) (start : int) :
    int option =
  run ~fuel re ~full:false s start

(** Does the pattern match a prefix of [s] starting at 0? (Python
    [re.match] semantics.) Returns the end offset of the match. *)
let match_prefix re s = match_at re s 0

(** Does the pattern match the entire string? (Python [re.fullmatch].)
    One anchored run that accepts only at the end of [s]: backtracking
    finds a full-length match iff one exists. *)
let full_match ?(fuel = default_fuel) re s = run ~fuel re ~full:true s 0 <> None

(** First position at which the pattern matches (Python [re.search]).
    Returns (start, end) offsets.  Anchored patterns get a single
    attempt; otherwise start positions whose character cannot begin a
    match are skipped without entering the engine. *)
let search re s =
  let n = String.length s in
  if re.anchored then
    match match_at re s 0 with
    | Some j -> Some (0, j)
    | None -> None
  else
    match re.first with
    | Some first ->
      (* Non-nullable: a match at [i] must consume [s.[i]], so [i = n]
         and positions outside the first-set cannot match. *)
      let rec go i =
        if i >= n then None
        else if
          Bytes.unsafe_get first (Char.code (String.unsafe_get s i)) = '\000'
        then go (i + 1)
        else
          match match_at re s i with
          | Some j -> Some (i, j)
          | None -> go (i + 1)
      in
      go 0
    | None ->
      let rec go i =
        if i > n then None
        else
          match match_at re s i with
          | Some j -> Some (i, j)
          | None -> go (i + 1)
      in
      go 0

(** Convenience: compile and fully match in one step. *)
let string_matches pattern s =
  let re = parse pattern in
  full_match re s

let source re = re.source

let ast re = re.ast
