(** A small backtracking regular-expression engine.

    Supports the subset of syntax that appears in real-world
    type-validation code and in Potter's-Wheel-style inferred patterns:

    - literals, [.], escapes [\d \D \w \W \s \S], character classes
      [[a-z0-9_]] with negation [[^...]] and ranges,
    - grouping [( )], alternation [|],
    - quantifiers [* + ?] and bounded repetition [{m}] [{m,n}] [{m,}],
    - anchors [^] and [$].

    Used both by MiniScript's [re_match]/[re_search] builtins (mined code
    frequently validates with regexes, Section 8.2.2) and by the REGEX
    baseline of Section 9. *)

type node =
  | Lit of char
  | Any
  | Class of (char * char) list * bool  (** ranges, negated? *)
  | Star of node * bool  (** greedy flag reserved; always greedy here *)
  | Plus of node
  | Opt of node
  | Repeat of node * int * int option  (** {m,n}; None = unbounded *)
  | Seq of node list
  | Alt of node list
  | Group of node
  | Bol
  | Eol

exception Parse_error of string

(* Compiled form: the matcher never walks the surface AST.  Character
   classes become 256-byte membership tables (negation folded in), [+]
   is expanded to [g g*], and [Group] wrappers vanish — each saves
   per-character work or a per-visit allocation in the backtracking
   inner loop. *)
type cnode =
  | CLit of char
  | CAny
  | CClass of Bytes.t  (** 256-entry membership table *)
  | CStar of cnode
  | COpt of cnode
  | CRepeat of cnode * int * int option
  | CSeq of cnode array
  | CAlt of cnode array
  | CBol
  | CEol

(* Second lowering: a flat backtracking program executed with explicit
   integer stacks.  The CPS matcher over [cnode] allocates a closure
   per node visit (hundreds of words per match on interpreter hot
   paths); the program form allocates nothing per attempt.  The two
   explore alternatives in the same order — a [RSplit] pushes exactly
   the alternative the CPS code would try second — and a backtrack
   restores the whole matcher state the CPS closure would have
   captured: position, aux depth, and (through undo entries) any aux
   slot overwritten since.  The test suite checks the two against each
   other on seeded random patterns.  Bounded repetitions are unrolled;
   a pattern whose unrolling would exceed {!max_rprog} keeps
   [rprog = None] and takes the CPS path instead. *)
type rinstr =
  | RChar of char
  | RClass of Bytes.t
  | RAny
  | RBol
  | REol
  | RSplit of int * int  (** try first, push second as backtrack point *)
  | RJmp of int
  | RPushPos  (** push current position onto the aux stack *)
  | RProgress  (** pop aux; fail unless the position advanced past it *)
  | RScan of Bytes.t * int
      (** greedy star/repeat over a single character class: consume up
          to [max] class characters ([-1] = unbounded) in a tight loop,
          leaving one range-backtrack entry that retreats a character at
          a time — same exploration order as the unrolled splits, a
          fraction of the dispatch *)
  | RAccept

type t = {
  ast : node;
  source : string;
  prog : cnode;
  full_prog : cnode;  (** [prog] with [$] appended, for {!full_match} *)
  rprog : rinstr array option;
  full_rprog : rinstr array option;
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
  let parse_int () =
    let start = !pos in
    while (match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then raise (Parse_error "expected number in repetition");
    int_of_string (String.sub pattern start (!pos - start))
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
    let atom = parse_atom () in
    let rec apply atom =
      match peek () with
      | Some '*' -> advance (); apply (Star (atom, true))
      | Some '+' -> advance (); apply (Plus atom)
      | Some '?' -> advance (); apply (Opt atom)
      | Some '{' ->
        advance ();
        let m = parse_int () in
        let node =
          match peek () with
          | Some '}' -> advance (); Repeat (atom, m, Some m)
          | Some ',' ->
            advance ();
            (match peek () with
             | Some '}' -> advance (); Repeat (atom, m, None)
             | _ ->
               let hi = parse_int () in
               eat '}';
               if hi < m then raise (Parse_error "inverted repetition bounds");
               Repeat (atom, m, Some hi))
          | _ -> raise (Parse_error "malformed repetition")
        in
        apply node
      | _ -> atom
    in
    apply atom
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
      Group inner
    | Some '[' -> parse_class ()
    | Some '\\' -> parse_escape ()
    | Some '.' -> advance (); Any
    | Some '^' -> advance (); Bol
    | Some '$' -> advance (); Eol
    | Some ('*' | '+' | '?') ->
      raise (Parse_error "quantifier with nothing to repeat")
    | Some c -> advance (); Lit c
  in
  let ast = parse_alt () in
  if !pos <> n then raise (Parse_error "trailing characters in pattern");
  compile ast pattern

and compile ast pattern =
  let rec cn (node : node) : cnode =
    match node with
    | Lit c -> CLit c
    | Any -> CAny
    | Class (ranges, negated) ->
      let tbl = Bytes.make 256 (if negated then '\001' else '\000') in
      let mark = if negated then '\000' else '\001' in
      List.iter
        (fun (lo, hi) ->
          for c = Char.code lo to Char.code hi do
            Bytes.set tbl c mark
          done)
        ranges;
      CClass tbl
    | Star (g, _) -> CStar (cn g)
    | Plus g ->
      let cg = cn g in
      CSeq [| cg; CStar cg |]
    | Opt g -> COpt (cn g)
    | Repeat (g, lo, hi) -> CRepeat (cn g, lo, hi)
    | Seq items -> CSeq (Array.of_list (List.map cn items))
    | Alt alts -> CAlt (Array.of_list (List.map cn alts))
    | Group g -> cn g
    | Bol -> CBol
    | Eol -> CEol
  in
  let prog = cn ast in
  (* First-set and nullability, for the search skip loop.  [first_of]
     returns whether the node can match without consuming; along the
     way it marks every character that could be the first one consumed. *)
  let rec first_of node (tbl : Bytes.t) : bool =
    match node with
    | CLit c ->
      Bytes.set tbl (Char.code c) '\001';
      false
    | CAny ->
      Bytes.fill tbl 0 256 '\001';
      false
    | CClass cls ->
      for c = 0 to 255 do
        if Bytes.unsafe_get cls c <> '\000' then Bytes.set tbl c '\001'
      done;
      false
    | CBol | CEol -> true
    | CSeq arr ->
      let len = Array.length arr in
      let rec go i = i = len || (first_of arr.(i) tbl && go (i + 1)) in
      go 0
    | CAlt arr ->
      Array.fold_left
        (fun nullable a ->
          let nb = first_of a tbl in
          nullable || nb)
        false arr
    | CStar g | COpt g ->
      ignore (first_of g tbl : bool);
      true
    | CRepeat (g, lo, _) ->
      let nb = first_of g tbl in
      nb || lo = 0
  in
  let tbl = Bytes.make 256 '\000' in
  let nullable = first_of prog tbl in
  (* Leading-[^] detection: a pattern whose every alternative starts
     with [^] can only ever match at offset 0, so [search] needs a
     single attempt.  Conservative: [false] just means no shortcut. *)
  let rec leading_bol = function
    | CBol -> true
    | CSeq arr -> Array.length arr > 0 && leading_bol arr.(0)
    | CAlt arr -> Array.length arr > 0 && Array.for_all leading_bol arr
    | CRepeat (g, lo, _) -> lo > 0 && leading_bol g
    | _ -> false
  in
  let full_prog = CSeq [| prog; CEol |] in
  {
    ast;
    source = pattern;
    prog;
    full_prog;
    rprog = compile_rprog prog;
    full_rprog = compile_rprog full_prog;
    first = (if nullable then None else Some tbl);
    anchored = leading_bol prog;
  }

(* Lower a [cnode] to a flat program, or [None] when unrolling bounded
   repetitions would exceed [max_rprog] instructions (the CPS executor
   handles those without duplication). *)
and max_rprog = 4096

and compile_rprog (prog : cnode) : rinstr array option =
  let buf = ref (Array.make 64 RAccept) in
  let len = ref 0 in
  let emit i =
    if !len >= max_rprog then raise Exit;
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
  (* Single-character bodies (the dominant shape in mined detectors:
     [\d+], [[a-z0-9]{2,5}], [.*]) compile their repetition to [RScan]
     instead of an unrolled split loop.  Each iteration consumes exactly
     one character, so the progress guard is vacuous and greedy
     max-then-retreat order is the splits' order exactly. *)
  let scan_tbl = function
    | CClass t -> Some t
    | CLit c ->
      let t = Bytes.make 256 '\000' in
      Bytes.set t (Char.code c) '\001';
      Some t
    | CAny -> Some (Bytes.make 256 '\001')
    | _ -> None
  in
  let rec go node =
    match node with
    | CLit c -> ignore (emit (RChar c))
    | CClass t -> ignore (emit (RClass t))
    | CAny -> ignore (emit RAny)
    | CBol -> ignore (emit RBol)
    | CEol -> ignore (emit REol)
    | CSeq arr -> Array.iter go arr
    | CAlt arr ->
      let k = Array.length arr in
      let jmps = ref [] in
      Array.iteri
        (fun idx a ->
          if idx < k - 1 then begin
            let sp = emit (RSplit (0, 0)) in
            go a;
            jmps := emit (RJmp 0) :: !jmps;
            patch sp (RSplit (sp + 1, !len))
          end
          else go a)
        arr;
      List.iter (fun j -> patch j (RJmp !len)) !jmps
    | COpt g -> (
      match scan_tbl g with
      | Some tbl -> ignore (emit (RScan (tbl, 1)))
      | None ->
        let sp = emit (RSplit (0, 0)) in
        go g;
        patch sp (RSplit (sp + 1, !len)))
    | CStar g -> (
      match scan_tbl g with
      | Some tbl -> ignore (emit (RScan (tbl, -1)))
      | None ->
        (* Greedy loop; each iteration must consume, mirroring the CPS
           [j > i] guard. *)
        let l0 = emit (RSplit (0, 0)) in
        ignore (emit RPushPos);
        go g;
        ignore (emit RProgress);
        ignore (emit (RJmp l0));
        patch l0 (RSplit (l0 + 1, !len)))
    | CRepeat (g, lo, hi) -> (
      match scan_tbl g with
      | Some tbl -> (
        for _ = 1 to lo do
          go g
        done;
        match hi with
        | None -> ignore (emit (RScan (tbl, -1)))
        | Some h -> if h > lo then ignore (emit (RScan (tbl, h - lo))))
      | None ->
        (* The CPS guard is [j > i || count + 1 >= lo]: every mandatory
           iteration but the last must consume; optional iterations may
           match empty (an unbounded tail then spins down the fuel, same
           as the CPS executor). *)
        for count = 0 to lo - 1 do
          if count + 1 < lo then begin
            ignore (emit RPushPos);
            go g;
            ignore (emit RProgress)
          end
          else go g
        done;
        (match hi with
         | Some h ->
           let sps = ref [] in
           for _ = lo to h - 1 do
             sps := emit (RSplit (0, 0)) :: !sps;
             go g
           done;
           List.iter (fun sp -> patch sp (RSplit (sp + 1, !len))) !sps
         | None ->
           let l0 = emit (RSplit (0, 0)) in
           go g;
           ignore (emit (RJmp l0));
           patch l0 (RSplit (l0 + 1, !len))))
  in
  match
    go prog;
    ignore (emit RAccept)
  with
  | () -> Some (Array.sub !buf 0 !len)
  | exception Exit -> None

(* ------------------------------------------------------------------ *)
(* Matcher: CPS backtracking with a fuel bound to avoid pathological    *)
(* blow-ups on adversarial corpus patterns (sandboxing concern).        *)
(* ------------------------------------------------------------------ *)

exception Out_of_fuel

let default_fuel = 2_000_000

(* Per-domain scratch for the program executor: backtrack entries are
   (pc, pos, aux-depth) triples in one int array, [aux] holds the
   positions [RPushPos] saved.  Reused across calls; grown copies are
   kept.  The executor is not re-entrant, and never needs to be — a
   match runs no user code. *)
type rbufs = { mutable bt : int array; mutable aux : int array }

let rbufs_key : rbufs Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { bt = Array.make 192 0; aux = Array.make 64 0 })

(* Backtrack entries are (pc, pos, nad) triples.  A pc below [-1] tags
   a range entry from [RScan]: pc is [-(continuation) - 1], pos is the
   next (longest untried) scan end, and the third slot packs the saved
   aux depth with the minimum scan end — retreating reuses the entry in
   place until the minimum is reached.  Positions and aux depths stay
   far below 2^31 in practice (inputs are cell values, depth is bounded
   by pattern nesting), so the packing never overflows a 63-bit int.

   A pc of exactly [-1] is an undo entry (slot, old value): [RPushPos]
   writes into a slot that [RProgress] popped, which older backtrack
   entries (saved with a deeper [nad]) may still read, so the write
   leaves the old value behind and [fail] puts it back on the way
   down. *)
let exec_rprog ~fuel (prog : rinstr array) (s : string) (start : int) :
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
        let cur = Array.unsafe_get a (top + 1) in
        let packed = Array.unsafe_get a (top + 2) in
        pc := -tag - 1;
        pos := cur;
        nad := packed lsr 31;
        if cur > packed land 0x7FFF_FFFF then
          Array.unsafe_set a (top + 1) (cur - 1)
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
      if !pos < n then begin
        incr pos;
        incr pc
      end
      else fail ()
    | RBol -> if !pos = 0 then incr pc else fail ()
    | REol -> if !pos = n then incr pc else fail ()
    | RSplit (first, second) ->
      push_bt second !pos !nad;
      pc := first
    | RJmp t -> pc := t
    | RPushPos ->
      if !nad = Array.length b.aux then begin
        let bigger = Array.make (2 * !nad) 0 in
        Array.blit b.aux 0 bigger 0 !nad;
        b.aux <- bigger
      end;
      if !nbt > 0 then push_bt (-1) !nad b.aux.(!nad);
      b.aux.(!nad) <- !pos;
      incr nad;
      incr pc
    | RProgress ->
      decr nad;
      if !pos > b.aux.(!nad) then incr pc else fail ()
    | RScan (tbl, max) ->
      let lo = !pos in
      let limit =
        if max < 0 then n
        else begin
          let l = lo + max in
          if l > n then n else l
        end
      in
      let j = ref lo in
      while
        !j < limit
        && Bytes.unsafe_get tbl (Char.code (String.unsafe_get s !j)) <> '\000'
      do
        incr j
      done;
      fuel := !fuel - (!j - lo);
      if !fuel <= 0 then raise Out_of_fuel;
      if !j > lo then
        push_bt (-(!pc + 1) - 1) (!j - 1) ((!nad lsl 31) lor lo);
      pos := !j;
      incr pc
    | RAccept -> result := !pos
  done;
  if !result >= 0 then Some !result else None

let exec_prog ~fuel (prog : cnode) (s : string) (start : int) : int option =
  let n = String.length s in
  let fuel = ref fuel in
  let result = ref 0 in
  (* k: int -> bool receives the position after the node matched. *)
  let rec m node i (k : int -> bool) : bool =
    decr fuel;
    if !fuel <= 0 then raise Out_of_fuel;
    match node with
    | CLit c -> i < n && String.unsafe_get s i = c && k (i + 1)
    | CAny -> i < n && k (i + 1)
    | CClass tbl ->
      i < n
      && Bytes.unsafe_get tbl (Char.code (String.unsafe_get s i)) <> '\000'
      && k (i + 1)
    | CBol -> i = 0 && k i
    | CEol -> i = n && k i
    | CSeq arr ->
      let len = Array.length arr in
      let rec seq idx i =
        if idx = len then k i
        else m (Array.unsafe_get arr idx) i (fun j -> seq (idx + 1) j)
      in
      seq 0 i
    | CAlt arr ->
      let len = Array.length arr in
      let rec alt idx =
        idx < len && (m (Array.unsafe_get arr idx) i k || alt (idx + 1))
      in
      alt 0
    | COpt g -> m g i k || k i
    | CStar g ->
      let rec star i = m g i (fun j -> j > i && star j) || k i in
      star i
    | CRepeat (g, lo, hi) ->
      let rec rep count i =
        let can_stop = count >= lo in
        let can_more = match hi with None -> true | Some h -> count < h in
        (can_more
         && m g i (fun j -> (j > i || count + 1 >= lo) && rep (count + 1) j))
        || (can_stop && k i)
      in
      rep 0 i
  in
  let found =
    try
      m prog start (fun j ->
          result := j;
          true)
    with Out_of_fuel -> false
  in
  if found then Some !result else None

(* Engine selection: the flat program when compilation fit under
   [max_rprog], the CPS walker otherwise.  Both explore alternatives in
   the same order and return the same end offset; fuel is charged per
   instruction in one and per node visit in the other, so a search near
   the bound can run out in one executor and not the other.  Running
   out of fuel is no match on both paths. *)
let exec ~fuel (re : t) ~(full : bool) (s : string) (start : int) : int option
    =
  match if full then re.full_rprog else re.rprog with
  | Some p -> (try exec_rprog ~fuel p s start with Out_of_fuel -> None)
  | None -> exec_prog ~fuel (if full then re.full_prog else re.prog) s start

let match_at ?(fuel = default_fuel) (re : t) (s : string) (start : int) :
    int option =
  exec ~fuel re ~full:false s start

(** Does the pattern match a prefix of [s] starting at 0? (Python
    [re.match] semantics.) Returns the end offset of the match. *)
let match_prefix re s = match_at re s 0

(** Does the pattern match the entire string? (Python [re.fullmatch].)
    One anchored run of the precompiled [full_prog]: backtracking under
    the appended [$] finds a full-length match iff one exists. *)
let full_match re s =
  match exec ~fuel:default_fuel re ~full:true s 0 with
  | Some _ -> true
  | None -> false

(** First position at which the pattern matches (Python [re.search]).
    Returns (start, end) offsets.  Anchored patterns get a single
    attempt; otherwise start positions whose character cannot begin a
    match are skipped without entering the engine. *)
let search re s =
  let n = String.length s in
  if re.anchored then
    match exec ~fuel:default_fuel re ~full:false s 0 with
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
          match exec ~fuel:default_fuel re ~full:false s i with
          | Some j -> Some (i, j)
          | None -> go (i + 1)
      in
      go 0
    | None ->
      let rec go i =
        if i > n then None
        else
          match exec ~fuel:default_fuel re ~full:false s i with
          | Some j -> Some (i, j)
          | None -> go (i + 1)
      in
      go 0

let matches re s = full_match re s

(** Convenience: compile and fully match in one step. *)
let string_matches pattern s =
  let re = parse pattern in
  full_match re s

let source re = re.source
