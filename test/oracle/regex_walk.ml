(** Continuation-passing matcher over the parsed {!Regexlite.node}
    tree: the executable reference the library's compiled program is
    checked against.  It states the repeat rule the way CPython's
    [MAX_UNTIL] and [MIN_UNTIL] do — mandatory iterations always run, an
    optional one never starts where the previous optional one started,
    and a greedy repeat tries it before what follows, a lazy one after —
    with no program, no stacks, no skip tables and no fuel. *)

open Regexlite

let in_class ranges negated c =
  List.exists (fun (lo, hi) -> lo <= c && c <= hi) ranges <> negated

(** [match_at re ~full s i]: the end of the first match at offset [i]
    in exploration order; under [full] only a match ending at the end
    of [s] counts. *)
let match_at (re : Regexlite.t) ~full (s : string) (start : int) : int option
    =
  let n = String.length s in
  (* [k] receives the position after the node matched. *)
  let rec m node i (k : int -> bool) : bool =
    match node with
    | Lit c -> i < n && s.[i] = c && k (i + 1)
    | Any -> i < n && s.[i] <> '\n' && k (i + 1)
    | Class (ranges, negated) ->
      i < n && in_class ranges negated s.[i] && k (i + 1)
    | Bol -> i = 0 && k i
    | Eol -> (i = n || (i = n - 1 && s.[i] = '\n')) && k i
    | Seq items ->
      let rec seq items i =
        match items with [] -> k i | g :: rest -> m g i (seq rest)
      in
      seq items i
    | Alt alts -> List.exists (fun g -> m g i k) alts
    | Repeat (g, lo, hi, greedy) ->
      let rec rep count last i =
        if count < lo then m g i (rep (count + 1) last)
        else
          let again () =
            (match hi with None -> true | Some h -> count < h)
            && i <> last
            && m g i (rep (count + 1) i)
          in
          if greedy then again () || k i else k i || again ()
      in
      rep 0 (-1) i
  in
  let result = ref None in
  let accept j =
    (not full || j = n)
    && begin
      result := Some j;
      true
    end
  in
  if m (ast re) start accept then !result else None

let match_prefix re s = match_at re ~full:false s 0

let full_match re s = match_at re ~full:true s 0 <> None

let search re s =
  let n = String.length s in
  let rec go i =
    if i > n then None
    else
      match match_at re ~full:false s i with
      | Some j -> Some (i, j)
      | None -> go (i + 1)
  in
  go 0
