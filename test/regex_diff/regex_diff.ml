(* The library side of the CPython differential (regex_diff.py).

   Reads cases from stdin, one per line as [pattern TAB input] with a
   newline in the input written as a backslash and [n], and writes one
   line per case:

     match-end TAB fullmatch TAB search-start,search-end TAB fuel

   with [-] for no match, [1]/[0] for fullmatch, and [fuel] = [1] when
   any of the three answers changes under 100x the default fuel (the
   driver leaves such cases out).  A pattern the library rejects
   answers [error].  Match and fullmatch are replayed under the larger
   fuel through [match_at] and [full_match], search as the first start
   offset where [match_at] matches. *)

let big_fuel = 100 * Regexlite.default_fuel

let span = function None -> "-" | Some (i, j) -> Printf.sprintf "%d,%d" i j

let answer pat s =
  match Regexlite.parse pat with
  | exception Regexlite.Parse_error _ -> "error"
  | re ->
    let m = Regexlite.match_prefix re s in
    let f = Regexlite.full_match re s in
    let sr = Regexlite.search re s in
    let rec search_big i =
      if i > String.length s then None
      else
        match Regexlite.match_at ~fuel:big_fuel re s i with
        | Some j -> Some (i, j)
        | None -> search_big (i + 1)
    in
    let fuel_sensitive =
      Regexlite.match_at ~fuel:big_fuel re s 0 <> m
      || Regexlite.full_match ~fuel:big_fuel re s <> f
      || search_big 0 <> sr
    in
    Printf.sprintf "%s\t%d\t%s\t%d"
      (match m with None -> "-" | Some j -> string_of_int j)
      (Bool.to_int f) (span sr)
      (Bool.to_int fuel_sensitive)

(* The driver writes a newline in an input as a backslash and [n]; no
   generated input holds a backslash otherwise. *)
let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '\\' && i + 1 < n && s.[i + 1] = 'n' then begin
        Buffer.add_char b '\n';
        go (i + 2)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let () =
  try
    while true do
      let line = input_line stdin in
      let pat, s =
        match String.index_opt line '\t' with
        | Some i ->
          (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
        | None -> (line, "")
      in
      let s = unescape s in
      print_endline (answer pat s)
    done
  with End_of_file -> ()
