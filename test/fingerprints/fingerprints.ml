(* Golden synthesis fingerprints (`make fingerprints`).

   Synthesizes every covered type with the default pipeline config and
   20 positives seeded with [Hashtbl.hash (5, id)], and prints one line
   per type: the type id and the MD5 of its full fingerprint.  The
   fingerprint is everything an optimisation of synthesis must not
   change: the strategy used, the negatives, and every ranked entry's
   candidate key, DNF and score to the last bit.

   Usage: fingerprints.exe [--jobs N]

   The Makefile diffs the output against [expected.txt], which was
   generated before any change that claims to keep rankings
   byte-identical.  The output does not depend on [--jobs]. *)

module P = Autotype_core.Pipeline
module R = Autotype_core.Ranking

let fingerprint (o : P.outcome) =
  let strategy =
    match o.P.strategy_used with
    | Some s -> Autotype_core.Negative.strategy_to_string s
    | None -> "-"
  in
  let ranked =
    List.map
      (fun (r : R.ranked) ->
        Printf.sprintf "%s|%s|%.17g"
          (Repolib.Candidate.key r.R.traced.R.candidate)
          (Autotype_core.Dnf.to_string r.R.dnf)
          r.R.score)
      o.P.ranked
  in
  String.concat "\n" ((strategy :: o.P.negatives) @ ranked)

let () =
  let jobs = ref 1 in
  Arg.parse
    [ ("--jobs", Arg.Set_int jobs, "N  trace on N domains (default 1)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fingerprints.exe [--jobs N]";
  let index = Lazy.force Corpus.index in
  Exec.Pool.with_pool ~jobs:!jobs @@ fun pool ->
  List.iter
    (fun (ty : Semtypes.Registry.t) ->
      let id = ty.Semtypes.Registry.id in
      let positives =
        Semtypes.Registry.positive_examples ~n:20 ~seed:(Hashtbl.hash (5, id))
          ty
      in
      let o =
        P.synthesize ~pool ~index ~query:ty.Semtypes.Registry.name ~positives
          ()
      in
      Printf.printf "%s %s\n%!" id (Digest.to_hex (Digest.string (fingerprint o))))
    Semtypes.Registry.covered
