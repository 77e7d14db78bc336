(** Automatic negative-example generation (Section 6).

    Implements the inferred-alphabet machinery of Definition 5 and the
    strict mutation hierarchy S1 ⊆ S2 ⊆ S3 of Proposition 1:

    - S1 (mutate-preserve-structure): replace in-alphabet
      non-punctuation characters with other in-alphabet non-punctuation
      characters, leaving punctuation (structure) intact;
    - S2 (mutate-preserve-alphabet): replace any in-alphabet character
      with another in-alphabet character (may break structure);
    - S3 (mutate-random): replace in-alphabet characters with arbitrary
      characters from the full alphabet.

    Also provides the [Random_strings] baseline of Figure 10(c). *)

type strategy = S1 | S2 | S3

let strategy_to_string = function S1 -> "S1" | S2 -> "S2" | S3 -> "S3"

let is_punctuation c =
  not
    ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9'))

type alphabet = {
  full : char list;  (** Σ(P): every character appearing in P *)
  non_punct : char list;  (** Σ̄ᴾ(P): in-alphabet non-punctuation *)
}

let infer_alphabet (positives : string list) : alphabet =
  let seen = Hashtbl.create 64 in
  List.iter (fun s -> String.iter (fun c -> Hashtbl.replace seen c ()) s)
    positives;
  let full = Hashtbl.fold (fun c () acc -> c :: acc) seen [] in
  let full = List.sort compare full in
  { full; non_punct = List.filter (fun c -> not (is_punctuation c)) full }

(* The universe used by S3: printable ASCII letters, digits and common
   punctuation — the "full English alphabet Σ". *)
let sigma_full =
  List.init 95 (fun i -> Char.chr (32 + i))

let pick rng xs =
  match xs with
  | [] -> None
  | _ -> Some (List.nth xs (Random.State.int rng (List.length xs)))

(** Mutate one example under a strategy.  Guarantees at least one actual
    character change (re-drawing if the random draws happened to leave
    the string unchanged). *)
let mutate ?(p = 0.25) rng (alpha : alphabet) (strategy : strategy)
    (s : string) : string =
  if s = "" then "?"
  else begin
    let replace_char c =
      let candidates =
        match strategy with
        | S1 ->
          if is_punctuation c then None  (* structure is preserved *)
          else Some alpha.non_punct
        | S2 -> Some alpha.full
        | S3 -> Some sigma_full
      in
      match candidates with
      | None -> c
      | Some pool ->
        (match pick rng (List.filter (fun x -> x <> c) pool) with
         | Some c' -> c'
         | None -> c)
    in
    let attempt () =
      String.map
        (fun c -> if Random.State.float rng 1.0 < p then replace_char c else c)
        s
    in
    let rec go tries =
      let m = attempt () in
      if m <> s || tries > 20 then
        if m = s then
          (* Force one change at a random mutable position. *)
          let mutable_positions =
            List.filter
              (fun i -> replace_char s.[i] <> s.[i])
              (List.init (String.length s) Fun.id)
          in
          (match pick rng mutable_positions with
           | Some i -> String.mapi (fun j c -> if j = i then replace_char c else c) s
           | None -> m)
        else m
      else go (tries + 1)
    in
    go 0
  end

let m_generated_s1 = Telemetry.counter "negative.generated.S1"
let m_generated_s2 = Telemetry.counter "negative.generated.S2"
let m_generated_s3 = Telemetry.counter "negative.generated.S3"

let generated_counter = function
  | S1 -> m_generated_s1
  | S2 -> m_generated_s2
  | S3 -> m_generated_s3

(** Generate-N-by-Mutation (Algorithm 2's subroutine): a large number of
    likely-negative examples per positive example. *)
let generate ?(per_positive = 8) ?(p = 0.25) ~seed (strategy : strategy)
    (positives : string list) : string list =
  let rng = Random.State.make [| seed; Hashtbl.hash strategy |]
  and alpha = infer_alphabet positives in
  let negatives =
    List.concat_map
      (fun s ->
        List.init per_positive (fun _ -> mutate ~p rng alpha strategy s))
      positives
  in
  Telemetry.incr ~by:(List.length negatives) (generated_counter strategy);
  negatives

(** The naive baseline of Figure 10(c): random strings unrelated to P,
    like the paper's "ABC123.?" example. *)
let random_strings ?(per_positive = 8) ~seed (positives : string list) :
    string list =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let n = per_positive * List.length positives in
  List.init n (fun _ ->
      let len = 5 + Random.State.int rng 16 in
      String.init len (fun _ ->
          List.nth sigma_full (Random.State.int rng (List.length sigma_full))))
