(** Best-k-Concise-DNF-Cover (Definitions 2-4 and Algorithm 1).

    Given featurized traces for the positive examples P and generated
    negatives N, find a DNF over the trace literals B(F) whose
    conjunctive clauses have at most [k] literals and which covers as
    many of P as possible while covering at most [θ·|N|] of N.  The
    exact problem is NP-hard (Theorem 4, by reduction from set-union
    knapsack), so the greedy cover of Algorithm 1 is used:

    1. partition B(F) into groups of literals with identical coverage,
    2. keep one representative literal per group,
    3. enumerate conjunctions of representatives up to length k,
    4. repeatedly add the admissible clause with the largest marginal
       positive coverage. *)

type clause = Feature.literal list  (** conjunction of literals *)

type group = {
  representative : Feature.literal;
  members : Feature.literal list;  (** the whole identical-coverage group *)
  coverage : Bitset.t;
}

type result = {
  clauses : clause list;  (** the concise DNF (representatives only) *)
  expanded : clause list;
      (** DNF-E of Appendix G: each representative replaced by the
          conjunction of its whole group *)
  cov_p : int;
  cov_n : int;
  n_pos : int;
  n_neg : int;
}

let empty_result ~n_pos ~n_neg =
  { clauses = []; expanded = []; cov_p = 0; cov_n = 0; n_pos; n_neg }

let clause_to_string (c : clause) =
  String.concat " \xe2\x88\xa7 " (List.map Feature.literal_to_string c)

let to_string (r : result) =
  match r.clauses with
  | [] -> "<empty DNF>"
  | cs ->
    String.concat " \xe2\x88\xa8 "
      (List.map (fun c -> "(" ^ clause_to_string c ^ ")") cs)

(** Examples as featurized traces: [traces.(i)] with [i < n_pos] positive,
    the rest negative. *)
type instance = {
  traces : Feature.Literal_set.t array;
  n_pos : int;
}

let make_instance ~(positives : Feature.Literal_set.t list)
    ~(negatives : Feature.Literal_set.t list) : instance =
  {
    traces = Array.of_list (positives @ negatives);
    n_pos = List.length positives;
  }

(* Literals as table keys.  The hash reads the line, the polarity or
   return class and the exception kind, never the file name: a
   candidate's literals mostly share one file, and equality settles the
   rest. *)
module Literal_tbl = Hashtbl.Make (struct
  type t = Feature.literal

  let ret_code : Minilang.Trace.ret_abstract -> int = function
    | Rbool false -> 0
    | Rbool true -> 1
    | Rzero -> 2
    | Rnonzero -> 3
    | Rnone -> 4
    | Rnotnone -> 5
    | Rvoid -> 6

  let same_site (a : Minilang.Trace.site) (b : Minilang.Trace.site) =
    a.s_line = b.s_line && String.equal a.s_file b.s_file

  let equal (a : t) (b : t) =
    match (a, b) with
    | Branch_is (s, x), Branch_is (s', x') -> x = x' && same_site s s'
    | Return_is (s, r), Return_is (s', r') ->
      ret_code r = ret_code r' && same_site s s'
    | Raised k, Raised k' -> String.equal k k'
    | (Branch_is _ | Return_is _ | Raised _), _ -> false

  let hash : t -> int = function
    | Branch_is (s, b) -> (s.s_line * 16) + Bool.to_int b
    | Return_is (s, r) -> (s.s_line * 16) + 2 + ret_code r
    | Raised k -> String.hash k
end)

(* Build identical-coverage groups of literals (Algorithm 1, line 1).
   The tables' iteration order never reaches the result: members and
   groups are sorted by [Feature.compare_literal]. *)
let build_groups (inst : instance) : group list =
  let n = Array.length inst.traces in
  let coverage_of : Bitset.t Literal_tbl.t = Literal_tbl.create 256 in
  Array.iteri
    (fun i trace ->
      Feature.Literal_set.iter
        (fun lit ->
          let bs =
            match Literal_tbl.find_opt coverage_of lit with
            | Some bs -> bs
            | None ->
              let bs = Bitset.create n in
              Literal_tbl.add coverage_of lit bs;
              bs
          in
          Bitset.set bs i)
        trace)
    inst.traces;
  let by_key : (string, Feature.literal list * Bitset.t) Hashtbl.t =
    Hashtbl.create 64
  in
  Literal_tbl.iter
    (fun lit bs ->
      let key = Bitset.to_key bs in
      match Hashtbl.find_opt by_key key with
      | Some (lits, bs0) -> Hashtbl.replace by_key key (lit :: lits, bs0)
      | None -> Hashtbl.add by_key key ([ lit ], bs))
    coverage_of;
  Hashtbl.fold
    (fun _key (lits, bs) acc ->
      let lits = List.sort Feature.compare_literal lits in
      match lits with
      | [] -> acc
      | representative :: _ ->
        { representative; members = lits; coverage = bs } :: acc)
    by_key []
  |> List.sort (fun a b ->
         Feature.compare_literal a.representative b.representative)

let pos_count inst bs =
  let n = ref 0 in
  for i = 0 to inst.n_pos - 1 do
    if Bitset.mem bs i then incr n
  done;
  !n

let neg_count inst bs =
  let n = ref 0 in
  for i = inst.n_pos to Array.length inst.traces - 1 do
    if Bitset.mem bs i then incr n
  done;
  !n

(* Cap on the number of representative literals fed to the k-subset
   enumeration, keeping the overall complexity O(|S|^k) small.  Groups
   covering more positives are preferred. *)
let max_representatives = 40

let m_covers = Telemetry.counter "dnf.covers_computed"
let m_clauses_considered = Telemetry.counter "dnf.clauses_considered"

(** Greedy Best-k-Concise-DNF-Cover.  [theta] is the negative-coverage
    budget fraction; [k] the clause-length cap. *)
let best_k_concise ?(k = 3) ?(theta = 0.3) (inst : instance) : result =
  let n_total = Array.length inst.traces in
  let n_pos = inst.n_pos in
  let n_neg = n_total - n_pos in
  if n_pos = 0 then empty_result ~n_pos ~n_neg
  else begin
    let groups = build_groups inst in
    (* Only groups covering at least one positive can contribute to a
       positive-covering conjunction. *)
    let useful =
      groups
      |> List.filter (fun g -> pos_count inst g.coverage > 0)
      |> List.sort (fun a b ->
             compare (pos_count inst b.coverage) (pos_count inst a.coverage))
      |> List.filteri (fun i _ -> i < max_representatives)
    in
    let arr = Array.of_list useful in
    let budget = int_of_float (theta *. float_of_int n_neg) in
    (* Enumerate all conjunctions up to length k with non-empty positive
       coverage (the L of Algorithm 1, built lazily by DFS). *)
    let conjunctions : (int list * Bitset.t) list ref = ref [] in
    let rec dfs start chosen cov depth =
      if depth > 0 then conjunctions := (List.rev chosen, cov) :: !conjunctions;
      if depth < k then
        for i = start to Array.length arr - 1 do
          let cov' = Bitset.inter cov arr.(i).coverage in
          if pos_count inst cov' > 0 then dfs (i + 1) (i :: chosen) cov' (depth + 1)
        done
    in
    let full = Bitset.create n_total in
    for i = 0 to n_total - 1 do
      Bitset.set full i
    done;
    dfs 0 [] full 0;
    let conjs = Array.of_list !conjunctions in
    Telemetry.incr m_covers;
    Telemetry.incr ~by:(Array.length conjs) m_clauses_considered;
    (* Greedy selection. *)
    let covered = Bitset.create n_total in
    let chosen = ref [] in
    let continue = ref true in
    while !continue do
      let best = ref None in
      Array.iter
        (fun (idxs, cov) ->
          let added_p =
            let u = Bitset.union covered cov in
            pos_count inst u - pos_count inst covered
          in
          if added_p > 0 then begin
            let u = Bitset.union covered cov in
            let total_n = neg_count inst u in
            if total_n <= budget then
              let better =
                match !best with
                | None -> true
                | Some (bp, bn, blen, _, _) ->
                  added_p > bp
                  || (added_p = bp && total_n < bn)
                  || (added_p = bp && total_n = bn && List.length idxs < blen)
              in
              if better then
                best := Some (added_p, total_n, List.length idxs, idxs, cov)
          end)
        conjs;
      match !best with
      | Some (_, _, _, idxs, cov) ->
        chosen := idxs :: !chosen;
        Bitset.union_into ~into:covered cov;
        if pos_count inst covered = n_pos then continue := false
      | None -> continue := false
    done;
    let chosen = List.rev !chosen in
    let clauses =
      List.map (fun idxs -> List.map (fun i -> arr.(i).representative) idxs) chosen
    in
    let expanded =
      List.map
        (fun idxs -> List.concat_map (fun i -> arr.(i).members) idxs)
        chosen
    in
    {
      clauses;
      expanded;
      cov_p = pos_count inst covered;
      cov_n = neg_count inst covered;
      n_pos;
      n_neg;
    }
  end

(** The DNF-complete variant of Definition 3 used as the DNF-C baseline:
    clauses are entire positive-trace signatures (full path information),
    greedily unioned under the same θ budget. *)
let best_complete ?(theta = 0.3) (inst : instance) : result =
  let n_total = Array.length inst.traces in
  let n_pos = inst.n_pos in
  let n_neg = n_total - n_pos in
  if n_pos = 0 then empty_result ~n_pos ~n_neg
  else begin
    let budget = int_of_float (theta *. float_of_int n_neg) in
    (* Candidate clauses: the full literal set of each distinct positive
       trace; its coverage = examples whose trace is a superset. *)
    let distinct = Hashtbl.create 16 in
    for i = 0 to n_pos - 1 do
      let key = String.concat "|"
          (List.map Feature.literal_to_string
             (Feature.Literal_set.elements inst.traces.(i)))
      in
      if not (Hashtbl.mem distinct key) then
        Hashtbl.add distinct key inst.traces.(i)
    done;
    let clause_cov sig_set =
      let bs = Bitset.create n_total in
      Array.iteri
        (fun i t -> if Feature.Literal_set.subset sig_set t then Bitset.set bs i)
        inst.traces;
      bs
    in
    let cands =
      Hashtbl.fold (fun _ s acc -> (s, clause_cov s) :: acc) distinct []
    in
    Telemetry.incr m_covers;
    Telemetry.incr ~by:(List.length cands) m_clauses_considered;
    let covered = Bitset.create n_total in
    let chosen = ref [] in
    let continue = ref true in
    while !continue do
      let best = ref None in
      List.iter
        (fun (s, cov) ->
          let u = Bitset.union covered cov in
          let added_p = pos_count inst u - pos_count inst covered in
          let total_n = neg_count inst u in
          if added_p > 0 && total_n <= budget then
            match !best with
            | Some (bp, bn, _, _) when bp > added_p || (bp = added_p && bn <= total_n) -> ()
            | _ -> best := Some (added_p, total_n, s, cov))
        cands;
      match !best with
      | Some (_, _, s, cov) ->
        chosen := s :: !chosen;
        Bitset.union_into ~into:covered cov;
        if pos_count inst covered = n_pos then continue := false
      | None -> continue := false
    done;
    let clauses =
      List.rev_map (fun s -> Feature.Literal_set.elements s) !chosen
    in
    {
      clauses;
      expanded = clauses;
      cov_p = pos_count inst covered;
      cov_n = neg_count inst covered;
      n_pos;
      n_neg;
    }
  end

(** Does a featurized trace satisfy the DNF (∧T(s) → DNF)?  True iff some
    clause is a subset of the trace. *)
let satisfies (clauses : clause list) (trace : Feature.Literal_set.t) : bool =
  List.exists
    (fun clause ->
      List.for_all (fun lit -> Feature.Literal_set.mem lit trace) clause)
    clauses
