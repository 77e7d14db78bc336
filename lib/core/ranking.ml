(** Function ranking (Section 5.2) and the compared methods of
    Section 8.1: DNF-S (ours), DNF-C, RET, KW and LR. *)

type method_ = DNF_S | DNF_C | RET | KW | LR

let method_to_string = function
  | DNF_S -> "DNF-S"
  | DNF_C -> "DNF-C"
  | RET -> "RET"
  | KW -> "KW"
  | LR -> "LR"

let all_methods = [ DNF_S; KW; RET; LR; DNF_C ]

(** A candidate together with the raw traces of running it on every
    positive and negative example.  Running is by far the dominant cost,
    so traces are shared across all ranking methods. *)
type traced = {
  candidate : Repolib.Candidate.t;
  pos_raw : Minilang.Trace.t list;
  neg_raw : Minilang.Trace.t list;
  steps : int;  (** interpreter steps across all runs, for Figure 14 *)
  pruned : bool;
      (** negative tracing was skipped: every positive run errored, so
          the candidate cannot validate anything *)
}

let run_examples ?config (c : Repolib.Candidate.t) (examples : string list) :
    Minilang.Trace.t list * int =
  let steps = ref 0 in
  let traces =
    List.map
      (fun e ->
        let r = Repolib.Driver.run_safe ?config c e in
        steps := !steps + r.Minilang.Interp.steps_used;
        r.Minilang.Interp.trace)
      examples
  in
  (traces, !steps)

let m_candidates_traced = Telemetry.counter "ranking.candidates_traced"
let h_steps_per_candidate = Telemetry.histogram "ranking.steps_per_candidate"
let m_cache_hits = Telemetry.counter "ranking.trace_cache_hits"
let m_cache_misses = Telemetry.counter "ranking.trace_cache_misses"
let m_pos_runs = Telemetry.counter "ranking.positive_runs"
let m_neg_runs = Telemetry.counter "ranking.negative_runs"
let m_pruned = Telemetry.counter "pipeline.candidates_pruned"

(* ------------------------------------------------------------------ *)
(* Incremental tracing                                                 *)
(* ------------------------------------------------------------------ *)

(** Memo of per-(candidate, input) traces.  The interpreter is
    deterministic, so a (candidate, input) pair always produces the same
    trace and step count: positives re-traced on every S1→S2→S3 attempt
    and duplicate negatives are served from the cache instead of
    re-executing.

    Domain safety: the outer per-candidate table is mutex-guarded and
    keyed by {!Repolib.Candidate.key}, so two plans of one function get
    two inner tables; each inner table is only ever touched by the one
    domain currently tracing that candidate (the execution engine
    parallelizes across candidates, and strategy attempts are
    sequential), so lookups on the hot path are lock-free. *)
type cache = {
  lock : Mutex.t;
  per_candidate :
    (string, (string, Minilang.Trace.t * int) Hashtbl.t) Hashtbl.t;
}

let cache_create () =
  { lock = Mutex.create (); per_candidate = Hashtbl.create 64 }

let cache_sub cache (c : Repolib.Candidate.t) =
  let key = Repolib.Candidate.key c in
  Mutex.lock cache.lock;
  let sub =
    match Hashtbl.find_opt cache.per_candidate key with
    | Some sub -> sub
    | None ->
      let sub = Hashtbl.create 64 in
      Hashtbl.add cache.per_candidate key sub;
      sub
  in
  Mutex.unlock cache.lock;
  sub

let run_examples_cached ?config ~sub ~runs_counter (c : Repolib.Candidate.t)
    (examples : string list) : Minilang.Trace.t list * int =
  let steps = ref 0 in
  let traces =
    List.map
      (fun e ->
        match Hashtbl.find_opt sub e with
        | Some (trace, steps_used) ->
          Telemetry.incr m_cache_hits;
          steps := !steps + steps_used;
          trace
        | None ->
          let r = Repolib.Driver.run_safe ?config c e in
          Telemetry.incr m_cache_misses;
          Telemetry.incr runs_counter;
          Hashtbl.replace sub e (r.Minilang.Interp.trace, r.Minilang.Interp.steps_used);
          steps := !steps + r.Minilang.Interp.steps_used;
          r.Minilang.Interp.trace)
      examples
  in
  (traces, !steps)

let trace_errored (trace : Minilang.Trace.t) =
  List.exists
    (function Minilang.Trace.Exception _ -> true | _ -> false)
    trace

let trace_candidate ?config ?cache ?(prune = false)
    (c : Repolib.Candidate.t) ~positives ~negatives : traced =
  let run_pos, run_neg =
    match cache with
    | None ->
      ( (fun examples -> run_examples ?config c examples),
        fun examples -> run_examples ?config c examples )
    | Some cache ->
      let sub = cache_sub cache c in
      ( run_examples_cached ?config ~sub ~runs_counter:m_pos_runs c,
        run_examples_cached ?config ~sub ~runs_counter:m_neg_runs c )
  in
  let pos_raw, s1 = run_pos positives in
  (* A candidate that errors on every positive can never cover the
     required fraction of P: skip its negative runs entirely. *)
  let pruned =
    prune && positives <> [] && List.for_all trace_errored pos_raw
  in
  let neg_raw, s2 = if pruned then ([], 0) else run_neg negatives in
  if pruned then Telemetry.incr m_pruned;
  Telemetry.incr m_candidates_traced;
  Telemetry.observe h_steps_per_candidate (float_of_int (s1 + s2));
  { candidate = c; pos_raw; neg_raw; steps = s1 + s2; pruned }

let featurized ?(mode = `All) (t : traced) :
    Feature.Literal_set.t list * Feature.Literal_set.t list =
  ( List.map (Feature.featurize ~mode) t.pos_raw,
    List.map (Feature.featurize ~mode) t.neg_raw )

type ranked = {
  traced : traced;
  dnf : Dnf.result;
  score : float;  (** method-specific score; higher ranks first *)
}

(* DNF-based ranking: CovP primary, CovN as tie-breaker (Section 5.2,
   "Ranking-by-DNF"). *)
let dnf_score (r : Dnf.result) =
  let n_neg = max 1 r.n_neg in
  float_of_int r.cov_p -. (float_of_int r.cov_n /. float_of_int (n_neg + 1))

let rank_one ?(k = 3) ?(theta = 0.3) (method_ : method_) ~query
    (traceds : traced list) : ranked list =
  Telemetry.with_span "ranking.rank_one"
    ~attrs:
      [ ("method", Telemetry.S (method_to_string method_));
        ("candidates", Telemetry.I (List.length traceds)) ]
  @@ fun () ->
  (* Pruned candidates (all positives errored, negatives skipped) get an
     empty DNF: building one from their truncated traces would let an
     exception literal "cover" every positive against zero negatives. *)
  let pruned_ranked (t : traced) =
    let dnf = Dnf.empty_result ~n_pos:(List.length t.pos_raw) ~n_neg:0 in
    { traced = t; dnf; score = dnf_score dnf }
  in
  let with_dnf mode compute =
    List.map
      (fun t ->
        if t.pruned then pruned_ranked t
        else
          let pos, neg = featurized ~mode t in
          let inst = Dnf.make_instance ~positives:pos ~negatives:neg in
          let dnf = compute inst in
          { traced = t; dnf; score = dnf_score dnf })
      traceds
  in
  let ranked =
    match method_ with
    | DNF_S -> with_dnf `All (Dnf.best_k_concise ~k ~theta)
    | DNF_C -> with_dnf `All (Dnf.best_complete ~theta)
    | RET -> with_dnf `Returns_only (Dnf.best_k_concise ~k ~theta)
    | LR ->
      List.map
        (fun t ->
          if t.pruned then { (pruned_ranked t) with score = neg_infinity }
          else
            let pos, neg = featurized ~mode:`All t in
            let model = Lr.train ~positives:pos ~negatives:neg () in
            let score = Lr.separation_score model ~positives:pos ~negatives:neg in
            (* The DNF is still computed so users get an explanation and a
               synthesizable artifact; only the ranking score differs. *)
            let inst = Dnf.make_instance ~positives:pos ~negatives:neg in
            { traced = t; dnf = Dnf.best_k_concise ~k ~theta inst; score })
        traceds
    | KW ->
      (* TF-IDF keyword match over function "documents" (name, enclosing
         repository name/description, file path). *)
      let docs =
        List.map
          (fun t ->
            let c = t.candidate in
            Repolib.Search.tokenize c.Repolib.Candidate.doc_text
            @ Repolib.Search.tokenize c.Repolib.Candidate.file
            @ Repolib.Search.tokenize c.Repolib.Candidate.repo.Repolib.Repo.repo_name
            @ Repolib.Search.tokenize
                c.Repolib.Candidate.repo.Repolib.Repo.description)
          traceds
      in
      let df = Hashtbl.create 64 in
      List.iter
        (fun doc ->
          List.sort_uniq String.compare doc
          |> List.iter (fun tok ->
                 Hashtbl.replace df tok
                   (1 + Option.value ~default:0 (Hashtbl.find_opt df tok))))
        docs;
      let n_docs = List.length docs in
      let qtoks = Repolib.Search.tokenize query in
      List.map2
        (fun t doc ->
          let score =
            List.fold_left
              (fun acc q ->
                let tf = List.length (List.filter (String.equal q) doc) in
                if tf = 0 then acc
                else
                  let dfq = Option.value ~default:0 (Hashtbl.find_opt df q) in
                  acc
                  +. (1.0 +. log (float_of_int tf))
                     *. (log (float_of_int (n_docs + 1) /. float_of_int (dfq + 1))
                        +. 1.0))
              0.0 qtoks
          in
          if t.pruned then { (pruned_ranked t) with score }
          else
            let pos, neg = featurized ~mode:`All t in
            let inst = Dnf.make_instance ~positives:pos ~negatives:neg in
            { traced = t; dnf = Dnf.best_k_concise ~k ~theta inst; score })
        traceds docs
  in
  (* Ties are broken by a deterministic hash of the candidate id, not by
     input (search) order — a tied DNF score genuinely means the method
     cannot distinguish the functions. *)
  let tie_key r =
    Hashtbl.hash (Repolib.Candidate.id r.traced.candidate)
  in
  List.stable_sort
    (fun a b ->
      match compare b.score a.score with
      | 0 -> compare (tie_key a) (tie_key b)
      | c -> c)
    ranked
