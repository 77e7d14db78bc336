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
  clone : Repolib.Analyzer.clone;
      (** the candidate's clone class, its key extended by the
          interpreter config it was traced under *)
  examples : string list * string list;
      (** the positives and negatives it was traced on, as passed *)
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
let m_clone_classes = Telemetry.counter "ranking.clone_classes"
let m_clone_members_shared = Telemetry.counter "ranking.clone_members_shared"

(* ------------------------------------------------------------------ *)
(* Clone classes and site renaming                                     *)
(* ------------------------------------------------------------------ *)

(** The candidate's clone class under [config]: runs differ with the
    step budget, so different budgets never share. *)
let clone_under ?(config = Repolib.Driver.default_config) c :
    Repolib.Analyzer.clone =
  let clone = Repolib.Analyzer.clone c in
  {
    clone with
    Repolib.Analyzer.class_key =
      Printf.sprintf "%s %d %d" clone.Repolib.Analyzer.class_key
        config.Minilang.Interp.max_steps config.Minilang.Interp.max_call_depth;
  }

let class_key ?config c = (clone_under ?config c).Repolib.Analyzer.class_key

(* The site renaming that takes one member's closure files to
   another's, position by position; [None] when they are the same. *)
let renaming ~(from : string list) ~(into : string list) =
  if List.equal String.equal from into then None
  else
    let map = List.combine from into in
    (* Sites carry their file name physically shared with the parsed
       program, so [==] nearly always answers. *)
    let rec find file = function
      | [] -> None
      | (f, g) :: rest ->
        if f == file || String.equal f file then Some g else find file rest
    in
    Some
      (fun (s : Minilang.Trace.site) ->
        match find s.s_file map with
        | Some f -> { s with s_file = f }
        | None -> s)

let rename_event site (ev : Minilang.Trace.event) : Minilang.Trace.event =
  match ev with
  | Branch (s, b) -> Branch (site s, b)
  | Return (s, v) -> Return (site s, v)
  | Assign (s, n, v) -> Assign (site s, n, v)
  | Exception _ -> ev

let rename_literal site = function
  | Feature.Branch_is (s, b) -> Feature.Branch_is (site s, b)
  | Feature.Return_is (s, v) -> Feature.Return_is (site s, v)
  | Feature.Raised _ as l -> l

let rename_dnf site (r : Dnf.result) : Dnf.result =
  let lit = rename_literal site in
  let clause = List.map lit in
  {
    r with
    Dnf.clauses = List.map clause r.Dnf.clauses;
    expanded = List.map clause r.Dnf.expanded;
    groups =
      List.map
        (fun (g : Dnf.group) ->
          { g with
            Dnf.representative = lit g.Dnf.representative;
            members = List.map lit g.Dnf.members })
        r.Dnf.groups;
  }

(* ------------------------------------------------------------------ *)
(* Incremental tracing                                                 *)
(* ------------------------------------------------------------------ *)

(* Traces of one class, interned by content: a class's runs repeat a
   few distinct traces, and a member renames each distinct one once. *)
module Trace_tbl = Hashtbl.Make (struct
  type t = Minilang.Trace.t

  let equal t1 t2 = t1 == t2 || List.equal (fun a b -> a == b || a = b) t1 t2

  let hash (t : t) =
    List.fold_left
      (fun h (ev : Minilang.Trace.event) ->
        (h * 31)
        +
        match ev with
        | Branch (s, b) -> (s.s_line * 2) + Bool.to_int b
        | Return (s, _) | Assign (s, _, _) -> s.s_line
        | Exception k -> Hashtbl.hash k)
      0 t
    land max_int
end)

module String_tbl = Hashtbl.Make (String)

type member = {
  site : (Minilang.Trace.site -> Minilang.Trace.site) option;
      (** [None] when it shares the representative's file names *)
  mutable renamed : Minilang.Trace.t option array;
      (** by distinct trace: renamed once asked for *)
}

type run = {
  trace : Minilang.Trace.t;  (** in the representative's file names *)
  distinct : int;  (** which of the class's distinct traces it is *)
  steps : int;
}

type clone_class = {
  rep : Repolib.Candidate.t;
  rep_files : string list;
  runs : run String_tbl.t;  (** by input *)
  distinct : (int * Minilang.Trace.t) Trace_tbl.t;
      (** each distinct trace: its number, and the list all runs share *)
  members : (string, member) Hashtbl.t;  (** by {!Repolib.Candidate.key} *)
}

(** Memo of per-(clone class, input) traces.  The interpreter is
    deterministic, so a (candidate, input) pair always produces the same
    trace and step count, and every member of a clone class produces the
    representative's trace with its sites renamed: positives re-traced
    on every S1→S2→S3 attempt, duplicate negatives, and clones of an
    already-traced function are served from the cache instead of
    re-executing.

    A class holds its representative (the first member traced), whose
    file names the stored traces use, and per other member the renamed
    traces handed out so far.

    Domain safety: the outer per-class table is mutex-guarded; each
    class's inner tables are only ever touched by the one domain
    currently tracing that class (the pipeline parallelizes across
    classes, and strategy attempts are sequential), so lookups on the
    hot path are lock-free. *)
type cache = {
  lock : Mutex.t;
  classes : (string, clone_class) Hashtbl.t;
}

let cache_create () = { lock = Mutex.create (); classes = Hashtbl.create 64 }

let cache_class cache (clone : Repolib.Analyzer.clone) c =
  let key = clone.Repolib.Analyzer.class_key in
  Mutex.lock cache.lock;
  let cls =
    match Hashtbl.find_opt cache.classes key with
    | Some cls -> cls
    | None ->
      let cls =
        { rep = c; rep_files = clone.Repolib.Analyzer.files;
          runs = String_tbl.create 64; distinct = Trace_tbl.create 16;
          members = Hashtbl.create 4 }
      in
      Hashtbl.add cache.classes key cls;
      Telemetry.incr m_clone_classes;
      cls
  in
  Mutex.unlock cache.lock;
  cls

let class_member cls (clone : Repolib.Analyzer.clone) c =
  let key = Repolib.Candidate.key c in
  match Hashtbl.find_opt cls.members key with
  | Some m -> m
  | None ->
    let site = renaming ~from:cls.rep_files ~into:clone.Repolib.Analyzer.files in
    let m = { site; renamed = [||] } in
    Hashtbl.add cls.members key m;
    if key <> Repolib.Candidate.key cls.rep then
      Telemetry.incr m_clone_members_shared;
    m

(* Run the representative on [e] and record the run under its distinct
   trace. *)
let record_run ?config cls e =
  let r = Repolib.Driver.run_safe ?config cls.rep e in
  let distinct, trace =
    let trace = r.Minilang.Interp.trace in
    match Trace_tbl.find_opt cls.distinct trace with
    | Some d -> d
    | None ->
      let d = (Trace_tbl.length cls.distinct, trace) in
      Trace_tbl.add cls.distinct trace d;
      d
  in
  let run = { trace; distinct; steps = r.Minilang.Interp.steps_used } in
  String_tbl.replace cls.runs e run;
  run

let run_examples_cached ?config ~cls ~member ~runs_counter
    (examples : string list) : Minilang.Trace.t list * int =
  let steps = ref 0 in
  let traces =
    List.map
      (fun e ->
        let run =
          match String_tbl.find_opt cls.runs e with
          | Some run ->
            Telemetry.incr m_cache_hits;
            run
          | None ->
            Telemetry.incr m_cache_misses;
            Telemetry.incr runs_counter;
            record_run ?config cls e
        in
        steps := !steps + run.steps;
        match member.site with
        | None -> run.trace
        | Some site ->
          let d = run.distinct in
          if d >= Array.length member.renamed then
            member.renamed <-
              Array.append member.renamed
                (Array.make (d + 1 - Array.length member.renamed) None);
          (match member.renamed.(d) with
           | Some t -> t
           | None ->
             let t = List.map (rename_event site) run.trace in
             member.renamed.(d) <- Some t;
             t))
      examples
  in
  (traces, !steps)

let trace_errored (trace : Minilang.Trace.t) =
  List.exists
    (function Minilang.Trace.Exception _ -> true | _ -> false)
    trace

let trace_candidate ?config ?cache ?(prune = false)
    (c : Repolib.Candidate.t) ~positives ~negatives : traced =
  let clone = clone_under ?config c in
  let run_pos, run_neg =
    match cache with
    | None ->
      ( (fun examples -> run_examples ?config c examples),
        fun examples -> run_examples ?config c examples )
    | Some cache ->
      let cls = cache_class cache clone c in
      let member = class_member cls clone c in
      ( run_examples_cached ?config ~cls ~member ~runs_counter:m_pos_runs,
        run_examples_cached ?config ~cls ~member ~runs_counter:m_neg_runs )
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
  { candidate = c; pos_raw; neg_raw; steps = s1 + s2; pruned; clone;
    examples = (positives, negatives) }

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
  (* A class's runs repeat a few distinct traces (see [record_run]):
     featurize each once per call. *)
  let all = Trace_tbl.create 256 and returns_only = Trace_tbl.create 256 in
  let instance ~mode t =
    let features =
      match mode with `All -> all | `Returns_only -> returns_only
    in
    let featurize trace =
      match Trace_tbl.find_opt features trace with
      | Some lits -> lits
      | None ->
        let lits = Feature.featurize ~mode trace in
        Trace_tbl.add features trace lits;
        lits
    in
    Dnf.make_instance
      ~positives:(List.map featurize t.pos_raw)
      ~negatives:(List.map featurize t.neg_raw)
  in
  (* One featurized cover per clone class.  Two traceds of one class
     traced on the same examples have traces equal up to renaming their
     sites, and the renaming keeps the order of literals (the class key
     fixes how the closure's files sort against each other and against
     "<output>"), so one's greedy cover, renamed, is the other's.  Not
     for DNF-C: it takes its clauses out of a hash table keyed by their
     text, whose order the renaming changes. *)
  let per_class compute rename =
    let memo = Hashtbl.create 64 in
    fun (t : traced) ->
      let key = t.clone.Repolib.Analyzer.class_key in
      let same (t0, _) =
        fst t0.examples == fst t.examples && snd t0.examples == snd t.examples
      in
      match List.find_opt same (Hashtbl.find_all memo key) with
      | Some (t0, r) ->
        (match
           renaming ~from:t0.clone.Repolib.Analyzer.files
             ~into:t.clone.Repolib.Analyzer.files
         with
         | None -> r
         | Some site -> rename site r)
      | None ->
        let r = compute t in
        Hashtbl.add memo key (t, r);
        r
  in
  let cover mode compute =
    per_class (fun t -> compute (instance ~mode t)) rename_dnf
  in
  let with_dnf dnf_of =
    List.map
      (fun t ->
        if t.pruned then pruned_ranked t
        else
          let dnf = dnf_of t in
          { traced = t; dnf; score = dnf_score dnf })
      traceds
  in
  let ranked =
    match method_ with
    | DNF_S -> with_dnf (cover `All (Dnf.best_k_concise ~k ~theta))
    | DNF_C -> with_dnf (fun t -> Dnf.best_complete ~theta (instance ~mode:`All t))
    | RET -> with_dnf (cover `Returns_only (Dnf.best_k_concise ~k ~theta))
    | LR ->
      let lr =
        per_class
          (fun t ->
            let pos, neg = featurized ~mode:`All t in
            let model = Lr.train ~positives:pos ~negatives:neg () in
            let score = Lr.separation_score model ~positives:pos ~negatives:neg in
            (* The DNF is still computed so users get an explanation and a
               synthesizable artifact; only the ranking score differs. *)
            let inst = Dnf.make_instance ~positives:pos ~negatives:neg in
            (Dnf.best_k_concise ~k ~theta inst, score))
          (fun site (dnf, score) -> (rename_dnf site dnf, score))
      in
      List.map
        (fun t ->
          if t.pruned then { (pruned_ranked t) with score = neg_infinity }
          else
            let dnf, score = lr t in
            { traced = t; dnf; score })
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
      let dnf_of = cover `All (Dnf.best_k_concise ~k ~theta) in
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
          else { traced = t; dnf = dnf_of t; score })
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
