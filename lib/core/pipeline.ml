(** The end-to-end AutoType pipeline (Figure 6):

    keyword + positive examples
      → code search (Section 4.1)
      → candidate-function analysis (Section 4.2)
      → dynamic negative generation, trying S1 then S2 then S3
        (Section 6, Algorithm 2)
      → Best-k-Concise-DNF-Cover ranking (Section 5.2)
      → synthesized validation functions (Section 5.3). *)

type config = {
  k : int;  (** clause-length cap (k-conciseness); paper uses 3 *)
  theta : float;  (** negative-coverage budget; paper uses 0.3 *)
  top_repos : int;  (** repositories fetched per engine; paper uses 40 *)
  neg_per_positive : int;
  mutation_p : float;
  found_fraction : float;
      (** minimum fraction of P a DNF must cover for the function to
          count as "found" in Algorithm 2's non-empty test *)
  seed : int;
  staticcheck : bool;
      (** prune statically-unrankable candidates before tracing and
          apply static step-budget hints (lib/staticcheck); the ranked
          output is unchanged — the pruned candidates trace identically
          on every input, so they can never rank *)
}

let default_config =
  {
    k = 3;
    theta = 0.3;
    top_repos = 40;
    neg_per_positive = 8;
    mutation_p = 0.25;
    found_fraction = 0.85;
    seed = 17;
    staticcheck = true;
  }

type outcome = {
  query : string;
  positives : string list;
  strategy_used : Negative.strategy option;
      (** which mutation level finally produced informative negatives *)
  negatives : string list;
  ranked : Ranking.ranked list;  (** DNF-S order *)
  traceds : Ranking.traced list;
      (** raw traces of every candidate against the final negative set;
          reusable by other ranking methods without re-execution *)
  candidates_tried : int;
  repos_searched : int;
}

let m_runs = Telemetry.counter "pipeline.runs"
let m_candidates_probed = Telemetry.counter "pipeline.candidates_probed"
let m_candidates_kept = Telemetry.counter "pipeline.candidates_kept"
let m_candidates_rejected = Telemetry.counter "pipeline.candidates_rejected"
let m_strategy_attempts = Telemetry.counter "pipeline.strategy_attempts"
let m_static_pruned = Telemetry.counter "staticcheck.pruned"
let m_static_diags = Telemetry.counter "staticcheck.diagnostics"

(** Search + static analysis + executability probing: everything up to
    (but excluding) example-driven ranking. *)
let gather_candidates ~(index : Repolib.Search.index) ~(config : config)
    ~query ~probe () : Repolib.Candidate.t list * int =
  let repos =
    Telemetry.with_span "pipeline.search" (fun () ->
        let repos = Repolib.Search.search index ~k:config.top_repos query in
        Telemetry.add_attr "repos" (Telemetry.I (List.length repos));
        repos)
  in
  let raw =
    Telemetry.with_span "pipeline.analyze" (fun () ->
        let cs = List.concat_map Repolib.Analyzer.candidates_of_repo repos in
        Telemetry.add_attr "candidates" (Telemetry.I (List.length cs));
        cs)
  in
  let raw =
    if not config.staticcheck then raw
    else
      Telemetry.with_span "pipeline.staticcheck" (fun () ->
          (* Input-flow pruning: drop candidates whose trace provably
             cannot depend on the input.  Sound (over-approximate), so
             the ranked output is unchanged — see DESIGN.md §8. *)
          let kept =
            List.filter
              (fun c -> (Repolib.Analyzer.verdict c).Repolib.Analyzer.rankable)
              raw
          in
          let pruned = List.length raw - List.length kept in
          let diags =
            List.fold_left
              (fun n repo ->
                n + List.length (Repolib.Analyzer.repo_diagnostics repo))
              0 repos
          in
          Telemetry.incr ~by:pruned m_static_pruned;
          Telemetry.incr ~by:diags m_static_diags;
          Telemetry.add_attr "pruned" (Telemetry.I pruned);
          Telemetry.add_attr "diagnostics" (Telemetry.I diags);
          kept)
  in
  let candidates =
    Telemetry.with_span "pipeline.probe" (fun () ->
        let kept =
          List.filter (fun c -> Repolib.Driver.executable c ~probe) raw
        in
        Telemetry.add_attr "kept" (Telemetry.I (List.length kept));
        Telemetry.add_attr "rejected"
          (Telemetry.I (List.length raw - List.length kept));
        kept)
  in
  Telemetry.incr ~by:(List.length raw) m_candidates_probed;
  Telemetry.incr ~by:(List.length candidates) m_candidates_kept;
  Telemetry.incr
    ~by:(List.length raw - List.length candidates)
    m_candidates_rejected;
  (candidates, List.length repos)

let found_enough config (dnf : Dnf.result) =
  dnf.Dnf.clauses <> []
  && float_of_int dnf.Dnf.cov_p
     >= config.found_fraction *. float_of_int (max 1 dnf.Dnf.n_pos)

(** Run the full pipeline.  [negatives_override] forces a fixed negative
    set (used by the Figure 10(c) ablations); otherwise Algorithm 2's
    S1→S2→S3 escalation is applied.

    [pool] traces clone classes in parallel on the execution engine's
    domains — the output is identical to the sequential run because
    [Exec.Pool.parallel_map] is order-preserving and classes share no
    state.  [cache] is the per-(clone class, input) trace memo; a fresh
    one is created per call unless the caller threads its own. *)
let synthesize ?(config = default_config) ?negatives_override ?pool ?cache
    ~(index : Repolib.Search.index) ~query ~(positives : string list) () :
    outcome =
  Telemetry.with_span "pipeline.synthesize"
    ~attrs:
      [ ("query", Telemetry.S query);
        ("positives", Telemetry.I (List.length positives)) ]
  @@ fun () ->
  Telemetry.incr m_runs;
  match positives with
  | [] ->
    { query; positives; strategy_used = None; negatives = []; ranked = [];
      traceds = []; candidates_tried = 0; repos_searched = 0 }
  | probe :: _ ->
    let candidates, repos_searched =
      gather_candidates ~index ~config ~query ~probe ()
    in
    let generate_with strategy =
      Telemetry.with_span "pipeline.negatives"
        ~attrs:
          [ ("strategy", Telemetry.S (Negative.strategy_to_string strategy)) ]
        (fun () ->
          let negatives =
            Negative.generate ~per_positive:config.neg_per_positive
              ~p:config.mutation_p ~seed:config.seed strategy positives
          in
          Telemetry.add_attr "negatives" (Telemetry.I (List.length negatives));
          negatives)
    in
    let cache =
      match cache with Some c -> c | None -> Ranking.cache_create ()
    in
    let jobs = match pool with None -> 1 | Some p -> Exec.Pool.jobs p in
    let trace_with negatives =
      (* Longest input either example set will feed the candidate:
         instantiates the absint [a·len + b] termination bound into a
         concrete step budget valid for every run below. *)
      let input_len =
        List.fold_left
          (fun acc s -> max acc (String.length s))
          0 (positives @ negatives)
      in
      Telemetry.with_span "pipeline.trace"
        ~attrs:
          [ ("candidates", Telemetry.I (List.length candidates));
            ("jobs", Telemetry.I jobs) ]
        (fun () ->
          (* Static step-budget hints shrink max_steps for proven spin
             loops; Hit_limit emits no trace event, so traces (and the
             cache keyed on them) are unaffected. *)
          let planned =
            List.mapi
              (fun i c ->
                let iconfig =
                  if config.staticcheck then
                    Repolib.Driver.config_for ~input_len c
                  else Repolib.Driver.default_config
                in
                (i, c, iconfig))
              candidates
          in
          (* One task per clone class: members share the class's inner
             cache tables, which only the domain tracing the class
             touches.  Members trace in candidate order inside the task,
             and the results go back into candidate order. *)
          let classes = Hashtbl.create 64 and order = ref [] in
          List.iter
            (fun ((_, c, iconfig) as m) ->
              let key = Ranking.class_key ~config:iconfig c in
              match Hashtbl.find_opt classes key with
              | Some ms -> Hashtbl.replace classes key (m :: ms)
              | None ->
                Hashtbl.add classes key [ m ];
                order := key :: !order)
            planned;
          let tasks =
            List.rev_map (fun key -> List.rev (Hashtbl.find classes key)) !order
          in
          let traced = Array.make (List.length candidates) None in
          Exec.map ?pool
            (List.map (fun (i, c, iconfig) ->
                 ( i,
                   Ranking.trace_candidate ~config:iconfig ~cache ~prune:true c
                     ~positives ~negatives )))
            tasks
          |> List.iter (List.iter (fun (i, t) -> traced.(i) <- Some t));
          Array.to_list (Array.map Option.get traced))
    in
    let rank traceds =
      Telemetry.with_span "pipeline.rank" (fun () ->
          Ranking.rank_one ~k:config.k ~theta:config.theta Ranking.DNF_S
            ~query traceds)
    in
    let finish strategy_used negatives traceds ranked =
      (match strategy_used with
       | Some s ->
         Telemetry.add_attr "strategy"
           (Telemetry.S (Negative.strategy_to_string s))
       | None -> ());
      Telemetry.add_attr "ranked" (Telemetry.I (List.length ranked));
      {
        query;
        positives;
        strategy_used;
        negatives;
        ranked;
        traceds;
        candidates_tried = List.length candidates;
        repos_searched;
      }
    in
    (match negatives_override with
     | Some negatives ->
       let traceds = trace_with negatives in
       finish None negatives traceds (rank traceds)
     | None ->
       (* Algorithm 2: escalate S1 → S2 → S3 until some function can
          tell P and N apart. *)
       let rec try_strategies last = function
         | [] ->
           (* No strategy produced informative negatives; report the
              last attempt (S3) with whatever ranking it gave.  The
              attempt already did this exact work — generation and
              tracing are deterministic — so reuse it instead of
              regenerating and re-tracing every candidate. *)
           (match last with
            | Some (negatives, traceds, ranked) ->
              finish None negatives traceds ranked
            | None ->
              (* Unreachable with the S1→S2→S3 list below; kept for an
                 empty strategy list. *)
              let negatives = generate_with Negative.S3 in
              let traceds = trace_with negatives in
              finish None negatives traceds (rank traceds))
         | s :: rest ->
           Telemetry.incr m_strategy_attempts;
           let negatives, traceds, ranked, informative =
             Telemetry.with_span "pipeline.attempt"
               ~attrs:
                 [ ("strategy",
                    Telemetry.S (Negative.strategy_to_string s)) ]
               (fun () ->
                 let negatives = generate_with s in
                 let traceds = trace_with negatives in
                 let ranked = rank traceds in
                 let informative =
                   List.exists
                     (fun r -> found_enough config r.Ranking.dnf)
                     ranked
                 in
                 Telemetry.add_attr "informative" (Telemetry.B informative);
                 (negatives, traceds, ranked, informative))
           in
           if informative then
             finish (Some s) negatives traceds
               (List.filter
                  (fun r -> found_enough config r.Ranking.dnf)
                  ranked)
           else try_strategies (Some (negatives, traceds, ranked)) rest
       in
       try_strategies None [ Negative.S1; Negative.S2; Negative.S3 ])

(** Compile exit point (the compile half of the compile/serve split):
    run the pipeline once and package everything a persistent model
    artifact needs — the outcome plus the exact configuration it ran
    under.  The artifact writer (lib/model) consumes this; serving then
    replays none of the stages above. *)
type compiled = {
  c_outcome : outcome;
  c_config : config;
}

let compile ?(config = default_config) ?negatives_override ?pool ?cache
    ~(index : Repolib.Search.index) ~query ~(positives : string list) () :
    compiled =
  Telemetry.with_span "pipeline.compile"
    ~attrs:[ ("query", Telemetry.S query) ]
  @@ fun () ->
  let c_outcome =
    synthesize ~config ?negatives_override ?pool ?cache ~index ~query
      ~positives ()
  in
  { c_outcome; c_config = config }

(** Top-ranked synthesized validation function, if any. *)
let best (o : outcome) : Synthesis.t option =
  match o.ranked with
  | [] -> None
  | r :: _ -> Some (Synthesis.make r.Ranking.traced.Ranking.candidate r.Ranking.dnf)
