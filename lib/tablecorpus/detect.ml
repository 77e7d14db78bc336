(** Column-type detection over the web-table corpus (Section 9):
    DNF-S (synthesized top-1 function, 80% value threshold), KW (header
    keyword match) and REGEX (Potter's-Wheel inferred pattern, 80%
    threshold). *)

type method_ = DNF_S | KW | REGEX

let method_to_string = function
  | DNF_S -> "DNF-S"
  | KW -> "KW"
  | REGEX -> "REGEX"

let all_methods = [ DNF_S; KW; REGEX ]

(* Header keywords per type for the KW baseline ("we choose a number of
   search keywords for each type, e.g. url and website for type url"). *)
let header_keywords =
  [ ("datetime", [ "date"; "time"; "published"; "updated" ]);
    ("address", [ "address"; "location" ]);
    ("country-code", [ "country"; "nation" ]);
    ("phone", [ "phone"; "telephone"; "mobile"; "fax" ]);
    ("currency", [ "price"; "cost"; "amount" ]);
    ("email", [ "email"; "e-mail"; "mail" ]);
    ("us-zipcode", [ "zip"; "zipcode"; "postal" ]);
    ("url", [ "url"; "website"; "link"; "homepage" ]);
    ("ipv4", [ "ip"; "ip address" ]);
    ("isbn", [ "isbn" ]);
    ("upc", [ "upc" ]);
    ("ean", [ "ean" ]);
    ("isin", [ "isin" ]);
    ("issn", [ "issn" ]);
    ("credit-card", [ "card"; "cc number" ]);
    ("ipv6", [ "ipv6" ]);
    ("iban", [ "iban" ]);
    ("vin", [ "vin" ]);
    ("stock-ticker", [ "ticker"; "symbol" ]);
    ("airport-code", [ "airport" ]) ]

(* Single-sourced from the synthesis layer (a test pins the two
   together) and applied only by [column_verdict]. *)
let detection_threshold = Autotype_core.Synthesis.default_detection_threshold

(** A per-type detector, built once and applied to every column. *)
type detector = {
  type_id : string;
  accepts : string -> bool;  (** value-level predicate *)
  usable : bool;  (** REGEX inference can fail on heterogeneous input *)
}

let m_detectors_built = Telemetry.counter "detect.detectors_built"
let m_fastpath_hits = Telemetry.counter "serve.fastpath_hits"
let m_fastpath_fallbacks = Telemetry.counter "serve.fastpath_fallbacks"
let m_columns_scanned = Telemetry.counter "detect.columns_scanned"
let m_columns_detected = Telemetry.counter "detect.columns_detected"
let m_models_served = Telemetry.counter "detect.models_served"
let m_deadline_hits = Telemetry.counter "serve.deadline_hits"
let m_degraded = Telemetry.counter "serve.degraded"
let h_column_latency = Telemetry.histogram "serve.column_latency_ms"

(* ------------------------------------------------------------------ *)
(* The serve route                                                     *)
(* ------------------------------------------------------------------ *)

type budgets = {
  value_budget_ms : float option;
  batch_deadline : Exec.Deadline.t option;
}

let no_budgets = { value_budget_ms = None; batch_deadline = None }

let budgets ?value_budget_ms ?deadline_ms () =
  {
    value_budget_ms;
    batch_deadline = Option.map Exec.Deadline.after_ms deadline_ms;
  }

type model =
  | Loaded of Model.Registry.entry
  | Synthesized of Autotype_core.Synthesis.t

type value_verdict = V_valid | V_invalid | V_deadline | V_skipped

let value_verdict_to_string = function
  | V_valid -> "VALID"
  | V_invalid -> "invalid"
  | V_deadline -> "DEADLINE"
  | V_skipped -> "SKIPPED"

(* Values longer than this take the VM route even when a compiled tree
   exists: the tree is proven equivalent at any length, but capping it
   bounds the cost of a single regexlite guard on adversarially long
   values and gives the fallback telemetry a stable meaning. *)
let fastpath_max_len = 4096

(* The VM route: run the validator under the tighter of the value's own
   budget and the batch deadline. *)
let run_vm budgets syn v =
  let deadline_ns =
    Option.map Exec.Deadline.to_ns
      (Exec.Deadline.min_opt
         (Option.map Exec.Deadline.after_ms budgets.value_budget_ms)
         budgets.batch_deadline)
  in
  match Autotype_core.Synthesis.validate_v ?deadline_ns syn v with
  | Autotype_core.Synthesis.Valid -> V_valid
  | Autotype_core.Synthesis.Invalid -> V_invalid
  | Autotype_core.Synthesis.Deadline ->
    Telemetry.incr m_deadline_hits;
    V_deadline

(* One value: the compiled tree when the model has one and the value
   fits, under any budget — the tree has no loops, so its cost is
   bounded by the value's length — otherwise the VM. *)
let serve_value budgets model v =
  match model with
  | Synthesized syn | Loaded { synthesis = syn; tree = None; _ } ->
    run_vm budgets syn v
  | Loaded { synthesis; tree = Some tree; artifact } ->
    if String.length v <= fastpath_max_len then begin
      Telemetry.incr m_fastpath_hits;
      if Absint.Domain.eval_prepared tree v then V_valid else V_invalid
    end
    else begin
      Telemetry.incr m_fastpath_fallbacks;
      Telemetry.Flight.record ~kind:"fastpath_fallback"
        ~value:(float_of_int (String.length v))
        (Model.Artifact.key artifact);
      run_vm budgets synthesis v
    end

let serve ?(budgets = no_budgets) model values =
  let[@tail_mod_cons] rec go seen = function
    | [] -> []
    | v :: rest as tail ->
      (match budgets.batch_deadline with
       | Some d when Exec.Deadline.expired d ->
         Telemetry.incr m_degraded;
         Telemetry.Flight.record ~kind:"degraded" ~value:(float_of_int seen)
           "serve.column";
         Telemetry.Flight.trigger ~reason:"degraded";
         List.map (fun _ -> V_skipped) tail
       | _ ->
         (* Bound before the cons: values must run in order, because the
            batch deadline is checked between them. *)
         let verdict = serve_value budgets model v in
         verdict :: go (seen + 1) rest)
  in
  if Telemetry.enabled () then begin
    let t_start = Telemetry.now_ns () in
    let verdicts = go 0 values in
    Telemetry.observe h_column_latency
      (Int64.to_float (Int64.sub (Telemetry.now_ns ()) t_start) /. 1e6);
    verdicts
  end
  else go 0 values

type column_verdict =
  | Column_match of float
  | Column_no_match of float
  | Column_degraded of { seen : int; accepted : int; total : int }

(** The Section 9.1 column rule, and the only place it is applied. *)
let column_verdict verdicts =
  let rec tally seen accepted = function
    | [] -> (seen, accepted)
    | V_valid :: rest -> tally (seen + 1) (accepted + 1) rest
    | (V_invalid | V_deadline) :: rest -> tally (seen + 1) accepted rest
    | V_skipped :: rest -> tally seen accepted rest
  in
  let seen, accepted = tally 0 0 verdicts in
  let total = List.length verdicts in
  Telemetry.incr m_columns_scanned;
  if seen < total then Column_degraded { seen; accepted; total }
  else
    let frac =
      if total = 0 then 0.0 else float_of_int accepted /. float_of_int total
    in
    if frac > detection_threshold then begin
      Telemetry.incr m_columns_detected;
      Column_match frac
    end
    else Column_no_match frac

let serve_column ?budgets syn values =
  column_verdict (serve ?budgets (Synthesized syn) values)

(** Wrap a registry-served model as a detector — the warm serving path:
    no search, no analysis, no negative generation; each value goes
    through the serve route, compiled tree first. *)
let serve_detector (entry : Model.Registry.entry) : detector =
  Telemetry.incr m_models_served;
  let model = Loaded entry in
  {
    type_id = Model.Artifact.key entry.Model.Registry.artifact;
    accepts = (fun v -> serve_value no_budgets model v = V_valid);
    usable = true;
  }

(** Synthesize the top-1 validator for a type from 20 seeded positives
    (the DNF-S method's live detector); [None] when nothing was
    synthesized. *)
let synthesize ?(seed = 11) ?pool (ty : Semtypes.Registry.t) =
  Telemetry.with_span "detect.synthesize"
    ~attrs:[ ("type", Telemetry.S ty.Semtypes.Registry.id) ]
  @@ fun () ->
  Telemetry.incr m_detectors_built;
  let positives = Semtypes.Registry.positive_examples ~n:20 ~seed ty in
  let outcome =
    Autotype_core.Pipeline.synthesize ?pool ~index:(Corpus.search_index ())
      ~query:ty.Semtypes.Registry.name ~positives ()
  in
  let best = Autotype_core.Pipeline.best outcome in
  if Option.is_none best then Telemetry.add_attr "usable" (Telemetry.B false);
  best

(** The DNF-S detector for a type: its top-1 synthesized function. *)
let dnf_detector ?(seed = 11) (ty : Semtypes.Registry.t) : detector =
  let type_id = ty.Semtypes.Registry.id in
  match synthesize ~seed ty with
  | Some syn ->
    { type_id; accepts = Autotype_core.Synthesis.validate syn; usable = true }
  | None -> { type_id; accepts = (fun _ -> false); usable = false }

(** REGEX detector: Potter's-Wheel inference from the same positives. *)
let regex_detector ?(seed = 11) (ty : Semtypes.Registry.t) : detector =
  Telemetry.with_span "detect.regex_infer"
    ~attrs:[ ("type", Telemetry.S ty.Semtypes.Registry.id) ]
  @@ fun () ->
  Telemetry.incr m_detectors_built;
  let positives = Semtypes.Registry.positive_examples ~n:20 ~seed ty in
  match Regex_infer.infer positives with
  | Some pattern ->
    {
      type_id = ty.Semtypes.Registry.id;
      accepts = Regex_infer.matches pattern;
      usable = true;
    }
  | None ->
    Telemetry.add_attr "usable" (Telemetry.B false);
    { type_id = ty.Semtypes.Registry.id; accepts = (fun _ -> false);
      usable = false }

let header_matches type_id (header : string option) =
  match header with
  | None -> false
  | Some h ->
    let h = String.lowercase_ascii h in
    let keywords =
      Option.value (List.assoc_opt type_id header_keywords) ~default:[]
    in
    List.exists
      (fun kw ->
        let kl = String.length kw and hl = String.length h in
        kl <= hl
        &&
        let rec go i =
          i + kl <= hl && (String.sub h i kl = kw || go (i + 1))
        in
        go 0)
      keywords

(** Detect columns of [type_id] with a value-level detector; each
    column is decided by {!column_verdict}. *)
let detect_with_values (det : detector) (columns : Webtables.column list) :
    Webtables.column list =
  if not det.usable then []
  else
    List.filter
      (fun (c : Webtables.column) ->
        match
          column_verdict
            (List.map
               (fun v -> if det.accepts v then V_valid else V_invalid)
               c.Webtables.values)
        with
        | Column_match _ -> true
        | Column_no_match _ | Column_degraded _ -> false)
      columns

let detect_with_headers type_id (columns : Webtables.column list) :
    Webtables.column list =
  List.filter
    (fun (c : Webtables.column) -> header_matches type_id c.Webtables.header)
    columns

(** Score detected columns against column truth. *)
let score type_id ~(detected : Webtables.column list)
    ~(columns : Webtables.column list) : Eval.Metrics.prf =
  let is_truth (c : Webtables.column) = c.Webtables.truth = Some type_id in
  let tp = List.length (List.filter is_truth detected) in
  let fp = List.length detected - tp in
  let fn =
    List.length (List.filter is_truth columns)
    - tp
  in
  { Eval.Metrics.tp; fp; fn }

type per_type_result = {
  type_id : string;
  method_ : method_;
  detected : int;
  true_positives : int;
  precision : float;
  relative_recall : float;  (** filled in after pooling *)
  f1 : float;
}

(** Run all three methods on all 20 popular types over a column corpus.
    Relative recall per type uses the union of correct columns found by
    the three methods as ground truth (Section 9.1). *)
let run ?(seed = 11) (columns : Webtables.column list) :
    per_type_result list =
  Telemetry.with_span "detect.run"
    ~attrs:[ ("columns", Telemetry.I (List.length columns)) ]
  @@ fun () ->
  let popular = Semtypes.Registry.popular in
  List.concat_map
    (fun (ty : Semtypes.Registry.t) ->
      let type_id = ty.Semtypes.Registry.id in
      let dnf = dnf_detector ~seed ty in
      let regex = regex_detector ~seed ty in
      let detections =
        [ (DNF_S, detect_with_values dnf columns);
          (KW, detect_with_headers type_id columns);
          (REGEX, detect_with_values regex columns) ]
      in
      (* Pool of correct columns across methods (relative recall). *)
      let correct (cols : Webtables.column list) =
        List.filter (fun c -> c.Webtables.truth = Some type_id) cols
      in
      let pool =
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (_, cols) ->
            List.iter
              (fun (c : Webtables.column) -> Hashtbl.replace tbl c ())
              (correct cols))
          detections;
        Hashtbl.length tbl
      in
      List.map
        (fun (m, detected) ->
          let prf = score type_id ~detected ~columns in
          let tp = prf.Eval.Metrics.tp in
          let rr =
            if pool = 0 then 0.0 else float_of_int tp /. float_of_int pool
          in
          let p = Eval.Metrics.precision prf in
          let f1 =
            if p +. rr = 0.0 then 0.0 else 2.0 *. p *. rr /. (p +. rr)
          in
          {
            type_id;
            method_ = m;
            detected = List.length detected;
            true_positives = tp;
            precision = p;
            relative_recall = rr;
            f1;
          })
        detections)
    popular
