(** Example: column-type detection over web tables (Section 9 / Figure 1).

    Generates a small synthetic web-table corpus, synthesizes detectors
    for a few types, and annotates the columns — including the
    "cryptic" checksummed columns of Figure 1 that only algorithmic
    validation can identify.

    Run with:  dune exec examples/webtables.exe *)

let target_types = [ "credit-card"; "isbn"; "ipv4"; "datetime"; "phone" ]

let () =
  print_endline "AutoType web-table column annotation";
  print_endline "------------------------------------";
  (* The sales-transactions table of Figure 1, without headers. *)
  let rng = Semtypes.Generators.make_rng 2018 in
  let figure1_columns =
    [
      List.init 6 (fun _ -> Semtypes.Generators.person_name rng);
      List.init 6 (fun _ -> Semtypes.Generators.phone_us rng);
      List.init 6 (fun _ -> Semtypes.Generators.mailing_address rng);
      List.init 6 (fun _ -> Semtypes.Generators.datetime rng);
      List.init 6 (fun _ -> Semtypes.Generators.ipv4 rng);
      List.init 6 (fun _ -> Semtypes.Generators.credit_card rng);
      List.init 6 (fun _ -> Semtypes.Generators.isbn13 rng);
    ]
  in
  print_endline "building detectors (search + synthesis per type)...";
  let models =
    List.filter_map
      (fun type_id ->
        Option.map
          (fun syn -> (type_id, Tablecorpus.Detect.Synthesized syn))
          (Tablecorpus.Detect.synthesize (Semtypes.Registry.find_exn type_id)))
      target_types
  in
  List.iteri
    (fun i values ->
      let verdicts =
        List.filter_map
          (fun (type_id, model) ->
            match
              Tablecorpus.Detect.column_verdict
                (Tablecorpus.Detect.serve model values)
            with
            | Tablecorpus.Detect.Column_match _ -> Some type_id
            | _ -> None)
          models
      in
      Printf.printf "column %d  (e.g. %-28s) -> %s\n" (i + 1)
        (String.concat "" [ "\""; List.hd values; "\"" ])
        (match verdicts with
         | [] -> "no rich type detected"
         | ts -> String.concat ", " ts))
    figure1_columns;
  print_newline ();
  (* A small corpus run with precision/recall per method. *)
  print_endline "small corpus run (800 columns):";
  let columns =
    Tablecorpus.Webtables.generate
      ~config:{ Tablecorpus.Webtables.default_config with n_columns = 800 }
      ()
  in
  let results = Tablecorpus.Detect.run columns in
  List.iter
    (fun (r : Tablecorpus.Detect.per_type_result) ->
      if r.Tablecorpus.Detect.true_positives > 0 then
        Printf.printf "%-14s %-6s detected=%3d  precision=%.2f  recall=%.2f\n"
          r.Tablecorpus.Detect.type_id
          (Tablecorpus.Detect.method_to_string r.Tablecorpus.Detect.method_)
          r.Tablecorpus.Detect.detected r.Tablecorpus.Detect.precision
          r.Tablecorpus.Detect.relative_recall)
    (List.filter
       (fun (r : Tablecorpus.Detect.per_type_result) ->
         List.mem r.Tablecorpus.Detect.type_id
           [ "datetime"; "address"; "email"; "ipv4"; "isbn" ])
       results)
