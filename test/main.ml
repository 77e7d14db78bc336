let () =
  Alcotest.run "autotype"
    [ ("minilang", Test_minilang.suite);
      ("faults", Test_faults.suite);
      ("regexlite", Test_regexlite.suite);
      ("semtypes", Test_semtypes.suite);
      ("core", Test_core.suite);
      ("repolib", Test_repolib.suite);
      ("staticcheck", Test_staticcheck.suite);
      ("corpus", Test_corpus.suite);
      ("pipeline", Test_pipeline.suite);
      ("eval", Test_eval.suite);
      ("transform", Test_transform.suite);
      ("tablecorpus", Test_tablecorpus.suite);
      ("telemetry", Test_telemetry.suite);
      ("exec", Test_exec.suite);
      ("model", Test_model.suite);
      ("serve", Test_serve.suite);
      ("absint", Test_absint.suite);
      ("absint_fuzz", Test_absint_fuzz.suite);
      ("fuzz", Test_fuzz.suite);
      ("vm", Test_vm.suite) ]
