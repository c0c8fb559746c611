let () =
  Alcotest.run "hash_retiming"
    [
      ("logic", Test_logic.suite);
      ("term_props", Test_term_props.suite);
      ("intern", Test_intern.suite);
      ("automata", Test_automata.suite);
      ("netlist", Test_netlist.suite);
      ("obs_json", Test_obs_json.suite);
      ("fingerprint", Test_fingerprint.suite);
      ("bdd", Test_bdd.suite);
      ("retiming", Test_retiming.suite);
      ("engines", Test_engines.suite);
      ("hash", Test_hash.suite);
      ("circuits", Test_circuits.suite);
      ("faults", Test_faults.suite);
      ("parallel", Test_parallel.suite);
      ("serve", Test_serve.suite);
      ("cert", Test_cert.suite);
      ("lint", Test_lint.suite);
    ]
