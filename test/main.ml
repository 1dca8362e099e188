let () =
  Alcotest.run "iolb"
    [
      ("rat", Test_rat.suite);
      ("polynomial", Test_polynomial.suite);
      ("ratfun", Test_ratfun.suite);
      ("simplex", Test_simplex.suite);
      ("poly-sets", Test_poly.suite);
      ("program", Test_program.suite);
      ("cplan", Test_cplan.suite);
      ("kernel-errors", Test_kernel_errors.suite);
      ("fault-injection", Test_fault_injection.suite);
      ("hourglass", Test_hourglass.suite);
      ("cache", Test_cache.suite);
      ("sweep", Test_sweep.suite);
      ("pebble", Test_pebble.suite);
      ("derive", Test_derive.suite);
      ("baselines", Test_baselines.suite);
      ("bl", Test_bl.suite);
      ("phi", Test_phi.suite);
      ("asymptotic", Test_asymptotic.suite);
      ("report", Test_report.suite);
      ("small-modules", Test_small_modules.suite);
      ("deps", Test_deps.suite);
      ("upper-bounds", Test_upper_bounds.suite);
      ("misc", Test_misc.suite);
      ("parallel", Test_parallel.suite);
      ("serve", Test_serve.suite);
      ("lemma-empirical", Test_lemma_empirical.suite);
      ("check", Test_check.suite);
      ("front", Test_front.suite);
      ("fuzz", Test_fuzz.suite);
    ]
