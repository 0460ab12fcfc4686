let () =
  Alcotest.run "selfstab"
    [
      ("prng", Suite_prng.suite);
      ("geom", Suite_geom.suite);
      ("stats", Suite_stats.suite);
      ("topology", Suite_topology.suite);
      ("density", Suite_density.suite);
      ("order", Suite_order.suite);
      ("dag-id", Suite_dag_id.suite);
      ("assignment", Suite_assignment.suite);
      ("algorithm", Suite_algorithm.suite);
      ("metrics", Suite_metrics.suite);
      ("maxmin", Suite_maxmin.suite);
      ("engine", Suite_engine.suite);
      ("flat", Suite_flat.suite);
      ("stabilization", Suite_stabilization.suite);
      ("adversary", Suite_adversary.suite);
      ("replay", Suite_replay.suite);
      ("traffic", Suite_traffic.suite);
      ("monitor", Suite_monitor.suite);
      ("churn", Suite_churn.suite);
      ("mobility", Suite_mobility.suite);
      ("motion", Suite_motion.suite);
      ("distributed", Suite_distributed.suite);
      ("energy", Suite_energy.suite);
      ("hierarchy", Suite_hierarchy.suite);
      ("viz", Suite_viz.suite);
      ("experiments", Suite_experiments.suite);
      ("parallel", Suite_parallel.suite);
      ("theory", Suite_theory.suite);
      ("regression", Suite_regression.suite);
      ("paper-example", Suite_paper_example.suite);
      ("cli", Suite_cli.suite);
    ]
