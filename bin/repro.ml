(* Command-line driver: one subcommand per paper table/figure plus the
   extension experiments. `repro all` regenerates everything; every tabular
   subcommand takes `--csv` to emit machine-readable output instead of the
   boxed table. *)

open Cmdliner
module E = Ss_experiments
module Table = Ss_stats.Table

let seed_arg =
  let doc = "Base PRNG seed; every run derives an independent sub-stream." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Counts that must be at least one: 0 or a negative value is a usage
   error (exit 124 with a message), not a crash deep inside a sweep. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Finite floats restricted to the range [ok] accepts, rejected the same
   way: a usage error naming the option, not an exception from a sweep. *)
let checked_float ~docv ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && ok x -> Ok x
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv ~docv (parse, Arg.conv_printer Arg.float)

let positive_float =
  checked_float ~docv:"LAMBDA" ~expected:"a positive number" (fun x ->
      x > 0.0)

let runs_arg default =
  let doc = "Number of independent runs to average over (at least 1)." in
  Arg.(value & opt positive_int default & info [ "runs" ] ~docv:"RUNS" ~doc)

let jobs_arg =
  let doc =
    "Number of domains executing runs in parallel. Every run draws from its \
     own positional PRNG sub-stream and results are collected in run order, \
     so the output is bit-identical for every value of $(docv)."
  in
  let env = Cmd.Env.info "REPRO_JOBS" ~doc:"Default for $(b,--jobs)." in
  Arg.(value & opt positive_int 1 & info [ "jobs"; "j" ] ~env ~docv:"N" ~doc)

let intensity_arg =
  let doc = "Poisson intensity (expected node count in the unit square)." in
  Arg.(
    value & opt positive_float 1000.0
    & info [ "intensity" ] ~docv:"LAMBDA" ~doc)

let csv_arg =
  let doc = "Emit CSV instead of a boxed table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let cell_arg =
  let doc =
    "Replay mode (with $(b,--run)): re-execute exactly one sweep cell/run \
     pair instead of the sweep — the command printed in the table's replay \
     column — and exit non-zero iff the run is (still) anomalous."
  in
  Arg.(value & opt (some int) None & info [ "cell" ] ~docv:"CELL" ~doc)

let run_index_arg =
  let doc = "Replay mode (with $(b,--cell)): the run index to re-execute." in
  Arg.(value & opt (some int) None & info [ "run" ] ~docv:"RUN" ~doc)

(* Replay-mode plumbing shared by campaign/adversary: both --cell and
   --run, or neither. *)
let replay_request ~cmd cell run_index =
  match (cell, run_index) with
  | Some c, Some r -> Some (c, r)
  | None, None -> None
  | _ ->
      Fmt.epr "repro %s: --cell and --run must be given together@." cmd;
      exit 2

let report_replay ~label verdict =
  match verdict with
  | Some reason ->
      Fmt.pr "replay %s: ANOMALOUS — %s@." label reason;
      exit 1
  | None -> Fmt.pr "replay %s: clean@." label

let output ~csv table =
  if csv then print_string (Table.to_csv table) else Table.print table

let table1_cmd =
  let doc = "Table 1 / Figure 1: the worked 10-node example." in
  let run csv =
    let result = E.Exp_example.run () in
    output ~csv result.E.Exp_example.table;
    if not csv then
      List.iter
        (fun (head, members) ->
          Fmt.pr "cluster head %s: {%a}@." head
            Fmt.(list ~sep:comma string)
            members)
        result.E.Exp_example.clusters
  in
  Cmd.v (Cmd.info "table1" ~doc) Term.(const run $ csv_arg)

let table2_cmd =
  let doc = "Table 2: knowledge schedule of the distributed protocol." in
  let run seed runs jobs csv =
    output ~csv
      (E.Exp_schedule.to_table
         (E.Exp_schedule.run ~seed ~runs ~domains:jobs ()))
  in
  Cmd.v (Cmd.info "table2" ~doc)
    Term.(const run $ seed_arg $ runs_arg 10 $ jobs_arg $ csv_arg)

let table3_cmd =
  let doc = "Table 3: steps to build the DAG of local names." in
  let run seed runs jobs intensity csv =
    output ~csv
      (E.Exp_dag_steps.to_table
         (E.Exp_dag_steps.run ~seed ~runs ~domains:jobs ~intensity ()))
  in
  Cmd.v (Cmd.info "table3" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 30 $ jobs_arg $ intensity_arg $ csv_arg)

let table4_cmd =
  let doc = "Table 4: cluster features on random geometric graphs." in
  let run seed runs jobs intensity csv =
    output ~csv
      (E.Exp_features.to_table
         ~title:"Table 4 — cluster features on a random geometric graph"
         (E.Exp_features.run_random ~seed ~runs ~domains:jobs ~intensity ()))
  in
  Cmd.v (Cmd.info "table4" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 30 $ jobs_arg $ intensity_arg $ csv_arg)

let table5_cmd =
  let doc = "Table 5: cluster features on the adversarial row-major grid." in
  let run seed runs jobs csv =
    output ~csv
      (E.Exp_features.to_table
         ~title:
           "Table 5 — cluster features on a grid with adversarial (row-major) \
            ids"
         (E.Exp_features.run_grid ~seed ~runs ~domains:jobs ()))
  in
  Cmd.v (Cmd.info "table5" ~doc)
    Term.(const run $ seed_arg $ runs_arg 10 $ jobs_arg $ csv_arg)

let figures_cmd =
  let doc = "Figures 2 and 3: grid clusterings with and without the DAG." in
  let dir_arg =
    Arg.(
      value & opt string "figures"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory for SVG files.")
  in
  let run dir = E.Exp_figures.print ~dir () in
  Cmd.v (Cmd.info "figures" ~doc) Term.(const run $ dir_arg)

let mobility_cmd =
  let doc =
    "Section 5 mobility experiment: cluster-head retention, improved vs \
     basic rules."
  in
  let count_arg =
    Arg.(
      value
      & opt int E.Exp_mobility.default_params.E.Exp_mobility.count
      & info [ "count" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let horizon_arg =
    Arg.(
      value
      & opt float E.Exp_mobility.default_params.E.Exp_mobility.horizon
      & info [ "horizon" ] ~docv:"SECONDS"
          ~doc:"Simulated duration per run (the paper uses 900 s).")
  in
  let run seed runs jobs count horizon csv =
    let params =
      {
        E.Exp_mobility.default_params with
        E.Exp_mobility.seed;
        runs;
        count;
        horizon;
      }
    in
    output ~csv
      (E.Exp_mobility.to_table (E.Exp_mobility.run ~params ~domains:jobs ()))
  in
  Cmd.v (Cmd.info "mobility" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 5 $ jobs_arg $ count_arg $ horizon_arg
      $ csv_arg)

let selfstab_cmd =
  let doc =
    "Self-stabilization measurements: recovery after corruption, \
     convergence under frame loss."
  in
  let run seed runs jobs csv =
    output ~csv
      (E.Exp_selfstab.recovery_table
         (E.Exp_selfstab.measure_recovery ~seed ~runs ~domains:jobs ()));
    output ~csv
      (E.Exp_selfstab.loss_table
         (E.Exp_selfstab.measure_loss ~seed ~runs ~domains:jobs ()))
  in
  Cmd.v (Cmd.info "selfstab" ~doc)
    Term.(const run $ seed_arg $ runs_arg 10 $ jobs_arg $ csv_arg)

let compare_cmd =
  let doc =
    "Metric comparison: head retention of density vs degree, lowest-id and \
     max-min."
  in
  let run seed runs jobs csv =
    output ~csv
      (E.Exp_compare.to_table (E.Exp_compare.run ~seed ~runs ~domains:jobs ()))
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ seed_arg $ runs_arg 5 $ jobs_arg $ csv_arg)

let energy_cmd =
  let doc =
    "Extension: network lifetime with and without the energy-aware election."
  in
  let run seed runs jobs csv =
    output ~csv
      (E.Exp_energy.to_table (E.Exp_energy.run ~seed ~runs ~domains:jobs ()))
  in
  Cmd.v (Cmd.info "energy" ~doc)
    Term.(const run $ seed_arg $ runs_arg 5 $ jobs_arg $ csv_arg)

let hierarchy_cmd =
  let doc = "Extension: cluster-head population per hierarchy level." in
  let run seed runs jobs csv =
    output ~csv
      (E.Exp_hierarchy.to_table
         (E.Exp_hierarchy.run ~seed ~runs ~domains:jobs ()))
  in
  Cmd.v (Cmd.info "hierarchy" ~doc)
    Term.(const run $ seed_arg $ runs_arg 10 $ jobs_arg $ csv_arg)

let bounds_cmd =
  let doc =
    "Extension: stabilization cost and structure churn as a function of \
     node speed."
  in
  let run seed runs jobs csv =
    output ~csv
      (E.Exp_mobility_bounds.to_table
         (E.Exp_mobility_bounds.run ~seed ~runs ~domains:jobs ()))
  in
  Cmd.v (Cmd.info "bounds" ~doc)
    Term.(const run $ seed_arg $ runs_arg 3 $ jobs_arg $ csv_arg)

let links_cmd =
  let doc =
    "Extension: stabilization cost and churn as a function of the link \
     failure rate."
  in
  let run seed runs jobs csv =
    output ~csv
      (E.Exp_link_failure.to_table
         (E.Exp_link_failure.run ~seed ~runs ~domains:jobs ()))
  in
  Cmd.v (Cmd.info "links" ~doc)
    Term.(const run $ seed_arg $ runs_arg 3 $ jobs_arg $ csv_arg)

let churn_cmd =
  let doc =
    "Extension: in-place recovery from within-run churn — node crashes, \
     rejoins, sleep/wake cycles and link flapping hitting a single engine \
     run."
  in
  let churn_intensity_arg =
    let doc =
      "Poisson intensity of the deployment (expected node count in the unit \
       square)."
    in
    Arg.(
      value & opt positive_float 300.0
      & info [ "intensity" ] ~docv:"LAMBDA" ~doc)
  in
  let run seed runs jobs intensity csv =
    let spec = E.Scenario.poisson ~intensity ~radius:0.1 () in
    let rows = E.Exp_churn.run ~seed ~runs ~domains:jobs ~spec () in
    output ~csv (E.Exp_churn.to_table rows);
    output ~csv (E.Exp_churn.events_table rows)
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 5 $ jobs_arg $ churn_intensity_arg
      $ csv_arg)

let motion_cmd =
  let doc =
    "Extension: cluster stability under continuous motion — the engine's \
     per-round mobility hook drives random-walk and random-waypoint fleets \
     at pedestrian (0-1.6 m/s) and vehicular (0-10 m/s) speeds over an \
     incrementally maintained unit-disk topology; reports cluster-head \
     lifetime, re-election rate and time-in-legitimacy vs speed."
  in
  let motion_intensity_arg =
    let doc =
      "Poisson intensity of the deployment (expected node count in the unit \
       square)."
    in
    Arg.(
      value & opt positive_float 300.0
      & info [ "intensity" ] ~docv:"LAMBDA" ~doc)
  in
  let rounds_arg =
    let doc =
      "Round budget (at least 1); every regime executes exactly this many \
       rounds so the per-round metrics share a denominator."
    in
    Arg.(value & opt positive_int 200 & info [ "rounds" ] ~docv:"ROUNDS" ~doc)
  in
  let dt_arg =
    let doc =
      "Simulated seconds (at least 0) the fleet advances per engine round."
    in
    let non_negative =
      checked_float ~docv:"SECONDS" ~expected:"a non-negative number"
        (fun x -> x >= 0.0)
    in
    Arg.(value & opt non_negative 1.0 & info [ "dt" ] ~docv:"SECONDS" ~doc)
  in
  let tau_arg =
    let doc =
      "Per-frame delivery probability in [0, 1] (Bernoulli channel); 1.0 is \
       the perfect channel."
    in
    let probability =
      checked_float ~docv:"TAU" ~expected:"a probability in [0, 1]" (fun x ->
          x >= 0.0 && x <= 1.0)
    in
    Arg.(value & opt probability 1.0 & info [ "tau" ] ~docv:"TAU" ~doc)
  in
  let churn_flag_arg =
    let doc =
      "Additionally crash 20% of the nodes a third of the way in and rejoin \
       them two thirds of the way in — discrete churn on top of the \
       continuous rewiring."
    in
    Arg.(value & flag & info [ "churn" ] ~doc)
  in
  let run seed runs jobs intensity rounds dt tau with_churn csv =
    let spec = E.Scenario.poisson ~intensity ~radius:0.1 () in
    let channel = Ss_radio.Channel.bernoulli tau in
    let churn =
      if with_churn then
        Some
          (Ss_engine.Churn.compose
             [
               Ss_engine.Churn.crash_fraction ~round:(rounds / 3)
                 ~fraction:0.2;
               Ss_engine.Churn.join_all ~round:(2 * rounds / 3);
             ])
      else None
    in
    output ~csv
      (E.Exp_motion.to_table
         (E.Exp_motion.run ~seed ~runs ~domains:jobs ~spec ~channel ?churn ~dt
            ~rounds ()))
  in
  Cmd.v (Cmd.info "motion" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 5 $ jobs_arg $ motion_intensity_arg
      $ rounds_arg $ dt_arg $ tau_arg $ churn_flag_arg
      $ csv_arg)

let flat_cmd =
  let doc =
    "Extension: the flat-memory executor at scale — unit-disk deployments \
     at constant expected degree run through the struct-of-arrays round \
     loop under a crash/rejoin burst schedule; at small sizes the dense \
     reference walk cross-checks every observable. Exits non-zero on \
     divergence."
  in
  let smoke_arg =
    let doc = "Small sizes only (all cross-checked); for CI." in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let run seed smoke csv =
    let sizes, check_upto =
      if smoke then ([ 500; 1_000; 2_000 ], 2_000)
      else (E.Exp_flat.default_sizes, 3_000)
    in
    let rows = E.Exp_flat.run ~seed ~sizes ~check_upto () in
    output ~csv (E.Exp_flat.to_table rows);
    if not (E.Exp_flat.verified rows) then begin
      Fmt.epr "ERROR: flat executor diverged from the dense reference@.";
      exit 1
    end
  in
  Cmd.v (Cmd.info "flat" ~doc)
    Term.(const run $ seed_arg $ smoke_arg $ csv_arg)

let campaign_cmd =
  let doc =
    "Robustness: adversarial fault-campaign sweep over (corruption fraction \
     x channel x crash churn x scheduler x Byzantine adversary), with the \
     online invariant monitor classifying every non-converged run, \
     containment metrics for Byzantine cells and per-run replay pointers \
     for anomalies."
  in
  let smoke_arg =
    let doc =
      "Tiny fixed-seed grid (8 cells, 1 run each, including a Byzantine x \
       bursty cell) exercising the monitor path in seconds; used by CI."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let strict_arg =
    let doc =
      "Exit non-zero when any grid row degraded to a failed (raising) run. \
       Graceful degradation still prints the full table either way; this \
       flag lets CI gate on it."
    in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let run seed runs jobs smoke strict cell run_index csv =
    let grid, spec, runs, max_rounds =
      if smoke then
        ( E.Exp_campaign.smoke_grid,
          E.Scenario.uniform ~count:30 ~radius:0.2 (),
          1,
          800 )
      else (E.Exp_campaign.default_grid, E.Exp_campaign.default_spec, runs, 1_500)
    in
    (match replay_request ~cmd:"campaign" cell run_index with
    | Some (cell, run) ->
        let c, verdict =
          E.Exp_campaign.replay ~seed ~spec ~grid ~max_rounds ~cell ~run ()
        in
        report_replay
          ~label:
            (Printf.sprintf "cell %d (%s) run %d" cell
               (String.concat "/" (E.Exp_campaign.cell_label c))
               run)
          verdict;
        exit 0
    | None -> ());
    let rows =
      E.Exp_campaign.run ~seed ~runs ~domains:jobs ~spec ~grid ~max_rounds ()
    in
    let replay_prefix =
      Printf.sprintf "repro campaign --seed %d%s" seed
        (if smoke then " --smoke" else "")
    in
    output ~csv (E.Exp_campaign.to_table ~replay_prefix rows);
    if not csv then begin
      let worst =
        List.fold_left
          (fun acc r -> max acc r.E.Exp_campaign.max_dwell)
          0 rows
      in
      let anomalous =
        List.length (List.filter (fun r -> r.E.Exp_campaign.bad <> []) rows)
      in
      Fmt.pr "worst violation dwell: %d rounds; cells with anomalies: %d/%d@."
        worst anomalous (List.length rows);
      let byz_rows =
        List.filter (fun r -> r.E.Exp_campaign.cell.E.Exp_campaign.c_byz <> None) rows
      in
      if byz_rows <> [] then
        Fmt.pr
          "worst-case containment radius: %d hops (over %d Byzantine cells; \
           uncontained runs: %d)@."
          (List.fold_left
             (fun acc r -> max acc r.E.Exp_campaign.worst_radius)
             0 byz_rows)
          (List.length byz_rows)
          (List.fold_left
             (fun acc r -> acc + r.E.Exp_campaign.uncontained)
             0 byz_rows)
    end;
    let failed = E.Exp_campaign.failed_rows rows in
    if strict && failed <> [] then begin
      Fmt.epr "campaign --strict: %d row(s) contain failed runs@."
        (List.length failed);
      exit 1
    end
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 4 $ jobs_arg $ smoke_arg $ strict_arg
      $ cell_arg $ run_index_arg $ csv_arg)

let adversary_cmd =
  let doc =
    "Robustness: Byzantine containment sweep over (behavior x Byzantine \
     count x channel) under a permanent adversary — violation radius, \
     time to containment, clean-region legitimacy. Global convergence is \
     not the bar; bounded blast radius is."
  in
  let smoke_arg =
    let doc =
      "Tiny fixed-seed sweep (stuck/liar x 2 channels, 1 run each) \
       exercising the containment path in seconds."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let run seed runs jobs smoke cell run_index csv =
    let spec, behaviors, counts, channels, runs, max_rounds =
      if smoke then
        ( E.Scenario.uniform ~count:30 ~radius:0.2 (),
          [ Ss_engine.Adversary.Stuck; Ss_engine.Adversary.Liar ],
          [ 2 ],
          [ Ss_radio.Channel.perfect; E.Exp_campaign.default_bursty ],
          1,
          400 )
      else
        ( E.Exp_adversary.default_spec,
          Ss_engine.Adversary.behaviors,
          E.Exp_adversary.default_counts,
          E.Exp_adversary.default_channels,
          runs,
          800 )
    in
    (match replay_request ~cmd:"adversary" cell run_index with
    | Some (cell, run) ->
        let (behavior, count, channel), verdict =
          E.Exp_adversary.replay ~seed ~spec ~behaviors ~counts ~channels
            ~max_rounds ~cell ~run ()
        in
        report_replay
          ~label:
            (Fmt.str "cell %d (%s/%d byz/%a) run %d" cell
               (Ss_engine.Adversary.behavior_to_string behavior)
               count Ss_radio.Channel.pp channel run)
          verdict;
        exit 0
    | None -> ());
    let rows =
      E.Exp_adversary.run ~seed ~runs ~domains:jobs ~spec ~behaviors ~counts
        ~channels ~max_rounds ()
    in
    let replay_prefix =
      Printf.sprintf "repro adversary --seed %d%s" seed
        (if smoke then " --smoke" else "")
    in
    output ~csv (E.Exp_adversary.to_table ~replay_prefix rows);
    if not csv then
      Fmt.pr "worst-case containment radius: %d hops; uncontained runs: %d@."
        (List.fold_left
           (fun acc r -> max acc r.E.Exp_adversary.worst_radius)
           0 rows)
        (List.fold_left
           (fun acc (r : E.Exp_adversary.row) ->
             acc + (r.E.Exp_adversary.runs - r.E.Exp_adversary.failed
                    - r.E.Exp_adversary.contained))
           0 rows)
  in
  Cmd.v (Cmd.info "adversary" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 5 $ jobs_arg $ smoke_arg $ cell_arg
      $ run_index_arg $ csv_arg)

let traffic_cmd =
  let doc =
    "Robustness: the data-plane workload routed over the believed cluster \
     hierarchy while it stabilizes — delivery ratio, latency and retries \
     across load x channel x crash-burst cells, with energy drain feeding \
     depleted nodes back into churn. The sweep runs on the flat executor \
     and always ends with the dense-vs-flat replay of the heavy/lossy/burst \
     cell; exits non-zero if the executors disagree on any observable or \
     the delivery ratio never recovers to 95% of its pre-burst level."
  in
  let rounds_arg =
    let doc = "Last round with message arrivals; runs extend by the TTL." in
    Arg.(value & opt int 220 & info [ "rounds" ] ~docv:"ROUNDS" ~doc)
  in
  let window_arg =
    let doc = "Cohort width (rounds) for the dip-and-recovery series." in
    Arg.(value & opt int 20 & info [ "window" ] ~docv:"ROUNDS" ~doc)
  in
  let run seed runs jobs rounds window csv =
    let rows = E.Exp_traffic.run ~seed ~runs ~domains:jobs ~rounds ~window () in
    output ~csv (E.Exp_traffic.to_table rows);
    let v = E.Exp_traffic.verify ~seed ~rounds ~window () in
    if not csv then begin
      Fmt.pr
        "verification (heavy load, lossy channel, crash burst): dense vs \
         flat %s@."
        (if v.E.Exp_traffic.v_agree then "bit-identical" else "DIVERGED");
      if not v.E.Exp_traffic.v_agree then
        Fmt.pr "  %s@." v.E.Exp_traffic.v_detail;
      Fmt.pr
        "  delivery %.3f  latency mean %.1f  pre-burst %.3f  dip %.3f  \
         recovered %s@."
        v.E.Exp_traffic.v_ratio v.E.Exp_traffic.v_latency_mean
        v.E.Exp_traffic.v_pre v.E.Exp_traffic.v_dip
        (match v.E.Exp_traffic.v_recovered_at with
        | Some r -> Fmt.str "+%d rounds after the burst" r
        | None -> "never")
    end;
    let recovered = Option.is_some v.E.Exp_traffic.v_recovered_at in
    if not (v.E.Exp_traffic.v_agree && recovered) then begin
      if not v.E.Exp_traffic.v_agree then
        Fmt.epr "ERROR: dense and flat executors diverged: %s@."
          v.E.Exp_traffic.v_detail;
      if not recovered then
        Fmt.epr
          "ERROR: delivery ratio never recovered to 95%% of its pre-burst \
           level@.";
      exit 1
    end
  in
  Cmd.v (Cmd.info "traffic" ~doc)
    Term.(
      const run $ seed_arg $ runs_arg 2 $ jobs_arg $ rounds_arg $ window_arg
      $ csv_arg)

let stabilization_cmd =
  let doc =
    "Extension: stabilization-round distributions with 95% bootstrap CIs \
     across n (grid side 32..1000, i.e. ~1k..1M nodes on the flat \
     executor) x density x {DAG names, adversarial flat ids} x channel \
     loss; runs hitting the round cap are reported as censored. Lossy \
     cells tally post-stabilization violations and time-between-violation \
     distributions over a warm-started fixed horizon. Prints a per-curve \
     flat-vs-growing verdict and exits non-zero unless every with-DAG \
     perfect-channel curve is flat in n within CI overlap."
  in
  let smoke_arg =
    let doc =
      "Tiny sides (12, 24) at both densities and namings plus one lossy \
       cell; seconds of runtime, used by CI to gate the flat-in-n claim."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let run seed jobs smoke csv =
    let cells =
      if smoke then E.Exp_stabilization.smoke_cells
      else E.Exp_stabilization.default_cells
    in
    let ok = E.Exp_stabilization.print ~domains:jobs ~seed ~cells ~csv () in
    if not ok then begin
      Fmt.epr
        "ERROR: a with-DAG curve is not flat in n within CI overlap@.";
      exit 1
    end
  in
  Cmd.v (Cmd.info "stabilization" ~doc)
    Term.(const run $ seed_arg $ jobs_arg $ smoke_arg $ csv_arg)

let all_cmd =
  let doc = "Run every experiment with fast defaults." in
  let run seed jobs =
    let domains = jobs in
    Fmt.pr "== Table 1 ==@.";
    E.Exp_example.print ();
    Fmt.pr "@.== Table 2 ==@.";
    E.Exp_schedule.print ~seed ~runs:5 ~domains ();
    Fmt.pr "@.== Table 3 ==@.";
    E.Exp_dag_steps.print ~seed ~runs:10 ~domains ();
    Fmt.pr "@.== Table 4 ==@.";
    E.Exp_features.print_random ~seed ~runs:10 ~domains ();
    Fmt.pr "@.== Table 5 ==@.";
    E.Exp_features.print_grid ~seed ~runs:5 ~domains ();
    Fmt.pr "@.== Figures 2 & 3 ==@.";
    E.Exp_figures.print ();
    Fmt.pr "@.== Mobility ==@.";
    E.Exp_mobility.print
      ~params:
        {
          E.Exp_mobility.default_params with
          E.Exp_mobility.seed;
          runs = 3;
          horizon = 120.0;
        }
      ~domains ();
    Fmt.pr "@.== Self-stabilization ==@.";
    E.Exp_selfstab.print ~seed ~runs:5 ~domains ();
    Fmt.pr "@.== Metric comparison ==@.";
    E.Exp_compare.print ~seed ~runs:3 ~epochs:30 ~domains ();
    Fmt.pr "@.== Extension: energy ==@.";
    E.Exp_energy.print ~seed ~runs:3 ~domains ();
    Fmt.pr "@.== Extension: hierarchy ==@.";
    E.Exp_hierarchy.print ~seed ~runs:5 ~domains ();
    Fmt.pr "@.== Extension: stabilization vs mobility ==@.";
    E.Exp_mobility_bounds.print ~seed ~runs:2 ~epochs:20 ~domains ();
    Fmt.pr "@.== Extension: stabilization vs link failures ==@.";
    E.Exp_link_failure.print ~seed ~runs:2 ~epochs:15 ~domains ();
    Fmt.pr "@.== Extension: within-run churn ==@.";
    E.Exp_churn.print ~seed ~runs:2
      ~spec:(E.Scenario.poisson ~intensity:150.0 ~radius:0.12 ())
      ~domains ();
    Fmt.pr "@.== Extension: continuous motion ==@.";
    E.Exp_motion.print ~seed ~runs:2 ~rounds:80
      ~spec:(E.Scenario.poisson ~intensity:150.0 ~radius:0.12 ())
      ~domains ();
    Fmt.pr "@.== Extension: flat executor (cross-checked) ==@.";
    Table.print
      (E.Exp_flat.to_table
         (E.Exp_flat.run ~seed ~sizes:[ 500; 1_000 ] ~check_upto:1_000 ()));
    Fmt.pr "@.== Robustness: fault campaign (smoke grid) ==@.";
    Table.print
      (E.Exp_campaign.to_table
         (E.Exp_campaign.run ~seed ~runs:1 ~domains
            ~spec:(E.Scenario.uniform ~count:30 ~radius:0.2 ())
            ~grid:E.Exp_campaign.smoke_grid ~max_rounds:800 ()));
    Fmt.pr "@.== Robustness: Byzantine adversary (smoke) ==@.";
    Table.print
      (E.Exp_adversary.to_table
         (E.Exp_adversary.run ~seed ~runs:1 ~domains
            ~spec:(E.Scenario.uniform ~count:30 ~radius:0.2 ())
            ~behaviors:[ Ss_engine.Adversary.Stuck ]
            ~counts:[ 2 ]
            ~channels:[ Ss_radio.Channel.perfect ]
            ~max_rounds:400 ()));
    Fmt.pr "@.== Robustness: data-plane traffic ==@.";
    E.Exp_traffic.print ~seed ~runs:1 ~domains
      ~spec:(E.Scenario.poisson ~intensity:300.0 ~radius:0.1 ())
      ~rounds:120 ()
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ seed_arg $ jobs_arg)

(* The single command registry: the group below, the help listing and the
   unknown-subcommand message all derive from this list, so a sweep added
   here is automatically visible everywhere (adversary, motion, flat and
   traffic had previously drifted out of sync). *)
let commands =
  [
    table1_cmd; table2_cmd; table3_cmd; table4_cmd; table5_cmd;
    figures_cmd; mobility_cmd; selfstab_cmd; compare_cmd; energy_cmd;
    hierarchy_cmd; bounds_cmd; links_cmd; churn_cmd; motion_cmd;
    flat_cmd; campaign_cmd; adversary_cmd; traffic_cmd; stabilization_cmd;
    all_cmd;
  ]

let main_cmd =
  let doc =
    "Reproduction of `Self-stabilization in self-organized multihop \
     wireless networks' (Mitton, Fleury, Guerin Lassous, Tixeuil)."
  in
  Cmd.group (Cmd.info "repro" ~version:"1.0.0" ~doc) commands

let () =
  (* Catch unknown subcommands before Cmdliner: fail loudly with the full
     registry instead of a terse parse error, and always exit non-zero. *)
  (match Sys.argv with
  | [||] | [| _ |] -> ()
  | argv ->
      let name = argv.(1) in
      let names = List.map Cmd.name commands in
      if
        String.length name > 0
        && name.[0] <> '-'
        && not (List.mem name names)
      then begin
        Fmt.epr "repro: unknown command '%s'.@.Available commands:@." name;
        List.iter (fun n -> Fmt.epr "  %s@." n) names;
        Fmt.epr "Run 'repro --help' for per-command details.@.";
        exit 2
      end);
  exit (Cmd.eval main_cmd)
