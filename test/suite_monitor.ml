(* Online invariant monitor: divergence classifier, dwell attribution, the
   cluster-stack invariant bundle, and the fault-campaign acceptance
   criteria (a known-good cell reports zero post-recovery violations; a
   starved round budget classifies as still-changing, never silently). *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Engine = Ss_engine.Engine
module Monitor = Ss_engine.Monitor
module Scheduler = Ss_engine.Scheduler
module Channel = Ss_radio.Channel
module Config = Ss_cluster.Config
module Distributed = Ss_cluster.Distributed
module Invariants = Ss_cluster.Invariants
module Exp_campaign = Ss_experiments.Exp_campaign
module Scenario = Ss_experiments.Scenario
module Rng = Ss_prng.Rng

let rng () = Rng.create ~seed:7331

let check_class msg expected actual =
  let pp fmt c = Monitor.pp_classification fmt c in
  let eq a b =
    match (a, b) with
    | Monitor.Converged, Monitor.Converged -> true
    | Monitor.Still_changing, Monitor.Still_changing -> true
    | ( Monitor.Oscillating { period = p; first_seen = f },
        Monitor.Oscillating { period = p'; first_seen = f' } ) ->
        p = p' && f = f'
    | _ -> false
  in
  Alcotest.check (Alcotest.testable pp eq) msg expected actual

(* ----------------------------------------------------------- classifier *)

let d = Array.map Int64.of_int

let test_classify_oscillation () =
  (* Transient prefix 1,2 then a period-2 tail from round 3. *)
  check_class "period-2 tail dated to its onset"
    (Monitor.Oscillating { period = 2; first_seen = 3 })
    (Monitor.classify ~converged:false ~last_round:8
       (d [| 1; 2; 3; 4; 3; 4; 3; 4 |]))

let test_classify_smallest_period_wins () =
  (* A period-2 signal is also period-4 periodic; the classifier must
     report 2. *)
  check_class "smallest period"
    (Monitor.Oscillating { period = 2; first_seen = 1 })
    (Monitor.classify ~converged:false ~last_round:8
       (d [| 9; 5; 9; 5; 9; 5; 9; 5 |]))

let test_classify_still_changing () =
  check_class "monotone digests are progress" Monitor.Still_changing
    (Monitor.classify ~converged:false ~last_round:6 (d [| 1; 2; 3; 4; 5; 6 |]))

let test_classify_converged_short_circuits () =
  check_class "engine convergence wins" Monitor.Converged
    (Monitor.classify ~converged:true ~last_round:4 (d [| 1; 2; 1; 2 |]))

let test_classify_frozen_outputs_read_as_period_one () =
  (* Outputs constant but the engine never went quiet (internal churn):
     period 1, dated to where the digest froze. *)
  check_class "constant tail"
    (Monitor.Oscillating { period = 1; first_seen = 2 })
    (Monitor.classify ~converged:false ~last_round:5 (d [| 9; 7; 7; 7; 7 |]))

let test_classify_window_too_small () =
  check_class "one sample cannot show a period" Monitor.Still_changing
    (Monitor.classify ~converged:false ~last_round:1 (d [| 3 |]))

(* ------------------------------------------------- dwell / burst algebra *)

(* A hand-driven monitor over one-cell states: digest is the value itself,
   the single invariant fires while the value is positive. *)
let manual_monitor () =
  Monitor.create
    ~digest:(fun ~graph:_ ~alive:_ states -> Int64.of_int states.(0))
    ~invariants:(fun ~graph:_ ~alive:_ states ->
      [ ("bad", if states.(0) > 0 then 1 else 0) ])
    ()

let drive m ~graph ~alive plan =
  List.iter
    (fun (round, value, disturbed) ->
      if disturbed then Monitor.note_disturbance m ~round;
      Monitor.probe m ~round ~graph ~alive [| value |])
    plan

let test_dwell_measured_per_burst () =
  let graph = Builders.path 2 in
  let alive = [| true; true |] in
  let m = manual_monitor () in
  (* Clean prefix; disturbance at 5 violates through 7, clean at 8. *)
  drive m ~graph ~alive
    [
      (1, 0, false); (2, 0, false); (3, 0, false); (4, 0, false);
      (5, 1, true); (6, 1, false); (7, 1, false); (8, 0, false);
    ];
  let r = Monitor.report m ~converged:true in
  (match r.Monitor.bursts with
  | [ { Monitor.first; last; dwell } ] ->
      Alcotest.(check int) "burst opened at the disturbance" 5 first;
      Alcotest.(check int) "single-round burst" 5 last;
      Alcotest.(check (option int)) "dwell = rounds until clean" (Some 3) dwell
  | bs -> Alcotest.failf "expected one burst, got %d" (List.length bs));
  Alcotest.(check (option int)) "max dwell" (Some 3) r.Monitor.max_dwell;
  Alcotest.(check int) "nothing after recovery" 0
    r.Monitor.post_recovery_violations;
  Alcotest.(check int) "no open burst" 0 r.Monitor.unrecovered;
  Alcotest.(check int) "violating rounds counted" 3 r.Monitor.violating_rounds;
  Alcotest.(check (list (pair string int))) "per-label violating rounds"
    [ ("bad", 3) ] r.Monitor.totals

let test_dwell_merges_disturbances_while_dirty () =
  let graph = Builders.path 2 in
  let alive = [| true; true |] in
  let m = manual_monitor () in
  (* Second disturbance lands while still dirty: one burst, dwell counted
     from the LAST disturbance. *)
  drive m ~graph ~alive
    [ (1, 0, false); (2, 1, true); (3, 1, true); (4, 1, false); (5, 0, false) ];
  let r = Monitor.report m ~converged:true in
  (match r.Monitor.bursts with
  | [ { Monitor.first; last; dwell } ] ->
      Alcotest.(check int) "first disturbance opens" 2 first;
      Alcotest.(check int) "second one merges" 3 last;
      Alcotest.(check (option int)) "dwell from the last disturbance" (Some 2)
        dwell
  | bs -> Alcotest.failf "expected one merged burst, got %d" (List.length bs))

let test_post_recovery_violations_counted () =
  let graph = Builders.path 2 in
  let alive = [| true; true |] in
  let m = manual_monitor () in
  (* Burst recovers at 4; a violation with no disturbance at 6 is a closure
     failure, not a new burst. *)
  drive m ~graph ~alive
    [
      (1, 0, false); (2, 1, true); (3, 1, false); (4, 0, false);
      (5, 0, false); (6, 1, false); (7, 0, false);
    ];
  let r = Monitor.report m ~converged:true in
  Alcotest.(check int) "closure failure flagged" 1
    r.Monitor.post_recovery_violations;
  Alcotest.(check int) "still one burst" 1 (List.length r.Monitor.bursts)

let test_cold_start_not_charged () =
  let graph = Builders.path 2 in
  let alive = [| true; true |] in
  let m = manual_monitor () in
  (* Violating from the start with no disturbance: convergence in
     progress, charged to no burst and not to closure. *)
  drive m ~graph ~alive [ (1, 1, false); (2, 1, false); (3, 0, false) ];
  let r = Monitor.report m ~converged:true in
  Alcotest.(check int) "no post-recovery count" 0
    r.Monitor.post_recovery_violations;
  Alcotest.(check (list Alcotest.reject)) "no bursts" [] r.Monitor.bursts

let test_unrecovered_burst_reported () =
  let graph = Builders.path 2 in
  let alive = [| true; true |] in
  let m = manual_monitor () in
  drive m ~graph ~alive [ (1, 0, false); (2, 1, true); (3, 1, false) ];
  let r = Monitor.report m ~converged:false in
  Alcotest.(check int) "open burst at end of run" 1 r.Monitor.unrecovered;
  (match r.Monitor.bursts with
  | [ { Monitor.dwell; _ } ] ->
      Alcotest.(check (option int)) "dwell unknown" None dwell
  | bs -> Alcotest.failf "expected one burst, got %d" (List.length bs))

(* --------------------------------------------- oscillation end to end *)

(* A protocol that cannot stabilize: every node flips its bit every round
   regardless of what it hears. The engine sees perpetual change; the
   monitor must name the period instead of a silent budget exhaustion. *)
module Blinker = struct
  type state = int
  type message = int

  let init _rng _graph p = p mod 2
  let emit _graph _p st = st
  let handle _rng _graph _p st _msgs = 1 - st
  let equal_state = Int.equal
end

module EB = Engine.Make (Blinker)

let test_blinker_classified_oscillating () =
  let g = Builders.path 6 in
  let m =
    Monitor.create
      ~digest:(fun ~graph:_ ~alive:_ states ->
        Array.fold_left
          (fun acc st -> Int64.add (Int64.mul acc 2L) (Int64.of_int st))
          1L states)
      ~invariants:(fun ~graph:_ ~alive:_ _ -> [])
      ()
  in
  let result =
    EB.run ~max_rounds:40 ~probe:(Monitor.probe m) (rng ()) g
  in
  Alcotest.(check bool) "never converges" false result.EB.converged;
  let r = Monitor.report m ~converged:result.EB.converged in
  check_class "period-2 oscillation from round 1"
    (Monitor.Oscillating { period = 2; first_seen = 1 })
    r.Monitor.classification

(* -------------------------------------------------- cluster invariants *)

module PD = Distributed.Make (struct
  let params = Distributed.default_params
end)

module ED = Engine.Make (PD)

let quiet = Distributed.default_params.Distributed.cache_ttl + 2

let test_invariants_clean_after_convergence () =
  let r = rng () in
  let world = Scenario.build r (Scenario.uniform ~count:30 ~radius:0.25 ()) in
  let graph = world.Scenario.graph in
  let ids = Array.init (Graph.node_count graph) Fun.id in
  let result = ED.run ~quiet_rounds:quiet r graph in
  Alcotest.(check bool) "converged" true result.ED.converged;
  let vs =
    Invariants.violations ~config:Config.basic ~ids ~graph:result.ED.graph
      ~alive:result.ED.alive result.ED.states
  in
  List.iter
    (fun (label, count) -> Alcotest.(check int) label 0 count)
    vs

let test_digest_tracks_outputs_not_clocks () =
  let r = rng () in
  let world = Scenario.build r (Scenario.uniform ~count:20 ~radius:0.3 ()) in
  let graph = world.Scenario.graph in
  let result = ED.run ~quiet_rounds:quiet r graph in
  let alive = result.ED.alive in
  let states = result.ED.states in
  let base = Invariants.digest ~graph ~alive states in
  let ticked =
    Array.map
      (fun (st : Distributed.state) -> { st with Distributed.clock = st.Distributed.clock + 1 })
      states
  in
  Alcotest.(check int64) "clock ticks are invisible" base
    (Invariants.digest ~graph ~alive ticked);
  let rehomed = Array.copy states in
  rehomed.(0) <- { rehomed.(0) with Distributed.head = Some 4096 };
  Alcotest.(check bool) "output changes are visible" false
    (Int64.equal base (Invariants.digest ~graph ~alive rehomed))

let blank_state p =
  {
    Distributed.clock = 0;
    gamma = 8;
    gid = p;
    dag = p;
    density = None;
    parent = None;
    head = None;
    cache = [];
    far = [];
  }

let test_head_separation_invariant () =
  (* Path 0-1-2-3 with heads 0 and 2 only 2 hops apart: legal for the
     basic rules, a violation once fusion is on. *)
  let graph = Builders.path 4 in
  let ids = Array.init 4 Fun.id in
  let states =
    [|
      { (blank_state 0) with Distributed.parent = Some 0; head = Some 0 };
      { (blank_state 1) with Distributed.parent = Some 0; head = Some 0 };
      { (blank_state 2) with Distributed.parent = Some 2; head = Some 2 };
      { (blank_state 3) with Distributed.parent = Some 2; head = Some 2 };
    |]
  in
  let alive = [| true; true; true; true |] in
  let find config label =
    List.assoc_opt label (Invariants.violations ~config ~ids ~graph ~alive states)
  in
  Alcotest.(check (option int)) "fusion config flags close heads" (Some 1)
    (find (Config.make ~fusion:true ()) "head-separation");
  Alcotest.(check (option int)) "basic config does not carry the label" None
    (find Config.basic "head-separation")

let test_corrupted_states_never_crash_invariants () =
  (* Out-of-range parents/heads (the transient-fault model corrupts within
     gamma, which exceeds n) must be judged, not crash the predicate. *)
  let graph = Builders.path 4 in
  let ids = Array.init 4 Fun.id in
  let states =
    Array.init 4 (fun p ->
        { (blank_state p) with Distributed.parent = Some 4096; head = Some 700 })
  in
  let alive = [| true; true; true; true |] in
  let vs = Invariants.violations ~config:Config.basic ~ids ~graph ~alive states in
  Alcotest.(check bool) "illegitimate" true
    (match List.assoc_opt "illegitimate" vs with
    | Some c -> c > 0
    | None -> false);
  Alcotest.(check (option int)) "all 8 references are ghosts" (Some 8)
    (List.assoc_opt "ghosts" vs)

(* ------------------------------------------------------ fault campaign *)

let good_cell =
  {
    Exp_campaign.c_fraction = 0.3;
    c_channel = Channel.perfect;
    c_crash = 0.0;
    c_scheduler = Scheduler.Synchronous;
    c_byz = None;
  }

let campaign_spec = Scenario.uniform ~count:40 ~radius:0.2 ()

let test_campaign_good_cell_zero_post_recovery () =
  (* Acceptance: an oscillation-free scenario (perfect channel, pure
     corruption burst) recovers and reports zero post-recovery
     violations. *)
  let row =
    Exp_campaign.run_cell ~seed:11 ~runs:2 ~spec:campaign_spec
      ~max_rounds:2_000 ~burst_round:40 ~horizon:Exp_campaign.default_horizon
      good_cell
  in
  Alcotest.(check int) "all runs converge" 2 row.Exp_campaign.converged;
  Alcotest.(check int) "no raising runs" 0 row.Exp_campaign.failed;
  Alcotest.(check int) "no open bursts" 0 row.Exp_campaign.unrecovered;
  Alcotest.(check int) "zero post-recovery violations" 0
    row.Exp_campaign.post_violations;
  Alcotest.(check (list Alcotest.reject)) "no replay pointers" []
    row.Exp_campaign.bad;
  Alcotest.(check bool) "the burst was actually dirty" true
    (row.Exp_campaign.max_dwell > 0)

let test_campaign_starved_cell_still_changing () =
  (* Acceptance: a round budget far below cold-start convergence must be
     classified Still_changing, never a silent non-convergence. *)
  let row =
    Exp_campaign.run_cell ~seed:11 ~runs:2 ~spec:campaign_spec
      ~max_rounds:4 ~burst_round:40 ~horizon:Exp_campaign.default_horizon
      good_cell
  in
  Alcotest.(check int) "nothing converges in 4 rounds" 0
    row.Exp_campaign.converged;
  Alcotest.(check int) "all runs classified still-changing" 2
    row.Exp_campaign.still_changing;
  List.iter
    (fun (_, reason) ->
      Alcotest.(check string) "replay reason" "still-changing" reason)
    row.Exp_campaign.bad;
  Alcotest.(check int) "every run carries a replay pointer" 2
    (List.length row.Exp_campaign.bad)

let test_campaign_survives_raising_cells () =
  (* Acceptance: a cell whose runs raise (here: a negative round budget
     rejected by Engine.run) is recorded with replay pointers; the sweep
     itself never aborts. *)
  let rows =
    Exp_campaign.run ~seed:11 ~runs:2 ~spec:campaign_spec
      ~grid:
        {
          Exp_campaign.g_fractions = [ 0.2 ];
          g_channels = [ Channel.perfect; Channel.slotted ~slots:12 ];
          g_crash = [ 0.0 ];
          g_schedulers = [ Scheduler.Synchronous ];
          g_byz = [ None ];
        }
      ~max_rounds:(-1) ()
  in
  Alcotest.(check int) "both cells reported" 2 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "every run failed" 2 row.Exp_campaign.failed;
      Alcotest.(check int) "failures carry replay pointers" 2
        (List.length row.Exp_campaign.bad);
      List.iter
        (fun (run, reason) ->
          Alcotest.(check bool) "run index in range" true (run >= 0 && run < 2);
          Alcotest.(check bool) "reason is the exception text" true
            (String.length reason > 0))
        row.Exp_campaign.bad)
    rows

let suite =
  [
    Alcotest.test_case "classify: oscillation dated to onset" `Quick
      test_classify_oscillation;
    Alcotest.test_case "classify: smallest period wins" `Quick
      test_classify_smallest_period_wins;
    Alcotest.test_case "classify: monotone is still-changing" `Quick
      test_classify_still_changing;
    Alcotest.test_case "classify: converged short-circuits" `Quick
      test_classify_converged_short_circuits;
    Alcotest.test_case "classify: frozen outputs read as period 1" `Quick
      test_classify_frozen_outputs_read_as_period_one;
    Alcotest.test_case "classify: window of one" `Quick
      test_classify_window_too_small;
    Alcotest.test_case "dwell measured per burst" `Quick
      test_dwell_measured_per_burst;
    Alcotest.test_case "disturbances merge while dirty" `Quick
      test_dwell_merges_disturbances_while_dirty;
    Alcotest.test_case "post-recovery violations counted" `Quick
      test_post_recovery_violations_counted;
    Alcotest.test_case "cold start charged to no burst" `Quick
      test_cold_start_not_charged;
    Alcotest.test_case "unrecovered burst reported" `Quick
      test_unrecovered_burst_reported;
    Alcotest.test_case "blinker protocol classified oscillating" `Quick
      test_blinker_classified_oscillating;
    Alcotest.test_case "invariants clean after convergence" `Quick
      test_invariants_clean_after_convergence;
    Alcotest.test_case "digest sees outputs, not clocks" `Quick
      test_digest_tracks_outputs_not_clocks;
    Alcotest.test_case "head-separation invariant" `Quick
      test_head_separation_invariant;
    Alcotest.test_case "corrupted states never crash the predicate" `Quick
      test_corrupted_states_never_crash_invariants;
    Alcotest.test_case "campaign: good cell has zero post-recovery" `Quick
      test_campaign_good_cell_zero_post_recovery;
    Alcotest.test_case "campaign: starved budget is still-changing" `Quick
      test_campaign_starved_cell_still_changing;
    Alcotest.test_case "campaign: raising cells contained" `Quick
      test_campaign_survives_raising_cells;
  ]
