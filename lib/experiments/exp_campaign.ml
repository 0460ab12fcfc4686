(* Robustness experiment C2: adversarial fault-campaign sweep.

   Each grid cell corrupts a fraction of the nodes mid-run (optionally
   while a Bernoulli crash window churns the topology) over a lossy or
   contended channel, with the online monitor watching the legitimacy
   predicate, ghost references and head separation every round. A cell is
   judged on the worst it produced: the longest violation dwell, any burst
   still dirty at the end, any violation after recovery, and — when the
   round budget ran out — whether the digest ring shows an oscillation or
   genuine ongoing progress.

   Failure containment: the per-run closure catches exceptions, so one
   pathological run becomes a failed entry in its row (with its run index
   as replay pointer) instead of tearing down the campaign through the
   domain pool's re-raise. *)

module Graph = Ss_topology.Graph
module Scheduler = Ss_engine.Scheduler
module Churn = Ss_engine.Churn
module Monitor = Ss_engine.Monitor
module Adversary = Ss_engine.Adversary
module Channel = Ss_radio.Channel
module Distributed = Ss_cluster.Distributed
module Invariants = Ss_cluster.Invariants
module Summary = Ss_stats.Summary
module Table = Ss_stats.Table
module Rng = Ss_prng.Rng

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Ss_engine.Engine.Make (P)

let config = Distributed.default_params.Distributed.algo

let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

type cell = {
  c_fraction : float;
  c_channel : Channel.t;
  c_crash : float;
  c_scheduler : Scheduler.t;
  c_byz : (int * Adversary.behavior) option;
}

let byz_label = function
  | None -> "-"
  | Some (count, b) ->
      Printf.sprintf "%d %s" count (Adversary.behavior_to_string b)

let cell_label c =
  [
    Printf.sprintf "%.0f%%" (100.0 *. c.c_fraction);
    Fmt.str "%a" Channel.pp c.c_channel;
    (if c.c_crash > 0.0 then Printf.sprintf "%.2f" c.c_crash else "-");
    Fmt.str "%a" Scheduler.pp c.c_scheduler;
    byz_label c.c_byz;
  ]

type grid = {
  g_fractions : float list;
  g_channels : Channel.t list;
  g_crash : float list;
  g_schedulers : Scheduler.t list;
  g_byz : (int * Adversary.behavior) option list;
}

(* The default bursty channel: mostly-clean links falling into ~4-round
   deep fades a few times per hundred rounds. *)
let default_bursty =
  Channel.bursty ~seed:7 ~tau_good:0.95 ~tau_bad:0.2 ~p_fade:0.05
    ~p_recover:0.25

let default_grid =
  {
    g_fractions = [ 0.1; 0.3 ];
    g_channels =
      [
        Channel.perfect;
        Channel.bernoulli 0.8;
        Channel.slotted ~slots:16;
        default_bursty;
      ];
    g_crash = [ 0.0; 0.02 ];
    g_schedulers = [ Scheduler.Synchronous; Scheduler.Random_order ];
    g_byz =
      [ None; Some (2, Adversary.Liar); Some (2, Adversary.Oscillator) ];
  }

(* Eight cells, one run each: every monitor code path (lossy recovery,
   contention, churn, Byzantine containment on a bursty channel)
   exercised in seconds for CI. *)
let smoke_grid =
  {
    g_fractions = [ 0.25 ];
    g_channels = [ Channel.perfect; default_bursty ];
    g_crash = [ 0.0; 0.05 ];
    g_schedulers = [ Scheduler.Synchronous ];
    g_byz = [ None; Some (2, Adversary.Liar) ];
  }

let cells grid =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun ch ->
          List.concat_map
            (fun cr ->
              List.concat_map
                (fun s ->
                  List.map
                    (fun byz ->
                      {
                        c_fraction = f;
                        c_channel = ch;
                        c_crash = cr;
                        c_scheduler = s;
                        c_byz = byz;
                      })
                    grid.g_byz)
                grid.g_schedulers)
            grid.g_crash)
        grid.g_channels)
    grid.g_fractions

type row = {
  cell : cell;
  runs : int;
  converged : int;
  oscillating : int;
  still_changing : int;
  failed : int;
  dwell : Summary.t;
  max_dwell : int;
  unrecovered : int;
  post_violations : int;
  peak_ghosts : int;
  worst_radius : int;
  uncontained : int;
  bad : (int * string) list;
}

let default_spec = Scenario.uniform ~count:60 ~radius:0.15 ()

(* Past cold-start convergence on the default spec (same margin as
   exp_churn's storms). *)
let default_burst_round = 40

let plan ~burst_round cell =
  let corruption =
    if cell.c_fraction > 0.0 then
      [ Churn.corrupt_fraction ~round:burst_round ~fraction:cell.c_fraction ]
    else []
  in
  let churn =
    if cell.c_crash > 0.0 then
      [
        Churn.bernoulli_crash ~first:burst_round ~last:(burst_round + 15)
          ~p_crash:cell.c_crash
          ~p_join:(Float.min 1.0 (4.0 *. cell.c_crash))
          ();
        Churn.join_all ~round:(burst_round + 40);
      ]
    else []
  in
  Churn.compose (corruption @ churn)

(* What one run reports, pure per-run so cells parallelize over domains. *)
type success = {
  ok_converged : bool;
  ok_class : Monitor.classification;
  ok_dwells : int list;
  ok_unrecovered : int;
  ok_post : int;
  ok_ghost_peak : int;
  ok_containment : Monitor.containment option;
}

type outcome = Run_ok of success | Run_failed of string

let success_of_report ~converged (rep : Monitor.report) =
  {
    ok_converged = converged;
    ok_class = rep.Monitor.classification;
    ok_dwells =
      List.filter_map (fun b -> b.Monitor.dwell) rep.Monitor.bursts;
    ok_unrecovered = rep.Monitor.unrecovered;
    ok_post = rep.Monitor.post_recovery_violations;
    ok_ghost_peak =
      (match List.assoc_opt "ghosts" rep.Monitor.peaks with
      | Some g -> g
      | None -> 0);
    ok_containment = rep.Monitor.containment;
  }

(* Default clean-region horizon: a lying frame poisons its receivers
   directly and, through the relayed 2-hop summaries, their neighbors —
   so damage within 2 hops of the Byzantine set is expected, and strict
   stabilization is asserted beyond it. *)
let default_horizon = 2

let run_one rng ~spec ~max_rounds ~burst_round ~horizon cell =
  let world = Scenario.build rng spec in
  let graph = world.Scenario.graph in
  let ids = Array.init (Graph.node_count graph) Fun.id in
  match cell.c_byz with
  | None ->
      let monitor = Invariants.monitor ~config ~ids () in
      let result =
        E.run ~scheduler:cell.c_scheduler
          ~channel:cell.c_channel ~quiet_rounds ~max_rounds
          ~churn:(plan ~burst_round cell)
          ~corrupt:Distributed.corrupt
          ~on_round:(Monitor.on_round monitor)
          ~probe:(Monitor.probe monitor) rng graph
      in
      let rep = Monitor.report monitor ~converged:result.E.converged in
      success_of_report ~converged:result.E.converged rep
  | Some (count, behavior) ->
      (* Byzantine roster and adversary key come from the run's sequential
         generator (plan-evaluation family, like churn victims), drawn in
         a fixed order before the engine starts; everything the adversary
         does in-round is keyed off [adv_key]. *)
      let n = Graph.node_count graph in
      let count = min count n in
      let byz = Array.to_list (Array.sub (Rng.permutation rng n) 0 count) in
      let adv_key = Rng.key_of rng in
      let module Q =
        Adversary.Wrap
          (P)
          (struct
            type message = Distributed.message

            let key = adv_key
            let roles = List.map (fun p -> (p, behavior)) byz
            let from_round = burst_round
            let forge = Distributed.forge
          end)
      in
      let module EQ = Ss_engine.Engine.Make (Q) in
      let adversary =
        {
          Monitor.dist = Adversary.distances graph byz;
          horizon;
          active_from = burst_round;
        }
      in
      let monitor =
        Invariants.monitor_via ~adversary ~project:Q.project ~config ~ids ()
      in
      let result =
        EQ.run ~scheduler:cell.c_scheduler ~channel:cell.c_channel
          ~quiet_rounds ~max_rounds
          ~churn:(plan ~burst_round cell)
          ~corrupt:(Q.lift_corrupt Distributed.corrupt)
          ~on_round:(Monitor.on_round monitor)
          ~probe:(Monitor.probe monitor) rng graph
      in
      let rep = Monitor.report monitor ~converged:result.EQ.converged in
      success_of_report ~converged:result.EQ.converged rep

let outcome_of_run rng ~spec ~max_rounds ~burst_round ~horizon cell =
  match run_one rng ~spec ~max_rounds ~burst_round ~horizon cell with
  | ok -> Run_ok ok
  | exception e -> Run_failed (Printexc.to_string e)

(* Anomaly verdict for one outcome — shared by sweep aggregation and
   single-run replay so a replayed run is judged exactly like the sweep
   judged it. *)
let judge cell outcome =
  match outcome with
  | Run_failed reason -> Some reason
  | Run_ok ok ->
      if cell.c_byz <> None then
        (* Under a permanent adversary, recovery-flavoured verdicts
           (convergence, burst closure, post-recovery cleanliness) no
           longer apply — Oscillators are *supposed* to keep the run
           dirty forever. The strict-stabilization verdict is
           containment: the clean region must end the run legitimate. *)
        match ok.ok_containment with
        | Some c when not c.Monitor.contained ->
            Some
              (Printf.sprintf "escaped (radius=%d, escapes=%d)"
                 c.Monitor.worst_radius c.Monitor.escaped_rounds)
        | Some _ | None -> None
      else if not ok.ok_converged then
        Some (Monitor.classification_label ok.ok_class)
      else if ok.ok_unrecovered > 0 then Some "unrecovered burst"
      else if ok.ok_post > 0 then
        Some (Printf.sprintf "post-recovery violations=%d" ok.ok_post)
      else None

let run_cell ?domains ~seed ~runs ~spec ~max_rounds ~burst_round
    ~horizon cell =
  let outcomes =
    Runner.replicate ?domains ~seed ~runs (fun ~run rng ->
        ignore run;
        outcome_of_run rng ~spec ~max_rounds ~burst_round ~horizon
          cell)
  in
  (* Aggregation replays the outcome list in run order (determinism
     contract: identical for any domain count). *)
  let converged = ref 0 in
  let oscillating = ref 0 in
  let still_changing = ref 0 in
  let failed = ref 0 in
  let dwell = Summary.create () in
  let max_dwell = ref 0 in
  let unrecovered = ref 0 in
  let post = ref 0 in
  let ghosts = ref 0 in
  let radius = ref 0 in
  let uncontained = ref 0 in
  let bad = ref [] in
  List.iteri
    (fun i outcome ->
      (match outcome with
      | Run_failed _ -> incr failed
      | Run_ok ok -> (
          (match ok.ok_class with
          | Monitor.Converged -> incr converged
          | Monitor.Oscillating _ -> incr oscillating
          | Monitor.Still_changing -> incr still_changing);
          List.iter
            (fun d ->
              Summary.add_int dwell d;
              if d > !max_dwell then max_dwell := d)
            ok.ok_dwells;
          unrecovered := !unrecovered + ok.ok_unrecovered;
          post := !post + ok.ok_post;
          if ok.ok_ghost_peak > !ghosts then ghosts := ok.ok_ghost_peak;
          match ok.ok_containment with
          | None -> ()
          | Some c ->
              if c.Monitor.worst_radius > !radius then
                radius := c.Monitor.worst_radius;
              if not c.Monitor.contained then incr uncontained));
      match judge cell outcome with
      | Some reason -> bad := (i, reason) :: !bad
      | None -> ())
    outcomes;
  {
    cell;
    runs;
    converged = !converged;
    oscillating = !oscillating;
    still_changing = !still_changing;
    failed = !failed;
    dwell;
    max_dwell = !max_dwell;
    unrecovered = !unrecovered;
    post_violations = !post;
    peak_ghosts = !ghosts;
    worst_radius = !radius;
    uncontained = !uncontained;
    bad = List.rev !bad;
  }

let run ?(seed = 42) ?(runs = 4) ?domains
    ?(spec = default_spec) ?(grid = default_grid) ?(max_rounds = 1_500)
    ?(burst_round = default_burst_round) ?(horizon = default_horizon) () =
  List.map
    (run_cell ?domains ~seed ~runs ~spec ~max_rounds ~burst_round
       ~horizon)
    (cells grid)

(* Re-execute exactly one (cell, run) of the sweep. Every cell feeds the
   same per-run positional sub-streams to its replicates, so run [i] of
   any cell is the [i]-th stream of the base seed — the prefix property of
   {!Runner.streams} makes this cheap and exact at any original --jobs. *)
let replay ?(seed = 42) ?(spec = default_spec)
    ?(grid = default_grid) ?(max_rounds = 1_500)
    ?(burst_round = default_burst_round) ?(horizon = default_horizon)
    ~cell:cell_index ~run:run_index () =
  let cs = cells grid in
  if cell_index < 0 || cell_index >= List.length cs then
    invalid_arg "Exp_campaign.replay: cell index outside the grid";
  if run_index < 0 then invalid_arg "Exp_campaign.replay: negative run index";
  let cell = List.nth cs cell_index in
  let rng = (Runner.streams ~seed ~runs:(run_index + 1)).(run_index) in
  let outcome =
    outcome_of_run rng ~spec ~max_rounds ~burst_round ~horizon cell
  in
  (cell, judge cell outcome)

let render_bad ~replay_prefix ~cell_index bad =
  match bad with
  | [] -> "-"
  | bad ->
      String.concat "; "
        (List.map
           (fun (i, reason) ->
             match replay_prefix with
             | Some prefix ->
                 Printf.sprintf "%s --cell %d --run %d (%s)" prefix
                   cell_index i reason
             | None -> Printf.sprintf "%d: %s" i reason)
           bad)

let to_table ?replay_prefix
    ?(title = "Campaign — worst case per fault-grid cell") rows =
  let t =
    Table.create ~title
      ~header:
        [
          "corrupt"; "channel"; "crash/rd"; "scheduler"; "byz"; "conv";
          "osc"; "still"; "failed"; "mean dwell"; "max dwell"; "unrec";
          "post-viol"; "peak ghosts"; "radius";
          "replay (anomalous runs)";
        ]
      ()
  in
  Table.add_rows t
    (List.mapi
       (fun cell_index r ->
         cell_label r.cell
         @ [
             Printf.sprintf "%d/%d" r.converged r.runs;
             Table.cell_int r.oscillating;
             Table.cell_int r.still_changing;
             Table.cell_int r.failed;
             Table.cell_float ~decimals:1 (Summary.mean r.dwell);
             Table.cell_int r.max_dwell;
             Table.cell_int r.unrecovered;
             Table.cell_int r.post_violations;
             Table.cell_int r.peak_ghosts;
             (if r.cell.c_byz = None then "-"
              else Table.cell_int r.worst_radius);
             render_bad ~replay_prefix ~cell_index r.bad;
           ])
       rows)

let print ?seed ?runs ?domains ?spec ?grid ?max_rounds ?burst_round
    ?horizon () =
  let rows =
    run ?seed ?runs ?domains ?spec ?grid ?max_rounds ?burst_round
      ?horizon ()
  in
  Table.print (to_table rows);
  let worst =
    List.fold_left (fun acc r -> max acc r.max_dwell) 0 rows
  in
  let byz_rows = List.filter (fun r -> r.cell.c_byz <> None) rows in
  let worst_radius =
    List.fold_left (fun acc r -> max acc r.worst_radius) 0 byz_rows
  in
  let anomalous = List.length (List.filter (fun r -> r.bad <> []) rows) in
  Printf.printf
    "worst violation dwell: %d rounds; cells with anomalies: %d/%d\n" worst
    anomalous (List.length rows);
  if byz_rows <> [] then
    Printf.printf
      "worst-case containment radius: %d hops (over %d Byzantine cells; \
       uncontained runs: %d)\n"
      worst_radius (List.length byz_rows)
      (List.fold_left (fun acc r -> acc + r.uncontained) 0 byz_rows)

let failed_rows rows = List.filter (fun r -> r.failed > 0) rows
