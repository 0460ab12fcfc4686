(* Robustness experiment C3: Byzantine containment sweep.

   The campaign (C2) answers "does anything break the sweep"; this
   experiment isolates the adversary axis and measures *containment*
   proper, per (behavior × channel × Byzantine count) on a fixed
   deployment class: how far from the Byzantine set do legitimacy
   violations radiate once the adversary is live (violation radius), how
   long until the clean region — every node more than [horizon] hops from
   any Byzantine node — is legitimate for good (time to containment), and
   whether it stays that way (escaped rounds, contained runs).

   The paper's transient-fault theorem says nothing here: the fault never
   stops, so global convergence is not the bar (an Oscillator keeps its
   neighborhood dirty forever, and is supposed to). The strict-
   stabilization bar is that the damage stays within a bounded radius of
   the adversary. *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Channel = Ss_radio.Channel
module Scheduler = Ss_engine.Scheduler
module Monitor = Ss_engine.Monitor
module Adversary = Ss_engine.Adversary
module Distributed = Ss_cluster.Distributed
module Invariants = Ss_cluster.Invariants
module Summary = Ss_stats.Summary
module Table = Ss_stats.Table

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

let config = Distributed.default_params.Distributed.algo
let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

let default_spec = Scenario.uniform ~count:60 ~radius:0.15 ()
let default_from_round = 40
let default_counts = [ 1; 3 ]

let default_channels =
  [
    Channel.perfect;
    Channel.bernoulli 0.8;
    Channel.asymmetric ~seed:11 ~tau_lo:0.5 ~tau_hi:1.0;
    Exp_campaign.default_bursty;
  ]

type row = {
  behavior : Adversary.behavior;
  channel : Channel.t;
  count : int;
  runs : int;
  contained : int;  (* runs whose clean region ended legitimate *)
  worst_radius : int;
  radius : Summary.t;  (* per-run worst violation radius *)
  ttc : Summary.t;  (* time to containment, over contained runs *)
  escaped_rounds : int;  (* clean-region-violating rounds, totalled *)
  converged : int;
  oscillating : int;
  failed : int;
  bad : (int * string) list;  (* replay pointers: run index + reason *)
}

(* The sweep's cell order: behavior-major, channel-minor — shared with
   {!replay} so --cell indices line up with the printed rows. *)
let configs ~behaviors ~counts ~channels =
  List.concat_map
    (fun behavior ->
      List.concat_map
        (fun count -> List.map (fun ch -> (behavior, count, ch)) channels)
        counts)
    behaviors

(* One run: converge-from-arbitrary-init with the adversary switching on
   at [from_round], the monitor projecting wrapped states back to honest
   semantics. Pure per-run so configs parallelize over domains. *)
let run_one rng ~spec ~max_rounds ~from_round ~horizon ~behavior
    ~count channel =
  let world = Scenario.build rng spec in
  let graph = world.Scenario.graph in
  let n = Graph.node_count graph in
  let ids = Array.init n Fun.id in
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
        let from_round = from_round
        let forge = Distributed.forge
      end)
  in
  let module EQ = Ss_engine.Engine.Make (Q) in
  let adversary =
    {
      Monitor.dist = Adversary.distances graph byz;
      horizon;
      active_from = from_round;
    }
  in
  let monitor =
    Invariants.monitor_via ~adversary ~project:Q.project ~config ~ids ()
  in
  let result =
    EQ.run ~channel ~quiet_rounds ~max_rounds
      ~on_round:(Monitor.on_round monitor)
      ~probe:(Monitor.probe monitor) rng graph
  in
  let rep = Monitor.report monitor ~converged:result.EQ.converged in
  (rep.Monitor.classification, rep.Monitor.containment)

type outcome =
  | Run_ok of Monitor.classification * Monitor.containment option
  | Run_failed of string

let outcome_of_run rng ~spec ~max_rounds ~from_round ~horizon
    ~behavior ~count channel =
  match
    run_one rng ~spec ~max_rounds ~from_round ~horizon ~behavior
      ~count channel
  with
  | cls, containment -> Run_ok (cls, containment)
  | exception e -> Run_failed (Printexc.to_string e)

(* Anomaly verdict, shared by sweep aggregation and single-run replay:
   raising or uncontained. Global convergence is not the bar under a
   permanent adversary. *)
let judge = function
  | Run_failed reason -> Some reason
  | Run_ok (_, containment) -> (
      match containment with
      | Some c when not c.Monitor.contained ->
          Some
            (Printf.sprintf "escaped (radius=%d, escapes=%d)"
               c.Monitor.worst_radius c.Monitor.escaped_rounds)
      | Some _ | None -> None)

let run_config ?domains ~seed ~runs ~spec ~max_rounds ~from_round
    ~horizon ~behavior ~count channel =
  let outcomes =
    Runner.replicate ?domains ~seed ~runs (fun ~run rng ->
        ignore run;
        outcome_of_run rng ~spec ~max_rounds ~from_round ~horizon
          ~behavior ~count channel)
  in
  let contained = ref 0 in
  let worst = ref 0 in
  let radius = Summary.create () in
  let ttc = Summary.create () in
  let escaped = ref 0 in
  let converged = ref 0 in
  let oscillating = ref 0 in
  let failed = ref 0 in
  let bad = ref [] in
  List.iteri
    (fun i outcome ->
      (match outcome with
      | Run_failed _ -> incr failed
      | Run_ok (cls, containment) -> (
          (match cls with
          | Monitor.Converged -> incr converged
          | Monitor.Oscillating _ -> incr oscillating
          | Monitor.Still_changing -> ());
          match containment with
          | None -> ()
          | Some c ->
              Summary.add_int radius c.Monitor.worst_radius;
              if c.Monitor.worst_radius > !worst then
                worst := c.Monitor.worst_radius;
              escaped := !escaped + c.Monitor.escaped_rounds;
              if c.Monitor.contained then begin
                incr contained;
                match c.Monitor.time_to_containment with
                | Some t -> Summary.add_int ttc t
                | None -> ()
              end));
      match judge outcome with
      | Some reason -> bad := (i, reason) :: !bad
      | None -> ())
    outcomes;
  {
    behavior;
    channel;
    count;
    runs;
    contained = !contained;
    worst_radius = !worst;
    radius;
    ttc;
    escaped_rounds = !escaped;
    converged = !converged;
    oscillating = !oscillating;
    failed = !failed;
    bad = List.rev !bad;
  }

let run ?(seed = 42) ?(runs = 5) ?domains
    ?(spec = default_spec) ?(behaviors = Adversary.behaviors)
    ?(counts = default_counts) ?(channels = default_channels)
    ?(max_rounds = 800) ?(from_round = default_from_round)
    ?(horizon = Exp_campaign.default_horizon) () =
  List.map
    (fun (behavior, count, channel) ->
      run_config ?domains ~seed ~runs ~spec ~max_rounds ~from_round
        ~horizon ~behavior ~count channel)
    (configs ~behaviors ~counts ~channels)

(* Single-(cell, run) re-execution; same stream argument as
   {!Exp_campaign.replay}. *)
let replay ?(seed = 42) ?(spec = default_spec)
    ?(behaviors = Adversary.behaviors) ?(counts = default_counts)
    ?(channels = default_channels) ?(max_rounds = 800)
    ?(from_round = default_from_round)
    ?(horizon = Exp_campaign.default_horizon) ~cell:cell_index
    ~run:run_index () =
  let cs = configs ~behaviors ~counts ~channels in
  if cell_index < 0 || cell_index >= List.length cs then
    invalid_arg "Exp_adversary.replay: cell index outside the sweep";
  if run_index < 0 then invalid_arg "Exp_adversary.replay: negative run index";
  let ((behavior, count, channel) as config) = List.nth cs cell_index in
  let rng = (Runner.streams ~seed ~runs:(run_index + 1)).(run_index) in
  let outcome =
    outcome_of_run rng ~spec ~max_rounds ~from_round ~horizon
      ~behavior ~count channel
  in
  (config, judge outcome)

let to_table ?replay_prefix
    ?(title = "Adversary — containment per behavior/channel") rows =
  let t =
    Table.create ~title
      ~header:
        [
          "behavior"; "byz"; "channel"; "contained"; "worst radius";
          "mean radius"; "mean ttc"; "escaped rds"; "conv"; "osc"; "failed";
          "replay (anomalous runs)";
        ]
      ()
  in
  Table.add_rows t
    (List.mapi
       (fun cell_index r ->
         [
           Adversary.behavior_to_string r.behavior;
           Table.cell_int r.count;
           Fmt.str "%a" Channel.pp r.channel;
           Printf.sprintf "%d/%d" r.contained r.runs;
           Table.cell_int r.worst_radius;
           Table.cell_float ~decimals:1 (Summary.mean r.radius);
           Table.cell_float ~decimals:1 (Summary.mean r.ttc);
           Table.cell_int r.escaped_rounds;
           Table.cell_int r.converged;
           Table.cell_int r.oscillating;
           Table.cell_int r.failed;
           Exp_campaign.render_bad ~replay_prefix ~cell_index r.bad;
         ])
       rows)

let print ?seed ?runs ?domains ?spec ?behaviors ?counts ?channels
    ?max_rounds ?from_round ?horizon () =
  let rows =
    run ?seed ?runs ?domains ?spec ?behaviors ?counts ?channels
      ?max_rounds ?from_round ?horizon ()
  in
  Table.print (to_table rows);
  let worst = List.fold_left (fun acc r -> max acc r.worst_radius) 0 rows in
  let uncontained =
    List.fold_left (fun acc r -> acc + (r.runs - r.failed - r.contained)) 0 rows
  in
  Printf.printf
    "worst-case containment radius: %d hops; uncontained runs: %d\n" worst
    uncontained
