(* Extension experiment C4: cluster stability under continuous motion.

   The paper's Section 5 mobility claim, finally run: nodes drift
   continuously (random walk / random waypoint at pedestrian and vehicular
   speeds) while the stack keeps re-stabilizing in place. Each engine
   round advances the fleet by [dt] seconds, the unit-disk topology is
   maintained incrementally (Ss_topology.Motion) and rebased into the
   run's dynamic graph, and the monitor judges legitimacy on every
   round's snapshot. Reported per regime: cluster-head lifetime (rounds a
   node keeps one elected head; tenures still open at the end of the run
   are closed at the horizon, so a frozen fleet reads as
   lifetime ~ horizon), re-election rate (head changes per 100
   node-rounds), time-in-legitimacy (fraction of rounds with zero
   violations), per-round edge flips, and final legitimacy.

   Every run executes the full horizon (quiet_rounds = the round budget):
   a static deployment would otherwise converge and stop early, and the
   regimes' time-in-legitimacy denominators must match for the
   comparison to mean anything. *)

module Graph = Ss_topology.Graph
module Motion = Ss_topology.Motion
module Rng = Ss_prng.Rng
module Scheduler = Ss_engine.Scheduler
module Churn = Ss_engine.Churn
module Channel = Ss_radio.Channel
module Monitor = Ss_engine.Monitor
module Model = Ss_mobility.Model
module Fleet = Ss_mobility.Fleet
module Config = Ss_cluster.Config
module Distributed = Ss_cluster.Distributed
module Invariants = Ss_cluster.Invariants
module Legitimacy = Ss_cluster.Legitimacy
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Ss_engine.Engine.Make (P)

type regime = { label : string; model : Model.t; speed_max : float (* m/s *) }

let walk ~speed_max =
  Model.random_walk ~speed_min:0.0
    ~speed_max:(Model.meters_per_second speed_max) ()

let waypoint ~speed_max =
  Model.random_waypoint ~pause:30.0 ~speed_min:0.0
    ~speed_max:(Model.meters_per_second speed_max) ()

(* The paper's two speed regimes (0-1.6 m/s pedestrian, 0-10 m/s
   vehicular) under both mobility families, plus the frozen baseline. *)
let default_regimes =
  [
    { label = "static"; model = Model.static; speed_max = 0.0 };
    { label = "walk pedestrian"; model = walk ~speed_max:1.6; speed_max = 1.6 };
    { label = "walk vehicular"; model = walk ~speed_max:10.0; speed_max = 10.0 };
    {
      label = "waypoint pedestrian";
      model = waypoint ~speed_max:1.6;
      speed_max = 1.6;
    };
    {
      label = "waypoint vehicular";
      model = waypoint ~speed_max:10.0;
      speed_max = 10.0;
    };
  ]

type row = {
  regime : string;
  speed_max : float;
  runs : int;
  head_lifetime : Summary.t; (* head tenures in rounds, pooled over runs *)
  reelections : int; (* head changes to a (new) elected head *)
  node_rounds : int; (* alive node-rounds observed *)
  legitimacy : Summary.t; (* per-run fraction of violation-free rounds *)
  violating : Summary.t; (* per-round fraction of alive nodes violating *)
  edge_flips : Summary.t; (* per-round added+removed links, pooled *)
  final_legitimate : int; (* runs ending legitimate on the final snapshot *)
}

type run_outcome = {
  o_lifetimes : int list;
  o_reelections : int;
  o_node_rounds : int;
  o_legitimacy : float;
  o_violating : Summary.t;
  o_edge_flips : Summary.t;
  o_final_legitimate : bool;
}

let reelection_rate r =
  if r.node_rounds = 0 then 0.0
  else 100.0 *. float_of_int r.reelections /. float_of_int r.node_rounds

(* One run: deploy, wrap the deployment's positions in a fleet and a
   motion maintainer, and let the engine's motion hook drive both. The
   run's graph is the maintainer's own starting snapshot so every
   per-round graph shares its live position buffer. *)
let one_run ~spec ~regime ~channel ~churn ~dt ~rounds rng =
  let world = Scenario.build rng spec in
  let positions =
    match Graph.positions world.Scenario.graph with
    | Some pos -> pos
    | None -> invalid_arg "Exp_motion: deployment carries no positions"
  in
  let fleet =
    Fleet.create rng ~model:regime.model ~box:Ss_geom.Bbox.unit_square
      positions
  in
  let motion = Motion.create ~radius:spec.Scenario.radius positions in
  let graph = Motion.graph motion in
  let n = Graph.node_count graph in
  let edge_flips = Summary.create () in
  let hook ~round:_ =
    let moved = Fleet.step_moved fleet dt (fun i p -> Motion.move motion i p) in
    if moved = 0 then begin
      Summary.add edge_flips 0.0;
      None
    end
    else begin
      let diff = Motion.flush motion in
      Summary.add_int edge_flips
        (List.length diff.Motion.added + List.length diff.Motion.removed);
      Some (Motion.graph motion, diff)
    end
  in
  let ids = Array.init n Fun.id in
  let mon = Invariants.monitor ~config:Config.basic ~ids () in
  (* Head-tenure bookkeeping: -2 = not yet observed, -1 = no elected head. *)
  let cur_head = Array.make n (-2) in
  let since = Array.make n 0 in
  let lifetimes = ref [] in
  let reelections = ref 0 in
  let node_rounds = ref 0 in
  let violating = Summary.create () in
  let probe ~round ~graph ~alive states =
    Monitor.probe mon ~round ~graph ~alive states;
    (* Whole-network legitimacy is all-or-nothing and reads 0 under
       sustained motion; the violating-node fraction grades how far from
       legitimate each round actually is. *)
    let alive_count =
      Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 alive
    in
    let violators =
      Invariants.violators ~config:Config.basic ~ids ~graph ~alive states
    in
    Summary.add violating
      (float_of_int (List.length violators)
      /. float_of_int (max 1 alive_count));
    for p = 0 to n - 1 do
      if alive.(p) then begin
        incr node_rounds;
        let h =
          match states.(p).Distributed.head with Some h -> h | None -> -1
        in
        if cur_head.(p) = -2 then begin
          cur_head.(p) <- h;
          since.(p) <- round
        end
        else if h <> cur_head.(p) then begin
          if cur_head.(p) >= 0 then
            lifetimes := (round - since.(p)) :: !lifetimes;
          if h >= 0 then incr reelections;
          cur_head.(p) <- h;
          since.(p) <- round
        end
      end
    done
  in
  let result =
    E.run ~max_rounds:rounds ~quiet_rounds:rounds
      ~channel ?churn ~corrupt:Distributed.corrupt ~motion:hook
      ~on_round:(Monitor.on_round mon) ~probe rng graph
  in
  (* Close the tenures still open at the horizon (right-censored: a frozen
     fleet's heads legitimately live as long as the run). *)
  for p = 0 to n - 1 do
    if cur_head.(p) >= 0 then
      lifetimes := (result.E.rounds + 1 - since.(p)) :: !lifetimes
  done;
  let report = Monitor.report mon ~converged:result.E.converged in
  let legitimacy =
    if report.Monitor.rounds = 0 then 1.0
    else
      float_of_int (report.Monitor.rounds - report.Monitor.violating_rounds)
      /. float_of_int report.Monitor.rounds
  in
  let assignment =
    Distributed.to_assignment ~alive:result.E.alive result.E.states
  in
  {
    o_lifetimes = !lifetimes;
    o_reelections = !reelections;
    o_node_rounds = !node_rounds;
    o_legitimacy = legitimacy;
    o_violating = violating;
    o_edge_flips = edge_flips;
    o_final_legitimate =
      Legitimacy.is_legitimate Config.basic result.E.graph ~ids assignment;
  }

let measure ?domains ~seed ~runs ~spec ~channel ~churn ~dt ~rounds
    regime =
  let outcomes =
    Runner.replicate ?domains ~seed ~runs (fun ~run rng ->
        ignore run;
        one_run ~spec ~regime ~channel ~churn ~dt ~rounds rng)
  in
  let head_lifetime = Summary.create () in
  let reelections = ref 0 in
  let node_rounds = ref 0 in
  let legitimacy = Summary.create () in
  let violating = ref (Summary.create ()) in
  let edge_flips = ref (Summary.create ()) in
  let final_legitimate = ref 0 in
  List.iter
    (fun o ->
      List.iter (Summary.add_int head_lifetime) (List.rev o.o_lifetimes);
      reelections := !reelections + o.o_reelections;
      node_rounds := !node_rounds + o.o_node_rounds;
      Summary.add legitimacy o.o_legitimacy;
      violating := Summary.merge !violating o.o_violating;
      edge_flips := Summary.merge !edge_flips o.o_edge_flips;
      if o.o_final_legitimate then incr final_legitimate)
    outcomes;
  {
    regime = regime.label;
    speed_max = regime.speed_max;
    runs;
    head_lifetime;
    reelections = !reelections;
    node_rounds = !node_rounds;
    legitimacy;
    violating = !violating;
    edge_flips = !edge_flips;
    final_legitimate = !final_legitimate;
  }

let default_spec = Scenario.poisson ~intensity:300.0 ~radius:0.1 ()

let run ?(seed = 42) ?(runs = 5) ?domains ?(spec = default_spec)
    ?(regimes = default_regimes)
    ?(channel = Channel.perfect) ?churn ?(dt = 1.0) ?(rounds = 200) () =
  if dt < 0.0 then invalid_arg "Exp_motion.run: negative dt";
  if rounds < 1 then invalid_arg "Exp_motion.run: need at least one round";
  List.map
    (measure ?domains ~seed ~runs ~spec ~channel ~churn ~dt ~rounds)
    regimes

let to_table ?(title = "Motion — cluster stability vs speed") rows =
  let t =
    Table.create ~title
      ~header:
        [
          "regime"; "speed (m/s)"; "head lifetime"; "re-elect/100nr";
          "legitimacy"; "violating"; "edge flips/round"; "final legit";
        ]
      ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         [
           r.regime;
           Table.cell_float ~decimals:1 r.speed_max;
           Table.cell_float ~decimals:1 (Summary.mean r.head_lifetime);
           Table.cell_float ~decimals:2 (reelection_rate r);
           Table.cell_float ~decimals:3 (Summary.mean r.legitimacy);
           Table.cell_float ~decimals:3 (Summary.mean r.violating);
           Table.cell_float ~decimals:2 (Summary.mean r.edge_flips);
           Printf.sprintf "%d/%d" r.final_legitimate r.runs;
         ])
       rows)

let print ?seed ?runs ?domains ?spec ?regimes ?channel ?churn ?dt ?rounds ()
    =
  let rows =
    run ?seed ?runs ?domains ?spec ?regimes ?channel ?churn ?dt ?rounds ()
  in
  Table.print (to_table rows)
