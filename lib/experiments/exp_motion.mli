(** Extension experiment C4: cluster stability under continuous motion.

    The paper's Section 5 mobility regimes — pedestrian (0–1.6 m/s) and
    vehicular (0–10 m/s), random walk and random waypoint — run through
    the engine's per-round motion hook: the fleet advances [dt] seconds
    per round, the unit-disk topology is maintained incrementally and
    rebased in place, and the invariant monitor judges every round's
    snapshot. Rows report cluster-head lifetime (tenures in rounds,
    right-censored at the horizon), re-election rate per 100 node-rounds,
    time-in-legitimacy, per-round edge flips, and final legitimacy.

    Every run executes the full round budget (the quiescence target is
    the budget itself) so the regimes' per-round metrics share a
    denominator; results are bit-identical for any [domains]. *)

type regime = {
  label : string;
  model : Ss_mobility.Model.t;
  speed_max : float;  (** m/s, for the table *)
}

val walk : speed_max:float -> Ss_mobility.Model.t
(** Random walk with speeds uniform in [0, speed_max] m/s. *)

val waypoint : speed_max:float -> Ss_mobility.Model.t
(** Random waypoint with speeds uniform in [0, speed_max] m/s and a 30 s
    pause at each target. *)

val default_regimes : regime list
(** static, walk/waypoint x pedestrian/vehicular. *)

type row = {
  regime : string;
  speed_max : float;
  runs : int;
  head_lifetime : Ss_stats.Summary.t;
  reelections : int;
  node_rounds : int;
  legitimacy : Ss_stats.Summary.t;
  violating : Ss_stats.Summary.t;
      (** per-round fraction of alive nodes named by
          {!Ss_cluster.Invariants.violators} — grades how far from
          legitimate a round is where [legitimacy] only says it isn't *)
  edge_flips : Ss_stats.Summary.t;
  final_legitimate : int;
}

val reelection_rate : row -> float
(** Head re-elections per 100 alive node-rounds. *)

val default_spec : Scenario.spec

val run :
  ?seed:int ->
  ?runs:int ->
  ?domains:int ->
  ?spec:Scenario.spec ->
  ?regimes:regime list ->
  ?channel:Ss_radio.Channel.t ->
  ?churn:Ss_engine.Churn.t ->
  ?dt:float ->
  ?rounds:int ->
  unit ->
  row list
(** [channel] and [churn] compose with motion: lossy delivery and
    discrete churn events ride on top of the continuous rewiring. *)

val to_table : ?title:string -> row list -> Ss_stats.Table.t

val print :
  ?seed:int ->
  ?runs:int ->
  ?domains:int ->
  ?spec:Scenario.spec ->
  ?regimes:regime list ->
  ?channel:Ss_radio.Channel.t ->
  ?churn:Ss_engine.Churn.t ->
  ?dt:float ->
  ?rounds:int ->
  unit ->
  unit
