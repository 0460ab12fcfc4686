(** The data-plane workload: application messages routed through the
    cluster hierarchy while the control plane is still stabilizing.

    One {!t} rides one engine run through the [?workload] hook of
    {!Ss_engine.Engine.Make.run} / {!Ss_engine.Flat.Make.run}: each round
    it admits keyed Poisson-ish arrivals, moves every in-flight message
    at most one hop ({!Route} decides, the data channel decides whether
    the frame survives), retries failed hops under exponential backoff,
    invalidates next hops the liveness monitor has seen die, drops
    messages at their TTL, and drains batteries — depleted nodes are fed
    back to the engine as {!Ss_engine.Churn} crashes, closing the loop
    traffic → energy → churn → re-stabilization → traffic.

    {2 Determinism}

    Every random decision (arrival count, endpoints, backoff jitter,
    data-frame loss) is counter-keyed from the workload's own seed —
    never the run's sequential generator, never the engine's lanes — so
    attaching a workload perturbs no protocol draw and the same
    configuration is bit-identical across Dense/Sparse/Flat executors
    and any domain count ([test/suite_traffic.ml] enforces this
    differentially). Routing itself consumes no randomness. *)

type energy_model = {
  capacity : float;  (** initial charge of every battery *)
  tx_cost : float;  (** per transmission attempt, paid by the sender *)
  rx_cost : float;  (** per received frame, paid by the receiver *)
  duty : Ss_cluster.Energy.drain;
      (** believed-role duty cost, applied once per [duty_every] rounds *)
  duty_every : int;
}

val default_energy : energy_model

type config = {
  seed : int;  (** root of the workload's keyed randomness *)
  channel : Ss_radio.Channel.t;
      (** the {e data} channel — independent of the engine's control
          channel, so lossy data frames do not imply a lossy control
          plane (or vice versa) *)
  rate : float;  (** expected message arrivals per round *)
  first_round : int;  (** first round arrivals are offered *)
  last_round : int option;  (** last offered round; [None] = sustained *)
  ttl : int;  (** rounds a message may live after birth *)
  max_attempts : int;
      (** failed transmissions to one next hop before it is banned and
          the message re-routed *)
  backoff_base : int;  (** retry delay after the first failure, rounds *)
  backoff_cap : int;  (** ceiling on the doubling backoff *)
  jitter : bool;  (** add a keyed 0/1-round jitter to each backoff *)
  energy : energy_model option;  (** [None] = infinite batteries *)
}

val default_config : config
(** Perfect data channel, rate 1, TTL 64, 3 attempts per hop, backoff
    1..8 with jitter, no energy model, sustained offer from round 1. *)

type t

val create : config -> n:int -> t
(** A workload instance for one run over [n] nodes. Raises
    [Invalid_argument] on non-positive [ttl]/[max_attempts], negative
    [rate]/[backoff_base], [backoff_cap < backoff_base], or a
    non-positive [duty_every]/[capacity] in the energy model. Every
    per-round work array (the arrival pool, the duty round's head mask)
    is allocated here, once. *)

val tick :
  t ->
  round:int ->
  graph:Ss_topology.Graph.t ->
  alive:bool array ->
  view_of:(int -> Ss_cluster.Distributed.view) ->
  bool
(** One data-plane round; the engine hooks call this. Rounds must be
    consecutive from 1 (raises [Invalid_argument] otherwise — one [t]
    rides exactly one run). The graph and the liveness mask must both
    have the [n] nodes given to {!create} (raises [Invalid_argument]
    otherwise). Returns whether the workload is still active: more
    arrivals to offer or messages in flight. Requires the graph to carry
    positions (geographic routing).

    [view_of] is called once per routing decision (for the holder) and,
    on duty rounds, once per alive node (for its believed head); a
    returned view is used before the next call and never kept. *)

val hook :
  t ->
  round:int ->
  graph:Ss_topology.Graph.t ->
  alive:bool array ->
  read:(int -> Ss_cluster.Distributed.view) ->
  bool
(** [tick] with [read] as [view_of] — exactly the shape of
    {!Ss_engine.Flat.Make.run}'s [?workload] parameter for the
    {!Ss_cluster.Distributed} protocol, where [read] aliases the flat
    planes and copies nothing. *)

val typed_hook :
  t ->
  round:int ->
  graph:Ss_topology.Graph.t ->
  alive:bool array ->
  read:(int -> Ss_cluster.Distributed.state) ->
  bool
(** [tick] pre-composed with the typed projection
    {!Ss_cluster.Distributed.view} — the shape of
    {!Ss_engine.Engine.Make.run}'s [?workload] parameter. Same decisions
    as {!hook} on the flat executor, one fresh view per read. *)

val churn_feed : t -> Ss_engine.Churn.t
(** The energy→churn half of the feedback loop: a drawless generator
    emitting [Crash p] for every node whose battery is empty but which
    the dynamic topology still considers alive — the engine applies them
    at the next round boundary, before that round's communication.
    {!Ss_engine.Churn.nothing} when the workload has no energy model.
    Compose it with the run's scheduled churn. The generator raises
    [Invalid_argument] when the dynamic topology's node count is not the
    [n] given to {!create}. *)

(** {2 Results} *)

type totals = {
  offered : int;
  delivered : int;
  expired : int;  (** dropped at TTL *)
  died : int;  (** holder crashed with the message queued *)
  in_flight : int;  (** still pending when the run ended *)
  attempts : int;  (** transmission attempts *)
  failures : int;  (** failed transmission attempts *)
  stalls : int;  (** rounds a message found no usable candidate *)
  reroutes : int;  (** next hops banned after [max_attempts] losses *)
  invalidations : int;
      (** next hops banned because the monitor saw them dead/ghost *)
  latency : Ss_stats.Summary.t;  (** rounds from birth, delivered only *)
  hops : Ss_stats.Summary.t;
  retries : Ss_stats.Summary.t;  (** failures per delivered message *)
}

val totals : t -> totals

type series = {
  s_offered : int array;  (** per round, index [round - 1] *)
  s_delivered : int array;
  s_expired : int array;
  s_died : int array;
  s_attempts : int array;
  s_failures : int array;
  s_inflight : int array;  (** in flight after the round *)
}

val series : t -> series

type cohort = {
  c_start : int;  (** first birth round of the window *)
  c_offered : int;
  c_delivered : int;
  c_ratio : float;  (** delivered / offered; [nan] on an empty window *)
  c_latency_mean : float;  (** over delivered messages; [nan] when none *)
}

val cohorts : window:int -> t -> cohort list
(** Messages bucketed by birth round into windows of [window] rounds —
    the delivery-ratio-over-time curve (a message counts in the window
    it was {e born} in, so a churn burst's dip lands where the affected
    traffic entered, not where it eventually expired). *)

type energy_report = {
  depleted : int;  (** batteries that hit zero *)
  spent_mean : float;
  spent_max : float;
  jain : float;
      (** Jain fairness index over per-node spent charge: 1 = perfectly
          even drain, 1/n = one node paid for everything *)
  head_rounds_max : int;
  head_rounds_mean : float;  (** believed-head duty rounds per node *)
}

val energy_report : t -> energy_report option
(** [None] when the workload has no energy model. *)

val equal : t -> t -> bool
(** Bit-level equality of everything observable: per-message planes,
    per-round series, counters, battery charges and duty accounting.
    The differential batteries compare executors with this. *)
