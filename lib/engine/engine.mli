(** Round-based executor for shared-variable protocols.

    One round is the paper's step Δ(τ): every node locally broadcasts its
    shared variables once and processes the frames that survive the channel.
    The executor detects fixpoints, counts stabilization rounds, lets a
    fault hook corrupt states mid-run, and — given a {!Churn} plan — applies
    topology events (crashes, joins, sleep/wake, link flapping) between
    rounds so the protocol must recover in place. {!Make.run} is the
    specification; {!divergence} is the one definition of what it means
    for another executor, or another domain count, to agree with it. *)

type round_info = {
  round : int;
  changed : int;
  events : int;  (** churn events applied before this round's communication *)
  corrupted : int list;
      (** nodes whose state was rewritten before this round's communication:
          churn [Corrupt] victims in plan order, then the [?fault] hook's
          victims; [] on clean rounds *)
}

type fault_report = {
  fault_round : int;  (** round the corruption landed on *)
  corrupted : int list;  (** same contents as {!round_info.corrupted} *)
}

type motion_hook =
  round:int -> (Ss_topology.Graph.t * Ss_topology.Motion.diff) option
(** Continuous-mobility feed, called once at the top of every round. Return
    [None] on a round with nothing in motion (a frozen fleet costs
    nothing); otherwise return the new base graph and the edge diff from
    the previous round's base — exactly what {!Ss_topology.Motion.flush}
    produces after stepping a fleet and reporting its moves. The graph
    must cover the same node universe as the run's initial graph, which
    should itself be the maintainer's starting snapshot so every round
    shares the live position buffer. *)

type burst = {
  burst_start : int;  (** first round of a maximal run of event rounds *)
  burst_end : int;  (** last round of the burst (= [burst_start] for a
                        single-round burst) *)
  burst_events : int;  (** events applied across the burst *)
  recovery_rounds : int option;
      (** rounds after [burst_end] until the last state change before the
          next burst (0 when nothing changed); [None] when the run hit
          [max_rounds] still churning after the final burst *)
}

type 's result = {
  states : 's array;
      (** final states; crashed/sleeping nodes hold their last (Join
          re-initializes, Wake resumes) *)
  rounds : int;  (** rounds executed, including the final quiet ones *)
  converged : bool;  (** true when the quiet-round target was reached *)
  last_change_round : int;
      (** the paper's stabilization time in steps: the last round in which
          any node's state changed or any event fired (0 when already
          stable) *)
  change_history : int list;  (** changed-node count per round, oldest first *)
  alive : bool array;  (** final liveness mask; all-true for churn-free runs *)
  graph : Ss_topology.Graph.t;
      (** final effective topology (= the input graph when no churn event
          ever fired) *)
  bursts : burst list;
      (** disturbance bursts (churn events and fault-hook rounds), oldest
          first, with measured recovery times *)
  faults : fault_report list;
      (** every round on which at least one node was corrupted (by churn
          [Corrupt] or the [?fault] hook), oldest first — the dwell-time
          attribution feed for {!Monitor} *)
}
(** What one run observably did, as both executors return it; "two runs
    agree" has one definition, {!divergence}. *)

(** {2 Shared executor internals}

    Used by both this executor and {!Flat}; exposed so the two stay on one
    definition of burst accounting, run agreement and key-lane derivation
    (the lanes {e are} the determinism contract: channel loss,
    permutation and per-node handle streams must coincide between
    executors for the differential batteries to hold). *)

val finalize_bursts :
  event_rounds:(int * int) list ->
  history:int list ->
  rounds:int ->
  converged:bool ->
  burst list
(** Fold per-round (round, applied-event-count) pairs — oldest first —
    into maximal bursts and read recovery times off the change history. *)

val divergence :
  equal:('s -> 's -> bool) -> 's result -> 's result -> string option
(** The one definition of run agreement: [None] when every observable of
    the two runs agrees, else the first difference, checked in a fixed
    order. The per-round [change_history] comes first
    (["change_history: round 37: 12 vs 13"]; ["-"] past a run's end),
    then [rounds], [converged], [last_change_round], [faults] and
    [bursts] (["bursts: #2"], counting from 0), and last the final
    snapshot: [alive] (["alive: node 9"]), [graph] (["graph: node 4"],
    the first node whose adjacency row differs) and [states]
    (["states: node 412"], compared with [equal]). Pass [P.equal_state]
    to compare the dense walk with the flat executor and [( = )] for
    bit-identity across domain counts. *)

val lane_channel : Ss_prng.Rng.key -> Ss_prng.Rng.key
(** Channel-plan lane of a round key. *)

val lane_perm : Ss_prng.Rng.key -> Ss_prng.Rng.key
(** Random-order permutation lane of a round key. *)

val lane_handle : Ss_prng.Rng.key -> Ss_prng.Rng.key
(** Per-node handle-generator lane of a round key (subkey by node). *)

module Make (P : Protocol.S) : sig
  type nonrec 's result = 's result = {
    states : 's array;
    rounds : int;
    converged : bool;
    last_change_round : int;
    change_history : int list;
    alive : bool array;
    graph : Ss_topology.Graph.t;
    bursts : burst list;
    faults : fault_report list;
  }
  (** {!result}, re-exported so its fields resolve here. *)

  type run = P.state result  (** = {!Flat.Make}[(P).run] *)

  val init_states :
    Ss_prng.Rng.t -> Ss_topology.Graph.t -> P.state array
  (** One [P.init] per node. *)

  val run :
    ?scheduler:Scheduler.t ->
    ?channel:Ss_radio.Channel.t ->
    ?max_rounds:int ->
    ?quiet_rounds:int ->
    ?fault:(round:int -> states:P.state array -> Ss_prng.Rng.t -> int list) ->
    ?churn:Churn.t ->
    ?corrupt:(Ss_prng.Rng.t -> int -> P.state -> P.state) ->
    ?motion:motion_hook ->
    ?on_round:(round_info -> unit) ->
    ?on_event:(round:int -> Churn.event -> unit) ->
    ?probe:
      (round:int ->
      graph:Ss_topology.Graph.t ->
      alive:bool array ->
      P.state array ->
      unit) ->
    ?workload:
      (round:int ->
      graph:Ss_topology.Graph.t ->
      alive:bool array ->
      read:(int -> P.state) ->
      bool) ->
    ?states:P.state array ->
    Ss_prng.Rng.t ->
    Ss_topology.Graph.t ->
    run
  (** The reference walk: every live node steps every round. It is the
      specification the flat executor ({!Flat}) is checked against, through
      {!divergence}.

      Execute rounds until [quiet_rounds] consecutive rounds change no state
      (and inject no fault or churn event), or until [max_rounds]. When the
      churn plan has a bounded {!Churn.horizon}, the run is kept alive
      through quiescence until the horizon passes, so scheduled storms
      always fire.

      Per round, in order: [motion] fires first — when it reports edge
      flips, the dynamic topology is {e rebased} onto the new unit-disk
      graph (down-marks on links that left radio range are dropped; a
      pair drifting back into range starts with the link up). Edge flips
      reset the quiescence counter — a run
      cannot "converge" mid-rewiring — but are {e not} churn events: they
      appear in no burst accounting, and a round whose fleet moved
      without flipping an edge can still close out convergence. Then
      [churn] events are applied to the (possibly rebased) dynamic
      topology ([Crash]/[Sleep] silence a node, [Join] revives it with a
      fresh [P.init] against the base graph, [Wake] revives it with its
      retained state, link events retopologize; [Corrupt] rewrites the
      node's state through [corrupt] — supplying a plan that emits
      [Corrupt] without [corrupt] raises [Invalid_argument]); then [fault]
      runs (it may mutate the state array in place and must return the list
      of nodes it corrupted, [] when it did nothing); then every {e alive}
      node broadcasts once over the current snapshot and handles what it
      heard. Crashed and sleeping nodes neither emit nor handle, and their
      frames vanish from neighbors' caches — recovery is the protocol's
      job. Rounds on which the fault hook corrupts anything count as
      disturbance rounds for burst/recovery attribution, exactly like churn
      event rounds.

      [on_event] fires once per applied event (no-ops — crashing a dead
      node, downing a downed link — are skipped and not counted);
      [on_round] fires after each round and reports the corrupted nodes;
      [probe] additionally sees the round's effective topology snapshot,
      the liveness mask and live states (all read-only) for mid-run
      instrumentation such as invariant monitoring. [states] warm-starts
      from a previous run; it must have exactly one entry per graph node
      (raises [Invalid_argument] up front on a length mismatch). The array
      is copied on entry — the run never mutates the caller's snapshot, so
      the same warm-start array can seed several runs.

      [workload] is the data-plane hook ({!Ss_traffic.Workload} is the
      canonical client): it fires once per round, after [probe], with the
      round's effective snapshot, liveness mask and a read-only state
      accessor (the flat executor's hook reads protocol views instead;
      {!Protocol.FLAT}'s typed [view] bridges the two), and returns
      whether the workload is still active. An
      active workload keeps the run alive through protocol quiescence
      (like a bounded churn horizon) so in-flight messages can drain;
      it never resets the quiescence counter, so [last_change_round] and
      [converged] mean the same thing with and without traffic. The hook
      must not mutate protocol state, and any randomness it consumes
      must be counter-keyed from its own key — never the run's generator
      — or executor equivalence (dense ≡ flat) breaks.

      Randomness is split into two disjoint families. The supplied
      generator drives only the per-round plan evaluation — churn events,
      fault hooks, [Join] re-initializations, [Corrupt] scrambles — which
      every executor performs identically. Everything inside the round is
      {e counter-keyed} off a base key drawn once at entry: channel loss
      is a pure function of (key, round, src, dst), the random-order
      daemon's permutation of (key, round), and each node's [handle]
      generator of (key, round, node). Skipping a node therefore cannot
      shift any other consumer's stream, which is what lets the flat
      executor's dirty frontier match this walk on every channel and
      scheduler.

      Defaults: synchronous scheduler, perfect channel, 10000
      rounds max, one quiet round, no churn. *)
end
