(** The flat-memory executor: {!Engine.Make}'s round semantics re-hosted
    on a {!Protocol.FLAT}'s struct-of-arrays planes, with the hot loop in
    {!Flat_core} (CSR adjacency, domain-sharded dirty frontier, zero
    per-round allocation).

    Equivalent to [Engine.Make(P).run] for the options both offer
    ({!Engine.divergence} [~equal:P.equal_state] finds no difference)
    for protocols honoring the {!Protocol.FLAT} contract (its step-input
    contract is what lets the dirty frontier skip nodes); the
    differential battery in [test/suite_flat.ml] enforces flat ≡ dense
    over random graphs, channels, schedulers, churn and motion. This is
    the production path for anything that needs speed; the dense walk is
    the specification. Differences from the reference executor:

    - [?domains] runs synchronous rounds sharded over a domain pool;
      every domain count yields bit-identical results
      ({!Engine.divergence} [~equal:( = )]; see {!Flat_core}).
    - No [?fault] hook and no [?probe]: both hand typed state arrays to
      arbitrary callbacks every round, which would force a full
      unpack per round and defeat the flat representation. Use the churn
      plan's [Corrupt] events for fault injection and [?on_round] or a
      passive [?workload] (one that reads views and returns [false]) for
      instrumentation. *)

module Make (P : Protocol.FLAT) : sig
  type nonrec 's result = 's Engine.result = {
    states : 's array;
    rounds : int;
    converged : bool;
    last_change_round : int;
    change_history : int list;
    alive : bool array;
    graph : Ss_topology.Graph.t;
    bursts : Engine.burst list;
    faults : Engine.fault_report list;
  }
  (** {!Engine.result}, re-exported so its fields resolve here. *)

  type run = P.state result  (** = {!Engine.Make}[(P).run] *)

  val run :
    ?scheduler:Scheduler.t ->
    ?channel:Ss_radio.Channel.t ->
    ?max_rounds:int ->
    ?quiet_rounds:int ->
    ?churn:Churn.t ->
    ?corrupt:(Ss_prng.Rng.t -> int -> P.state -> P.state) ->
    ?motion:Engine.motion_hook ->
    ?on_round:(Engine.round_info -> unit) ->
    ?on_event:(round:int -> Churn.event -> unit) ->
    ?workload:
      (round:int ->
      graph:Ss_topology.Graph.t ->
      alive:bool array ->
      read:(int -> P.view) ->
      bool) ->
    ?domains:int ->
    ?states:P.state array ->
    Ss_prng.Rng.t ->
    Ss_topology.Graph.t ->
    run
  (** Same per-round order and randomness discipline as
      {!Engine.Make.run}: motion rebases first, churn events apply to the
      rebased topology, then every live frontier node steps once over the
      incremental snapshot. The supplied generator drives only plan
      evaluation (churn, Join re-inits, Corrupt scrambles); everything
      in-round is counter-keyed off a base key drawn at entry, so the
      executors' draw streams coincide. [?states] warm-starts by packing
      the array (one entry per node, checked); [?domains] (default 1)
      shards synchronous state/emission phases over that many domains.

      [?workload] is {!Engine.Make.run}'s data-plane hook, except that
      [read p] returns node [p]'s {!Protocol.FLAT} view instead of its
      typed state: [P.Flat.view] aliases the node's live planes, copies
      nothing and allocates O(1) words, so the hook pays only for what
      it inspects, idle traffic costs nothing and no typed state is ever
      materialized on this path. The view contract: [read p] reads, through
      every view accessor, exactly what [P.view] of the typed state the
      reference executor would hand out reads (the typed projection is
      the specification). A view is valid only during the hook call that
      produced it — the next round's steps rewrite the planes it aliases —
      so a hook must not keep one. Same activity semantics: an active
      workload keeps the run alive through quiescence without resetting
      the quiescence counter. Defaults otherwise match the reference
      executor. *)
end
