(** The protocol interface executed by {!Engine}.

    The execution model of Section 4: every node repeatedly evaluates its
    guarded assignments; shared variables are broadcast each step and
    cached by neighbors. A protocol packages the per-node state, the frame
    it broadcasts each step, and the guarded-assignment body run on
    reception.

    {2 Purity}

    [handle] must be a function of the generator, the node's own
    adjacency in the given graph, its state, and the received frames only
    — no hidden inputs (wall clock, global counters, other nodes' rows).
    [emit] must be a function of the node index and state only; the graph
    argument is provided for convenience but {e must not} influence the
    frame. [message] must be plain structural data (no functions, no
    cycles). Executing a subset of the nodes in a round (the flat
    executor's frontier, see {!FLAT}) rests on these, plus the stronger
    step-input contract stated there. *)

module type S = sig
  type state

  type message

  val init : Ss_prng.Rng.t -> Ss_topology.Graph.t -> int -> state
  (** Initial state of a node (may be arbitrary for self-stabilization
      experiments; protocols must not rely on it being clean). *)

  val emit : Ss_topology.Graph.t -> int -> state -> message
  (** The frame locally broadcast by the node in each step — the values of
      its shared variables. Must depend on the node and state only (see
      above). *)

  val handle :
    Ss_prng.Rng.t ->
    Ss_topology.Graph.t ->
    int ->
    state ->
    (int * message) list ->
    state
  (** One step: execute all enabled guarded assignments given the frames
      received this step (sender id paired with each frame). Must be a pure
      function of its arguments plus the supplied generator. *)

  val equal_state : state -> state -> bool
  (** Used for fixpoint detection. May ignore bookkeeping fields (clocks,
      freshness stamps); a {!FLAT} protocol declares their time-based
      effects through [Flat.warm]. *)
end

(** A protocol that additionally exposes a {e flat-memory execution
    plane} for the {!Flat} executor: the whole deployment's state packed
    into preallocated unboxed arrays, stepped in place by node index with
    no per-round allocation.

    The typed {!S} operations remain the semantic source of truth. The
    [Flat] operations are an alternative evaluation strategy over the
    same protocol and must be {e draw-for-draw equivalent} to it:

    - [pack]/[unpack] are mutually inverse on every reachable (and every
      corrupted) state;
    - [step] consumes exactly the generator draws [handle] would and
      leaves [unpack] equal to [handle]'s result;
    - [refresh_emit] makes the node's emission plane equal [emit] of its
      current state and reports whether it changed;
    - [init_all] consumes exactly the draws of [n] successive [init]
      calls in ascending node order;
    - [Flat.view b p] reads exactly what [view (unpack b p)] reads,
      through every accessor the protocol offers on views.

    {2 Step-input contract (the frontier)}

    The flat executor ({!Flat}, loop in {!Flat_core}) steps a node only
    when its {e step input} — the (sender, frame) pairs delivered to it,
    its own state planes and adjacency row — may have changed since the
    node's last executed step, or when [Flat.warm] reports pending
    time-based behavior. For skipping to be unobservable:

    - [Flat.step] at an input fixpoint must be output-stable: re-running
      it with an unchanged input must leave every field observed by
      [equal_state] and the emission [refresh_emit] derives unchanged,
      and must consume no draws. Bookkeeping that advances uniformly
      (local clocks, cache freshness stamps) may still change, provided
      its only observable effect is {e time-based} and declared through
      [Flat.warm]: a node with pending time-based behavior (for
      {!Ss_cluster.Distributed}, any cache entry not refreshed at the
      last executed step, which will expire after the TTL) must report
      warm so the executor keeps stepping it until the behavior drains.
    - Every in-round random decision is counter-keyed (see
      {!Engine.lane_handle}), so skipping a node shifts no other node's
      draws.

    The differential battery in [test/suite_flat.ml] enforces all of
    this against the dense reference walk ({!Engine.Make.run}), which
    steps every live node every round. *)
module type FLAT = sig
  include S

  type view
  (** What the data plane reads of one node's state — for a clustering
      protocol, the routing knowledge its forwarding decisions use. A
      read-only window the protocol defines, with its own accessors. *)

  val view : state -> view
  (** The typed projection: the specification of [Flat.view], and what
      callers of the dense walk ({!Engine.Make.run}) apply to a
      read state. *)

  module Flat : sig
    type buffers
    (** The whole deployment's mutable state, struct-of-arrays: one (or a
        few) unboxed arrays per logical field, plus a per-node {e
        emission plane} caching the frame each node currently broadcasts,
        against which the frontier detects emission changes. *)

    type scratch
    (** Reusable per-worker workspace for [step]/[refresh_emit] — grown
        on demand, never shared between domains. *)

    val alloc : Ss_topology.Graph.t -> buffers
    (** Buffers for one deployment, sized from the graph. The state
        planes hold no meaningful values until [init_all] or [pack]; the
        emission plane is poisoned so a first [refresh_emit] on any node
        always reports a change. *)

    val scratch : buffers -> scratch

    val init_all : buffers -> Ss_prng.Rng.t -> Ss_topology.Graph.t -> unit
    (** Initialize every node, drawing from the generator exactly as [n]
        successive {!S.init} calls would (ascending node order), but
        without materializing typed states — deployment-wide constants
        are computed once instead of per node. *)

    val pack : buffers -> int -> state -> unit
    (** Overwrite node [p]'s state planes from a typed state (warm
        starts, churn re-inits, corruption). Does {e not} touch the
        emission plane — callers follow with [refresh_emit]. *)

    val unpack : buffers -> int -> state
    (** Read node [p]'s state planes back into a typed state. *)

    val view : buffers -> int -> view
    (** Node [p]'s view read in place: aliases its existing planes,
        copies nothing and allocates O(1) words, so a reader pays for
        what it inspects and nothing else. Equal, through every view
        accessor, to [view (unpack b p)]. Valid only until node [p]'s
        planes are next written ([step], [pack]); executors hand views
        out for the duration of one hook call. *)

    val refresh_emit : buffers -> scratch -> int -> bool
    (** Recompute node [p]'s emission plane from its state planes;
        [true] iff the emitted frame changed. *)

    val step :
      buffers ->
      scratch ->
      Ss_prng.Rng.key ->
      int ->
      senders:int array ->
      count:int ->
      bool
    (** One guarded-assignment step of node [p]: read the emission planes
        of [senders.(0 .. count-1)] (ascending sender order — the flat
        analogue of the engine's per-neighbor frame list), rewrite [p]'s
        state planes, and report whether the state changed in the
        {!S.equal_state} sense. The key is the round's handle lane; a
        protocol needing randomness derives node [p]'s generator as
        [Rng.of_key (Rng.subkey key p)] — lazily, so the (rare) draw
        path alone pays the generator allocation. Must {e not} write
        the emission plane (the executor separates state and emission
        phases so synchronous rounds can run sharded). Writes only node
        [p]'s slots, so distinct nodes step safely in parallel. *)

    val warm : buffers -> int -> bool
    (** Pending time-based behavior (see the step-input contract above):
        while [true] the executor keeps stepping node [p] even with an
        unchanged input. *)
  end
end
