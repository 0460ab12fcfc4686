(** The full protocol stack at message level, pluggable into
    {!Ss_engine.Engine}: neighbor discovery by periodic local broadcast,
    N1 name resolution, density computation and cluster-head election — all
    recomputed from received frames, with cache expiry, which is what makes
    the stack self-stabilizing.

    Use this for step-schedule measurements (Table 2), DAG-construction
    steps under message semantics, lossy-channel runs and fault-injection
    recovery. For fast perfect-knowledge clustering on a static graph, use
    {!Algorithm}. *)

type params = {
  algo : Config.t;
  ids : int array option;  (** global ids; default: the node index *)
  cache_ttl : int;
      (** rounds a cache entry survives without being refreshed; 1 suffices
          on a perfect channel, larger values ride out frame loss *)
}

val default_params : params

type summary = {
  s_node : int;
  s_density : Density.t option;
  s_eff : int;
  s_is_head : bool;
}

type message = {
  m_node : int;
  m_gid : int;
  m_dag : int;
  m_density : Density.t option;
  m_head : int option;
  m_nbrs : summary array;
}
(** One frame: the sender's shared variables plus a relay summary of its
    cached 1-neighborhood (what lets receivers see 2 hops). *)

type entry = {
  e_heard : int;
  e_gid : int;
  e_dag : int;
  e_density : Density.t option;
  e_head : int option;
  e_nbrs : int array;
}

type far_entry = {
  f_heard : int;
  f_density : Density.t option;
  f_eff : int;
  f_is_head : bool;
}

type state = {
  clock : int;
  gamma : int;
  gid : int;
  dag : int;
  density : Density.t option;
  parent : int option;
  head : int option;
  cache : (int * entry) list;
  far : (int * far_entry) list;
}
(** Exposed concretely so experiments can inspect per-round snapshots and
    fault plans can build targeted corruptions. *)

(** {2 Routing views}

    What a node routes on, in the paper's terms: its own shared
    variables (head, parent), its neighbours' broadcast tables (the 1-hop
    cache, each entry with the neighbourhood that neighbour claims) and
    the heads they relay (the 2-hop far table's head entries). A view is
    read through the accessors below only; heard stamps and the clock
    are not part of it. *)

type view

val view : state -> view
(** The typed projection, and the specification of [Flat.view]: the
    state's cache and far table laid out in fresh rows of the flat
    plane's layout. Allocates O(size of the tables). *)

val view_head : view -> int option
(** The node's believed cluster-head. *)

val view_parent : view -> int option

val iter_peers : view -> (int -> int -> unit) -> unit
(** [iter_peers v f] calls [f slot q] for every believed 1-hop neighbour
    [q] (every cache entry), ascending by [q]; [slot] names the entry for
    {!peer_claims} and is meaningful for [v] only. *)

val peer_claims : view -> int -> int -> bool
(** [peer_claims v slot t]: the cache entry at [slot] claims [t] in its
    1-hop neighbourhood. *)

val iter_far_heads : view -> (int -> unit) -> unit
(** Every 2-hop far-table entry flagged as a head, ascending. *)

module Make (_ : sig
  val params : params
end) :
  Ss_engine.Protocol.FLAT
    with type state = state
     and type message = message
     and type view = view
(** [equal_state] compares only the protocol outputs (name, density, parent,
    head); cache bookkeeping churns every round by design. When measuring
    stabilization, ask the engine for more quiet rounds than the cache TTL:
    relays in flight and pending expiries can leave isolated output-quiet
    rounds mid-convergence.

    The [Flat] submodule packs the whole deployment into int planes for
    the {!Ss_engine.Flat} executor: scalars (clock, gamma, gid, dag,
    density numerator/denominator, parent, head) one array slot per node,
    the 1-hop cache, 2-hop far cache and emitted frame as per-node
    strided int arrays grown in place. Options are sentinel-encoded
    (density [None] as [(-1, 0)], parent/head [None] as [-1]) — injective
    for every reachable and every {!corrupt}-produced state, so plane
    equality coincides with structural equality on the typed fields.
    [Flat.step] is draw-for-draw equivalent to [handle] (it consumes the
    generator only in the N1 name re-pick, exactly when the typed path
    does), which [test/suite_flat.ml] enforces differentially.
    [Flat.view] aliases a node's live cache and far rows plus its head
    and parent scalars: no copy, O(1) words. *)

val corrupt : Ss_prng.Rng.t -> int -> state -> state
(** Scramble every corruptible field (names, density, head, parent, cached
    values) within type-correct bounds; the transient-fault model. *)

val forge : Ss_prng.Rng.key -> int -> message -> message
(** Forgery hook for {!Ss_engine.Adversary.CONFIG}: rewrite every field
    the election orders on — an implausibly attractive density claim, a
    self-head claim, scrambled gid/DAG names, poisoned 2-hop summaries —
    as a pure {e keyed} function of (key, node, honest frame), so a
    replay sees the same lie. The sender index is left
    truthful: the radio layer authenticates which transceiver
    transmitted; only claims inside the frame are forgeable. *)

val to_assignment : ?alive:bool array -> state array -> Assignment.t
(** Project converged states to an assignment (nodes without an elected head
    read as their own heads). Under churn, pass the engine's final liveness
    mask: crashed/sleeping nodes hold frozen shared variables, so they are
    projected as isolated self-heads — their status in the snapshot
    topology. *)

val ghost_references : alive:bool array -> state array -> int
(** Number of dangling references held by alive nodes: a parent, head or
    cache entry naming a node that is dead or out of range. Cache TTL
    expiry plus re-election drain these after a churn burst; sampling the
    count per round (via the engine's [probe]) shows how long the network
    keeps believing ghosts. *)

val view_ghost_references : alive:bool array -> (int -> view) -> int
(** [view_ghost_references ~alive read] is {!ghost_references} read
    through routing views, [read p] being node [p]'s view (the flat
    executor's [?workload] hook hands out exactly this accessor): equal to
    [ghost_references ~alive (Array.init n unpack)] on every flat plane,
    where [n = Array.length alive]. Only alive nodes are read. *)

val ghost_holders : alive:bool array -> state array -> int list
(** The alive nodes holding at least one such dangling reference, sorted —
    the node-level attribution {!Ss_engine.Monitor}'s containment metrics
    need. [ghost_references ~alive states = 0] iff
    [ghost_holders ~alive states = []]. *)
