(** Next-hop selection over the protocol's knowledge tables.

    The data plane routes with exactly what the paper's control plane
    maintains at each node: the 1-hop cache (with each neighbor's claimed
    neighborhood and head flag), the 2-hop far table's head entries, and
    the node's own parent/head choice. Nothing here consults an oracle —
    a route is a function of {e believed} structure, so during
    stabilization it can be wrong, and the workload layer's
    retry/invalidate machinery is what turns wrong-but-healing tables
    into delivered messages.

    The tables are read as {!Ss_cluster.Distributed.view}s, through the
    view accessors only. On the flat executor a view aliases the node's
    live planes, so a routing decision copies no table; on the typed
    executors it is {!Ss_cluster.Distributed.view} of the read state.
    No accessor reads a freshness stamp — the one cache field whose
    dense/sparse evolution differs — so every read path and executor
    sees the same tables.

    Selection is deterministic (distance objectives with index
    tie-breaks, no randomness), so identical views yield identical
    routes in every executor.

    {b Loop freedom.} Every [advance] hop strictly reduces the distance
    from the hop's {e endpoint} (the chosen peer, or the backbone head a
    bridge peer leads to) to the destination, and a carried waypoint is
    only ridden while it still pulls strictly forward. When no
    strict-progress candidate exists the decision is an {e escape} hop
    ([advance = false]); the caller is expected to ban the forwarder for
    that message, so any routing cycle permanently loses a node per lap
    and self-destructs instead of burning the TTL. *)

val no_via : int
(** Sentinel (-1) for "no backbone waypoint". *)

type decision =
  | Forward of { next : int; via : int; advance : bool }
      (** transmit to [next]; [via] is the (possibly updated) backbone
          waypoint to carry on the message, [no_via] when none.
          [advance] is false on an escape hop out of a local minimum —
          the caller must ban the forwarder for this message so the
          escape cannot revisit it *)
  | Stall  (** no usable candidate under the current view *)

val next_hop :
  positions:Ss_geom.Vec2.t array ->
  view_of:(int -> Ss_cluster.Distributed.view) ->
  n:int ->
  cur:int ->
  dst:int ->
  via:int ->
  prev:int ->
  banned:(int -> bool) ->
  decision
(** One routing decision at [cur] for a message addressed to [dst],
    reading [view_of cur] (once) and nothing else of the tables.

    Preference order: (1) the destination itself when cached; (2) a peer
    claiming the destination one hop behind it (the paper's 2-hop
    knowledge); (3) the carried waypoint [via] — directly or through a
    peer claiming it — while it is still strictly closer to the
    destination than [cur]; (4) the best strict-progress candidate,
    peers and known backbone heads competing on one objective: each
    peer's endpoint is itself, each far head's endpoint is the head
    (reached directly or through a claiming bridge peer, which sets
    [via]); (5) the escape hop — the usable peer nearest the
    destination even though it makes no progress, flagged
    [advance = false]. Candidates rejected by [banned], out of range, or
    equal to [prev] (no immediate backtrack) are skipped; [Stall] when
    nothing survives.

    A member's own head is not privileged: it competes in (4) as an
    ordinary peer-head candidate and wins only when it is genuinely
    closer to the destination — unconditional climbing is what creates
    member/head ping-pong loops.

    Corrupt states can claim out-of-universe nodes; every candidate is
    bounds-checked against [n] before use, so a poisoned table costs a
    worse route, never a crash. *)
