(** Lossy local-broadcast channel.

    Implements the paper's CSMA/CA abstraction — each frame transmission
    reaches a given 1-neighbor without collision with probability at least
    τ, independently per frame — plus an explicit slotted-contention model
    from which τ emerges rather than being assumed. One engine round is the
    paper's Δ(τ) window: every node broadcasts once and each neighbor
    independently receives or loses the frame.

    Sampling is {e counter-keyed}: a round's plan is built from an
    {!Ss_prng.Rng.key} and every loss decision is a pure function of
    (key, src, dst) — per-node slot draws of (key, node) — so the delivery
    pattern does not depend on which pairs are queried, in what order, or
    whether any pair is queried at all. Consequently frontier (flat) and
    dense executions of the same run see bit-identical losses, and any past
    round's plan can be re-evaluated from its key. *)

type t

val perfect : t
(** τ = 1: every frame delivered (the step-count experiments of Section 5
    assume this regime after Δ(τ)). *)

val bernoulli : float -> t
(** [bernoulli tau] delivers each frame independently with probability
    [tau] — the paper's model. *)

val jammed : tau:float -> region:Ss_geom.Bbox.t -> jam_tau:float -> t
(** Like [bernoulli tau], but receivers located inside [region] only
    receive with probability [jam_tau] — an adversarial interference zone
    for robustness experiments. Requires node positions: {!round_plan}
    raises [Invalid_argument] on a graph built without [~positions]
    (silently degrading to [bernoulli tau] would make the jam a no-op). *)

val slotted : slots:int -> t
(** Slotted contention: within each round every node transmits in a uniform
    slot of [0..slots-1]. A receiver loses the frame when it transmits in
    the same slot itself, or when any other radio neighbor of the receiver
    chose the sender's slot (receiver-side collision; hidden terminals
    included). Delivery probability emerges from local degrees instead of
    being postulated. *)

val asymmetric : seed:int -> tau_lo:float -> tau_hi:float -> t
(** Per-direction loss: every {e ordered} pair (src, dst) gets its own
    stable delivery probability, drawn uniformly from [tau_lo, tau_hi] as a
    pure function of a channel key derived from [seed] — so the link p→q
    and its reverse q→p generally differ, breaking the symmetric-τ
    assumption of the paper's proof. Per-round losses are then independent
    Bernoulli draws at that directional rate. Raises [Invalid_argument]
    unless [0 <= tau_lo <= tau_hi <= 1]. *)

val bursty : seed:int -> tau_good:float -> tau_bad:float -> p_fade:float -> p_recover:float -> t
(** Gilbert–Elliott burst loss: each ordered pair carries a two-state
    good/bad chain; frames deliver with probability [tau_good] in the good
    state and [tau_bad] in the bad state, and per round the chain fades
    (good→bad) with probability [p_fade] and recovers (bad→good) with
    probability [p_recover]. The chain state at round [r] is a {e pure
    function} of (channel key, src, dst, r): rounds are cut into
    fixed-length epochs, each epoch opens from a keyed stationary draw and
    the in-epoch state is located by walking keyed geometric sojourn
    lengths — O(epoch length) key derivations worst case, no dependence on
    earlier rounds — so plan replay and the flat delivery-diff stay
    valid. The epoch renewal truncates sojourns at epoch boundaries,
    slightly shortening very long bursts; with sojourn means well under the
    epoch length (64 rounds) the distortion is negligible. Raises
    [Invalid_argument] unless both taus and both transition probabilities
    lie in [0, 1] and [p_fade +. p_recover > 0]. *)

val tau : t -> float
(** The baseline per-frame delivery probability for the memoryless models.
    For [slotted], [asymmetric] and [bursty] the returned value is an
    {e indication only}, not a delivery probability: (slots-1)/slots is the
    no-clash chance against a single competitor (exact just for an isolated
    pair), the midpoint of [tau_lo, tau_hi] is the population mean over
    directed links, and the stationary mean of the good/bad chain hides
    swings between [tau_bad] and [tau_good]. *)

val directional_tau : t -> src:int -> dst:int -> float
(** The stable delivery probability of the directed link (src, dst). Only
    [asymmetric] actually differentiates directions; every other model
    returns {!tau} (with the same indication-only caveats). *)

val bursty_bad : t -> src:int -> dst:int -> round:int -> bool
(** Whether the (src, dst) Gilbert–Elliott chain is in the bad state at
    [round] — a pure function of the channel key and the three arguments,
    exposed for tests and diagnostics. Raises [Invalid_argument] on
    non-[bursty] channels and on negative rounds. *)

val deterministic : t -> bool
(** True when the plan is the same every round ([perfect] — note that
    [bernoulli 1.0] normalizes to it). The flat executor uses this to
    skip per-edge delivery-diff checks on channels that cannot change a
    node's inputs between rounds. *)

val position_dependent : t -> bool
(** True when a plan's answers read node positions ([jammed] — the only
    model where geometry, not just identity, decides delivery). Under
    continuous motion the flat executor must treat a moved node as
    disturbed on such channels even when no edge flipped: its deliveries
    can change with no structural signal. Position-independent models
    need no such marking — their plans are pure in (key, round, src,
    dst). *)

val round_plan :
  t ->
  key:Ss_prng.Rng.key ->
  round:int ->
  graph:Ss_topology.Graph.t ->
  src:int ->
  dst:int ->
  bool
(** [round_plan t ~key ~round ~graph] builds one Δ(τ) window's delivery
    function from the round's key (derive it as a [subkey] of the run's
    base key by round number) and the round number itself ([bursty] needs
    it to locate its chain state; the other models ignore it, their
    per-round variation coming entirely through [key]). Query it for any
    (sender, 1-neighbor) pair of that round; answers are consistent within
    the plan and independent of query order or coverage — [Slotted]
    memoizes its slot assignment per plan, so all queries within a round
    see consistent collisions. Rebuilding a plan from the same key and
    round replays the identical window (this is how the flat executor
    diffs a round's deliveries against the previous round's without
    storing them). *)

val pp : t Fmt.t
