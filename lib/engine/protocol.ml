(* The execution model of Section 4: every node repeatedly evaluates its
   guarded assignments; shared variables are broadcast each step and cached
   by neighbors. A protocol packages the per-node state, the frame it
   broadcasts each step, and the guarded-assignment body run on reception. *)

module type S = sig
  type state

  type message

  val init : Ss_prng.Rng.t -> Ss_topology.Graph.t -> int -> state
  (** Initial state of a node (may be arbitrary for self-stabilization
      experiments; protocols must not rely on it being clean). *)

  val emit : Ss_topology.Graph.t -> int -> state -> message
  (** The frame locally broadcast by the node in each step — the values of
      its shared variables. *)

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
  (** Used for fixpoint detection. *)
end

(* A protocol that additionally exposes a flat-memory execution plane:
   all per-node state packed into preallocated unboxed arrays, stepped in
   place by index. The typed [S] operations stay the source of truth; the
   [Flat] operations must be draw-for-draw and observation-equivalent to
   them (pack/unpack round-trips, step == handle, refresh_emit tracks
   emit, Flat.view reads as view of unpack), which the differential
   battery enforces. *)
module type FLAT = sig
  include S

  type view
  (* The data plane's read-only window on one node's state. *)

  val view : state -> view

  module Flat : sig
    type buffers
    (* The whole deployment's state, struct-of-arrays. *)

    type scratch
    (* Per-worker reusable workspace; one per domain, never shared. *)

    val alloc : Ss_topology.Graph.t -> buffers

    val scratch : buffers -> scratch

    val init_all : buffers -> Ss_prng.Rng.t -> Ss_topology.Graph.t -> unit

    val pack : buffers -> int -> state -> unit

    val unpack : buffers -> int -> state

    val view : buffers -> int -> view

    val refresh_emit : buffers -> scratch -> int -> bool

    val step :
      buffers ->
      scratch ->
      Ss_prng.Rng.key ->
      int ->
      senders:int array ->
      count:int ->
      bool

    val warm : buffers -> int -> bool
  end
end
