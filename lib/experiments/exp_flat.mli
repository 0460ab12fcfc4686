(** Extension experiment: the flat-memory executor at scale.

    One row per deployment size: a unit-disk deployment at constant
    expected degree (~7), a crash/rejoin burst schedule past cold-start
    convergence, the whole run carried by {!Ss_engine.Flat}'s
    struct-of-arrays round loop. At sizes up to [check_upto] the same
    case also runs through the dense reference walk and the two runs are
    cross-checked with {!Ss_engine.Engine.divergence}, so the scaling rows
    rest on a verified engine. *)

type row = {
  nodes : int;
  edges : int;
  rounds : int;
  converged : bool;
  stabilized : int;  (** last round with a state change or event *)
  seconds : float;  (** flat executor CPU seconds ([Sys.time]) *)
  checked : (unit, string) result option;
      (** [Some (Ok ())]: the dense reference walk ran the same case and
          agreed on every observable; [Some (Error d)]: it diverged, [d]
          locating the first difference ({!Ss_engine.Engine.divergence});
          [None]: size was above the cross-check cutoff *)
}

val radius_for : int -> float
(** Unit-disk radius for an expected degree of ~7 at [n] nodes. *)

val plan : bursts:int -> spacing:int -> first:int -> int -> Ss_engine.Churn.t
(** [bursts] one-node crashes [spacing] rounds apart from round [first],
    victims striding across the [n] ids, each rejoining half a spacing
    later. *)

val default_sizes : int list

val run :
  ?seed:int -> ?sizes:int list -> ?check_upto:int -> unit -> row list

val divergence : row list -> string option
(** The first cross-checked row that diverged, as its node count and
    located difference; [None] when every checked row agreed. *)

val to_table : ?title:string -> row list -> Ss_stats.Table.t

val print : ?seed:int -> ?sizes:int list -> ?check_upto:int -> unit -> unit
(** Prints the table; raises [Failure] if any cross-checked row
    diverged. *)
