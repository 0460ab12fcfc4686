(** Extension experiment: the flat-memory executor at scale.

    One row per deployment size: a unit-disk deployment at constant
    expected degree (~7), a crash/rejoin burst schedule past cold-start
    convergence, the whole run carried by {!Ss_engine.Flat}'s
    struct-of-arrays round loop. At sizes up to [check_upto] the same
    case also runs through the dense reference walk and every observable
    is cross-checked, so the scaling rows rest on a verified engine. *)

type row = {
  nodes : int;
  edges : int;
  rounds : int;
  converged : bool;
  stabilized : int;  (** last round with a state change or event *)
  seconds : float;  (** flat executor wall-clock (processor time) *)
  checked : bool option;
      (** [Some ok]: the dense reference walk ran the same case and
          agreed ([ok]) on every observable; [None]: size was above the
          cross-check cutoff *)
}

val default_sizes : int list

val run :
  ?seed:int -> ?sizes:int list -> ?check_upto:int -> unit -> row list

val verified : row list -> bool
(** No cross-checked row diverged. *)

val to_table : ?title:string -> row list -> Ss_stats.Table.t

val print : ?seed:int -> ?sizes:int list -> ?check_upto:int -> unit -> unit
(** Prints the table; raises [Failure] if any cross-checked row
    diverged. *)
