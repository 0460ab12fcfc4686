(** Extension experiment C1: recovery under within-run churn.

    One flat-executor run per (scheduler, storm) per seed (bit-identical
    to the dense reference walk): the distributed stack
    converges on a Poisson deployment at paper densities, then the churn
    plan crashes nodes, flaps links, sleeps/wakes subsets and corrupts
    states mid-run; the protocol recovers in place. Reported per row:
    per-burst recovery times, peak ghost-reference counts, applied events
    by type, legitimacy of the final configuration on the final effective
    topology, and convergence. *)

type storm =
  | Crash_recover
  | Crash_permanent
  | Link_flaps
  | Sleep_wake
  | Combined

val default_storms : storm list

val storm_label : storm -> string

val plan_of_storm : storm -> Ss_engine.Churn.t

type row = {
  scheduler : Ss_engine.Scheduler.t;
  storm : storm;
  runs : int;
  bursts : int;
  recovered : int;
  recovery : Ss_stats.Summary.t;
  peak_ghosts : Ss_stats.Summary.t;
  events : Ss_stats.Counter.t;
  legitimate : int;
  converged : int;
}

val default_spec : Scenario.spec

val default_schedulers : Ss_engine.Scheduler.t list

val run :
  ?seed:int ->
  ?runs:int ->
  ?domains:int ->
  ?spec:Scenario.spec ->
  ?schedulers:Ss_engine.Scheduler.t list ->
  ?storms:storm list ->
  ?max_rounds:int ->
  unit ->
  row list

val to_table : ?title:string -> row list -> Ss_stats.Table.t

val events_table : ?title:string -> row list -> Ss_stats.Table.t

val print :
  ?seed:int ->
  ?runs:int ->
  ?domains:int ->
  ?spec:Scenario.spec ->
  ?schedulers:Ss_engine.Scheduler.t list ->
  ?storms:storm list ->
  ?max_rounds:int ->
  unit ->
  unit
