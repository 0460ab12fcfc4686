(** Robustness experiment C2: adversarial fault-campaign sweep.

    A deterministic grid sweep over (corruption fraction × channel ×
    crash churn × scheduler): each cell runs the distributed stack through
    {!Ss_cluster.Invariants.monitor} under {!Runner}'s domain pool, so every
    run reports its violation dwell per fault burst and — when it exhausts
    the round budget — a divergence classification (oscillating vs still
    changing) instead of a bare [converged = false].

    The campaign degrades gracefully: a run that raises is recorded as a
    failed run inside its row, never a crashed campaign, and every
    anomalous run (raising, non-converging, or violating safety after
    recovery) carries a replay pointer: re-run with the same [~seed] and
    the listed run index — run [i] always draws the [i]-th positional
    sub-stream ({!Runner.streams}), for any domain count. *)

type cell = {
  c_fraction : float;  (** fraction of nodes corrupted at the burst round *)
  c_channel : Ss_radio.Channel.t;
  c_crash : float;
      (** per-round crash probability over a 15-round churn window after
          the burst (crashed nodes trickle back; all rejoin at the end);
          0 disables churn *)
  c_scheduler : Ss_engine.Scheduler.t;
  c_byz : (int * Ss_engine.Adversary.behavior) option;
      (** permanent Byzantine adversary: [Some (count, behavior)] turns
          [count] random nodes Byzantine from the burst round on, forging
          with {!Ss_cluster.Distributed.forge}; [None] keeps the cell
          transient-only *)
}

val cell_label : cell -> string list
(** The five grid coordinates, rendered (fraction, channel, crash, sched,
    byz). *)

type grid = {
  g_fractions : float list;
  g_channels : Ss_radio.Channel.t list;
  g_crash : float list;
  g_schedulers : Ss_engine.Scheduler.t list;
  g_byz : (int * Ss_engine.Adversary.behavior) option list;
}

val default_bursty : Ss_radio.Channel.t
(** The grid's Gilbert–Elliott channel: mostly-clean links with ~4-round
    deep fades a few times per hundred rounds. *)

val default_grid : grid
val smoke_grid : grid

val cells : grid -> cell list
(** Cartesian product in a fixed order (fraction-major, Byzantine-minor). *)

type row = {
  cell : cell;
  runs : int;
  converged : int;
  oscillating : int;  (** budget-exhausted runs with a periodic digest tail *)
  still_changing : int;  (** budget-exhausted runs without one *)
  failed : int;  (** runs that raised *)
  dwell : Ss_stats.Summary.t;
      (** closed-burst violation dwell (rounds illegitimate after a
          disturbance), pooled over the cell's runs *)
  max_dwell : int;  (** worst closed-burst dwell; 0 when none closed *)
  unrecovered : int;  (** bursts still violating when their run ended *)
  post_violations : int;
      (** violating rounds after recovery, totalled — 0 for a
          self-stabilizing protocol *)
  peak_ghosts : int;  (** worst single-round ghost-reference count *)
  worst_radius : int;
      (** Byzantine cells: worst violation radius over the cell's runs
          (largest hop distance from a violating node to the Byzantine
          set, once the adversary is live); 0 elsewhere *)
  uncontained : int;
      (** Byzantine cells: runs whose clean region was still violating
          when the run ended *)
  bad : (int * string) list;
      (** replay pointers: anomalous run index with the reason (exception
          text, classification, or closure failure; for Byzantine cells
          only raising or uncontained runs are anomalous — a permanent
          adversary is {e supposed} to keep its neighborhood dirty, so
          convergence and burst-closure verdicts don't apply) *)
}

val default_spec : Scenario.spec
val default_burst_round : int

val default_horizon : int
(** Clean-region horizon (2): a lying frame poisons its receivers and,
    via the relayed 2-hop summaries, their neighbors — so strict
    stabilization is asserted at distance > 2 from the Byzantine set. *)

val run_cell :
  ?domains:int ->
  seed:int ->
  runs:int ->
  spec:Scenario.spec ->
  max_rounds:int ->
  burst_round:int ->
  horizon:int ->
  cell ->
  row

val run :
  ?seed:int ->
  ?runs:int ->
  ?domains:int ->
  ?spec:Scenario.spec ->
  ?grid:grid ->
  ?max_rounds:int ->
  ?burst_round:int ->
  ?horizon:int ->
  unit ->
  row list

val replay :
  ?seed:int ->
  ?spec:Scenario.spec ->
  ?grid:grid ->
  ?max_rounds:int ->
  ?burst_round:int ->
  ?horizon:int ->
  cell:int ->
  run:int ->
  unit ->
  cell * string option
(** Re-execute exactly one (cell, run) of the sweep — [cell] indexes
    {!cells} of the grid, [run] draws the [run]-th positional sub-stream
    of [seed] (the one every cell's run [run] used, at any [--jobs]) — and
    judge it exactly as the sweep would: [Some reason] iff the run is
    anomalous, with the same reason text the sweep's replay column
    printed. Raises [Invalid_argument] outside the grid. *)

val render_bad :
  replay_prefix:string option -> cell_index:int -> (int * string) list -> string
(** Render a row's replay pointers for the table: with a prefix, one
    [<prefix> --cell K --run I (reason)] command per anomalous run;
    without, the bare [I: reason] pairs. Shared with {!Exp_adversary}. *)

val to_table : ?replay_prefix:string -> ?title:string -> row list -> Ss_stats.Table.t
(** The worst-case table: per cell, convergence/classification counts, max
    violation dwell, post-recovery violations, and replay pointers for
    every anomalous run. With [replay_prefix] (e.g. ["repro campaign
    --seed 42 --smoke"]) each anomaly renders as a complete copy-pasteable
    command: [<prefix> --cell K --run I (reason)]. Rows must be in sweep
    order (the cell index is positional). *)

val print :
  ?seed:int ->
  ?runs:int ->
  ?domains:int ->
  ?spec:Scenario.spec ->
  ?grid:grid ->
  ?max_rounds:int ->
  ?burst_round:int ->
  ?horizon:int ->
  unit ->
  unit
(** Runs the campaign, prints the table plus the verdict lines (worst
    dwell across the grid; anomalous cell count; for grids with Byzantine
    cells, the worst-case containment radius and uncontained-run count). *)

val failed_rows : row list -> row list
(** Rows with at least one {e raising} run — what [repro campaign
    --strict] gates CI on (graceful degradation still prints the table,
    but the exit code goes non-zero). *)
