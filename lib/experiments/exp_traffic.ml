(* Robustness experiment: the data-plane workload under load x channel x
   churn.

   Each run converges (and keeps stabilizing) the full distributed stack
   on a Poisson deployment while the Workload layer pushes application
   messages through the believed hierarchy from round 1 — during
   cold-start stabilization, through a mid-run crash burst, and over
   lossy/bursty channels on both planes. We record delivery ratio,
   end-to-end latency, retry/reroute counts, the delivery-ratio
   dip-and-recovery around the burst (by birth cohort), and
   energy-fairness of the believed-head duty. The sweep runs on the flat
   executor over the domain pool; a verification entry point replays one
   cell under the dense reference walk and the flat executor and demands
   bit-identical workload observables. *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Channel = Ss_radio.Channel
module Churn = Ss_engine.Churn
module Distributed = Ss_cluster.Distributed
module W = Ss_traffic.Workload
module Table = Ss_stats.Table
module Summary = Ss_stats.Summary

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Ss_engine.Engine.Make (P)
module F = Ss_engine.Flat.Make (P)

let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

type load = { load_label : string; rate : float }

let default_loads =
  [
    { load_label = "light"; rate = 2.0 };
    { load_label = "heavy"; rate = 8.0 };
  ]

type chan = { chan_label : string; chan : Channel.t }

let default_channels =
  [
    { chan_label = "perfect"; chan = Channel.perfect };
    { chan_label = "bern 0.9"; chan = Channel.bernoulli 0.9 };
    {
      chan_label = "bursty";
      chan =
        Channel.bursty ~seed:7 ~tau_good:0.97 ~tau_bad:0.35 ~p_fade:0.04
          ~p_recover:0.3;
    };
  ]

(* The burst: 10% of the fleet crashes mid-run, rejoining later — the
   delivery-ratio dip this experiment exists to measure. Rejoin is far
   enough out that the dip and the recovery are both visible in the
   cohort curve before the topology heals by itself. *)
let default_burst_round = 120
let default_rejoin_round = 180
let default_burst_fraction = 0.10

type cell = { c_load : load; c_chan : chan; c_burst : bool }

type run_outcome = {
  run_totals : W.totals;
  run_cohorts : W.cohort list;
  run_energy : W.energy_report option;
  run_converged : bool;
}

type row = {
  r_load : string;
  r_chan : string;
  r_burst : bool;
  r_runs : int;
  offered : int;
  delivered : int;
  expired : int;
  died : int;
  latency : Summary.t;
  retries : Summary.t; (* failures per delivered message, pooled *)
  stalls : int;
  reroutes : int;
  invalidations : int;
  pre : Summary.t; (* pre-burst cohort delivery ratio, per run *)
  dip : Summary.t; (* worst post-burst cohort ratio, per run *)
  recovered : int; (* runs whose ratio returned to >= 0.95 * pre *)
  rec_rounds : Summary.t; (* rounds from burst to the recovered cohort *)
  jain : Summary.t;
  depleted : int;
  converged : int;
}

let ratio_of r =
  if r.offered = 0 then Float.nan
  else float_of_int r.delivered /. float_of_int r.offered

(* Dip and recovery off the birth-cohort curve: pre-burst level excludes
   the cold-start window (the protocol is still electing heads there —
   that dip belongs to initial stabilization, not the burst). Recovery is
   the first cohort born at/after the burst that regains 95% of the
   pre-burst ratio. *)
let dip_recovery ~burst_round ~window cohorts =
  let pre_s = Summary.create () in
  List.iter
    (fun (c : W.cohort) ->
      if
        c.W.c_start > window
        && c.W.c_start + window - 1 < burst_round
        && not (Float.is_nan c.W.c_ratio)
      then Summary.add pre_s c.W.c_ratio)
    cohorts;
  let pre = Summary.mean pre_s in
  let dip = ref Float.infinity in
  let rec_at = ref None in
  List.iter
    (fun (c : W.cohort) ->
      if not (Float.is_nan c.W.c_ratio) then begin
        (* The worst-hit cohort is usually the one STRADDLING the burst
           (born just before it, in flight when it lands), so the dip
           scans every cohort overlapping or after the burst; recovery
           is only meaningful for cohorts born after it. *)
        if c.W.c_start + window > burst_round && c.W.c_ratio < !dip then
          dip := c.W.c_ratio;
        if
          c.W.c_start >= burst_round
          && Option.is_none !rec_at
          && c.W.c_ratio >= 0.95 *. pre
        then rec_at := Some (c.W.c_start - burst_round)
      end)
    cohorts;
  let dip = if !dip = Float.infinity then Float.nan else !dip in
  (pre, dip, !rec_at)

let plan_of ~burst ~burst_round ~rejoin_round ~fraction w =
  Churn.compose
    ((if burst then
        [
          Churn.crash_fraction ~round:burst_round ~fraction;
          Churn.join_all ~round:rejoin_round;
        ]
      else [])
    @ [ W.churn_feed w ])

(* One run: the flat executor, or with [~dense] the typed reference walk
   (the verification's specification). *)
let run_one ~dense ~spec ~rounds ~ttl ~burst ~burst_round ~rejoin_round
    ~fraction ~energy ~rate ~channel rng =
  let world = Scenario.build rng spec in
  let graph = world.Scenario.graph in
  let n = Graph.node_count graph in
  (* The workload key comes off the run's own stream, so every run (and
     both executors replaying the same run index) sees the same traffic. *)
  let wseed = Rng.int rng 0x3FFFFFFF in
  let cfg =
    {
      W.default_config with
      W.seed = wseed;
      channel;
      rate;
      first_round = 1;
      last_round = Some rounds;
      ttl;
      energy;
    }
  in
  let w = W.create cfg ~n in
  let churn = plan_of ~burst ~burst_round ~rejoin_round ~fraction w in
  let max_rounds = rounds + ttl + 8 in
  let converged, states, alive =
    if dense then
      let r =
        E.run ~channel ~quiet_rounds ~max_rounds ~churn
          ~workload:(W.typed_hook w) rng graph
      in
      (r.E.converged, r.E.states, r.E.alive)
    else
      let r =
        F.run ~channel ~quiet_rounds ~max_rounds ~churn ~workload:(W.hook w)
          rng graph
      in
      (r.F.converged, r.F.states, r.F.alive)
  in
  (w, converged, states, alive)

let measure ?domains ~seed ~runs ~spec ~rounds ~ttl ~window
    ~burst_round ~rejoin_round ~fraction ~energy cell =
  let outcomes =
    Runner.replicate ?domains ~seed ~runs (fun ~run rng ->
        ignore run;
        let w, converged, _states, _alive =
          run_one ~dense:false ~spec ~rounds ~ttl ~burst:cell.c_burst
            ~burst_round ~rejoin_round ~fraction ~energy ~rate:cell.c_load.rate
            ~channel:cell.c_chan.chan rng
        in
        {
          run_totals = W.totals w;
          run_cohorts = W.cohorts ~window w;
          run_energy = W.energy_report w;
          run_converged = converged;
        })
  in
  let offered = ref 0
  and delivered = ref 0
  and expired = ref 0
  and died = ref 0
  and stalls = ref 0
  and reroutes = ref 0
  and invalidations = ref 0
  and depleted = ref 0
  and converged = ref 0
  and recovered = ref 0 in
  let latency = ref (Summary.create ()) in
  let retries = ref (Summary.create ()) in
  let pre = Summary.create () in
  let dip = Summary.create () in
  let rec_rounds = Summary.create () in
  let jain = Summary.create () in
  List.iter
    (fun o ->
      let t = o.run_totals in
      offered := !offered + t.W.offered;
      delivered := !delivered + t.W.delivered;
      expired := !expired + t.W.expired;
      died := !died + t.W.died;
      stalls := !stalls + t.W.stalls;
      reroutes := !reroutes + t.W.reroutes;
      invalidations := !invalidations + t.W.invalidations;
      latency := Summary.merge !latency t.W.latency;
      retries := Summary.merge !retries t.W.retries;
      if o.run_converged then incr converged;
      (match o.run_energy with
      | Some e ->
          depleted := !depleted + e.W.depleted;
          Summary.add jain e.W.jain
      | None -> ());
      if cell.c_burst then begin
        let p, d, r = dip_recovery ~burst_round ~window o.run_cohorts in
        if not (Float.is_nan p) then Summary.add pre p;
        if not (Float.is_nan d) then Summary.add dip d;
        match r with
        | Some rr ->
            incr recovered;
            Summary.add_int rec_rounds rr
        | None -> ()
      end)
    outcomes;
  {
    r_load = cell.c_load.load_label;
    r_chan = cell.c_chan.chan_label;
    r_burst = cell.c_burst;
    r_runs = runs;
    offered = !offered;
    delivered = !delivered;
    expired = !expired;
    died = !died;
    latency = !latency;
    retries = !retries;
    stalls = !stalls;
    reroutes = !reroutes;
    invalidations = !invalidations;
    pre;
    dip;
    recovered = !recovered;
    rec_rounds;
    jain;
    depleted = !depleted;
    converged = !converged;
  }

let default_spec = Scenario.poisson ~intensity:1000.0 ~radius:0.06 ()
let default_energy = Some W.default_energy

let run ?(seed = 42) ?(runs = 3) ?domains ?(spec = default_spec)
    ?(loads = default_loads)
    ?(channels = default_channels) ?(bursts = [ false; true ])
    ?(rounds = 220) ?(ttl = 48) ?(window = 20)
    ?(burst_round = default_burst_round)
    ?(rejoin_round = default_rejoin_round)
    ?(fraction = default_burst_fraction) ?(energy = default_energy) () =
  List.concat_map
    (fun c_load ->
      List.concat_map
        (fun c_chan ->
          List.map
            (fun c_burst ->
              measure ?domains ~seed ~runs ~spec ~rounds ~ttl
                ~window ~burst_round ~rejoin_round ~fraction ~energy
                { c_load; c_chan; c_burst })
            bursts)
        channels)
    loads

let to_table ?(title = "Traffic — delivery under load x channel x churn") rows
    =
  let t =
    Table.create ~title
      ~header:
        [
          "load"; "channel"; "burst"; "offered"; "ratio"; "lat mean";
          "lat max"; "retries"; "reroute"; "ghost-inv"; "pre"; "dip";
          "rec@"; "jain";
        ]
      ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         [
           r.r_load;
           r.r_chan;
           (if r.r_burst then "10%+join" else "none");
           Table.cell_int r.offered;
           Table.cell_float ~decimals:3 (ratio_of r);
           Table.cell_float ~decimals:1 (Summary.mean r.latency);
           Table.cell_float ~decimals:0 (Summary.maximum r.latency);
           Table.cell_float ~decimals:2 (Summary.mean r.retries);
           Table.cell_int r.reroutes;
           Table.cell_int r.invalidations;
           (if r.r_burst then Table.cell_float ~decimals:3 (Summary.mean r.pre)
            else "-");
           (if r.r_burst then Table.cell_float ~decimals:3 (Summary.mean r.dip)
            else "-");
           (if r.r_burst then
              Printf.sprintf "%d/%d @%.0f" r.recovered r.r_runs
                (Summary.mean r.rec_rounds)
            else "-");
           Table.cell_float ~decimals:3 (Summary.mean r.jain);
         ])
       rows)

(* ------------------------------------------------- executor identity *)

type verification = {
  v_agree : bool;
  v_detail : string;
  v_pre : float;
  v_dip : float;
  v_recovered_at : int option;
  v_ratio : float;
  v_latency_mean : float;
}

(* Replay run 0 of the heavy-load / lossy / burst cell under the dense
   reference walk and the flat executor and compare every workload
   observable bit for bit (Workload.equal) plus the protocol states. The
   acceptance gate for `repro traffic`. *)
let verify ?(seed = 42) ?(spec = default_spec) ?(rounds = 220) ?(ttl = 48)
    ?(window = 20) ?(burst_round = default_burst_round)
    ?(rejoin_round = default_rejoin_round)
    ?(fraction = default_burst_fraction) ?(energy = default_energy)
    ?(rate = 8.0) ?(channel = Channel.bernoulli 0.9) () =
  let stream () = (Runner.streams ~seed ~runs:1).(0) in
  let go ~dense =
    run_one ~dense ~spec ~rounds ~ttl ~burst:true ~burst_round ~rejoin_round
      ~fraction ~energy ~rate ~channel (stream ())
  in
  let wd, _, states_d, alive_d = go ~dense:true in
  let wf, _, states_f, alive_f = go ~dense:false in
  let w_eq = W.equal wd wf in
  let st_eq =
    Array.length states_d = Array.length states_f
    && Array.for_all2 P.equal_state states_d states_f
    && alive_d = alive_f
  in
  let totals = W.totals wd in
  let pre, dip, rec_at =
    dip_recovery ~burst_round ~window (W.cohorts ~window wd)
  in
  {
    v_agree = w_eq && st_eq;
    v_detail =
      (if w_eq && st_eq then "dense == flat (workload planes and states)"
       else if w_eq then "workload agrees but protocol states diverge"
       else "workload observables diverge between dense and flat");
    v_pre = pre;
    v_dip = dip;
    v_recovered_at = rec_at;
    v_ratio =
      (if totals.W.offered = 0 then Float.nan
       else float_of_int totals.W.delivered /. float_of_int totals.W.offered);
    v_latency_mean = Summary.mean totals.W.latency;
  }

let print ?seed ?runs ?domains ?spec ?loads ?channels ?bursts ?rounds ?ttl
    ?window ?burst_round ?rejoin_round ?fraction ?energy () =
  let rows =
    run ?seed ?runs ?domains ?spec ?loads ?channels ?bursts ?rounds ?ttl
      ?window ?burst_round ?rejoin_round ?fraction ?energy ()
  in
  Table.print (to_table rows)
