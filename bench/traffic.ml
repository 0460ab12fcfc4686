(* Data-plane workload benchmark: 10k nodes under sustained load with a
   mid-run crash burst — the delivery-ratio dip and recovery curve, at a
   scale only the flat executor reaches comfortably.

   The full run (no flags) drives the flat executor for 600 rounds at 20
   messages/round over a unit-disk deployment of 10 000 nodes, crashes
   5% of the fleet at round 300 (rejoining at round 420), drains
   batteries throughout (believed-head duty + tx/rx costs, depleted
   nodes crash through the churn feed), and writes the per-cohort
   delivery-ratio curve to BENCH_traffic.json.

   --smoke is the CI gate: a 1.5k-node burst run executed three ways —
   the dense reference walk, flat x 1 domain, flat x 2 domains — all three
   required bit-identical on every workload observable (Workload.equal)
   and on every run observable (Engine.divergence; structural equality
   across domain counts), and the delivery ratio required to recover to
   >= 0.95 of its pre-burst value after the burst. Exits non-zero on
   divergence or failed recovery.

     dune exec bench/traffic.exe            # full 10k run, writes JSON
     dune exec bench/traffic.exe -- --smoke # identity + recovery gate *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng
module Channel = Ss_radio.Channel
module Churn = Ss_engine.Churn
module Distributed = Ss_cluster.Distributed
module W = Ss_traffic.Workload
module Summary = Ss_stats.Summary
module Scenario = Ss_experiments.Scenario
module Exp = Ss_experiments.Exp_traffic

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Ss_engine.Engine.Make (P)
module F = Ss_engine.Flat.Make (P)

let seed = 2026
let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

(* Average unit-disk degree ~12 at any scale: enough connectivity that
   greedy + backbone routing rarely hits a void. *)
let radius_for n = sqrt (12.0 /. (Float.pi *. float_of_int n))

type cfg = {
  count : int;
  rate : float;
  last_offer : int; (* arrivals stop here; the run drains afterwards *)
  ttl : int;
  burst_round : int;
  rejoin_round : int;
  fraction : float;
  window : int;
  capacity : float;
}

let full =
  {
    count = 10_000;
    rate = 20.0;
    last_offer = 440;
    ttl = 160;
    burst_round = 300;
    rejoin_round = 420;
    fraction = 0.05;
    window = 20;
    capacity = 600.0;
  }

let smoke =
  {
    count = 1_500;
    rate = 6.0;
    last_offer = 160;
    ttl = 64;
    burst_round = 100;
    rejoin_round = 150;
    fraction = 0.10;
    window = 20;
    capacity = 600.0;
  }

type executor = Dense | Flat of int

let executor_label = function
  | Dense -> "dense"
  | Flat d -> Printf.sprintf "flat x%d domains" d

(* One run: same stream, same workload key derivation, any executor.
   Control plane on a perfect channel (the deterministic fast path at
   10k); the data plane pays Bernoulli 0.95 frame loss — retries are the
   point of the exercise. *)
let run_one c executor =
  let rng = (Ss_experiments.Runner.streams ~seed ~runs:1).(0) in
  let spec =
    Scenario.uniform ~count:c.count ~radius:(radius_for c.count) ()
  in
  let world = Scenario.build rng spec in
  let graph = world.Scenario.graph in
  let n = Graph.node_count graph in
  let wseed = Rng.int rng 0x3FFFFFFF in
  let wcfg =
    {
      W.default_config with
      W.seed = wseed;
      channel = Channel.bernoulli 0.95;
      rate = c.rate;
      last_round = Some c.last_offer;
      ttl = c.ttl;
      energy = Some { W.default_energy with W.capacity = c.capacity };
    }
  in
  let w = W.create wcfg ~n in
  let churn =
    Churn.compose
      [
        Churn.crash_fraction ~round:c.burst_round ~fraction:c.fraction;
        Churn.join_all ~round:c.rejoin_round;
        W.churn_feed w;
      ]
  in
  let max_rounds = c.last_offer + c.ttl + 8 in
  let t0 = Unix.gettimeofday () in
  let r =
    match executor with
    | Dense ->
        E.run ~quiet_rounds ~max_rounds ~churn ~workload:(W.typed_hook w) rng
          graph
    | Flat domains ->
        F.run ~quiet_rounds ~max_rounds ~churn ~domains ~workload:(W.hook w)
          rng graph
  in
  let dt = Unix.gettimeofday () -. t0 in
  (w, r, dt)

(* The workload's own planes first, then every run observable. *)
let check_identical label ~equal (wa, ra, _) (wb, rb, _) =
  let divergence =
    if not (W.equal wa wb) then Some "workload observables"
    else Ss_engine.Engine.divergence ~equal ra rb
  in
  (match divergence with
  | None -> Printf.printf "  identical: %s\n%!" label
  | Some d -> Printf.printf "  DIVERGENCE: %s: %s\n%!" label d);
  Option.is_none divergence

let report c w =
  let t = W.totals w in
  let ratio =
    if t.W.offered = 0 then Float.nan
    else float_of_int t.W.delivered /. float_of_int t.W.offered
  in
  Printf.printf
    "  offered %d  delivered %d (ratio %.3f)  expired %d  died %d\n"
    t.W.offered t.W.delivered ratio t.W.expired t.W.died;
  Printf.printf
    "  latency mean %.1f max %.0f  failures %d  reroutes %d  ghost-inv %d  \
     stalls %d\n"
    (Summary.mean t.W.latency)
    (Summary.maximum t.W.latency)
    t.W.failures t.W.reroutes t.W.invalidations t.W.stalls;
  (match W.energy_report w with
  | Some e ->
      Printf.printf
        "  energy: depleted %d  spent mean %.1f max %.1f  jain %.3f  \
         head-rounds max %d\n"
        e.W.depleted e.W.spent_mean e.W.spent_max e.W.jain e.W.head_rounds_max
  | None -> ());
  let cohorts = W.cohorts ~window:c.window w in
  if Array.exists (( = ) "--dump") Sys.argv then
    List.iter
      (fun (co : W.cohort) ->
        Printf.printf "    cohort %3d  offered %4d  ratio %.3f  lat %.1f\n"
          co.W.c_start co.W.c_offered co.W.c_ratio co.W.c_latency_mean)
      cohorts;
  let pre, dip, rec_at =
    Exp.dip_recovery ~burst_round:c.burst_round ~window:c.window cohorts
  in
  Printf.printf "  pre-burst ratio %.3f  dip %.3f  recovered %s\n%!" pre dip
    (match rec_at with
    | Some r -> Printf.sprintf "at +%d rounds" r
    | None -> "never");
  (ratio, pre, dip, rec_at)

let json_of_cohorts cohorts =
  String.concat ",\n"
    (List.map
       (fun (co : W.cohort) ->
         Printf.sprintf
           "    {\"start\": %d, \"offered\": %d, \"delivered\": %d, \
            \"ratio\": %.4f, \"latency_mean\": %.2f}"
           co.W.c_start co.W.c_offered co.W.c_delivered
           (if Float.is_nan co.W.c_ratio then 0.0 else co.W.c_ratio)
           (if Float.is_nan co.W.c_latency_mean then 0.0
            else co.W.c_latency_mean))
       cohorts)

let write_json c w dt ratio pre dip rec_at =
  let t = W.totals w in
  let energy =
    match W.energy_report w with
    | Some e ->
        Printf.sprintf
          "{\"depleted\": %d, \"spent_mean\": %.2f, \"spent_max\": %.2f, \
           \"jain\": %.4f, \"head_rounds_max\": %d}"
          e.W.depleted e.W.spent_mean e.W.spent_max e.W.jain
          e.W.head_rounds_max
    | None -> "null"
  in
  let oc = open_out "BENCH_traffic.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"traffic\",\n\
    \  \"executor\": \"flat\",\n\
    \  \"nodes\": %d,\n\
    \  \"rate\": %.1f,\n\
    \  \"ttl\": %d,\n\
    \  \"burst_round\": %d,\n\
    \  \"rejoin_round\": %d,\n\
    \  \"crash_fraction\": %.2f,\n\
    \  \"wall_seconds\": %.2f,\n\
    \  \"offered\": %d,\n\
    \  \"delivered\": %d,\n\
    \  \"delivery_ratio\": %.4f,\n\
    \  \"latency_mean\": %.2f,\n\
    \  \"latency_max\": %.0f,\n\
    \  \"failures\": %d,\n\
    \  \"reroutes\": %d,\n\
    \  \"ghost_invalidations\": %d,\n\
    \  \"pre_burst_ratio\": %.4f,\n\
    \  \"dip_ratio\": %.4f,\n\
    \  \"recovered_after_rounds\": %s,\n\
    \  \"energy\": %s,\n\
    \  \"cohorts\": [\n%s\n  ]\n\
     }\n"
    c.count c.rate c.ttl c.burst_round c.rejoin_round c.fraction dt t.W.offered
    t.W.delivered ratio
    (Summary.mean t.W.latency)
    (Summary.maximum t.W.latency)
    t.W.failures t.W.reroutes t.W.invalidations pre dip
    (match rec_at with Some r -> string_of_int r | None -> "null")
    energy
    (json_of_cohorts (W.cohorts ~window:c.window w));
  close_out oc;
  Printf.printf "wrote BENCH_traffic.json\n%!"

let recovery_ok pre dip rec_at =
  ignore dip;
  (not (Float.is_nan pre)) && Option.is_some rec_at

let run_smoke () =
  let c = smoke in
  Printf.printf "traffic --smoke: %d nodes, rate %.0f, burst %.0f%% @%d\n%!"
    c.count c.rate (100.0 *. c.fraction) c.burst_round;
  let timed executor =
    let ((_, _, dt) as run) = run_one c executor in
    Printf.printf "%s: %.2fs\n%!" (executor_label executor) dt;
    run
  in
  let ((wd, _, _) as rd) = timed Dense in
  let rf1 = timed (Flat 1) in
  let rf2 = timed (Flat 2) in
  let ok_df = check_identical "dense == flat x1" ~equal:P.equal_state rd rf1 in
  let ok_dd = check_identical "flat x1 == flat x2" ~equal:( = ) rf1 rf2 in
  let _, pre, dip, rec_at = report c wd in
  let ok_rec = recovery_ok pre dip rec_at in
  if not ok_rec then
    Printf.printf "  RECOVERY FAILED: ratio never regained 95%% of %.3f\n%!"
      pre;
  if ok_df && ok_dd && ok_rec then begin
    Printf.printf "traffic smoke: OK\n%!";
    exit 0
  end
  else exit 1

let run_full () =
  let c = full in
  Printf.printf
    "traffic: %d nodes, sustained %.0f msg/round to round %d, burst %.0f%% \
     @%d, rejoin @%d (flat executor)\n%!"
    c.count c.rate c.last_offer (100.0 *. c.fraction) c.burst_round
    c.rejoin_round;
  let (w, r, dt) = run_one c (Flat 1) in
  Printf.printf "flat: %d rounds in %.2fs\n%!" r.F.rounds dt;
  let ratio, pre, dip, rec_at = report c w in
  write_json c w dt ratio pre dip rec_at;
  if recovery_ok pre dip rec_at then exit 0
  else begin
    Printf.printf "traffic: delivery ratio never recovered\n%!";
    exit 1
  end

let () =
  if Array.exists (( = ) "--smoke") Sys.argv then run_smoke () else run_full ()
