(* Every metric the benchmark prints, with its unit and which direction
   is better. BENCHMARK.json lists the same names; the benchmark's tests
   hold the two in step. *)

type better = Lower | Higher

type t = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* Measured with tracing off. A failed output check is not a metric: it
   is the result line's [failed] out of [attempted]. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "run_s" "s" Lower;
    m "cpu_s" "s" Lower;
    m "node_rounds_per_s" "1/s" Higher;
    m "peak_rss_mb" "MiB" Lower;
    m "alloc_mwords" "Mwords" Lower;
  ]

(* From the traced repetitions; layers a workload does not exercise
   read 0. *)
let per_layer =
  [
    m "engine.init_s" "s" Lower;
    m "engine.finish_s" "s" Lower;
    m "engine.round_s" "s" Lower;
    m "engine.ns_per_node_round" "ns" Lower;
    m "engine.round_ms_p50" "ms" Lower;
    m "engine.round_ms_phi" "ms" Lower;
    m "engine.round_phi_pct" "%" Higher;
    m "engine.rounds" "count" Lower;
    m "engine.changed" "count" Lower;
    m "engine.events" "count" Lower;
    m "engine.minor_words" "words" Lower;
    m "engine.major_words" "words" Lower;
    m "pool.busy_ratio" "ratio" Higher;
    m "radio.query_ns" "ns" Lower;
    m "radio.data_loss_ratio" "ratio" Lower;
    m "churn.plan_s" "s" Lower;
    m "churn.events_emitted" "count" Lower;
    m "mobility.step_s" "s" Lower;
    m "mobility.moved" "count" Lower;
    m "topology.flush_s" "s" Lower;
    m "topology.edge_flips" "count" Lower;
    m "topology.build_s" "s" Lower;
    m "cluster.reads" "count" Lower;
    m "cluster.read_s" "s" Lower;
    m "traffic.tick_s" "s" Lower;
    m "traffic.tick_ms_p50" "ms" Lower;
    m "traffic.tick_ms_phi" "ms" Lower;
    m "traffic.offered" "count" Higher;
    m "traffic.delivered" "count" Higher;
    m "traffic.attempts" "count" Lower;
    m "traffic.failures" "count" Lower;
    m "traffic.inflight_max" "count" Lower;
    m "traffic.useful_ratio" "ratio" Higher;
    m "host.ref_ms" "ms" Lower;
    m "trace.remainder_ratio" "ratio" Lower;
    m "trace.overhead_ratio" "ratio" Lower;
  ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x.unit_
  | None -> invalid_arg ("Metrics.unit_of: " ^ name)

(* A number as measured, all its digits; JSON has no NaN or infinity. *)
let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_result ~correct ~attempted ~failed values =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number v) (unit_of name))
          values))
