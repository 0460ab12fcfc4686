(* Flat-executor benchmark: the struct-of-arrays round loop on geometric
   deployments under churn, from 100k nodes up to a million-node run —
   the scale the typed representation cannot reach comfortably
   (per-round list/record traffic) and the flat planes hold without a
   single per-round allocation.

   Timing methodology: every timed run happens in its own fresh process
   (the bench re-execs itself with [--one]) and reports CPU seconds
   (Sys.time).  In-process back-to-back timing is unusable at this
   scale: whichever run comes second pays major-GC costs
   proportional to the first's live result, and OCaml 5.1's
   Gc.compact does not return freed pages, so the pollution is
   one-way and unbounded.  A fresh process per measurement is the only
   arrangement where the number measures the executor.

   Before any timing is reported the flat executor is cross-checked
   against the dense reference walk: same round count, same per-round
   changed-node history, same burst/recovery attribution, same final
   states modulo [equal_state], and the flat run must be bit-identical at
   1 and 2 domains. A divergence exits non-zero.

   One rep is one process; a point takes the minimum over its reps —
   on a busy shared box CPU-time noise is strictly additive (cache and
   bandwidth interference only ever slow a run down), so the minimum is
   the estimator of the uncontended cost.

     dune exec bench/flat.exe            # scaling sweep + 1M flat,
                                         # writes BENCH_flat.json
     dune exec bench/flat.exe -- --smoke # dense/flat identity for CI
     dune exec bench/flat.exe -- --one EXEC [--count N] [--bursts N]
                                         # internal: one timed run in a
                                         # pristine process *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Channel = Ss_radio.Channel
module Rng = Ss_prng.Rng
module Churn = Ss_engine.Churn
module Distributed = Ss_cluster.Distributed

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Ss_engine.Engine.Make (P)
module F = Ss_engine.Flat.Make (P)

let seed = 2026
let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

(* Average unit-disk degree ~7 at any scale. *)
let radius_for n = sqrt (7.0 /. (Float.pi *. float_of_int n))

(* Victims stride across the id space so bursts land in different
   regions; each burst is one crash with the rejoin half a spacing
   later. *)
let plan ~bursts ~spacing ~first n =
  Churn.schedule
    (List.concat
       (List.init bursts (fun i ->
            let v = 997 * (i + 1) mod n in
            let r = first + (i * spacing) in
            [
              (r, [ Churn.Crash v ]);
              (r + (spacing / 2), [ Churn.Join v ]);
            ])))

(* Warm-start states minted through the flat planes: [init_all] computes
   the namespace size once, where n typed [init] calls would recompute it
   per node — the difference between seconds and hours at 100k+. Both
   executors of the identity pass get the same array (and fresh
   same-seeded generators), so the comparison stays draw-for-draw. *)
let warm_states graph =
  let rng = Rng.create ~seed:(seed + 2) in
  let b = P.Flat.alloc graph in
  P.Flat.init_all b rng graph;
  Array.init (Graph.node_count graph) (P.Flat.unpack b)

(* One deployment + churn plan, derived from the node count alone so a
   [--one] child process reconstructs exactly the parent's workload. *)
let workload ~count ~bursts =
  let radius = radius_for count in
  let rng = Rng.create ~seed:(seed + 1) in
  let graph = Builders.random_geometric_count rng ~count ~radius in
  let churn = plan ~bursts ~spacing:30 ~first:60 (Graph.node_count graph) in
  (graph, radius, churn)

let run_dense ?states ~churn graph =
  E.run ~quiet_rounds ~max_rounds:20_000 ~churn ?states (Rng.create ~seed)
    graph

let run_flat ?states ?(domains = 1) ~churn graph =
  F.run ~quiet_rounds ~max_rounds:20_000 ~churn ~domains ?states
    (Rng.create ~seed) graph

let check label ok = if not ok then Fmt.epr "IDENTITY MISMATCH: %s@." label

(* Typed run vs flat run: every observable both executors report. *)
let typed_vs_flat what (t : E.run) (f : F.run) =
  let checks =
    [
      ( "final states",
        Array.for_all2 (fun a b -> P.equal_state a b) t.E.states f.F.states );
      ("rounds", t.E.rounds = f.F.rounds);
      ("converged", t.E.converged = f.F.converged);
      ("last_change_round", t.E.last_change_round = f.F.last_change_round);
      ("change_history", t.E.change_history = f.F.change_history);
      ("alive", t.E.alive = f.F.alive);
      ("bursts", t.E.bursts = f.F.bursts);
      ("faults", t.E.faults = f.F.faults);
      ("graph", Graph.equal t.E.graph f.F.graph);
    ]
  in
  List.iter (fun (l, ok) -> check (what ^ ": " ^ l) ok) checks;
  List.for_all snd checks

(* Two flat runs must agree bit-for-bit — structural equality, caches
   included, not just [equal_state]. *)
let flat_vs_flat what (a : F.run) (b : F.run) =
  let checks =
    [
      ("states", a.F.states = b.F.states);
      ("rounds", a.F.rounds = b.F.rounds);
      ("converged", a.F.converged = b.F.converged);
      ("change_history", a.F.change_history = b.F.change_history);
      ("alive", a.F.alive = b.F.alive);
      ("bursts", a.F.bursts = b.F.bursts);
      ("faults", a.F.faults = b.F.faults);
      ("graph", Graph.equal a.F.graph b.F.graph);
    ]
  in
  List.iter (fun (l, ok) -> check (what ^ ": " ^ l) ok) checks;
  List.for_all snd checks

(* ------------------------------------------------------------- smoke *)

let smoke () =
  let rng = Rng.create ~seed:(seed + 1) in
  let graph = Builders.random_geometric_count rng ~count:600 ~radius:0.08 in
  let n = Graph.node_count graph in
  let churn = plan ~bursts:3 ~spacing:20 ~first:30 n in
  Fmt.pr "smoke: %d nodes, %d edges@." n (Graph.edge_count graph);
  let dense = run_dense ~churn graph in
  let f1 = run_flat ~churn graph and f2 = run_flat ~domains:2 ~churn graph in
  let ok =
    typed_vs_flat "smoke dense/flat" dense f1
    && flat_vs_flat "smoke 1-vs-2-domain" f1 f2
  in
  (* A lossy pass: the deliver-diff replay path, bounded rounds (a lossy
     cache-expiry stack need not quiesce). *)
  let rng = Rng.create ~seed:(seed + 3) in
  let graph = Builders.random_geometric_count rng ~count:300 ~radius:0.1 in
  let channel = Channel.bernoulli 0.7 in
  let dense =
    E.run ~channel ~quiet_rounds ~max_rounds:60 (Rng.create ~seed) graph
  in
  let flat domains =
    F.run ~channel ~quiet_rounds ~max_rounds:60 ~domains (Rng.create ~seed)
      graph
  in
  let f1 = flat 1 and f2 = flat 2 in
  let ok =
    ok
    && typed_vs_flat "smoke lossy dense/flat" dense f1
    && flat_vs_flat "smoke lossy 1-vs-2-domain" f1 f2
  in
  Fmt.pr "  identity: %b  rounds: %d@." ok dense.E.rounds;
  ok

(* --------------------------------------------- one timed child run *)

(* Runs the flat executor once and prints one machine-readable line;
   the parent spawns one child per measurement so every number comes
   from a pristine heap. [flat] warm-starts from [warm_states]; [flat-cold]
   and [flat-1m] run cold (no warm array): holding n typed records live
   through a flat run just to warm-start it charges the flat executor for
   the typed representation's heap. *)
let one exec ~count ~bursts =
  let graph, _, churn = workload ~count ~bursts in
  let states =
    match exec with
    | "flat" -> Some (warm_states graph)
    | "flat-cold" | "flat-1m" -> None
    | _ -> invalid_arg ("flat bench: unknown run " ^ exec)
  in
  let t0 = Sys.time () in
  let r = run_flat ?states ~churn graph in
  let rounds, converged = (r.F.rounds, r.F.converged) in
  Printf.printf "RESULT %s cpu=%.4f rounds=%d converged=%b\n%!" exec
    (Sys.time () -. t0) rounds converged

(* Spawn [--one] in a fresh process, parse its RESULT line. *)
let child exec ~count ~bursts =
  let cmd =
    Printf.sprintf "%s --one %s --count %d --bursts %d"
      (Filename.quote Sys.executable_name)
      exec count bursts
  in
  let ic = Unix.open_process_in cmd in
  let result = ref None in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       try
         Scanf.sscanf line "RESULT %s cpu=%f rounds=%d converged=%B"
           (fun _ cpu rounds converged ->
             result := Some (cpu, rounds, converged))
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !result) with
  | Unix.WEXITED 0, Some r -> r
  | status, _ ->
      let code =
        match status with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> -s
      in
      Fmt.epr "ERROR: child '%s' failed (status %d)@." cmd code;
      exit 1

(* -------------------------------------------------------------- full *)

(* Minimum CPU time over [reps] fresh-process runs (see the header). *)
let child_min exec ~count ~bursts ~reps =
  let best = ref infinity and rounds = ref 0 in
  for _ = 1 to reps do
    let t, r, _ = child exec ~count ~bursts in
    if t < !best then best := t;
    rounds := r
  done;
  (!best, !rounds)

type point = {
  nodes : int;
  radius : float;
  bursts : int;
  rounds : int;
  flat_seconds : float;
}

let scale_point ~count ~bursts ~reps =
  let graph, radius, _ = workload ~count ~bursts in
  let n = Graph.node_count graph in
  Fmt.pr "%dk: %d nodes, %d edges, %d single-node bursts@." (count / 1000) n
    (Graph.edge_count graph) bursts;
  let flat_t, rounds = child_min "flat" ~count ~bursts ~reps in
  Fmt.pr "  flat: %.3fs  rounds: %d@." flat_t rounds;
  { nodes = n; radius; bursts; rounds; flat_seconds = flat_t }

(* The untimed identity pass, on the sweep's workload at a size the dense
   walk (every node, every round) finishes in minutes, not hours. *)
let identity ~count ~bursts =
  let graph, _, churn = workload ~count ~bursts in
  let states = warm_states graph in
  let dense = run_dense ~states ~churn graph in
  let flat = run_flat ~states ~churn graph in
  let ok = typed_vs_flat (Printf.sprintf "%d dense/flat" count) dense flat in
  Fmt.pr "%dk identity (dense/flat): %b@." (count / 1000) ok;
  ok

let million () =
  let count = 1_000_000 in
  let bursts = 4 in
  let radius = radius_for count in
  let run_t, rounds, converged = child "flat-1m" ~count ~bursts in
  let n, edges =
    let graph, _, _ = workload ~count ~bursts in
    (Graph.node_count graph, Graph.edge_count graph)
  in
  Fmt.pr "1M: %d nodes, %d edges@." n edges;
  Fmt.pr "  flat: %.3fs  rounds: %d  converged: %b  (%.0f node-rounds/s)@."
    run_t rounds converged
    (float_of_int n *. float_of_int rounds /. run_t);
  (n, edges, radius, run_t, rounds, converged)

let json points (mn, medges, mradius, mrun_t, mrounds, mconverged) =
  let point p =
    Printf.sprintf
      "    {\n\
      \      \"nodes\": %d,\n\
      \      \"radius\": %.5f,\n\
      \      \"bursts\": %d,\n\
      \      \"rounds\": %d,\n\
      \      \"flat_seconds\": %.4f\n\
      \    }"
      p.nodes p.radius p.bursts p.rounds p.flat_seconds
  in
  Printf.sprintf
    "{\n\
    \  \"seed\": %d,\n\
    \  \"scaling\": [\n\
     %s\n\
    \  ],\n\
    \  \"million\": {\n\
    \    \"nodes\": %d,\n\
    \    \"edges\": %d,\n\
    \    \"radius\": %.5f,\n\
    \    \"rounds\": %d,\n\
    \    \"flat_seconds\": %.4f,\n\
    \    \"converged\": %b\n\
    \  }\n\
     }\n"
    seed
    (String.concat ",\n" (List.map point points))
    mn medges mradius mrounds mrun_t mconverged

let () =
  let argv = Sys.argv in
  let flag_value name default =
    let v = ref default in
    Array.iteri
      (fun i a -> if a = name && i + 1 < Array.length argv then
          v := int_of_string argv.(i + 1))
      argv;
    !v
  in
  let one_exec =
    let v = ref None in
    Array.iteri
      (fun i a -> if a = "--one" && i + 1 < Array.length argv then
          v := Some argv.(i + 1))
      argv;
    !v
  in
  match one_exec with
  | Some exec ->
      let default_count = if exec = "flat-1m" then 1_000_000 else 100_000 in
      let default_bursts = if exec = "flat-1m" then 4 else 8 in
      one exec
        ~count:(flag_value "--count" default_count)
        ~bursts:(flag_value "--bursts" default_bursts)
  | None ->
      if Array.exists (( = ) "--smoke") argv then begin
        if not (smoke ()) then begin
          Fmt.epr "ERROR: flat run diverged@.";
          exit 1
        end
      end
      else begin
        (* The sweep: identity is verified in-process at 10k first; the
           timed points are flat-only — the executors' agreement is
           scale-independent (no size thresholds anywhere in either path)
           and separately enforced by the QCheck battery. *)
        let identical = identity ~count:10_000 ~bursts:8 in
        let p100 = scale_point ~count:100_000 ~bursts:8 ~reps:2 in
        let p300 = scale_point ~count:300_000 ~bursts:4 ~reps:2 in
        let p1m = scale_point ~count:1_000_000 ~bursts:4 ~reps:1 in
        let points = [ p100; p300; p1m ] in
        let m = million () in
        let oc = open_out "BENCH_flat.json" in
        output_string oc (json points m);
        close_out oc;
        Fmt.pr "wrote BENCH_flat.json@.";
        if not identical then begin
          Fmt.epr "ERROR: flat run diverged from the dense reference@.";
          exit 1
        end
      end
