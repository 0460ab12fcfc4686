(* Extension experiment: the flat-memory executor at scale. One row per
   deployment size — a unit-disk deployment at constant expected degree,
   a crash/rejoin burst schedule past cold-start convergence, and the
   struct-of-arrays round loop carrying the whole run. At sizes the typed
   executor still handles comfortably, the same case runs through the
   dense reference walk too and Engine.divergence cross-checks the two
   runs, so the scaling rows rest on a verified engine, not a trusted
   one. *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Churn = Ss_engine.Churn
module Engine = Ss_engine.Engine
module Flat = Ss_engine.Flat
module Distributed = Ss_cluster.Distributed
module Table = Ss_stats.Table
module Rng = Ss_prng.Rng

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module En = Engine.Make (P)
module F = Flat.Make (P)

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
          locating the first difference ({!Engine.divergence}); [None]:
          size was above the cross-check cutoff *)
}

(* Average unit-disk degree ~7 at any scale. *)
let radius_for n = sqrt (7.0 /. (Float.pi *. float_of_int n))

let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

(* Victims stride across the id space; each burst is one crash with the
   rejoin half a spacing later. *)
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

let default_sizes = [ 1_000; 3_000; 10_000; 30_000; 100_000 ]

let run ?(seed = 42) ?(sizes = default_sizes) ?(check_upto = 3_000) () =
  List.map
    (fun count ->
      let radius = radius_for count in
      let graph =
        Builders.random_geometric_count
          (Rng.create ~seed:(seed + count))
          ~count ~radius
      in
      let n = Graph.node_count graph in
      let churn = plan ~bursts:4 ~spacing:24 ~first:40 n in
      (* Cold starts with same-seeded generators: the flat [init_all]
         draws node names exactly as the typed per-node [init] does, so
         the two executors line up from the first round. *)
      let t0 = Sys.time () in
      let flat =
        F.run ~quiet_rounds ~max_rounds:20_000 ~churn (Rng.create ~seed)
          graph
      in
      let seconds = Sys.time () -. t0 in
      let checked =
        if count > check_upto then None
        else
          let dense =
            En.run ~quiet_rounds ~max_rounds:20_000 ~churn (Rng.create ~seed)
              graph
          in
          Some
            (match Engine.divergence ~equal:P.equal_state dense flat with
            | None -> Ok ()
            | Some d -> Error d)
      in
      {
        nodes = n;
        edges = Graph.edge_count graph;
        rounds = flat.F.rounds;
        converged = flat.F.converged;
        stabilized = flat.F.last_change_round;
        seconds;
        checked;
      })
    sizes

let divergence rows =
  List.find_map
    (fun r ->
      match r.checked with
      | Some (Error d) -> Some (Printf.sprintf "%d nodes: %s" r.nodes d)
      | Some (Ok ()) | None -> None)
    rows

let to_table ?(title = "Flat executor scaling (unit-disk, degree ~7)") rows =
  let t =
    Table.create ~title
      ~header:
        [
          "nodes"; "edges"; "rounds"; "stabilized"; "converged"; "seconds";
          "flat=dense";
        ]
      ()
  in
  Table.add_rows t
    (List.map
       (fun r ->
         [
           Table.cell_int r.nodes;
           Table.cell_int r.edges;
           Table.cell_int r.rounds;
           Table.cell_int r.stabilized;
           (if r.converged then "yes" else "no");
           Table.cell_float ~decimals:2 r.seconds;
           (match r.checked with
           | Some (Ok ()) -> "yes"
           | Some (Error _) -> "DIVERGED"
           | None -> "-");
         ])
       rows)

let print ?seed ?sizes ?check_upto () =
  let rows = run ?seed ?sizes ?check_upto () in
  Table.print (to_table rows);
  Option.iter
    (Printf.ksprintf failwith
       "Exp_flat: flat executor diverged from the dense reference: %s")
    (divergence rows)
