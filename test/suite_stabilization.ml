(* The stabilization experiment's proof obligations.

   (a) The measured observable — stabilization round, plus round count,
       convergence and change history — is executor-independent: dense ≡
       flat on small instances, for both namings (DAG names,
       adversarial flat ids) and both channel regimes, and the flat
       executor agrees with itself at 1 vs 4 domains.
   (b) The adversarial generators are permutations with the structure
       they promise (BFS layers get contiguous id blocks from the root).
   (c) The physics the experiment reports is pinned: with adversarial
       flat ids stabilization grows with the grid side (the winning
       belief crosses the deployment), with DAG names it stays within a
       constant band across the same sweep.
   (d) A full experiment cell is domain-count independent end to end:
       distributions, CIs and every table cell agree at 1 vs 3 domains. *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Channel = Ss_radio.Channel
module Engine = Ss_engine.Engine
module Flat = Ss_engine.Flat
module Distributed = Ss_cluster.Distributed
module Config = Ss_cluster.Config
module Adversarial = Ss_cluster.Adversarial
module Estimate = Ss_stats.Estimate
module Exp = Ss_experiments.Exp_stabilization
module Rng = Ss_prng.Rng

let quiet = Distributed.default_params.Distributed.cache_ttl + 2

type observables = {
  o_rounds : int;
  o_converged : bool;
  o_stab : int;
  o_history : int list;
}

(* Run one executor family on a shared (graph, params, channel) case. *)
let run_all ~algo ~ids ~channel ~seed graph =
  let module P = Distributed.Make (struct
    let params = { Distributed.default_params with Distributed.algo; ids }
  end) in
  let module En = Engine.Make (P) in
  let module F = Flat.Make (P) in
  let max_rounds = 500 in
  let dense =
    En.run ~channel ~quiet_rounds:quiet ~max_rounds (Rng.create ~seed) graph
  in
  let flat1 =
    F.run ~channel ~quiet_rounds:quiet ~max_rounds ~domains:1
      (Rng.create ~seed) graph
  in
  let flat4 =
    F.run ~channel ~quiet_rounds:quiet ~max_rounds ~domains:4
      (Rng.create ~seed) graph
  in
  let obs_dense =
    {
      o_rounds = dense.En.rounds;
      o_converged = dense.En.converged;
      o_stab = dense.En.last_change_round;
      o_history = dense.En.change_history;
    }
  in
  let obs_flat =
    {
      o_rounds = flat1.F.rounds;
      o_converged = flat1.F.converged;
      o_stab = flat1.F.last_change_round;
      o_history = flat1.F.change_history;
    }
  in
  let states_agree =
    Array.for_all2 (fun a b -> P.equal_state a b) dense.En.states
      flat1.F.states
  in
  let domains_agree = flat1.F.states = flat4.F.states in
  (obs_dense, obs_flat, states_agree, domains_agree)

let check_case name ~algo ~with_ids ~channel ~seed =
  let graph = Builders.geometric_grid ~cols:7 ~rows:7 ~radius:0.2 in
  let ids = if with_ids then Some (Adversarial.bfs_ids graph) else None in
  let d, f, states_agree, domains_agree =
    run_all ~algo ~ids ~channel ~seed graph
  in
  Alcotest.(check bool) (name ^ ": converged") true d.o_converged;
  Alcotest.(check bool) (name ^ ": dense = flat") true (d = f);
  Alcotest.(check bool) (name ^ ": states agree") true states_agree;
  Alcotest.(check bool) (name ^ ": flat 1 = 4 domains") true domains_agree

let test_executors_agree_dag () =
  check_case "dag/perfect" ~algo:Config.with_dag ~with_ids:false
    ~channel:Channel.perfect ~seed:11;
  check_case "dag/lossy" ~algo:Config.with_dag ~with_ids:false
    ~channel:(Channel.bernoulli 0.9) ~seed:12

let test_executors_agree_adversarial () =
  check_case "adv/perfect" ~algo:Config.basic ~with_ids:true
    ~channel:Channel.perfect ~seed:13;
  check_case "adv/lossy" ~algo:Config.basic ~with_ids:true
    ~channel:(Channel.bernoulli 0.9) ~seed:14

(* ------------------------------------------------- (b): generator shape *)

let is_permutation ids =
  let n = Array.length ids in
  let seen = Array.make n false in
  Array.for_all
    (fun id -> id >= 0 && id < n && not seen.(id) && (seen.(id) <- true; true))
    ids

let test_bfs_ids_shape () =
  let graph = Builders.geometric_grid ~cols:9 ~rows:9 ~radius:0.14 in
  let ids = Adversarial.bfs_ids graph in
  Alcotest.(check bool) "permutation" true (is_permutation ids);
  Alcotest.(check int) "root gets id 0" 0 ids.(0);
  (* ids ordered by BFS depth from node 0: any node's id exceeds every
     strictly-closer node's id *)
  let dist = Ss_topology.Traversal.bfs_from graph 0 in
  let ok = ref true in
  Array.iteri
    (fun u du ->
      Array.iteri
        (fun v dv -> if du < dv && ids.(u) >= ids.(v) then ok := false)
        dist)
    dist;
  Alcotest.(check bool) "layer blocks are contiguous and ordered" true !ok;
  let shuffled =
    Adversarial.bfs_ids ~rng:(Rng.create ~seed:5) graph
  in
  Alcotest.(check bool) "randomized variant still a permutation" true
    (is_permutation shuffled)

let test_sweep_ids_shape () =
  let graph = Builders.geometric_grid ~cols:6 ~rows:6 ~radius:0.25 in
  let ids = Adversarial.sweep_ids graph in
  Alcotest.(check bool) "permutation" true (is_permutation ids);
  (* grid positions are column-major in x: the first column holds ids
     0..rows-1 *)
  let pos = Option.get (Graph.positions graph) in
  let min_x =
    Array.fold_left
      (fun acc (p : Ss_geom.Vec2.t) -> Float.min acc p.x)
      Float.infinity pos
  in
  Array.iteri
    (fun node id ->
      if id < 6 then
        Alcotest.(check (float 1e-9)) "smallest ids on the leftmost column"
          min_x
          pos.(node).Ss_geom.Vec2.x)
    ids

(* --------------------------------------------- (c): growth / flat pins *)

let stabilization ~algo ~ids graph =
  let module P = Distributed.Make (struct
    let params = { Distributed.default_params with Distributed.algo; ids }
  end) in
  let module F = Flat.Make (P) in
  let r =
    F.run ~quiet_rounds:quiet ~max_rounds:500 (Rng.create ~seed:3) graph
  in
  Alcotest.(check bool) "converged" true r.F.converged;
  r.F.last_change_round

let sweep_sides = [ 8; 16; 24 ]

let grid side =
  let spacing = 1.0 /. float_of_int (side - 1) in
  Builders.geometric_grid ~cols:side ~rows:side ~radius:(1.2 *. spacing)

let test_adversarial_grows () =
  let stabs =
    List.map
      (fun side ->
        let g = grid side in
        stabilization ~algo:Config.basic ~ids:(Some (Adversarial.bfs_ids g)) g)
      sweep_sides
  in
  (* belief crosses the deployment: at least one hop per round from the
     root, whose eccentricity on the 4-connected grid is 2(side-1) *)
  List.iter2
    (fun side stab ->
      Alcotest.(check bool)
        (Printf.sprintf "side %d: stabilization >= side" side)
        true (stab >= side))
    sweep_sides stabs;
  let rec increasing = function
    | a :: (b :: _ as tl) -> a < b && increasing tl
    | _ -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "grows along the sweep (%s)"
       (String.concat "/" (List.map string_of_int stabs)))
    true (increasing stabs)

let test_dag_stays_flat () =
  let stabs =
    List.map
      (fun side -> stabilization ~algo:Config.with_dag ~ids:None (grid side))
      sweep_sides
  in
  let lo = List.fold_left min max_int stabs
  and hi = List.fold_left max 0 stabs in
  Alcotest.(check bool)
    (Printf.sprintf "band %d..%d within one quiet window" lo hi)
    true
    (hi - lo <= quiet);
  Alcotest.(check bool) "far below the adversarial floor" true
    (hi < List.hd sweep_sides)

(* ------------------------------------- (d): cell-level domain independence *)

let test_cell_domain_independent () =
  let cells =
    [
      {
        Exp.c_side = 10;
        c_k = 1.5;
        c_tau = 0.95;
        c_naming = Exp.Adversarial;
        c_runs = 4;
        c_cap = 400;
      };
    ]
  in
  let strip rows =
    List.map
      (fun (r : Exp.row) ->
        ( Estimate.values r.Exp.stab,
          Estimate.censored_count r.Exp.stab,
          r.Exp.mean_ci,
          r.Exp.median_ci,
          r.Exp.p95_lb,
          r.Exp.viol_per_100,
          Estimate.values r.Exp.gaps ))
      rows
  in
  let a = strip (Exp.run ~domains:1 ~seed:7 ~cells ()) in
  let b = strip (Exp.run ~domains:3 ~seed:7 ~cells ()) in
  Alcotest.(check bool) "rows identical at 1 vs 3 domains" true (a = b)

let suite =
  [
    Alcotest.test_case "executors agree (DAG names)" `Quick
      test_executors_agree_dag;
    Alcotest.test_case "executors agree (adversarial ids)" `Quick
      test_executors_agree_adversarial;
    Alcotest.test_case "bfs_ids shape" `Quick test_bfs_ids_shape;
    Alcotest.test_case "sweep_ids shape" `Quick test_sweep_ids_shape;
    Alcotest.test_case "adversarial assignment grows with n" `Quick
      test_adversarial_grows;
    Alcotest.test_case "DAG names stay flat across the sweep" `Quick
      test_dag_stays_flat;
    Alcotest.test_case "experiment cell domain-independent" `Quick
      test_cell_domain_independent;
  ]
