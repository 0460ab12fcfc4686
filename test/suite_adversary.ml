(* The adversary wrapper's proof obligations.

   (1) Transparency: an empty roster is the identity transformer.

   (2) Containment pins: directed cases where the adversary's blast
   radius is known — a Stuck node on a perfect channel must leave the
   clean region legitimate (strict stabilization), and a Mute node is
   exactly a node whose frames never arrive. *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Traversal = Ss_topology.Traversal
module Channel = Ss_radio.Channel
module Scheduler = Ss_engine.Scheduler
module Churn = Ss_engine.Churn
module Engine = Ss_engine.Engine
module Adversary = Ss_engine.Adversary
module Monitor = Ss_engine.Monitor
module Distributed = Ss_cluster.Distributed
module Invariants = Ss_cluster.Invariants
module Rng = Ss_prng.Rng

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

(* ------------------------------------------------------- transparency *)

let test_empty_roster_transparent () =
  (* Wrap with no Byzantine nodes must be the identity transformer: same
     projected states, same trajectory, on a lossy channel too. *)
  let module Q =
    Adversary.Wrap
      (P)
      (struct
        type message = Distributed.message

        let key = Rng.key ~seed:99
        let roles = []
        let from_round = 1
        let forge = Distributed.forge
      end)
  in
  let module EQ = Engine.Make (Q) in
  let module EP = Engine.Make (P) in
  List.iter
    (fun channel ->
      let graph = Builders.geometric_grid ~cols:5 ~rows:4 ~radius:0.45 in
      let wrapped =
        EQ.run ~channel ~quiet_rounds:4 ~max_rounds:600
          (Rng.create ~seed:21) graph
      in
      let raw =
        EP.run ~channel ~quiet_rounds:4 ~max_rounds:600
          (Rng.create ~seed:21) graph
      in
      Alcotest.(check bool) "same states" true
        (Array.for_all2
           (fun a b -> P.equal_state (Q.project a) b)
           wrapped.EQ.states raw.EP.states);
      Alcotest.(check int) "same rounds" raw.EP.rounds wrapped.EQ.rounds;
      Alcotest.(check bool) "same convergence" raw.EP.converged
        wrapped.EQ.converged;
      Alcotest.(check (list int)) "same change history" raw.EP.change_history
        wrapped.EQ.change_history)
    [ Channel.perfect; Channel.bernoulli 0.7 ]

(* --------------------------------------------------- containment pins *)

let config = Distributed.default_params.Distributed.algo
let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

let test_stuck_clean_region_stays_legitimate () =
  (* A Stuck node replaying its round-5 emission forever, on a perfect
     channel: the rest of the network must reach legitimacy and hold it
     everywhere beyond the containment horizon — the strict-stabilization
     bar for this adversary class. *)
  let graph = Builders.geometric_grid ~cols:5 ~rows:4 ~radius:0.45 in
  let n = Graph.node_count graph in
  let ids = Array.init n Fun.id in
  let byz = [ 7 ] in
  let from_round = 5 in
  let horizon = 2 in
  let module Q =
    Adversary.Wrap
      (P)
      (struct
        type message = Distributed.message

        let key = Rng.key ~seed:33
        let roles = List.map (fun p -> (p, Adversary.Stuck)) byz
        let from_round = from_round
        let forge = Distributed.forge
      end)
  in
  let module E = Engine.Make (Q) in
  let adversary =
    {
      Monitor.dist = Adversary.distances graph byz;
      horizon;
      active_from = from_round;
    }
  in
  let monitor =
    Invariants.monitor_via ~adversary ~project:Q.project ~config ~ids ()
  in
  let result =
    E.run ~channel:Channel.perfect ~quiet_rounds ~max_rounds:1_500
      ~on_round:(Monitor.on_round monitor)
      ~probe:(Monitor.probe monitor)
      (Rng.create ~seed:33) graph
  in
  let rep = Monitor.report monitor ~converged:result.E.converged in
  match rep.Monitor.containment with
  | None -> Alcotest.fail "expected containment metrics"
  | Some c ->
      Alcotest.(check bool) "clean region legitimate at the end" true
        c.Monitor.contained;
      Alcotest.(check bool) "containment round recorded" true
        (c.Monitor.time_to_containment <> None);
      Alcotest.(check bool) "rounds tracked from activation" true
        (c.Monitor.tracked_rounds > 0)

(* The mute pin runs on a toy protocol where the blast radius is exactly
   computable: floodmax on a path with the max holder silenced. *)
module Floodmax = struct
  type state = int
  type message = int

  let init _rng graph p = Graph.node_count graph - p
  let emit _graph _p st = st

  let handle _rng _graph _p st msgs =
    List.fold_left (fun acc (_, v) -> max acc v) st msgs

  let equal_state = Int.equal
end

let test_mute_is_a_silenced_node () =
  (* Node 0 holds the global max (n) and is Mute from round 1: its value
     never propagates, the rest floods the runner-up (n - 1), and node 0
     itself still hears its neighbor — receiving works, sending does
     not. *)
  let n = 6 in
  let module Q =
    Adversary.Wrap
      (Floodmax)
      (struct
        type message = int

        let key = Rng.key ~seed:3
        let roles = [ (0, Adversary.Mute) ]
        let from_round = 1
        let forge = fun _ _ m -> m
      end)
  in
  let module E = Engine.Make (Q) in
  let g = Builders.path n in
  let result = E.run (Rng.create ~seed:3) g in
  Alcotest.(check bool) "converged" true result.E.converged;
  let states = Array.map Q.project result.E.states in
  Alcotest.(check (array int)) "max never escapes the mute node"
    (Array.init n (fun p -> if p = 0 then n else n - 1))
    states

(* ----------------------------------------------- BFS and validations *)

let test_distances () =
  let g = Builders.path 5 in
  Alcotest.(check (array int)) "single source" [| 0; 1; 2; 3; 4 |]
    (Adversary.distances g [ 0 ]);
  Alcotest.(check (array int)) "multi source" [| 0; 1; 2; 1; 0 |]
    (Adversary.distances g [ 0; 4 ]);
  Alcotest.(check (array int)) "empty roster: everything unreachable"
    (Array.make 5 Traversal.unreachable)
    (Adversary.distances g []);
  Alcotest.check_raises "out-of-range source"
    (Invalid_argument "Adversary.distances: node 9 outside graph (5 nodes)")
    (fun () -> ignore (Adversary.distances g [ 9 ]))

let test_wrap_validation () =
  Alcotest.check_raises "duplicate roster entry"
    (Invalid_argument "Adversary.Wrap: node 1 listed twice in roles")
    (fun () ->
      let module _ =
        Adversary.Wrap
          (Floodmax)
          (struct
            type message = int

            let key = Rng.key ~seed:1
            let roles = [ (1, Adversary.Mute); (1, Adversary.Liar) ]
            let from_round = 1
            let forge = fun _ _ m -> m
          end)
      in
      ());
  Alcotest.check_raises "from_round < 1"
    (Invalid_argument "Adversary.Wrap: from_round must be >= 1")
    (fun () ->
      let module _ =
        Adversary.Wrap
          (Floodmax)
          (struct
            type message = int

            let key = Rng.key ~seed:1
            let roles = []
            let from_round = 0
            let forge = fun _ _ m -> m
          end)
      in
      ());
  let module Q =
    Adversary.Wrap
      (Floodmax)
      (struct
        type message = int

        let key = Rng.key ~seed:1
        let roles = [ (7, Adversary.Mute) ]
        let from_round = 1
        let forge = fun _ _ m -> m
      end)
  in
  let module E = Engine.Make (Q) in
  Alcotest.check_raises "roster node outside graph"
    (Invalid_argument "Adversary.Wrap: Byzantine node 7 outside graph (3 nodes)")
    (fun () -> ignore (E.run (Rng.create ~seed:1) (Builders.path 3)))

let suite =
  [
    Alcotest.test_case "empty roster is transparent" `Quick
      test_empty_roster_transparent;
    Alcotest.test_case "stuck: clean region stays legitimate" `Quick
      test_stuck_clean_region_stays_legitimate;
    Alcotest.test_case "mute = silenced node" `Quick
      test_mute_is_a_silenced_node;
    Alcotest.test_case "distances (multi-source BFS)" `Quick test_distances;
    Alcotest.test_case "wrap validation" `Quick test_wrap_validation;
  ]
