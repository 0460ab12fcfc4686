(* The data-plane workload's proof obligations.

   (a) Executor independence: the same workload configuration attached to
       the dense and flat (1 and 4 domains) executors is
       bit-identical on every observable — per-message planes, per-round
       series, counters, batteries — over random geometric worlds with
       lossy data channels, a crash/rejoin burst and energy drain
       (QCheck; this is the argument that no view accessor reads a
       freshness stamp, tested end to end — the dense walk reads
       [Distributed.view] of its states, the flat executor aliases its
       planes).
   (b) Directed pins: a message re-routes around its crashed relay and
       still delivers (monitor invalidation); an unreachable destination
       expires at exactly [born + ttl]; the retry/backoff schedule under
       total frame loss is the documented deterministic sequence.
   (c) The flat-path workload hook allocates O(1) per idle round — an
       attached-but-idle workload must not scale the quiet-round cost
       with the network — and a duty round, which reads every alive
       node's view, allocates nothing on the major heap at any size.
   (d) A workload sized for a different network is refused up front,
       in both directions, by [tick] and by [churn_feed]. *)

module Graph = Ss_topology.Graph
module Vec2 = Ss_geom.Vec2
module Channel = Ss_radio.Channel
module Churn = Ss_engine.Churn
module Engine = Ss_engine.Engine
module Flat = Ss_engine.Flat
module Distributed = Ss_cluster.Distributed
module Rng = Ss_prng.Rng
module W = Ss_traffic.Workload
module Dynamic = Ss_topology.Dynamic

module P = Distributed.Make (struct
  let params = Distributed.default_params
end)

module E = Engine.Make (P)
module F = Flat.Make (P)

let quiet_rounds = Distributed.default_params.Distributed.cache_ttl + 2

(* ------------------------------------------------------- directed pins *)

(* Wheel: head-ish center 0 bridges every cross-ring pair (it ties the
   ring claimer on distance and wins on index), so crashing it mid-run
   forces monitor invalidations and ring re-routes. *)
let wheel () =
  let positions =
    Array.init 7 (fun i ->
        if i = 0 then Vec2.v 0.5 0.5
        else
          let a = float_of_int (i - 1) *. (Float.pi /. 3.0) in
          Vec2.v (0.5 +. (0.3 *. cos a)) (0.5 +. (0.3 *. sin a)))
  in
  let ring = List.init 6 (fun i -> (i + 1, ((i + 1) mod 6) + 1)) in
  let spokes = List.init 6 (fun i -> (0, i + 1)) in
  Graph.of_edges ~positions ~n:7 (ring @ spokes)

let test_retry_after_relay_crash () =
  let g = wheel () in
  let cfg =
    {
      W.default_config with
      W.seed = 11;
      rate = 1.0;
      first_round = 12;
      last_round = Some 20;
      ttl = 20;
      jitter = false;
    }
  in
  let w = W.create cfg ~n:7 in
  let churn =
    Churn.compose
      [
        Churn.schedule [ (14, [ Churn.Crash 0 ]) ];
        Churn.schedule [ (26, [ Churn.Join 0 ]) ];
      ]
  in
  let rng = Rng.create ~seed:3 in
  ignore
    (E.run ~quiet_rounds ~max_rounds:60 ~churn
       ~workload:(W.typed_hook w) rng g);
  let t = W.totals w in
  Alcotest.(check bool) "offered some traffic" true (t.W.offered > 0);
  Alcotest.(check int) "nothing expired (ring always progresses)" 0
    t.W.expired;
  Alcotest.(check int) "all traffic accounted" t.W.offered
    (t.W.delivered + t.W.died);
  Alcotest.(check bool)
    (Printf.sprintf "monitor invalidated the crashed relay (%d)"
       t.W.invalidations)
    true (t.W.invalidations >= 1);
  Alcotest.(check bool) "delivered despite the crash" true (t.W.delivered > 0)

(* Two components: cross-component messages must expire at exactly
   [born + ttl], same-component ones deliver on the adjacent edge. *)
let test_ttl_expiry () =
  let positions = [| Vec2.v 0.0 0.0; Vec2.v 0.1 0.0; Vec2.v 0.9 0.0; Vec2.v 1.0 0.0 |] in
  let g = Graph.of_edges ~positions ~n:4 [ (0, 1); (2, 3) ] in
  let cfg =
    {
      W.default_config with
      W.seed = 5;
      rate = 3.0;
      last_round = Some 1;
      ttl = 8;
      jitter = false;
    }
  in
  let w = W.create cfg ~n:4 in
  let rng = Rng.create ~seed:9 in
  ignore
    (E.run ~quiet_rounds ~max_rounds:30
       ~workload:(W.typed_hook w) rng g);
  let t = W.totals w in
  let s = W.series w in
  Alcotest.(check int) "three arrivals in round 1" 3 t.W.offered;
  Alcotest.(check bool) "a cross-component message existed" true
    (t.W.expired >= 1);
  Alcotest.(check int) "everything delivered or expired" t.W.offered
    (t.W.delivered + t.W.expired);
  (* born = 1, ttl = 8: the drop happens in round 9, nowhere else. *)
  Alcotest.(check int) "expiry lands at born + ttl" t.W.expired
    s.W.s_expired.(8);
  Array.iteri
    (fun i e -> if i <> 8 then Alcotest.(check int) "no other drops" 0 e)
    s.W.s_expired

(* Two nodes, every frame lost: the retry schedule is pure arithmetic.
   base 2, cap 8, 3 attempts per hop, no jitter, born in round 1:
   attempts at 1,3,7 (backoffs 2,4), ban+reroute at 8 finds nothing
   (stall, backoff 2), bans cleared so the cycle repeats shifted by 9:
   10,12,16, stall 17, 19,21,25, stall 26, 28 — then the TTL (28) drops
   the message in round 29. *)
let test_backoff_schedule () =
  let positions = [| Vec2.v 0.0 0.0; Vec2.v 0.2 0.0 |] in
  let g = Graph.of_edges ~positions ~n:2 [ (0, 1) ] in
  let cfg =
    {
      W.default_config with
      W.seed = 7;
      channel = Channel.bernoulli 0.0;
      rate = 1.0;
      last_round = Some 1;
      ttl = 28;
      max_attempts = 3;
      backoff_base = 2;
      backoff_cap = 8;
      jitter = false;
    }
  in
  let w = W.create cfg ~n:2 in
  let rng = Rng.create ~seed:1 in
  ignore
    (E.run ~quiet_rounds ~max_rounds:40
       ~workload:(W.typed_hook w) rng g);
  let t = W.totals w in
  let s = W.series w in
  let attempt_rounds = ref [] in
  Array.iteri
    (fun i a -> if a > 0 then attempt_rounds := (i + 1) :: !attempt_rounds)
    s.W.s_attempts;
  Alcotest.(check (list int))
    "deterministic retry schedule"
    [ 1; 3; 7; 10; 12; 16; 19; 21; 25; 28 ]
    (List.rev !attempt_rounds);
  Alcotest.(check int) "every attempt failed" t.W.attempts t.W.failures;
  Alcotest.(check int) "three ban-and-reroute cycles" 3 t.W.reroutes;
  Alcotest.(check int) "three stalls on the banned-out view" 3 t.W.stalls;
  Alcotest.(check int) "expired, never delivered" 1 t.W.expired;
  Alcotest.(check int) "drop at born + ttl" 1 s.W.s_expired.(28)

(* --------------------------------- (a): executor-independence battery *)

type wcase = {
  w_seed : int;
  w_n : int;
  w_radius : float;
  w_chan : int; (* 0 perfect / 1 bernoulli / 2 bursty *)
  w_burst : bool;
  w_energy : bool;
}

let gen_wcase =
  QCheck.Gen.(
    map
      (fun (w_seed, w_n, w_radius, w_chan, (w_burst, w_energy)) ->
        { w_seed; w_n; w_radius; w_chan; w_burst; w_energy })
      (tup5 (int_bound 10_000) (int_range 20 80)
         (float_range 0.2 0.35) (int_bound 2) (tup2 bool bool)))

let print_wcase c =
  Printf.sprintf "{seed=%d; n=%d; r=%.3f; chan=%d; burst=%b; energy=%b}"
    c.w_seed c.w_n c.w_radius c.w_chan c.w_burst c.w_energy

let data_channel = function
  | 0 -> Channel.perfect
  | 1 -> Channel.bernoulli 0.8
  | _ ->
      Channel.bursty ~seed:5 ~tau_good:0.95 ~tau_bad:0.3 ~p_fade:0.1
        ~p_recover:0.4

let build_world c =
  let r = Rng.create ~seed:c.w_seed in
  let positions =
    Array.init c.w_n (fun _ ->
        let x = Rng.float r 1.0 in
        let y = Rng.float r 1.0 in
        Vec2.v x y)
  in
  Graph.unit_disk ~radius:c.w_radius positions

type exec = Dense | FlatD of int

let run_exec c g exec =
  let cfg =
    {
      W.default_config with
      W.seed = c.w_seed + 1;
      channel = data_channel c.w_chan;
      rate = 2.0;
      last_round = Some 30;
      ttl = 12;
      energy =
        (if c.w_energy then
           Some { W.default_energy with W.capacity = 40.0; duty_every = 4 }
         else None);
    }
  in
  let w = W.create cfg ~n:(Graph.node_count g) in
  let churn =
    Churn.compose
      ((if c.w_burst then
          [
            Churn.crash_fraction ~round:10 ~fraction:0.2;
            Churn.join_all ~round:22;
          ]
        else [])
      @ [ W.churn_feed w ])
  in
  let rng = Rng.create ~seed:(c.w_seed + 2) in
  let r =
    match exec with
    | Dense ->
        E.run ~quiet_rounds ~max_rounds:70 ~churn ~workload:(W.typed_hook w)
          rng g
    | FlatD domains ->
        F.run ~quiet_rounds ~max_rounds:70 ~churn ~domains ~workload:(W.hook w)
          rng g
  in
  (w, r)

(* The workload's own planes first, then every run observable; a located
   divergence fails the property with its message. *)
let same what ~equal (wa, ra) (wb, rb) =
  if not (W.equal wa wb) then
    QCheck.Test.fail_reportf "%s: workload observables differ" what
  else
    match Engine.divergence ~equal ra rb with
    | None -> true
    | Some d -> QCheck.Test.fail_reportf "%s: %s" what d

let prop_workload_executor_independent =
  QCheck.Test.make ~count:12 ~name:"workload: dense = flat x{1,4}"
    (QCheck.make ~print:print_wcase gen_wcase)
    (fun c ->
      let g = build_world c in
      let dense = run_exec c g Dense in
      let flat1 = run_exec c g (FlatD 1) in
      let flat4 = run_exec c g (FlatD 4) in
      same "dense vs flat x1" ~equal:P.equal_state dense flat1
      && same "flat x1 vs x4" ~equal:( = ) flat1 flat4)

(* -------------------------------- (c): idle workload hook allocation *)

(* [n] nodes on a square lattice, each linked to its 8 nearest. *)
let grid_world n =
  let side = int_of_float (sqrt (float_of_int n)) in
  let positions =
    Array.init n (fun i ->
        Vec2.v
          (float_of_int (i mod side) /. float_of_int side)
          (float_of_int (i / side) /. float_of_int side))
  in
  Graph.unit_disk ~radius:(1.6 /. float_of_int side) positions

let idle_hook_alloc n =
  let g = grid_world n in
  let cfg = { W.default_config with W.seed = 3; rate = 0.0 } in
  let w = W.create cfg ~n in
  let w_lo = ref 0.0 and w_hi = ref 0.0 in
  let hook ~round ~graph ~alive ~read =
    if round = 40 then w_lo := Gc.minor_words ()
    else if round = 80 then w_hi := Gc.minor_words ();
    W.hook w ~round ~graph ~alive ~read
  in
  let rng = Rng.create ~seed:4 in
  ignore (F.run ~quiet_rounds:2 ~max_rounds:90 ~workload:hook rng g);
  !w_hi -. !w_lo

let test_idle_hook_alloc () =
  let small = idle_hook_alloc 256 in
  let big = idle_hook_alloc 2048 in
  Alcotest.(check bool)
    (Printf.sprintf
       "idle workload hook allocation size-independent (256: %.0f, 2048: \
        %.0f)"
       small big)
    true
    (big < (2.0 *. small) +. 16384.0)

(* A duty round reads every alive node's view for its believed head. On
   the flat path that must cost minor-heap words only: the arrival pool
   and the head mask are preallocated, views alias the planes. Every
   round is a duty round here, one message arrives per round, and the
   minor heap is emptied before each measured hook call so the count is
   the hook's own direct major allocation. The window ends before the
   per-message planes outgrow a minor-heap block. *)
let duty_major_words n =
  let g = grid_world n in
  let cfg =
    {
      W.default_config with
      W.seed = 8;
      rate = 1.0;
      ttl = 16;
      energy =
        Some { W.default_energy with W.capacity = 1e9; duty_every = 1 };
    }
  in
  let w = W.create cfg ~n in
  (* [Gc.counters] is current at every call ([Gc.quick_stat]'s major
     count only moves at collections). *)
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let major = ref 0.0 in
  let hook ~round ~graph ~alive ~read =
    if round < 10 || round > 50 then W.hook w ~round ~graph ~alive ~read
    else begin
      Gc.minor ();
      let before = major_words () in
      let active = W.hook w ~round ~graph ~alive ~read in
      major := !major +. (major_words () -. before);
      active
    end
  in
  let rng = Rng.create ~seed:4 in
  ignore (F.run ~quiet_rounds:2 ~max_rounds:55 ~workload:hook rng g);
  !major

let test_duty_round_major_alloc () =
  List.iter
    (fun n ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "major words over 41 duty rounds at %d nodes" n)
        0.0 (duty_major_words n))
    [ 512; 4096 ]

(* --------------------------- (d): workload sized for another network *)

let refused f =
  match f () with
  | _ -> false
  | exception Invalid_argument msg ->
      String.length msg >= 9 && String.sub msg 0 9 = "Workload."

let test_size_mismatch () =
  let g = wheel () in
  List.iter
    (fun n ->
      let cfg =
        { W.default_config with W.seed = 2; energy = Some W.default_energy }
      in
      let rng = Rng.create ~seed:1 in
      let w = W.create cfg ~n in
      Alcotest.(check bool)
        (Printf.sprintf "flat run: workload for %d nodes on 7 refused" n)
        true
        (refused (fun () ->
             F.run ~quiet_rounds ~max_rounds:10 ~workload:(W.hook w) rng g));
      let w = W.create cfg ~n in
      Alcotest.(check bool)
        (Printf.sprintf "tick: %d-node alive mask refused" n)
        true
        (refused (fun () ->
             W.tick (W.create cfg ~n:7) ~round:1 ~graph:g
               ~alive:(Array.make n true) ~view_of:(fun _ -> assert false)));
      Alcotest.(check bool)
        (Printf.sprintf "churn_feed: workload for %d nodes on 7 refused" n)
        true
        (refused (fun () ->
             Churn.events_at (W.churn_feed w) ~round:1 (Dynamic.create g) rng)))
    [ 6; 8 ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_workload_executor_independent ]

let suite =
  [
    Alcotest.test_case "retry + reroute after relay crash" `Quick
      test_retry_after_relay_crash;
    Alcotest.test_case "TTL expiry at exactly born + ttl" `Quick
      test_ttl_expiry;
    Alcotest.test_case "deterministic backoff schedule" `Quick
      test_backoff_schedule;
    Alcotest.test_case "idle workload hook allocates O(1) per round" `Quick
      test_idle_hook_alloc;
  ]
  @ qcheck_cases
  @ [
      Alcotest.test_case "duty rounds allocate no major-heap words" `Quick
        test_duty_round_major_alloc;
      Alcotest.test_case "workload sized for another network is refused"
        `Quick test_size_mismatch;
    ]
