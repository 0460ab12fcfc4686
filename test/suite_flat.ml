(* The flat executor's proof obligations, as differential batteries.

   (a) Flat = dense: [Engine.divergence ~equal:P.equal_state] finds no
       difference between [Flat.Make(P).run] and the typed dense
       reference over random (graph x channel x scheduler x churn x TTL)
       cases on the full protocol stack. Any mismatch in the packed
       merge/election arithmetic, the frontier rules or the draw
       discipline shows up here, QCheck shrinks the plan and the failure
       names the first divergent (round, node, field).
   (b) Domain independence: on synchronous rounds, 4 domains must equal
       1 domain bit-for-bit ([Engine.divergence ~equal:( = )]: structural
       equality on the unpacked states, not just [equal_state]) — the
       phase-split determinism argument.
   (c) Flat = dense under motion, including a position-dependent channel
       where pure movement flips deliveries without any edge flip.
   (d) Repack: [Flat.pack] then [Flat.unpack] is the identity on every
       run-evolved and every [corrupt]-produced state, for every shipped
       algorithm config — the sentinel encodings lose nothing.
   (e) The hot-path allocation fixes hold: a reuse-mode rebase allocates
       O(diff), not O(n).
   (f) The view contract: on planes evolved in place and on planes
       scrambled by [corrupt], for every shipped config, [Flat.view b p]
       reads what the typed projection [view (unpack b p)] reads, routes
       identically, and no decision moves when only the heard stamps are
       overwritten (DESIGN §13's executor-independence argument). The
       ghost-reference count read through views equals the typed count.
       A view read allocates O(1) words whatever the degree. *)

module Graph = Ss_topology.Graph
module Builders = Ss_topology.Builders
module Dynamic = Ss_topology.Dynamic
module Motion = Ss_topology.Motion
module Bbox = Ss_geom.Bbox
module Channel = Ss_radio.Channel
module Scheduler = Ss_engine.Scheduler
module Churn = Ss_engine.Churn
module Engine = Ss_engine.Engine
module Flat = Ss_engine.Flat
module Model = Ss_mobility.Model
module Fleet = Ss_mobility.Fleet
module Distributed = Ss_cluster.Distributed
module Config = Ss_cluster.Config
module Rng = Ss_prng.Rng
module Vec2 = Ss_geom.Vec2
module Route = Ss_traffic.Route

(* ------------------------------------------- (a)+(b): static-base battery *)

type case = {
  seed : int;
  graph_kind : int; (* 0 path / 1 cycle / 2 complete / 3 gnp / 4 geo grid *)
  size : int;
  channel_kind : int; (* 0 perfect / 1 bernoulli / 2 jammed / 3 slotted *)
  sched_kind : int; (* 0 synchronous / 1 sequential / 2 random order *)
  ttl : int;
  plan : (int * int * int) list; (* (round, event kind, victim) *)
  warm : bool; (* warm-start every executor from one shared array *)
}

(* The jammed channel needs node positions, so it forces the geometric
   grid regardless of [graph_kind]. *)
let build_graph c =
  let size = max 4 c.size in
  let kind = if c.channel_kind = 2 then 4 else c.graph_kind in
  match kind with
  | 0 -> Builders.path size
  | 1 -> Builders.cycle size
  | 2 -> Builders.complete (min size 10)
  | 3 -> Builders.gnp (Rng.create ~seed:(c.seed + 1)) ~n:size ~p:0.25
  | _ ->
      Builders.geometric_grid ~cols:4 ~rows:(max 2 (size / 4)) ~radius:0.45

let jam_region = Bbox.make ~min_x:0.2 ~min_y:0.2 ~max_x:0.8 ~max_y:0.8

(* Channel and scheduler selectors, shared by both batteries. *)
let channel_of = function
  | 0 -> Channel.perfect
  | 1 -> Channel.bernoulli 0.7
  | 2 -> Channel.jammed ~tau:0.9 ~region:jam_region ~jam_tau:0.3
  | _ -> Channel.slotted ~slots:4

let scheduler_of = function
  | 0 -> Scheduler.Synchronous
  | 1 -> Scheduler.Sequential
  | _ -> Scheduler.Random_order

let build_plan c graph =
  let n = Graph.node_count graph in
  let edges = Array.of_list (Graph.edges graph) in
  Churn.schedule
    (List.map
       (fun (round, kind, victim) ->
         let v = victim mod n in
         let link () = edges.(victim mod Array.length edges) in
         let ev =
           match kind mod 7 with
           | 0 -> Churn.Crash v
           | 1 -> Churn.Join v
           | 2 -> Churn.Sleep v
           | 3 -> Churn.Wake v
           | (4 | 5) when Array.length edges = 0 -> Churn.Crash v
           | 4 ->
               let p, q = link () in
               Churn.Link_down (p, q)
           | 5 ->
               let p, q = link () in
               Churn.Link_up (p, q)
           | _ -> Churn.Corrupt v
         in
         (1 + (round mod 12), [ ev ]))
       c.plan)

let run_case c =
  let module P = Distributed.Make (struct
    let params =
      { Distributed.default_params with cache_ttl = 1 + (c.ttl mod 4) }
  end) in
  let module E = Engine.Make (P) in
  let module F = Flat.Make (P) in
  let graph = build_graph c in
  let channel = channel_of c.channel_kind in
  let scheduler = scheduler_of c.sched_kind in
  let churn = build_plan c graph in
  (* Warm cases deliberately share ONE array across every execution below:
     the executors must neither mutate the caller's snapshot (the dense
     run would otherwise hand the flat runs pre-converged states and the
     change histories would trivially "agree" at zero) nor diverge on the
     warm path itself. *)
  let states =
    if not c.warm then None
    else begin
      let b = P.Flat.alloc graph in
      P.Flat.init_all b (Rng.create ~seed:(c.seed + 7)) graph;
      Some (Array.init (Graph.node_count graph) (P.Flat.unpack b))
    end
  in
  let pristine = Option.map Array.copy states in
  (* Fresh same-seeded generators per execution: the base key and every
     sequential plan-evaluation draw (init, Join re-inits, corrupt
     scrambles) line up by construction; everything in-round is
     counter-keyed. *)
  let dense =
    let rng = Rng.create ~seed:c.seed in
    E.run ~scheduler ~channel ~max_rounds:40 ~quiet_rounds:2 ~churn
      ~corrupt:Distributed.corrupt ?states rng graph
  in
  let flat domains =
    let rng = Rng.create ~seed:c.seed in
    F.run ~scheduler ~channel ~max_rounds:40 ~quiet_rounds:2 ~churn
      ~corrupt:Distributed.corrupt ~domains ?states rng graph
  in
  let f1 = flat 1 in
  if states <> pristine then
    Some "the caller's warm-start array was mutated"
  else
    match Engine.divergence ~equal:P.equal_state dense f1 with
    | Some d -> Some ("dense vs 1 domain: " ^ d)
    | None when scheduler <> Scheduler.Synchronous -> None
    | None ->
        (* Sharding only touches synchronous rounds; there the 4-domain
           run must be bit-identical — structural equality, caches
           included. *)
        Option.map
          (fun d -> "1 vs 4 domains: " ^ d)
          (Engine.divergence ~equal:( = ) f1 (flat 4))

let print_case c =
  Printf.sprintf
    "seed=%d graph=%d size=%d channel=%d sched=%d ttl=%d warm=%b plan=[%s]"
    c.seed c.graph_kind (max 4 c.size) c.channel_kind c.sched_kind
    (1 + (c.ttl mod 4))
    c.warm
    (String.concat "; "
       (List.map
          (fun (r, k, v) -> Printf.sprintf "(%d,%d,%d)" r k v)
          c.plan))

let gen_case =
  QCheck.Gen.(
    map
      (fun
        (((seed, graph_kind, size), (channel_kind, sched_kind, ttl), plan),
         warm)
      ->
        { seed; graph_kind; size; channel_kind; sched_kind; ttl; plan; warm })
      (pair
         (triple
            (triple (int_range 0 999_999) (int_range 0 4) (int_range 4 30))
            (triple (int_range 0 3) (int_range 0 2) (int_range 0 3))
            (list_size (int_range 0 10)
               (triple (int_range 0 11) (int_range 0 6) (int_range 0 999))))
         bool))

(* Shrink the plan first (most failures are event interactions), then the
   size; kind selectors stay fixed so the shrunk case keeps the regime. *)
let shrink_case c yield =
  QCheck.Shrink.list c.plan (fun plan -> yield { c with plan });
  if c.size > 4 then
    QCheck.Shrink.int c.size (fun size -> if size >= 4 then yield { c with size })

let arb_case = QCheck.make ~print:print_case ~shrink:shrink_case gen_case

(* A located divergence fails the property with its message. *)
let agrees = function
  | None -> true
  | Some d -> QCheck.Test.fail_reportf "%s" d

let prop_flat_equals_dense =
  QCheck.Test.make
    ~name:"flat = dense; 4 domains = 1 domain (all observables)" ~count:400
    arb_case (fun c -> agrees (run_case c))

(* ------------------------------------------------- (c): motion battery *)

type sim_case = {
  s_seed : int;
  s_n : int;
  s_model : int; (* 0 static / 1 slow walk / 2 vehicular / 3 wp pause / 4 wp *)
  s_channel : int;
  s_sched : int;
  s_ttl : int;
  s_dt : int;
  s_plan : (int * int * int) list;
}

let dts = [| 0.25; 1.0; 5.0; 30.0 |]

let build_model = function
  | 0 -> Model.static
  | 1 -> Model.random_walk ~speed_min:0.001 ~speed_max:0.01 ()
  | 2 -> Model.vehicular
  | 3 -> Model.random_waypoint ~pause:2.0 ~speed_min:0.0 ~speed_max:0.05 ()
  | _ -> Model.random_waypoint ~speed_min:0.01 ~speed_max:0.2 ()

(* Node events only: a random link event names an edge of the initial
   graph, but motion may have rebased that edge away by the time the plan
   fires, and [Dynamic] (correctly) rejects non-base links. Link flapping
   on a static base is the battery above. *)
let build_sim_plan c =
  let n = max 4 c.s_n in
  Churn.schedule
    (List.map
       (fun (round, kind, victim) ->
         let v = victim mod n in
         let ev =
           match kind mod 5 with
           | 0 -> Churn.Crash v
           | 1 -> Churn.Join v
           | 2 -> Churn.Sleep v
           | 3 -> Churn.Wake v
           | _ -> Churn.Corrupt v
         in
         (1 + (round mod 10), [ ev ]))
       c.s_plan)

let run_sim_case c =
  let module P = Distributed.Make (struct
    let params =
      { Distributed.default_params with cache_ttl = 1 + (c.s_ttl mod 4) }
  end) in
  let module E = Engine.Make (P) in
  let module F = Flat.Make (P) in
  let model = build_model (c.s_model mod 5) in
  let dt = dts.(c.s_dt mod Array.length dts) in
  let n = max 4 c.s_n in
  let radius = 0.3 in
  let channel = channel_of (c.s_channel mod 4) in
  let scheduler = scheduler_of (c.s_sched mod 3) in
  let churn = build_sim_plan c in
  (* Fresh same-seeded generators per execution: deployment, fleet
     sub-streams and every sequential engine draw line up by
     construction. *)
  let setup () =
    let rng = Rng.create ~seed:c.s_seed in
    let start = Array.init n (fun _ -> Bbox.sample rng Bbox.unit_square) in
    let fleet = Fleet.create rng ~model ~box:Bbox.unit_square start in
    let motion = Motion.create ~radius start in
    let hook ~round:_ =
      let moved =
        Fleet.step_moved fleet dt (fun i p -> Motion.move motion i p)
      in
      if moved = 0 then None
      else
        let diff = Motion.flush motion in
        Some (Motion.graph motion, diff)
    in
    (rng, Motion.graph motion, hook)
  in
  let dense =
    let rng, g0, hook = setup () in
    E.run ~scheduler ~channel ~max_rounds:30 ~quiet_rounds:3 ~churn
      ~corrupt:Distributed.corrupt ~motion:hook rng g0
  in
  let f1 =
    let rng, g0, hook = setup () in
    F.run ~scheduler ~channel ~max_rounds:30 ~quiet_rounds:3 ~churn
      ~corrupt:Distributed.corrupt ~motion:hook rng g0
  in
  Engine.divergence ~equal:P.equal_state dense f1

let print_sim c =
  Printf.sprintf
    "seed=%d n=%d model=%d channel=%d sched=%d ttl=%d dt=%.2f plan=[%s]"
    c.s_seed (max 4 c.s_n) (c.s_model mod 5) (c.s_channel mod 4)
    (c.s_sched mod 3)
    (1 + (c.s_ttl mod 4))
    dts.(c.s_dt mod Array.length dts)
    (String.concat "; "
       (List.map
          (fun (r, k, v) -> Printf.sprintf "(%d,%d,%d)" r k v)
          c.s_plan))

let gen_sim =
  QCheck.Gen.(
    map
      (fun ((s_seed, s_n, s_model), (s_channel, s_sched, s_ttl), (s_dt, s_plan))
         ->
        { s_seed; s_n; s_model; s_channel; s_sched; s_ttl; s_dt; s_plan })
      (triple
         (triple (int_range 0 999_999) (int_range 4 30) (int_range 0 4))
         (triple (int_range 0 3) (int_range 0 2) (int_range 0 3))
         (pair (int_range 0 3)
            (list_size (int_range 0 8)
               (triple (int_range 0 9) (int_range 0 4) (int_range 0 999))))))

let shrink_sim c yield =
  QCheck.Shrink.list c.s_plan (fun s_plan -> yield { c with s_plan });
  if c.s_n > 4 then
    QCheck.Shrink.int c.s_n (fun s_n -> if s_n >= 4 then yield { c with s_n })

let arb_sim = QCheck.make ~print:print_sim ~shrink:shrink_sim gen_sim

let prop_flat_equals_dense_motion =
  QCheck.Test.make ~name:"flat = dense under motion (all observables)"
    ~count:200 arb_sim (fun c -> agrees (run_sim_case c))

(* ------------------------------------------------------------- directed *)

(* Slotted channels memoize per-round slot draws lazily; the 4-domain run
   pre-warms the memo before sharding. A pin on that path plus the
   jammed (position-dependent) one. *)
let test_channel_domain_pins () =
  List.iter
    (fun (label, channel_kind) ->
      let c =
        {
          seed = 37;
          graph_kind = 4;
          size = 28;
          channel_kind;
          sched_kind = 0;
          ttl = 1;
          plan = [ (2, 0, 5); (3, 6, 7); (5, 1, 5); (7, 4, 0); (9, 5, 0) ];
          warm = false;
        }
      in
      Alcotest.(check (option string)) label None (run_case c))
    [ ("slotted 4-domain identity", 3); ("jammed 4-domain identity", 2) ]

(* A directed pin on the warm plane: on a lossy channel, cache entries
   age toward their TTL through rounds in which no input changes —
   exactly the regime where a frontier that stopped stepping warm nodes
   would freeze early and diverge from the dense walk. Two corruptions,
   then a crash and rejoin, at every TTL, on a 16-node path under
   Bernoulli 0.7 loss: with [Flat.warm] forced to false every TTL here
   diverges (on a perfect channel this plan never leaves a node warm
   and unstepped). *)
let test_ttl_expiry_equivalence () =
  List.iter
    (fun ttl ->
      let c =
        {
          seed = 4242;
          graph_kind = 0;
          size = 16;
          channel_kind = 1;
          sched_kind = 0;
          ttl = ttl - 1;
          plan = [ (4, 6, 5); (4, 6, 9); (9, 0, 2); (10, 1, 2) ];
          warm = false;
        }
      in
      Alcotest.(check (option string))
        (Printf.sprintf "ttl=%d flat = dense" ttl)
        None (run_case c))
    [ 1; 2; 3; 4 ]

(* (d) pack then unpack is the identity — on states evolved through a
   churny run and on corrupt-scrambled ones, for every shipped config
   and for custom global ids. Structural equality, caches included. *)
let test_repack_roundtrip () =
  let params_of algo =
    { Distributed.default_params with algo; cache_ttl = 2 }
  in
  let cases =
    [
      ("basic", params_of Config.basic);
      ("with_dag", params_of Config.with_dag);
      ("improved", params_of Config.improved);
      ("improved_with_dag", params_of Config.improved_with_dag);
      ( "custom-ids",
        {
          Distributed.default_params with
          ids = Some (Array.init 24 (fun i -> 911 - (7 * i)));
          cache_ttl = 3;
        } );
    ]
  in
  List.iter
    (fun (label, params0) ->
      let module P = Distributed.Make (struct
        let params = params0
      end) in
      let module E = Engine.Make (P) in
      let graph = Builders.gnp (Rng.create ~seed:5) ~n:24 ~p:0.2 in
      let churn =
        Churn.schedule
          [
            (3, [ Churn.Corrupt 1 ]);
            (5, [ Churn.Crash 2 ]);
            (7, [ Churn.Corrupt 3; Churn.Join 2 ]);
          ]
      in
      let rng = Rng.create ~seed:9 in
      let res =
        E.run ~max_rounds:12 ~quiet_rounds:2 ~churn
          ~corrupt:Distributed.corrupt rng graph
      in
      let buffers = P.Flat.alloc graph in
      let check_states tag states =
        Array.iteri (fun p st -> P.Flat.pack buffers p st) states;
        Array.iteri
          (fun p st ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s node %d" label tag p)
              true
              (P.Flat.unpack buffers p = st))
          states
      in
      check_states "evolved" res.E.states;
      let rng = Rng.create ~seed:13 in
      check_states "corrupted"
        (Array.mapi (fun p st -> Distributed.corrupt rng p st) res.E.states))
    cases

(* (e) A reuse-mode rebase+snapshot cycle allocates O(diff): patched rows
   only, never a fresh n-row snapshot. *)
let rebase_cycle_alloc n =
  let g0 = Builders.path n in
  let g1 = Graph.of_edges ~n ((0, 2) :: Graph.edges g0) in
  let dyn = Dynamic.create ~reuse_snapshots:true g0 in
  let before = Gc.minor_words () in
  for _ = 1 to 64 do
    Dynamic.rebase dyn ~base:g1 ~added:[ (0, 2) ] ~removed:[];
    ignore (Dynamic.snapshot dyn);
    Dynamic.rebase dyn ~base:g0 ~added:[] ~removed:[ (0, 2) ];
    ignore (Dynamic.snapshot dyn)
  done;
  Gc.minor_words () -. before

let test_reuse_rebase_alloc () =
  let small = rebase_cycle_alloc 256 in
  let big = rebase_cycle_alloc 4096 in
  Alcotest.(check bool)
    (Printf.sprintf
       "reuse-mode rebase allocation size-independent (256: %.0f, 4096: %.0f)"
       small big)
    true
    (big < (2.0 *. small) +. 8192.0)

(* ------------------------------------------------ (f): view contract *)

(* A bare synchronous driver over the plane, as the executor runs it:
   step every node on its sorted neighbors, refresh every
   emission. The planes it leaves are the in-place evolved rows the
   workload hook sees, spare capacity and all. *)
module Drive (P : Ss_engine.Protocol.FLAT) = struct
  let refresh b sc p = ignore (P.Flat.refresh_emit b sc p)

  let start rng g =
    let b = P.Flat.alloc g in
    P.Flat.init_all b rng g;
    let sc = P.Flat.scratch b in
    for p = 0 to Graph.node_count g - 1 do
      refresh b sc p
    done;
    (b, sc)

  let rounds b sc g ~first ~count =
    let n = Graph.node_count g in
    for r = first to first + count - 1 do
      let key = Rng.key ~seed:r in
      for p = 0 to n - 1 do
        let senders = Graph.neighbors g p in
        ignore (P.Flat.step b sc key p ~senders ~count:(Array.length senders))
      done;
      for p = 0 to n - 1 do
        refresh b sc p
      done
    done
end

let random_world rng ~n ~radius =
  Graph.unit_disk ~radius
    (Array.init n (fun _ ->
         let x = Rng.float rng 1.0 in
         let y = Rng.float rng 1.0 in
         Vec2.v x y))

(* Everything a view answers, as plain data: head, parent, each peer
   with the probes it claims, and the far heads. *)
let reads ~probes v =
  let peers = ref [] in
  Distributed.iter_peers v (fun slot q ->
      peers := (q, List.filter (Distributed.peer_claims v slot) probes) :: !peers);
  let far = ref [] in
  Distributed.iter_far_heads v (fun t -> far := t :: !far);
  ( Distributed.view_head v,
    Distributed.view_parent v,
    List.rev !peers,
    List.rev !far )

(* The same answers read straight off the typed state's fields. *)
let reads_of_state ~probes (st : Distributed.state) =
  ( st.Distributed.head,
    st.Distributed.parent,
    List.map
      (fun (q, (e : Distributed.entry)) ->
        (q, List.filter (fun t -> Array.mem t e.Distributed.e_nbrs) probes))
      st.Distributed.cache,
    List.filter_map
      (fun (v, (f : Distributed.far_entry)) ->
        if f.Distributed.f_is_head then Some v else None)
      st.Distributed.far )

(* Out-of-range and corrupt claims included: every claimed value is a
   probe, plus the whole universe and the -1 sentinel. *)
let probes_of ~n (st : Distributed.state) =
  List.init (n + 2) (fun i -> i - 1)
  @ List.concat_map
      (fun (_, (e : Distributed.entry)) -> Array.to_list e.Distributed.e_nbrs)
      st.Distributed.cache

let restamp rng (st : Distributed.state) =
  let stamp () = Rng.int rng 1_000 - 500 in
  {
    st with
    Distributed.clock = stamp ();
    cache =
      List.map
        (fun (q, e) -> (q, { e with Distributed.e_heard = stamp () }))
        st.Distributed.cache;
    far =
      List.map
        (fun (v, f) -> (v, { f with Distributed.f_heard = stamp () }))
        st.Distributed.far;
  }

type vcase = {
  v_seed : int;
  v_config : int; (* 0 basic / 1 with_dag / 2 improved / 3 both / 4 ids *)
  v_n : int;
  v_rounds : int; (* evolved before the scramble *)
  v_corrupt : int; (* nodes scrambled by [corrupt] *)
  v_after : int; (* evolved after the scramble *)
}

let print_vcase c =
  Printf.sprintf "{seed=%d; config=%d; n=%d; rounds=%d; corrupt=%d; after=%d}"
    c.v_seed c.v_config c.v_n c.v_rounds c.v_corrupt c.v_after

let gen_vcase =
  QCheck.Gen.(
    map
      (fun ((v_seed, v_config, v_n), (v_rounds, v_corrupt, v_after)) ->
        { v_seed; v_config; v_n; v_rounds; v_corrupt; v_after })
      (pair
         (triple (int_range 0 999_999) (int_range 0 4) (int_range 4 40))
         (triple (int_range 0 12) (int_range 0 8) (int_range 0 3))))

let shrink_vcase c yield =
  QCheck.Shrink.int c.v_corrupt (fun v_corrupt -> yield { c with v_corrupt });
  QCheck.Shrink.int c.v_after (fun v_after -> yield { c with v_after });
  QCheck.Shrink.int c.v_rounds (fun v_rounds -> yield { c with v_rounds });
  QCheck.Shrink.int c.v_n (fun v_n -> if v_n >= 4 then yield { c with v_n })

let params_of_config ~n = function
  | 0 -> { Distributed.default_params with algo = Config.basic; cache_ttl = 2 }
  | 1 -> { Distributed.default_params with algo = Config.with_dag; cache_ttl = 2 }
  | 2 -> { Distributed.default_params with algo = Config.improved; cache_ttl = 3 }
  | 3 ->
      { Distributed.default_params with
        algo = Config.improved_with_dag; cache_ttl = 2 }
  | _ ->
      { Distributed.default_params with
        ids = Some (Array.init n (fun i -> 911 - (7 * i))); cache_ttl = 3 }

let run_view_case c =
  let n = c.v_n in
  let module P = Distributed.Make (struct
    let params = params_of_config ~n c.v_config
  end) in
  let module D = Drive (P) in
  let rng = Rng.create ~seed:c.v_seed in
  let g = random_world rng ~n ~radius:0.35 in
  let positions = Option.get (Graph.positions g) in
  let b, sc = D.start rng g in
  D.rounds b sc g ~first:1 ~count:c.v_rounds;
  (* The ghost count through views against the typed count over [unpack],
     everyone alive and with every third node dead. *)
  let ghosts_agree () =
    List.for_all
      (fun alive ->
        Distributed.view_ghost_references ~alive (P.Flat.view b)
        = Distributed.ghost_references ~alive
            (Array.init n (P.Flat.unpack b)))
      [ Array.make n true; Array.init n (fun p -> p mod 3 <> 1) ]
  in
  let evolved_ghosts = ghosts_agree () in
  for _ = 1 to c.v_corrupt do
    let p = Rng.int rng n in
    P.Flat.pack b p (Distributed.corrupt rng p (P.Flat.unpack b p));
    D.refresh b sc p
  done;
  let scrambled_ghosts = ghosts_agree () in
  D.rounds b sc g ~first:(c.v_rounds + 1) ~count:c.v_after;
  (* The same states, every stamp overwritten, packed into fresh planes. *)
  let stamped = P.Flat.alloc g in
  for p = 0 to n - 1 do
    P.Flat.pack stamped p (restamp rng (P.Flat.unpack b p))
  done;
  let typed p = P.view (P.Flat.unpack b p) in
  let readers_agree =
    List.for_all
      (fun p ->
        let st = P.Flat.unpack b p in
        let probes = probes_of ~n st in
        let r = reads ~probes (P.Flat.view b p) in
        r = reads ~probes (P.view st)
        && r = reads_of_state ~probes st
        && r = reads ~probes (P.Flat.view stamped p))
      (List.init n Fun.id)
  in
  let route view_of (cur, dst, via, prev, ban) =
    Route.next_hop ~positions ~view_of ~n ~cur ~dst ~via ~prev
      ~banned:(fun q -> List.mem q ban)
  in
  let queries =
    List.init 40 (fun _ ->
        let node () = Rng.int rng (n + 2) - 1 in
        ( Rng.int rng n,
          node (),
          node (),
          node (),
          List.init (Rng.int rng 3) (fun _ -> Rng.int rng n) ))
  in
  evolved_ghosts && scrambled_ghosts && ghosts_agree ()
  && readers_agree
  && List.for_all
       (fun q ->
         let d = route (P.Flat.view b) q in
         d = route typed q && d = route (P.Flat.view stamped) q)
       queries

let prop_view_contract =
  QCheck.Test.make
    ~name:"view contract: Flat.view = view o unpack, stamps never read"
    ~count:150
    (QCheck.make ~print:print_vcase ~shrink:shrink_vcase gen_vcase)
    run_view_case

(* A flat view read aliases the node's rows: the same words per read at
   mean degree ~3 and ~40, and a handful of words at that. *)
let view_read_words ~radius =
  let module P = Distributed.Make (struct
    let params = Distributed.default_params
  end) in
  let module D = Drive (P) in
  let rng = Rng.create ~seed:21 in
  let n = 300 in
  let g = random_world rng ~n ~radius in
  let b, sc = D.start rng g in
  D.rounds b sc g ~first:1 ~count:6;
  let reads = 3_000 in
  let before = Gc.minor_words () in
  for i = 0 to reads - 1 do
    ignore (Sys.opaque_identity (P.Flat.view b (i mod n)))
  done;
  let words = Gc.minor_words () -. before in
  let degree = 2.0 *. float_of_int (Graph.edge_count g) /. float_of_int n in
  (degree, words /. float_of_int reads)

let test_view_read_alloc () =
  let d_lo, w_lo = view_read_words ~radius:0.06 in
  let d_hi, w_hi = view_read_words ~radius:0.2 in
  Alcotest.(check bool)
    (Printf.sprintf "degrees differ (%.1f vs %.1f)" d_lo d_hi)
    true (d_hi > 4.0 *. d_lo);
  Alcotest.(check (float 0.0))
    (Printf.sprintf "words per view read, degree %.1f vs %.1f" d_lo d_hi)
    w_lo w_hi;
  Alcotest.(check bool)
    (Printf.sprintf "a view read is O(1) words (%.2f)" w_lo)
    true (w_lo <= 8.0)

(* A converged plane's step allocates nothing: every merge in
   [Flat.step] is a plain loop over local refs, so no ref is boxed and
   no helper closure is allocated. Words per step over a few more rounds
   of every node stepping and refreshing, the round keys made beforehand
   and the counter's own cost subtracted; both the basic and the
   DAG-named config, at mean degree ~3 and ~30. *)
let step_words ~params ~radius =
  let module P = Distributed.Make (struct
    let params = params
  end) in
  let module D = Drive (P) in
  let rng = Rng.create ~seed:33 in
  let n = 300 in
  let g = random_world rng ~n ~radius in
  let b, sc = D.start rng g in
  D.rounds b sc g ~first:1 ~count:40;
  let rounds = 4 in
  let keys = Array.init rounds (fun r -> Rng.key ~seed:(41 + r)) in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = words ignore in
  let w =
    words (fun () ->
        for r = 0 to rounds - 1 do
          for p = 0 to n - 1 do
            let senders = Graph.neighbors g p in
            ignore
              (P.Flat.step b sc keys.(r) p ~senders
                 ~count:(Array.length senders))
          done;
          for p = 0 to n - 1 do
            D.refresh b sc p
          done
        done)
  in
  let degree = 2.0 *. float_of_int (Graph.edge_count g) /. float_of_int n in
  (degree, (w -. overhead) /. float_of_int (rounds * n))

let test_step_alloc () =
  List.iter
    (fun (name, params) ->
      let d_lo, w_lo = step_words ~params ~radius:0.06 in
      let d_hi, w_hi = step_words ~params ~radius:0.2 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: degrees differ (%.1f vs %.1f)" name d_lo d_hi)
        true (d_hi > 4.0 *. d_lo);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: words per step at degree %.1f" name d_lo)
        0.0 w_lo;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: words per step at degree %.1f" name d_hi)
        0.0 w_hi)
    [
      ("basic", Distributed.default_params);
      ( "improved+dag",
        { Distributed.default_params with algo = Config.improved_with_dag } );
    ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_flat_equals_dense; prop_flat_equals_dense_motion; prop_view_contract ]

let suite =
  [
    Alcotest.test_case "channel memo pins: 4 domains = 1" `Quick
      test_channel_domain_pins;
    Alcotest.test_case "pack/unpack round-trip, all configs" `Quick
      test_repack_roundtrip;
    Alcotest.test_case "ttl expiry: flat = dense" `Quick
      test_ttl_expiry_equivalence;
    Alcotest.test_case "reuse-mode rebase allocates O(diff)" `Quick
      test_reuse_rebase_alloc;
  ]
  @ qcheck_cases
  @ [
      Alcotest.test_case "a flat view read allocates O(1) words" `Quick
        test_view_read_alloc;
      Alcotest.test_case "a converged flat step allocates nothing" `Quick
        test_step_alloc;
    ]
