(* One repetition: set up a workload from its seed, make the timed call,
   check the outputs and, when traced, derive the per-layer metrics. A
   repetition runs in a fresh process (see main.ml), so every figure is
   measured from a pristine heap. *)

module W = Ss_traffic.Workload

type result = {
  setup_s : float;
  peak_rss_mb : float;
  o : Workloads.outcome;
  failure : string option;  (** the first failed output check *)
  layers : (string * float) list;  (** traced repetitions only *)
  trace : Trace.t option;
}

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec loop () =
      let line = input_line ic in
      match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
      | Some kb -> float_of_int kb /. 1024.0
      | None -> loop ()
    in
    loop ()
  with End_of_file | Sys_error _ -> 0.0

let traffic_list (t : W.totals) =
  [
    ("offered", t.W.offered);
    ("delivered", t.W.delivered);
    ("expired", t.W.expired);
    ("died", t.W.died);
    ("in_flight", t.W.in_flight);
    ("attempts", t.W.attempts);
    ("failures", t.W.failures);
  ]

(* Exact counters for the committed default seed's inputs at full
   scale; seed-independent invariants otherwise. Returns the first failure. *)
let check scale name ~seed ~input (o : Workloads.outcome) =
  let open Workloads in
  let fail fmt = Printf.ksprintf (fun s -> Some s) fmt in
  let invariant =
    match name with
    | Cold ->
        if not o.converged then fail "cold: did not converge"
        else if o.violations <> 0 then
          fail "cold: %d invariant violations at the fixpoint" o.violations
        else None
    | Churn_run ->
        if o.rounds <> churn_rounds scale then
          fail "churn: %d rounds, horizon %d" o.rounds (churn_rounds scale)
        else if o.events <> 2 * churn_bursts scale then
          fail "churn: %d events applied, plan has %d" o.events
            (2 * churn_bursts scale)
        else None
    | Traffic -> (
        match o.traffic with
        | None -> fail "traffic: no totals"
        | Some _ when o.rounds <> traffic_rounds scale ->
            fail "traffic: %d rounds, horizon %d" o.rounds (traffic_rounds scale)
        | Some t ->
            let accounted =
              t.W.delivered + t.W.expired + t.W.died + t.W.in_flight
            in
            if t.W.offered <> accounted then
              fail "traffic: offered %d <> delivered+expired+died+in_flight %d"
                t.W.offered accounted
            else if t.W.offered = 0 then fail "traffic: nothing offered"
            else None)
    | Lossy ->
        if o.rounds <> lossy_rounds scale then
          fail "lossy: %d rounds, horizon %d" o.rounds (lossy_rounds scale)
        else None
  in
  match (invariant, scale) with
  | Some _, _ -> invariant
  | None, Smoke -> None
  | None, Full when seed <> default_seed -> None
  | None, Full -> (
      match
        Option.bind (List.assoc_opt (to_string name) Expected.default_seed)
          (fun es -> List.nth_opt es input)
      with
      | None -> fail "%s: no committed expectation for input %d" (to_string name) input
      | Some e ->
          let got =
            [
              ("rounds", o.rounds);
              ("changed", o.changed);
              ("events", o.events);
            ]
            @ match o.traffic with None -> [] | Some t -> traffic_list t
          in
          let digest = Printf.sprintf "%016Lx" o.digest in
          if digest <> e.Expected.digest then
            fail "%s: digest %s, expected %s" (to_string name) digest
              e.Expected.digest
          else
            List.find_map
              (fun (k, v) ->
                match List.assoc_opt k e.Expected.counts with
                | Some x when x = v -> None
                | Some x -> fail "%s: %s = %d, expected %d" (to_string name) k v x
                | None -> fail "%s: %s has no expectation" (to_string name) k)
              got)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Per-layer metrics of one traced repetition. Layers a workload does
   not exercise read 0. *)
let layers ~build_s (o : Workloads.outcome) (t : Trace.t) =
  let s = Trace.summarize t in
  let sec ns = float_of_int ns /. 1e9 in
  let count = float_of_int in
  let round_phi, round_pct = Trace.tail s.Trace.round_self_ms in
  let tick_phi, _ = Trace.tail s.Trace.tick_self_ms in
  let tr name = match o.Workloads.traffic with
    | None -> 0
    | Some x -> List.assoc name (traffic_list x)
  in
  [
    ("engine.init_s", sec s.Trace.init_ns);
    ("engine.finish_s", sec s.Trace.finish_ns);
    ("engine.round_s", sec s.Trace.engine_ns);
    ( "engine.ns_per_node_round",
      float_of_int s.Trace.engine_ns
      /. float_of_int (max 1 (o.Workloads.nodes * o.Workloads.rounds)) );
    ("engine.round_ms_p50", Trace.median s.Trace.round_self_ms);
    ("engine.round_ms_phi", round_phi);
    ("engine.round_phi_pct", round_pct);
    ("engine.rounds", count o.Workloads.rounds);
    ("engine.changed", count o.Workloads.changed);
    ("engine.events", count o.Workloads.events);
    ("engine.minor_words", s.Trace.engine_minor);
    ("engine.major_words", s.Trace.engine_major);
    ( "pool.busy_ratio",
      o.Workloads.cpu_s /. (o.Workloads.run_s *. float_of_int o.Workloads.domains) );
    ("radio.query_ns", o.Workloads.radio_query_ns);
    ("radio.data_loss_ratio", ratio (tr "failures") (tr "attempts"));
    ("churn.plan_s", sec s.Trace.churn_ns);
    ("churn.events_emitted", count t.Trace.emitted);
    ("mobility.step_s", sec s.Trace.mobility_ns);
    ("mobility.moved", count t.Trace.moved);
    ("topology.flush_s", sec s.Trace.flush_ns);
    ("topology.edge_flips", count t.Trace.flips);
    ("topology.build_s", build_s);
    ("cluster.reads", count t.Trace.reads);
    ("cluster.read_s", sec t.Trace.read_ns);
    ("traffic.tick_s", sec s.Trace.tick_ns);
    ("traffic.tick_ms_p50", Trace.median s.Trace.tick_self_ms);
    ("traffic.tick_ms_phi", tick_phi);
    ("traffic.offered", count (tr "offered"));
    ("traffic.delivered", count (tr "delivered"));
    ("traffic.attempts", count (tr "attempts"));
    ("traffic.failures", count (tr "failures"));
    ("traffic.inflight_max", count o.Workloads.inflight_max);
    ("traffic.useful_ratio", ratio (tr "delivered") (tr "attempts"));
    ("trace.remainder_ratio", float_of_int s.Trace.remainder_ns /. float_of_int (max 1 s.Trace.run_ns));
  ]

let run ~scale ~traced name ~seed ~input =
  let t0 = Trace.now () in
  let p = Workloads.prepare scale name ~seed ~input in
  (* Start the timed call from a collected heap, whatever set-up left. *)
  Gc.full_major ();
  let setup_s = Workloads.seconds_since t0 in
  let trace = if traced then Some (Trace.create ()) else None in
  let o = p.Workloads.go trace in
  let failure = check scale name ~seed ~input o in
  let layers =
    match trace with
    | None -> []
    | Some t -> layers ~build_s:p.Workloads.build_s o t
  in
  {
    setup_s;
    peak_rss_mb = peak_rss_mb ();
    o;
    failure;
    layers;
    trace;
  }
