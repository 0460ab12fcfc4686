module Graph = Ss_topology.Graph
module Dynamic = Ss_topology.Dynamic
module Motion = Ss_topology.Motion
module Channel = Ss_radio.Channel
module Rng = Ss_prng.Rng

type fault_report = { fault_round : int; corrupted : int list }

type motion_hook = round:int -> (Graph.t * Motion.diff) option

type round_info = {
  round : int;
  changed : int;
  events : int;
  corrupted : int list;
}

type burst = {
  burst_start : int;
  burst_end : int;
  burst_events : int;
  recovery_rounds : int option;
}

type 's result = {
  states : 's array;
  rounds : int; (* rounds actually executed *)
  converged : bool;
  last_change_round : int; (* 0 if nothing ever changed *)
  change_history : int list; (* per-round changed-node counts, oldest first *)
  alive : bool array;
  graph : Graph.t;
  bursts : burst list;
  faults : fault_report list; (* rounds with corrupted nodes, oldest first *)
}

(* Fold per-round (round, applied-event-count) pairs into maximal runs of
   consecutive event rounds, then read each burst's recovery time off the
   change history: the last round with activity before the next burst (or
   the end of the run). A final burst the run never settled after reads as
   None. *)
let finalize_bursts ~event_rounds ~history ~rounds ~converged =
  let changed = Array.of_list history in
  let merged =
    List.fold_left
      (fun acc (r, k) ->
        match acc with
        | (s, e, n) :: rest when r = e + 1 -> (s, r, n + k) :: rest
        | _ -> (r, r, k) :: acc)
      [] event_rounds
    |> List.rev
  in
  let rec annotate = function
    | [] -> []
    | (s, e, n) :: rest ->
        let window_end =
          match rest with (s', _, _) :: _ -> s' - 1 | [] -> rounds
        in
        let last_active = ref e in
        for r = e to min window_end rounds do
          if r >= 1 && r <= Array.length changed && changed.(r - 1) > 0 then
            last_active := r
        done;
        let settled = (match rest with [] -> converged | _ :: _ -> true) in
        {
          burst_start = s;
          burst_end = e;
          burst_events = n;
          recovery_rounds = (if settled then Some (!last_active - e) else None);
        }
        :: annotate rest
  in
  annotate merged

(* Index of the first entry at which two lists disagree; a list that ends
   early disagrees at its end. *)
let rec first_mismatch equal i xs ys =
  match (xs, ys) with
  | [], [] -> None
  | x :: xs', y :: ys' when equal x y -> first_mismatch equal (i + 1) xs' ys'
  | _ -> Some i

(* The order is part of the contract: per-round observables first (they
   place a divergence in time), then the run's totals, then the final
   snapshot. Each check runs only when every earlier one agreed. *)
let divergence ~equal a b =
  let say fmt = Printf.ksprintf Option.some fmt in
  let ints what x y = if x = y then None else say "%s: %d vs %d" what x y in
  let entry what xs ys =
    Option.map (Printf.sprintf "%s: #%d" what) (first_mismatch ( = ) 0 xs ys)
  in
  let nodes what na nb differs =
    if na <> nb then say "%s: %d vs %d nodes" what na nb
    else
      Option.map (Printf.sprintf "%s: node %d" what)
        (Seq.find differs (Seq.init na Fun.id))
  in
  let ha = a.change_history and hb = b.change_history in
  let at h i = Option.fold ~none:"-" ~some:string_of_int (List.nth_opt h i) in
  List.find_map
    (fun check -> check ())
    [
      (fun () ->
        Option.map
          (fun i ->
            Printf.sprintf "change_history: round %d: %s vs %s" (i + 1)
              (at ha i) (at hb i))
          (first_mismatch Int.equal 0 ha hb));
      (fun () -> ints "rounds" a.rounds b.rounds);
      (fun () ->
        if a.converged = b.converged then None
        else say "converged: %b vs %b" a.converged b.converged);
      (fun () ->
        ints "last_change_round" a.last_change_round b.last_change_round);
      (fun () -> entry "faults" a.faults b.faults);
      (fun () -> entry "bursts" a.bursts b.bursts);
      (fun () ->
        nodes "alive" (Array.length a.alive) (Array.length b.alive) (fun p ->
            a.alive.(p) <> b.alive.(p)));
      (fun () ->
        nodes "graph" (Graph.node_count a.graph) (Graph.node_count b.graph)
          (fun p -> Graph.neighbors a.graph p <> Graph.neighbors b.graph p));
      (fun () ->
        nodes "states" (Array.length a.states) (Array.length b.states)
          (fun p -> not (equal a.states.(p) b.states.(p))));
    ]

(* Key lanes under the run's base key: round -> {channel, permutation,
   per-node handle} streams. Every random decision of a round except churn
   and fault injection is a pure function of its lane, so executing a
   subset of the nodes cannot shift anyone else's draws — the property the
   flat executor's dirty frontier rests on to match this dense walk. The
   main sequential generator is reserved for the per-round plan evaluation
   (churn events, fault hooks, Join re-inits, Corrupt scrambles), which both
   executors perform identically. *)
let lane_channel rk = Rng.subkey rk 0
let lane_perm rk = Rng.subkey rk 1
let lane_handle rk = Rng.subkey rk 2

module Make (P : Protocol.S) = struct
  type nonrec 's result = 's result = {
    states : 's array;
    rounds : int;
    converged : bool;
    last_change_round : int;
    change_history : int list;
    alive : bool array;
    graph : Graph.t;
    bursts : burst list;
    faults : fault_report list;
  }

  type run = P.state result

  (* Frames received by node p this step: one per neighbor, each surviving
     the round's channel plan. [read] supplies the state a neighbor
     broadcasts from — the pre-round snapshot under the synchronous
     daemon, the live array otherwise. *)
  let gather_messages deliver graph read p =
    let acc = ref [] in
    let nbrs = Graph.neighbors graph p in
    for i = Array.length nbrs - 1 downto 0 do
      let q = nbrs.(i) in
      if deliver ~src:q ~dst:p then acc := (q, P.emit graph q (read q)) :: !acc
    done;
    !acc

  let node_rng hkey p = Rng.of_key (Rng.subkey hkey p)

  let step_round ~rk ~round ~scratch graph live channel scheduler states =
    let n = Array.length states in
    let changed = ref 0 in
    (* One delivery plan per round: slotted channels memoize their slot
       assignment per plan, so all receivers of the round see consistent
       collisions. *)
    let deliver =
      Channel.round_plan channel ~key:(lane_channel rk) ~round ~graph
    in
    let hkey = lane_handle rk in
    let update_node read p =
      if live.(p) then begin
        let msgs = gather_messages deliver graph read p in
        let next = P.handle (node_rng hkey p) graph p states.(p) msgs in
        if not (P.equal_state next states.(p)) then incr changed;
        states.(p) <- next
      end
    in
    (match scheduler with
    | Scheduler.Synchronous ->
        (* Everyone broadcasts from the pre-round snapshot, held in a
           run-lifetime scratch buffer instead of a per-round copy. *)
        Array.blit states 0 scratch 0 n;
        let read q = scratch.(q) in
        for p = 0 to n - 1 do
          update_node read p
        done
    | Scheduler.Sequential ->
        let read q = states.(q) in
        for p = 0 to n - 1 do
          update_node read p
        done
    | Scheduler.Random_order ->
        let order = Rng.permutation (Rng.of_key (lane_perm rk)) n in
        let read q = states.(q) in
        Array.iter (fun p -> update_node read p) order);
    !changed

  let init_states rng graph =
    Array.init (Graph.node_count graph) (fun p -> P.init rng graph p)

  let apply_event dyn states corrupt rng = function
    | Churn.Crash p -> Dynamic.crash dyn p
    | Churn.Join p ->
        if Dynamic.join dyn p then begin
          (* A crash lost the state; rejoin as a factory-fresh node. Gamma
             and other deployment-wide constants come from the base graph,
             matching the initial deployment. *)
          states.(p) <- P.init rng (Dynamic.base dyn) p;
          true
        end
        else false
    | Churn.Sleep p -> Dynamic.sleep dyn p
    | Churn.Wake p -> Dynamic.wake dyn p
    | Churn.Link_down (p, q) -> Dynamic.link_down dyn p q
    | Churn.Link_up (p, q) -> Dynamic.link_up dyn p q
    | Churn.Corrupt p ->
        if not (Dynamic.is_alive dyn p) then false
        else begin
          match corrupt with
          | None ->
              invalid_arg
                "Engine.run: churn plan emits Corrupt but no ~corrupt given"
          | Some f ->
              states.(p) <- f rng p states.(p);
              true
        end

  let run ?(scheduler = Scheduler.Synchronous)
      ?(channel = Channel.perfect) ?(max_rounds = 10_000) ?(quiet_rounds = 1)
      ?fault ?churn ?corrupt ?motion ?on_round ?on_event ?probe ?workload
      ?states rng graph =
    if max_rounds < 0 then invalid_arg "Engine.run: negative round budget";
    if quiet_rounds < 1 then invalid_arg "Engine.run: quiet_rounds must be >= 1";
    (* The base key is drawn first, so the keyed lanes are a pure function
       of the generator's state at entry — identical for both executors. *)
    let base_key = Rng.key_of rng in
    let states =
      (* The round loop updates states in place; copying the warm-start
         array keeps the caller's snapshot intact, so one evolved array can
         seed several runs (e.g. a dense reference and a flat replay)
         without the first run silently converging the others' input. *)
      match states with Some s -> Array.copy s | None -> init_states rng graph
    in
    (* A warm-start array of the wrong length would otherwise surface as an
       out-of-bounds access deep in the round loop (the live mask and the
       snapshot buffer are sized from it); fail fast with the mismatch
       spelled out. *)
    if Array.length states <> Graph.node_count graph then
      invalid_arg
        (Printf.sprintf
           "Engine.run: ~states has %d entries but the graph has %d nodes"
           (Array.length states) (Graph.node_count graph));
    (* Reuse-mode snapshots are patched in place and only valid within
       their round — safe for the engine's own consumers, but a [probe]
       hands the graph to arbitrary instrumentation that may legitimately
       hold it across rounds, so probed runs keep immutable snapshots. *)
    let dyn = Dynamic.create ~reuse_snapshots:(Option.is_none probe) graph in
    (* Synchronous rounds broadcast from a pre-round snapshot; one
       run-lifetime buffer replaces the former per-round [Array.copy]. *)
    let scratch = Array.copy states in
    (* Keep the run alive through quiescence while a bounded plan still has
       events scheduled, so post-convergence storms always fire. *)
    let horizon =
      match churn with
      | None -> 0
      | Some plan -> (
          match Churn.horizon plan with
          | Some h -> min h max_rounds
          | None -> 0)
    in
    let live = Array.make (Array.length states) true in
    let quiet = ref 0 in
    let round = ref 0 in
    let last_change = ref 0 in
    let history = ref [] in
    let event_rounds = ref [] in
    let faults = ref [] in
    (* A workload (data-plane traffic riding on the protocol's structure)
       keeps the run alive through protocol quiescence exactly like a
       bounded churn horizon: messages still in flight need rounds to
       drain even when no state changes. It does not touch the quiescence
       counter — stabilization metrics stay comparable with and without
       traffic. *)
    let wl_active = ref (workload <> None) in
    while
      (!quiet < quiet_rounds || !round < horizon || !wl_active)
      && !round < max_rounds
    do
      incr round;
      (* Motion first: nodes drift, the base graph is rebased to the new
         unit-disk topology, and churn below applies to the rewired links.
         A round whose fleet moved without flipping any edge leaves the
         base untouched (positions are live-aliased by the snapshots).
         Edge flips count as topology disturbance for the quiescence test
         but not as churn events — they are the environment, not a burst
         to attribute recovery to. *)
      let moved_links = ref 0 in
      (match motion with
      | None -> ()
      | Some hook -> (
          match hook ~round:!round with
          | None -> ()
          | Some (base', diff) ->
              moved_links := diff.Motion.n_added + diff.Motion.n_removed;
              if !moved_links > 0 then
                Dynamic.rebase dyn ~base:base' ~added:diff.Motion.added
                  ~removed:diff.Motion.removed));
      let churn_corrupted = ref [] in
      let applied =
        match churn with
        | None -> 0
        | Some plan ->
            List.fold_left
              (fun acc ev ->
                if apply_event dyn states corrupt rng ev then begin
                  (match ev with
                  | Churn.Corrupt p -> churn_corrupted := p :: !churn_corrupted
                  | _ -> ());
                  (match on_event with
                  | None -> ()
                  | Some f -> f ~round:!round ev);
                  acc + 1
                end
                else acc)
              0
              (Churn.events_at plan ~round:!round dyn rng)
      in
      if applied > 0 then
        for p = 0 to Array.length live - 1 do
          live.(p) <- Dynamic.status dyn p = Dynamic.Alive
        done;
      let victims =
        match fault with
        | None -> []
        | Some inject -> inject ~round:!round ~states rng
      in
      (* Every corrupted node this round: churn [Corrupt] events in plan
         order, then the fault hook's victims. A fault round counts as a
         disturbance for burst/recovery attribution even without churn. *)
      let corrupted = List.rev !churn_corrupted @ victims in
      let disturbance = applied + List.length victims in
      if disturbance > 0 then
        event_rounds := (!round, disturbance) :: !event_rounds;
      if corrupted <> [] then
        faults := { fault_round = !round; corrupted } :: !faults;
      (* Incremental: on event-free rounds this returns the cached graph;
         after a burst it patches only the rows the events touched. *)
      let g = Dynamic.snapshot dyn in
      let rk = Rng.subkey base_key !round in
      let changed =
        step_round ~rk ~round:!round ~scratch g live channel scheduler states
      in
      history := changed :: !history;
      (match on_round with
      | None -> ()
      | Some f -> f { round = !round; changed; events = applied; corrupted });
      (match probe with
      | None -> ()
      | Some f -> f ~round:!round ~graph:g ~alive:live states);
      (match workload with
      | None -> ()
      | Some tickf ->
          wl_active :=
            tickf ~round:!round ~graph:g ~alive:live ~read:(fun p ->
                states.(p)));
      if changed > 0 || victims <> [] || applied > 0 || !moved_links > 0
      then begin
        quiet := 0;
        last_change := !round
      end
      else incr quiet
    done;
    let converged = !quiet >= quiet_rounds in
    {
      states;
      rounds = !round;
      converged;
      last_change_round = !last_change;
      change_history = List.rev !history;
      alive = Array.copy live;
      graph = Dynamic.snapshot dyn;
      bursts =
        finalize_bursts
          ~event_rounds:(List.rev !event_rounds)
          ~history:(List.rev !history) ~rounds:!round ~converged;
      faults = List.rev !faults;
    }
  end
