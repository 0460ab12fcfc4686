(* Message-level implementation of the whole stack of the paper:

     - neighbor discovery through periodic local broadcast (the shared
       variable propagation scheme of Herman-Tixeuil);
     - N1 name resolution (Section 4.1), running continuously;
     - density computation R1 from the claimed neighbor tables (step 2 of
       Table 2);
     - cluster-head election R2, with the Section 4.3 refinements, from
       cached neighbor values (steps 3+ of Table 2).

   Every piece recomputes from the frames actually heard; cached entries
   expire after [cache_ttl] rounds without refresh, which is what makes the
   protocol self-stabilizing: arbitrary corrupt state drains out of the
   caches within the TTL and is replaced by fresh observations. *)

module Graph = Ss_topology.Graph
module Rng = Ss_prng.Rng

type params = {
  algo : Config.t;
  ids : int array option; (* global ids; defaults to the node index *)
  cache_ttl : int; (* rounds a cache entry survives without refresh *)
}

let default_params = { algo = Config.basic; ids = None; cache_ttl = 3 }

type summary = {
  s_node : int;
  s_density : Density.t option;
  s_eff : int;
  s_is_head : bool;
}

type message = {
  m_node : int;
  m_gid : int;
  m_dag : int;
  m_density : Density.t option;
  m_head : int option;
  m_nbrs : summary array; (* sorted by s_node *)
}

type entry = {
  e_heard : int; (* receiver clock at last refresh *)
  e_gid : int;
  e_dag : int;
  e_density : Density.t option;
  e_head : int option;
  e_nbrs : int array; (* the neighbor's claimed neighbor indices, sorted *)
}

type far_entry = {
  f_heard : int;
  f_density : Density.t option;
  f_eff : int;
  f_is_head : bool;
}

type state = {
  clock : int;
  gamma : int;
  gid : int;
  dag : int;
  density : Density.t option;
  parent : int option;
  head : int option;
  cache : (int * entry) list; (* 1-hop cache, sorted by node index *)
  far : (int * far_entry) list; (* 2-hop cache, sorted by node index *)
}

(* ------------------------------------------------------- plane layout *)

(* The per-node strided int rows of the flat plane ([Make.Flat]), shared
   with the typed routing projection [view]:

     cache   entries ascending by neighbor index, variable stride:
             [q; heard; gid; dag; dens_links; dens_nodes; head;
              nlen; nbr_0 .. nbr_{nlen-1}]
     far     entries ascending, stride 6:
             [q; heard; dens_links; dens_nodes; eff; is_head]

   Option encodings: density None -> (-1, 0) (real densities have
   links >= 0 by Density.make); parent/head None -> -1 (real values are
   node indices or corrupt draws, always >= 0). Both are injective over
   every reachable and every [corrupt]-produced state, so integer
   equality on the planes coincides with structural equality on the
   typed fields. *)

let put_density c i = function
  | None ->
      c.(i) <- -1;
      c.(i + 1) <- 0
  | Some d ->
      c.(i) <- Density.links d;
      c.(i + 1) <- Density.nodes d

let density_of l n =
  if l < 0 then None else Some (Density.make ~links:l ~nodes:n)

let index_of_opt = function None -> -1 | Some v -> v
let opt_of_index v = if v < 0 then None else Some v

let cache_ints cache =
  List.fold_left (fun acc (_, e) -> acc + 8 + Array.length e.e_nbrs) 0 cache

(* Lays [cache] out from slot 0 of [c] (at least [cache_ints cache]
   long); returns the entry count. *)
let write_cache c cache =
  let pos = ref 0 and cnt = ref 0 in
  List.iter
    (fun (q, e) ->
      let u = !pos in
      c.(u) <- q;
      c.(u + 1) <- e.e_heard;
      c.(u + 2) <- e.e_gid;
      c.(u + 3) <- e.e_dag;
      put_density c (u + 4) e.e_density;
      c.(u + 6) <- index_of_opt e.e_head;
      let nlen = Array.length e.e_nbrs in
      c.(u + 7) <- nlen;
      Array.blit e.e_nbrs 0 c (u + 8) nlen;
      pos := u + 8 + nlen;
      incr cnt)
    cache;
  !cnt

let write_far f far =
  List.iteri
    (fun i (q, fe) ->
      let o = 6 * i in
      f.(o) <- q;
      f.(o + 1) <- fe.f_heard;
      put_density f (o + 2) fe.f_density;
      f.(o + 4) <- fe.f_eff;
      f.(o + 5) <- (if fe.f_is_head then 1 else 0))
    far

(* ------------------------------------------------------ routing views *)

(* A node's routing knowledge in the plane layout: its head and parent
   scalars plus its cache and far rows. [Make.Flat.view] aliases the live
   rows of the plane; [view] lays a typed state out into fresh rows. The
   readers below never touch a heard stamp (offset 1 of both strides):
   stamps are the one cache field whose dense and flat evolution differ,
   so routing on views is executor-independent (DESIGN §13). *)
type view = {
  v_head : int;
  v_parent : int;
  v_cache : int array;
  v_used : int; (* ints of [v_cache] in use *)
  v_far : int array;
  v_far_len : int; (* entries of [v_far] in use *)
}

let view (st : state) =
  let c = Array.make (cache_ints st.cache) 0 in
  ignore (write_cache c st.cache);
  let far_len = List.length st.far in
  let f = Array.make (6 * far_len) 0 in
  write_far f st.far;
  {
    v_head = index_of_opt st.head;
    v_parent = index_of_opt st.parent;
    v_cache = c;
    v_used = Array.length c;
    v_far = f;
    v_far_len = far_len;
  }

let view_head v = opt_of_index v.v_head
let view_parent v = opt_of_index v.v_parent

let iter_peers v f =
  let c = v.v_cache in
  let pos = ref 0 in
  while !pos < v.v_used do
    let slot = !pos in
    pos := slot + 8 + c.(slot + 7);
    f slot c.(slot)
  done

let peer_claims v slot t =
  let c = v.v_cache in
  let stop = slot + 8 + c.(slot + 7) in
  let i = ref (slot + 8) in
  while !i < stop && c.(!i) <> t do
    incr i
  done;
  !i < stop

let iter_far_heads v f =
  let a = v.v_far in
  for i = 0 to v.v_far_len - 1 do
    if a.((6 * i) + 5) <> 0 then f a.(6 * i)
  done

module Make (P : sig
  val params : params
end) =
struct
  let params = P.params
  let algo = params.algo

  type nonrec state = state

  type nonrec message = message

  type nonrec view = view

  let view = view

  let gid_of graph p =
    match params.ids with
    | None -> p
    | Some ids ->
        if Array.length ids <> Graph.node_count graph then
          invalid_arg "Distributed: ids length mismatch";
        ids.(p)

  let init rng graph p =
    let gamma = Gamma.size algo.Config.gamma graph in
    {
      clock = 0;
      gamma;
      gid = gid_of graph p;
      dag = Rng.int rng gamma;
      density = None;
      parent = None;
      head = None;
      cache = [];
      far = [];
    }

  let is_head_of ~node st = st.head = Some node

  let emit _graph p st =
    let summaries =
      List.map
        (fun (q, e) ->
          {
            s_node = q;
            s_density = e.e_density;
            s_eff = (if algo.Config.use_dag_names then e.e_dag else e.e_gid);
            s_is_head = e.e_head = Some q;
          })
        st.cache
    in
    {
      m_node = p;
      m_gid = st.gid;
      m_dag = st.dag;
      m_density = st.density;
      m_head = st.head;
      m_nbrs = Array.of_list summaries;
    }

  (* Sorted-assoc-list update keeping canonical order (so polymorphic
     equality detects fixpoints). *)
  let assoc_put key value l =
    let rec go = function
      | [] -> [ (key, value) ]
      | ((k, _) as pair) :: rest ->
          if k < key then pair :: go rest
          else if k = key then (key, value) :: rest
          else (key, value) :: pair :: rest
    in
    go l

  let refresh_cache clock cache msgs =
    let cache =
      List.fold_left
        (fun cache (q, m) ->
          let entry =
            {
              e_heard = clock;
              e_gid = m.m_gid;
              e_dag = m.m_dag;
              e_density = m.m_density;
              e_head = m.m_head;
              e_nbrs = Array.map (fun s -> s.s_node) m.m_nbrs;
            }
          in
          assoc_put q entry cache)
        cache msgs
    in
    List.filter (fun (_, e) -> clock - e.e_heard <= params.cache_ttl) cache

  let refresh_far ~self clock far msgs =
    let far =
      List.fold_left
        (fun far (_, m) ->
          Array.fold_left
            (fun far s ->
              if s.s_node = self then far
              else
                assoc_put s.s_node
                  {
                    f_heard = clock;
                    f_density = s.s_density;
                    f_eff = s.s_eff;
                    f_is_head = s.s_is_head;
                  }
                  far)
            far m.m_nbrs)
        far msgs
    in
    List.filter (fun (_, e) -> clock - e.f_heard <= params.cache_ttl) far

  (* N1: re-pick my name if it collides with a cached neighbor name and I
     hold the smaller global id (ties on gid broken by node index for
     progress under corrupted duplicate ids). *)
  let resolve_dag rng ~node st cache =
    if not algo.Config.use_dag_names then st.dag
    else begin
      let loses (q, e) =
        e.e_dag = st.dag
        && (st.gid < e.e_gid || (st.gid = e.e_gid && node < q))
      in
      if not (List.exists loses cache) then st.dag
      else begin
        let excluded = Array.make st.gamma false in
        List.iter
          (fun (_, e) ->
            if e.e_dag >= 0 && e.e_dag < st.gamma then excluded.(e.e_dag) <- true)
          cache;
        let free = ref [] in
        Array.iteri (fun name used -> if not used then free := name :: !free)
          excluded;
        match !free with
        | [] -> Rng.int rng st.gamma
        | names -> List.nth names (Rng.int rng (List.length names))
      end
    end

  let compute_density cache =
    let neighbors = Array.of_list (List.map fst cache) in
    let tables = List.map (fun (q, e) -> (q, e.e_nbrs)) cache in
    Density.of_local_view ~neighbors ~tables

  (* R2 from cached values: None when some needed cache field is missing
     (guard disabled until the information arrives). *)
  let elect ~node ~dag st cache far =
    match st.density with
    | None -> None
    | Some my_density ->
        let have_all_densities =
          List.for_all (fun (_, e) -> e.e_density <> None) cache
        in
        if not have_all_densities then None
        else begin
          let tie = algo.Config.tie in
          let my_eff = if algo.Config.use_dag_names then dag else st.gid in
          let my_key =
            Order.key ~value:my_density ~id:my_eff
              ~incumbent:(is_head_of ~node st)
          in
          let key_of (q, e) =
            let value =
              match e.e_density with Some d -> d | None -> Density.zero
            in
            Order.key ~value
              ~id:(if algo.Config.use_dag_names then e.e_dag else e.e_gid)
              ~incumbent:(e.e_head = Some q)
          in
          match cache with
          | [] -> Some (node, node) (* isolated: own head *)
          | first :: rest ->
              let best, best_key =
                List.fold_left
                  (fun (bq, bk) (q, e) ->
                    let k = key_of (q, e) in
                    if Order.compare ~tie k bk > 0 then (q, k) else (bq, bk))
                  (fst first, key_of first)
                  rest
              in
              let join q =
                match List.assoc_opt q cache with
                | Some e -> (
                    match e.e_head with
                    | Some h -> Some (q, h)
                    | None -> None)
                | None -> None
              in
              let locally_maximal = Order.precedes ~tie best_key my_key in
              if not locally_maximal then join best
              else if not algo.Config.fusion then Some (node, node)
              else begin
                (* The strongest dominating 2-hop head, from the relayed
                   summaries. A locally-maximal node cannot be dominated by
                   a 1-hop head, so only the far cache matters. *)
                let dominating =
                  List.fold_left
                    (fun acc (q, e) ->
                      match e.f_density with
                      | Some d when e.f_is_head ->
                          let k =
                            Order.key ~value:d ~id:e.f_eff ~incumbent:true
                          in
                          if Order.precedes ~tie my_key k then
                            match acc with
                            | Some (_, kbest)
                              when Order.compare ~tie k kbest <= 0 ->
                                acc
                            | Some _ | None -> Some (q, k)
                          else acc
                      | Some _ | None -> acc)
                    None far
                in
                match dominating with
                | None -> Some (node, node)
                | Some (v, _) -> (
                    (* Merge into v's cluster through the best bridge
                       neighbor (one that claims v in its table); see
                       Algorithm.bridge_towards for the rationale. *)
                    let bridge =
                      List.fold_left
                        (fun acc (q, e) ->
                          if Array.exists (Int.equal v) e.e_nbrs then
                            let k = key_of (q, e) in
                            match acc with
                            | Some (_, kbest)
                              when Order.compare ~tie k kbest <= 0 ->
                                acc
                            | Some _ | None -> Some (q, k)
                          else acc)
                        None cache
                    in
                    match bridge with
                    | Some (b, _) -> join b
                    | None ->
                        (* Stale far entry with no live bridge: hold state
                           until the cache refreshes or the entry expires. *)
                        None)
              end
        end

  let handle rng _graph node st msgs =
    let clock = st.clock + 1 in
    let cache = refresh_cache clock st.cache msgs in
    let far = refresh_far ~self:node clock st.far msgs in
    let dag = resolve_dag rng ~node st cache in
    let density = Some (compute_density cache) in
    let st = { st with clock; cache; far; dag; density } in
    match elect ~node ~dag st cache far with
    | Some (parent, head) -> { st with parent = Some parent; head = Some head }
    | None -> st

  let equal_state (a : state) (b : state) =
    (* Quiescence is judged on the protocol's outputs — the shared variables
       of the paper (name, density, parent, head). Cache bookkeeping churns
       on every round (heard-at stamps, refreshes, expiry under a lossy
       channel) without that meaning instability. Callers measuring
       stabilization should require several quiet rounds (more than the
       cache TTL) since in-flight relays can leave one output-quiet round
       in the middle of convergence. *)
    a.dag = b.dag
    && a.density = b.density
    && a.parent = b.parent
    && a.head = b.head

  (* ------------------------------------------------------- flat plane *)

  (* Struct-of-arrays mirror of [state] for the Ss_engine.Flat executor.
     Per-node rows: [cache.(p)] and [far.(p)] in the plane layout above,
     plus the emission:

       em_nbrs.(p) emitted relay summaries ascending, stride 5:
                   [s_node; dens_links; dens_nodes; eff; is_head]
       em          emitted frame scalars, stride 6 per node:
                   [gid; dag; dens_links; dens_nodes; head; len] — one
                   interleaved plane so a gathering neighbor touches one
                   cache line, not six; len -1 = poisoned

     The layout's injective option encodings are what make [step]'s
     change report and [refresh_emit]'s frame comparison exact mirrors
     of [equal_state] and of structural equality on [emit]'s frames. *)
  module Flat = struct
    type buffers = {
      n : int;
      clock : int array;
      gamma : int array;
      gid : int array;
      dag : int array;
      dens_l : int array; (* -1 = None *)
      dens_n : int array;
      parent : int array; (* -1 = None *)
      head : int array; (* -1 = None *)
      cache : int array array;
      cache_used : int array; (* ints used in cache.(p) *)
      cache_cnt : int array; (* entries in cache.(p) *)
      far : int array array;
      far_len : int array; (* entries in far.(p) *)
      em : int array; (* interleaved frame scalars, stride 6 *)
      em_nbrs : int array array;
      minh : int array; (* min heard stamp across cache+far; max_int = none *)
    }

    type scratch = {
      mutable cbuf : int array; (* next cache image *)
      mutable ckeys : int array; (* its entry keys, ascending *)
      mutable fa : int array; (* far-merge ping-pong *)
      mutable fb : int array;
      mutable ebuf : int array; (* next emission image *)
      mutable excl : bool array; (* N1 name exclusion, gamma-sized *)
      mutable free_names : int array;
    }

    let alloc graph =
      let n = Graph.node_count graph in
      let ia () = Array.make n 0 in
      let aa () = Array.make n [||] in
      {
        n;
        clock = ia ();
        gamma = ia ();
        gid = ia ();
        dag = ia ();
        dens_l = Array.make n (-1);
        dens_n = ia ();
        parent = Array.make n (-1);
        head = Array.make n (-1);
        cache = aa ();
        cache_used = ia ();
        cache_cnt = ia ();
        far = aa ();
        far_len = ia ();
        em = Array.init (6 * n) (fun i -> if i mod 6 = 5 then -1 else 0);
        em_nbrs = aa ();
        minh = Array.make n max_int;
      }

    let scratch _b =
      {
        cbuf = Array.make 64 0;
        ckeys = Array.make 16 0;
        fa = Array.make 96 0;
        fb = Array.make 96 0;
        ebuf = Array.make 80 0;
        excl = Array.make 16 false;
        free_names = Array.make 16 0;
      }

    let grow a needed =
      if Array.length a >= needed then a
      else Array.make (max needed ((2 * Array.length a) + 8)) 0


    let init_all b rng graph =
      if b.n <> Graph.node_count graph then
        invalid_arg "Distributed.Flat.init_all: node count mismatch";
      (* Deployment-wide constants once, instead of per node — the O(n^2)
         hazard of calling the typed init n times. Draw-identical to it:
         one Rng.int per node, ascending. *)
      let gamma = Gamma.size algo.Config.gamma graph in
      (match params.ids with
      | Some ids when Array.length ids <> b.n ->
          invalid_arg "Distributed: ids length mismatch"
      | Some _ | None -> ());
      for p = 0 to b.n - 1 do
        b.clock.(p) <- 0;
        b.gamma.(p) <- gamma;
        b.gid.(p) <- (match params.ids with None -> p | Some ids -> ids.(p));
        b.dag.(p) <- Rng.int rng gamma;
        b.dens_l.(p) <- -1;
        b.dens_n.(p) <- 0;
        b.parent.(p) <- -1;
        b.head.(p) <- -1;
        b.cache_used.(p) <- 0;
        b.cache_cnt.(p) <- 0;
        b.far_len.(p) <- 0;
        b.em.((6 * p) + 5) <- -1;
        b.minh.(p) <- max_int
      done

    let pack b p (st : state) =
      b.clock.(p) <- st.clock;
      b.gamma.(p) <- st.gamma;
      b.gid.(p) <- st.gid;
      b.dag.(p) <- st.dag;
      (match st.density with
      | None ->
          b.dens_l.(p) <- -1;
          b.dens_n.(p) <- 0
      | Some d ->
          b.dens_l.(p) <- Density.links d;
          b.dens_n.(p) <- Density.nodes d);
      b.parent.(p) <- index_of_opt st.parent;
      b.head.(p) <- index_of_opt st.head;
      let used = cache_ints st.cache in
      b.cache.(p) <- grow b.cache.(p) used;
      b.cache_used.(p) <- used;
      b.cache_cnt.(p) <- write_cache b.cache.(p) st.cache;
      let flen = List.length st.far in
      b.far.(p) <- grow b.far.(p) (6 * flen);
      write_far b.far.(p) st.far;
      b.far_len.(p) <- flen;
      let mh = ref max_int in
      List.iter
        (fun (_, e) -> if e.e_heard < !mh then mh := e.e_heard)
        st.cache;
      List.iter (fun (_, fe) -> if fe.f_heard < !mh then mh := fe.f_heard) st.far;
      b.minh.(p) <- !mh

    let unpack b p : state =
      let c = b.cache.(p) in
      let used = b.cache_used.(p) in
      let rec cache_from pos =
        if pos >= used then []
        else begin
          let nlen = c.(pos + 7) in
          let entry =
            {
              e_heard = c.(pos + 1);
              e_gid = c.(pos + 2);
              e_dag = c.(pos + 3);
              e_density = density_of c.(pos + 4) c.(pos + 5);
              e_head = opt_of_index c.(pos + 6);
              e_nbrs = Array.sub c (pos + 8) nlen;
            }
          in
          (c.(pos), entry) :: cache_from (pos + 8 + nlen)
        end
      in
      let f = b.far.(p) in
      let far =
        List.init b.far_len.(p) (fun i ->
            let o = 6 * i in
            ( f.(o),
              {
                f_heard = f.(o + 1);
                f_density = density_of f.(o + 2) f.(o + 3);
                f_eff = f.(o + 4);
                f_is_head = f.(o + 5) <> 0;
              } ))
      in
      {
        clock = b.clock.(p);
        gamma = b.gamma.(p);
        gid = b.gid.(p);
        dag = b.dag.(p);
        density = density_of b.dens_l.(p) b.dens_n.(p);
        parent = opt_of_index b.parent.(p);
        head = opt_of_index b.head.(p);
        cache = cache_from 0;
        far;
      }

    (* Aliases the live rows: O(1), no copy. Valid until the next write
       to node [p]'s planes (a [step] or [pack] may regrow or rewrite
       them), which is why executors hand views out only for the
       duration of a hook call. *)
    let view b p =
      {
        v_head = b.head.(p);
        v_parent = b.parent.(p);
        v_cache = b.cache.(p);
        v_used = b.cache_used.(p);
        v_far = b.far.(p);
        v_far_len = b.far_len.(p);
      }

    let refresh_emit b s p =
      let cnt = b.cache_cnt.(p) in
      let eb =
        let a = grow s.ebuf (5 * cnt) in
        if a != s.ebuf then s.ebuf <- a;
        a
      in
      let c = b.cache.(p) in
      let pos = ref 0 in
      for i = 0 to cnt - 1 do
        let q = c.(!pos) in
        let o = 5 * i in
        eb.(o) <- q;
        eb.(o + 1) <- c.(!pos + 4);
        eb.(o + 2) <- c.(!pos + 5);
        eb.(o + 3) <-
          (if algo.Config.use_dag_names then c.(!pos + 3) else c.(!pos + 2));
        eb.(o + 4) <- (if c.(!pos + 6) = q then 1 else 0);
        pos := !pos + 8 + c.(!pos + 7)
      done;
      let e = 6 * p in
      let changed =
        b.em.(e + 5) <> cnt
        || b.em.(e) <> b.gid.(p)
        || b.em.(e + 1) <> b.dag.(p)
        || b.em.(e + 2) <> b.dens_l.(p)
        || b.em.(e + 3) <> b.dens_n.(p)
        || b.em.(e + 4) <> b.head.(p)
        ||
        let en = b.em_nbrs.(p) in
        let diff = ref false in
        for i = 0 to (5 * cnt) - 1 do
          if en.(i) <> eb.(i) then diff := true
        done;
        !diff
      in
      if changed then begin
        b.em.(e) <- b.gid.(p);
        b.em.(e + 1) <- b.dag.(p);
        b.em.(e + 2) <- b.dens_l.(p);
        b.em.(e + 3) <- b.dens_n.(p);
        b.em.(e + 4) <- b.head.(p);
        let en = grow b.em_nbrs.(p) (5 * cnt) in
        if en != b.em_nbrs.(p) then b.em_nbrs.(p) <- en;
        for i = 0 to (5 * cnt) - 1 do
          en.(i) <- eb.(i)
        done;
        b.em.(e + 5) <- cnt
      end;
      changed

    (* An entry not refreshed at the node's last executed step is aging
       toward its TTL — [step] maintains the plane-wide minimum heard
       stamp, so the pending-expiry test is one compare. *)
    let warm b p = b.minh.(p) < b.clock.(p)

    (* Order.compare over sentinel-encoded keys, on raw ints. *)
    let cmp_keys tie l1 n1 id1 inc1 l2 n2 id2 inc2 =
      let an = if n1 = 0 then 0 else l1
      and ad = if n1 = 0 then 1 else n1
      and bn = if n2 = 0 then 0 else l2
      and bd = if n2 = 0 then 1 else n2 in
      let c = Int.compare (an * bd) (bn * ad) in
      if c <> 0 then c
      else
        match tie with
        | Order.Id_only -> Int.compare id2 id1
        | Order.Incumbent_then_id ->
            if inc1 && not inc2 then 1
            else if inc2 && not inc1 then -1
            else Int.compare id2 id1

    (* One closure-free path. Without flambda, a local helper called from
       several non-tail sites is a heap closure allocated each time its
       [let] runs, and every ref it captures is boxed; so each merge below
       is a plain loop over local refs, and a drawless step allocates
       nothing (pinned in test/suite_flat.ml). *)
    let step b s hkey p ~senders ~count =
      let ttl = params.cache_ttl in
      let clock' = b.clock.(p) + 1 in
      let old = b.cache.(p) in
      let old_used = b.cache_used.(p) in
      (* --- cache refresh: sorted merge of the surviving old entries and
         the fresh frames (senders ascending); a fresh frame replaces the
         old entry for the same neighbor, everything else is TTL-filtered
         at the new clock — exactly the typed refresh_cache. Scratch is
         pre-sized from upper bounds once, so the merge loops are plain
         int stores: no growth checks, no write barriers, no C-call
         blits. *)
      let old_cnt = b.cache_cnt.(p) in
      let ofar = b.far.(p) and ocnt = b.far_len.(p) in
      let sn_total = ref 0 in
      for i = 0 to count - 1 do
        sn_total := !sn_total + b.em.((6 * senders.(i)) + 5)
      done;
      let cbuf =
        let a = grow s.cbuf (old_used + (8 * count) + !sn_total) in
        if a != s.cbuf then s.cbuf <- a;
        a
      in
      let ckeys =
        let a = grow s.ckeys (old_cnt + count) in
        if a != s.ckeys then s.ckeys <- a;
        a
      in
      let fmax = 6 * (ocnt + !sn_total) in
      let fa0 =
        let a = grow s.fa fmax in
        if a != s.fa then s.fa <- a;
        a
      in
      let fb0 =
        let a = grow s.fb fmax in
        if a != s.fb then s.fb <- a;
        a
      in
      let minh = ref max_int in
      let used = ref 0 and cnt = ref 0 in
      let opos = ref 0 and si = ref 0 in
      while !opos < old_used || !si < count do
        if !si >= count || (!opos < old_used && old.(!opos) < senders.(!si))
        then begin
          (* an old entry no sender refreshed: kept within the TTL *)
          let pos = !opos in
          let sz = 8 + old.(pos + 7) in
          let h = old.(pos + 1) in
          if clock' - h <= ttl then begin
            let u = !used in
            for i = 0 to sz - 1 do
              cbuf.(u + i) <- old.(pos + i)
            done;
            if h < !minh then minh := h;
            ckeys.(!cnt) <- old.(pos);
            incr cnt;
            used := u + sz
          end;
          opos := pos + sz
        end
        else begin
          (* a fresh frame, replacing any old entry for the same sender *)
          let q = senders.(!si) in
          let e = 6 * q in
          let nlen = b.em.(e + 5) in
          let u = !used in
          cbuf.(u) <- q;
          cbuf.(u + 1) <- clock';
          cbuf.(u + 2) <- b.em.(e);
          cbuf.(u + 3) <- b.em.(e + 1);
          cbuf.(u + 4) <- b.em.(e + 2);
          cbuf.(u + 5) <- b.em.(e + 3);
          cbuf.(u + 6) <- b.em.(e + 4);
          cbuf.(u + 7) <- nlen;
          let en = b.em_nbrs.(q) in
          for i = 0 to nlen - 1 do
            cbuf.(u + 8 + i) <- en.(5 * i)
          done;
          ckeys.(!cnt) <- q;
          incr cnt;
          used := u + 8 + nlen;
          incr si;
          if !opos < old_used && old.(!opos) = q then
            opos := !opos + 8 + old.(!opos + 7)
        end
      done;
      (* --- far refresh: fresh relayed summaries first (iterative sorted
         merge across senders ascending, a later sender's claim overwrites
         an earlier one's, self skipped — the typed fold's assoc_put
         order), then merged over the TTL-filtered old entries with fresh
         winning collisions. The ping-pong direction is chosen by parity,
         so the loop performs no pointer swaps. *)
      let fcnt = ref 0 and parity = ref false in
      for i = 0 to count - 1 do
        let q = senders.(i) in
        let sn = b.em.((6 * q) + 5) in
        if sn > 0 then begin
          let en = b.em_nbrs.(q) in
          let fa = if !parity then fb0 else fa0 in
          let fb = if !parity then fa0 else fb0 in
          let out = ref 0 and ai = ref 0 and bi = ref 0 in
          while !ai < !fcnt || !bi < sn do
            if !bi < sn && en.(5 * !bi) = p then incr bi
            else if !bi >= sn || (!ai < !fcnt && fa.(6 * !ai) < en.(5 * !bi))
            then begin
              (* an earlier sender's claim, not overwritten *)
              let sa = 6 * !ai and o = 6 * !out in
              fb.(o) <- fa.(sa);
              fb.(o + 1) <- fa.(sa + 1);
              fb.(o + 2) <- fa.(sa + 2);
              fb.(o + 3) <- fa.(sa + 3);
              fb.(o + 4) <- fa.(sa + 4);
              fb.(o + 5) <- fa.(sa + 5);
              incr ai;
              incr out
            end
            else begin
              (* this sender's claim, overwriting an earlier equal key *)
              let j = 5 * !bi and o = 6 * !out in
              fb.(o) <- en.(j);
              fb.(o + 1) <- clock';
              fb.(o + 2) <- en.(j + 1);
              fb.(o + 3) <- en.(j + 2);
              fb.(o + 4) <- en.(j + 3);
              fb.(o + 5) <- en.(j + 4);
              if !ai < !fcnt && fa.(6 * !ai) = en.(j) then incr ai;
              incr bi;
              incr out
            end
          done;
          parity := not !parity;
          fcnt := !out
        end
      done;
      let fresh = if !parity then fb0 else fa0 in
      let fn = !fcnt in
      let fdst = if !parity then fa0 else fb0 in
      let fout = ref 0 and oi = ref 0 and fi = ref 0 in
      while !oi < ocnt || !fi < fn do
        if !fi >= fn || (!oi < ocnt && ofar.(6 * !oi) < fresh.(6 * !fi)) then begin
          (* an old entry no fresh summary covers: kept within the TTL *)
          let so = 6 * !oi in
          let h = ofar.(so + 1) in
          if clock' - h <= ttl then begin
            let o = 6 * !fout in
            fdst.(o) <- ofar.(so);
            fdst.(o + 1) <- h;
            fdst.(o + 2) <- ofar.(so + 2);
            fdst.(o + 3) <- ofar.(so + 3);
            fdst.(o + 4) <- ofar.(so + 4);
            fdst.(o + 5) <- ofar.(so + 5);
            if h < !minh then minh := h;
            incr fout
          end;
          incr oi
        end
        else begin
          let sf = 6 * !fi and o = 6 * !fout in
          fdst.(o) <- fresh.(sf);
          fdst.(o + 1) <- fresh.(sf + 1);
          fdst.(o + 2) <- fresh.(sf + 2);
          fdst.(o + 3) <- fresh.(sf + 3);
          fdst.(o + 4) <- fresh.(sf + 4);
          fdst.(o + 5) <- fresh.(sf + 5);
          if !oi < ocnt && ofar.(6 * !oi) = fresh.(sf) then incr oi;
          incr fi;
          incr fout
        end
      done;
      if (count > 0 || fn > 0) && clock' < !minh then minh := clock';
      (* commit the new cache and far planes *)
      let new_used = !used and new_cnt = !cnt and new_far_cnt = !fout in
      let c =
        let a = grow b.cache.(p) new_used in
        if a != b.cache.(p) then b.cache.(p) <- a;
        a
      in
      for i = 0 to new_used - 1 do
        c.(i) <- cbuf.(i)
      done;
      b.cache_used.(p) <- new_used;
      b.cache_cnt.(p) <- new_cnt;
      let fcom =
        let a = grow b.far.(p) (6 * new_far_cnt) in
        if a != b.far.(p) then b.far.(p) <- a;
        a
      in
      for i = 0 to (6 * new_far_cnt) - 1 do
        fcom.(i) <- fdst.(i)
      done;
      b.far_len.(p) <- new_far_cnt;
      b.minh.(p) <- !minh;
      (* --- N1 name resolution, draw-for-draw with resolve_dag: exactly
         one Rng.int when the node loses its name, none otherwise. The
         typed free list is built descending, so a draw k there selects
         the (k+1)-th largest free name. *)
      let gamma = b.gamma.(p) and gid = b.gid.(p) and old_dag = b.dag.(p) in
      let dag' =
        if not algo.Config.use_dag_names then old_dag
        else begin
          let loses = ref false in
          let pos = ref 0 in
          while (not !loses) && !pos < new_used do
            let q = c.(!pos) in
            if
              c.(!pos + 3) = old_dag
              && (gid < c.(!pos + 2) || (gid = c.(!pos + 2) && p < q))
            then loses := true
            else pos := !pos + 8 + c.(!pos + 7)
          done;
          if not !loses then old_dag
          else begin
            if Array.length s.excl < gamma then
              s.excl <-
                Array.make (max gamma ((2 * Array.length s.excl) + 8)) false;
            Array.fill s.excl 0 gamma false;
            let pos = ref 0 in
            while !pos < new_used do
              let d = c.(!pos + 3) in
              if d >= 0 && d < gamma then s.excl.(d) <- true;
              pos := !pos + 8 + c.(!pos + 7)
            done;
            s.free_names <- grow s.free_names gamma;
            let nf = ref 0 in
            for name = 0 to gamma - 1 do
              if not s.excl.(name) then begin
                s.free_names.(!nf) <- name;
                incr nf
              end
            done;
            (* The only draw in a step; derive the node generator here so
               the overwhelmingly common drawless step allocates none. *)
            let rng = Rng.of_key (Rng.subkey hkey p) in
            if !nf = 0 then Rng.int rng gamma
            else s.free_names.(!nf - 1 - Rng.int rng !nf)
          end
        end
      in
      (* --- density from the new cache (Density.of_local_view on the
         entry keys, which are already sorted in ckeys) *)
      let deg = new_cnt in
      let among = ref 0 in
      let pos = ref 0 in
      while !pos < new_used do
        let q = c.(!pos) in
        let nlen = c.(!pos + 7) in
        for i = 0 to nlen - 1 do
          let r = c.(!pos + 8 + i) in
          if r > q then begin
            let lo = ref 0 and hi = ref deg in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if ckeys.(mid) < r then lo := mid + 1 else hi := mid
            done;
            if !lo < deg && ckeys.(!lo) = r then incr among
          end
        done;
        pos := !pos + 8 + nlen
      done;
      let dl' = deg + !among and dn' = deg in
      (* --- election, mirroring elect over the new planes. parent'/head'
         start at the old values; every "None" outcome leaves them, and
         a join through the entry at [join_off] adopts its head. *)
      let old_parent = b.parent.(p) and old_head = b.head.(p) in
      let tie = algo.Config.tie in
      let use_dag = algo.Config.use_dag_names in
      let parent' = ref old_parent and head' = ref old_head in
      let join_off = ref (-1) in
      let have_all = ref true in
      let pos = ref 0 in
      while !have_all && !pos < new_used do
        if c.(!pos + 4) < 0 then have_all := false
        else pos := !pos + 8 + c.(!pos + 7)
      done;
      if !have_all then begin
        if new_cnt = 0 then begin
          parent' := p;
          head' := p
        end
        else begin
          let my_eff = if use_dag then dag' else gid in
          let my_inc = old_head = p in
          (* strongest 1-hop key; ties keep the lowest neighbor *)
          let best_q = ref (-1) and best_off = ref 0 in
          let bl = ref 0 and bn = ref 0 and bid = ref 0 and binc = ref false in
          let pos = ref 0 in
          while !pos < new_used do
            let q = c.(!pos) in
            let el = c.(!pos + 4) and en_ = c.(!pos + 5) in
            let eid = if use_dag then c.(!pos + 3) else c.(!pos + 2) in
            let einc = c.(!pos + 6) = q in
            if
              !best_q < 0
              || cmp_keys tie el en_ eid einc !bl !bn !bid !binc > 0
            then begin
              best_q := q;
              best_off := !pos;
              bl := el;
              bn := en_;
              bid := eid;
              binc := einc
            end;
            pos := !pos + 8 + c.(!pos + 7)
          done;
          let locally_maximal =
            cmp_keys tie !bl !bn !bid !binc dl' dn' my_eff my_inc < 0
          in
          if not locally_maximal then join_off := !best_off
          else if not algo.Config.fusion then begin
            parent' := p;
            head' := p
          end
          else begin
            (* strongest dominating 2-hop head from the far plane *)
            let f = fcom in
            let dv = ref (-1) in
            let kl = ref 0 and kn = ref 0 and kid = ref 0 in
            for i = 0 to new_far_cnt - 1 do
              let o = 6 * i in
              if f.(o + 2) >= 0 && f.(o + 5) <> 0 then begin
                let l = f.(o + 2) and nn = f.(o + 3) and id = f.(o + 4) in
                if cmp_keys tie dl' dn' my_eff my_inc l nn id true < 0 then
                  if !dv < 0 || cmp_keys tie l nn id true !kl !kn !kid true > 0
                  then begin
                    dv := f.(o);
                    kl := l;
                    kn := nn;
                    kid := id
                  end
              end
            done;
            if !dv < 0 then begin
              parent' := p;
              head' := p
            end
            else begin
              (* best bridge neighbor claiming the dominating head; a
                 stale far entry with no live bridge holds state *)
              let v = !dv in
              let bq = ref (-1) and boff = ref 0 in
              let l2 = ref 0
              and n2 = ref 0
              and id2 = ref 0
              and inc2 = ref false in
              let pos = ref 0 in
              while !pos < new_used do
                let q = c.(!pos) in
                let nlen = c.(!pos + 7) in
                let claims = ref false in
                for i = 0 to nlen - 1 do
                  if c.(!pos + 8 + i) = v then claims := true
                done;
                if !claims then begin
                  let el = c.(!pos + 4) and en_ = c.(!pos + 5) in
                  let eid = if use_dag then c.(!pos + 3) else c.(!pos + 2) in
                  let einc = c.(!pos + 6) = q in
                  if
                    !bq < 0
                    || cmp_keys tie el en_ eid einc !l2 !n2 !id2 !inc2 > 0
                  then begin
                    bq := q;
                    boff := !pos;
                    l2 := el;
                    n2 := en_;
                    id2 := eid;
                    inc2 := einc
                  end
                end;
                pos := !pos + 8 + nlen
              done;
              if !bq >= 0 then join_off := !boff
            end
          end
        end
      end;
      if !join_off >= 0 then begin
        let h = c.(!join_off + 6) in
        if h >= 0 then begin
          parent' := c.(!join_off);
          head' := h
        end
      end;
      let changed =
        old_dag <> dag'
        || b.dens_l.(p) <> dl'
        || b.dens_n.(p) <> dn'
        || old_parent <> !parent'
        || old_head <> !head'
      in
      b.clock.(p) <- clock';
      b.dag.(p) <- dag';
      b.dens_l.(p) <- dl';
      b.dens_n.(p) <- dn';
      b.parent.(p) <- !parent';
      b.head.(p) <- !head';
      changed
  end
end

(* Random state corruption for fault-injection experiments: scrambles every
   field a transient fault could damage, within type-correct bounds. *)
let corrupt rng _node st =
  let random_density () =
    if Rng.bool rng then None
    else Some (Density.make ~links:(Rng.int rng 64) ~nodes:(1 + Rng.int rng 16))
  in
  let random_node () = Rng.int rng 4096 in
  {
    st with
    dag = Rng.int rng (max 1 st.gamma);
    density = random_density ();
    parent = (if Rng.bool rng then None else Some (random_node ()));
    head = (if Rng.bool rng then None else Some (random_node ()));
    cache =
      List.map
        (fun (q, e) ->
          ( q,
            {
              e with
              e_dag = Rng.int rng (max 1 st.gamma);
              e_density = random_density ();
              e_head = (if Rng.bool rng then None else Some (random_node ()));
            } ))
        st.cache;
    far = [];
  }

(* Forgery hook for the Byzantine adversary (Ss_engine.Adversary): rewrite
   every field the election orders on, keyed — a pure function of (key,
   node, honest frame), so a replay sees the same lie. The sender index
   [m_node] stays truthful: the radio layer authenticates which
   transceiver transmitted (receivers key their cache
   by the engine-supplied sender anyway), only the {e claims} inside the
   frame are forgeable. The forged density is implausibly attractive
   (many links over few nodes) and the node always claims to be its own
   head — the strongest pull a lying neighbor can exert on the
   density-ordered election — while the relayed 2-hop summaries are
   scrambled per claimed neighbor, poisoning the far cache too. *)
let forge key node m =
  let lane i = Rng.subkey key i in
  let forged_density k =
    Some
      (Density.make
         ~links:(32 + Rng.key_int k 32)
         ~nodes:(1 + Rng.key_int (Rng.subkey k 1) 4))
  in
  {
    m with
    m_gid = Rng.key_int (lane 0) 4096;
    m_dag = Rng.key_int (lane 1) 4096;
    m_density = forged_density (lane 2);
    m_head = Some node;
    m_nbrs =
      Array.map
        (fun s ->
          let sk = Rng.subkey (lane 3) s.s_node in
          {
            s with
            s_density = forged_density (Rng.subkey sk 0);
            s_eff = Rng.key_int (Rng.subkey sk 1) 4096;
            s_is_head = Rng.key_bernoulli (Rng.subkey sk 2) 0.5;
          })
        m.m_nbrs;
  }

(* Readback of a converged run into an assignment; nodes that never elected
   (no info yet) read as their own heads. Under churn, pass the engine's
   final liveness mask: crashed/sleeping nodes hold frozen (possibly stale)
   variables that must not pollute the projection, so they read as isolated
   self-heads — which is exactly their status in the snapshot topology. *)
let to_assignment ?alive states =
  let n = Array.length states in
  let live p = match alive with None -> true | Some mask -> mask.(p) in
  let parent = Array.init n Fun.id in
  let head = Array.init n Fun.id in
  Array.iteri
    (fun p st ->
      if live p then begin
        (match st.parent with Some f -> parent.(p) <- f | None -> ());
        match st.head with Some h -> head.(p) <- h | None -> ()
      end)
    states;
  Assignment.make ~parent ~head

(* Dangling references to vanished neighbors: an alive node still naming a
   dead (or out-of-range, after corruption) node as parent or head, or
   still caching a frame from one. The protocol drains these within the
   cache TTL — neighbor entries expire after [cache_ttl] silent rounds and
   the election re-runs from live observations — so this count measures
   how long the network "believes ghosts" after a churn burst. *)
let ghost_references ~alive states =
  let n = Array.length states in
  let ghost self q = q <> self && (q < 0 || q >= n || not alive.(q)) in
  let count = ref 0 in
  Array.iteri
    (fun p st ->
      if alive.(p) then begin
        (match st.parent with Some f when ghost p f -> incr count | _ -> ());
        (match st.head with Some h when ghost p h -> incr count | _ -> ());
        List.iter (fun (q, _) -> if ghost p q then incr count) st.cache
      end)
    states;
  !count

(* The same count read through routing views, for executors that hand out
   views instead of typed states (the flat executor's workload hook). A view
   encodes parent/head [None] as a negative index, which [view_parent] and
   [view_head] decode, so the two counts agree on every plane. *)
let view_ghost_references ~alive read =
  let n = Array.length alive in
  let ghost self q = q <> self && (q < 0 || q >= n || not alive.(q)) in
  let count = ref 0 in
  for p = 0 to n - 1 do
    if alive.(p) then begin
      let v = read p in
      (match view_parent v with Some f when ghost p f -> incr count | _ -> ());
      (match view_head v with Some h when ghost p h -> incr count | _ -> ());
      iter_peers v (fun _ q -> if ghost p q then incr count)
    end
  done;
  !count

(* Same predicate, but naming the believers instead of counting beliefs —
   the attribution the containment metrics need (how far from the
   Byzantine set does the network still believe ghosts?). *)
let ghost_holders ~alive states =
  let n = Array.length states in
  let ghost self q = q <> self && (q < 0 || q >= n || not alive.(q)) in
  let holders = ref [] in
  for p = n - 1 downto 0 do
    let st = states.(p) in
    if alive.(p) then begin
      let holds =
        (match st.parent with Some f -> ghost p f | None -> false)
        || (match st.head with Some h -> ghost p h | None -> false)
        || List.exists (fun (q, _) -> ghost p q) st.cache
      in
      if holds then holders := p :: !holders
    end
  done;
  !holders
