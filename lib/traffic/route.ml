module Vec2 = Ss_geom.Vec2
module D = Ss_cluster.Distributed

(* Views are read only through Distributed's accessors, none of which
   reads a heard stamp or the clock — the cache fields whose dense and
   flat evolution differ (DESIGN §9) — which is what makes routing, and
   therefore the whole workload, executor-independent (DESIGN §13). *)

let no_via = -1

type decision = Forward of { next : int; via : int; advance : bool } | Stall

let next_hop ~(positions : Vec2.t array) ~view_of ~n ~cur ~dst ~via ~prev
    ~banned =
  if dst < 0 || dst >= n || cur = dst then Stall
  else begin
    let v = view_of cur in
    (* Every candidate read out of a (possibly corrupted) table is
       bounds-checked before its position is touched. *)
    let usable q = q >= 0 && q < n && q <> cur && q <> prev && not (banned q) in
    let d2 a b = Vec2.dist2 positions.(a) positions.(b) in
    let peer q =
      let found = ref false in
      D.iter_peers v (fun _ r -> if r = q then found := true);
      !found
    in
    let claiming t slot = D.peer_claims v slot t in
    (* Smallest objective wins; ties break to the smaller index so the
       choice is a pure function of the view. *)
    let best_peer pred obj =
      let best = ref (-1) and best_d = ref infinity in
      D.iter_peers v (fun slot q ->
          if usable q && pred slot then begin
            let d = obj q in
            if d < !best_d || (d = !best_d && (!best < 0 || q < !best)) then begin
              best := q;
              best_d := d
            end
          end);
      !best
    in
    if usable dst && peer dst then
      Forward { next = dst; via = no_via; advance = true }
    else begin
      let bridge = best_peer (claiming dst) (fun q -> d2 q dst) in
      if bridge >= 0 then
        Forward { next = bridge; via = no_via; advance = true }
      else begin
        let d_cur = d2 cur dst in
        (* Ride the carried waypoint only while it still pulls strictly
           forward — a waypoint that no longer beats the holder's own
           position is dropped, never chased backward. *)
        let ride =
          if via >= 0 && via < n && via <> cur && not (banned via)
             && d2 via dst < d_cur
          then
            if usable via && peer via then
              Some (Forward { next = via; via; advance = true })
            else begin
              let b = best_peer (claiming via) (fun q -> d2 q via) in
              if b >= 0 then Some (Forward { next = b; via; advance = true })
              else None
            end
          else None
        in
        match ride with
        | Some d -> d
        | None ->
            (* Strict progress, peers and backbone heads on one
               objective: a candidate's endpoint (the peer itself, or
               the head its bridge leads to) must be strictly closer to
               the destination than the holder. Longest stride wins,
               ties to the smaller endpoint index. *)
            let best_q = ref (-1) and best_t = ref no_via in
            let best_d = ref d_cur and best_e = ref (-1) in
            let record q t d e =
              if d < !best_d || (d = !best_d && (!best_e < 0 || e < !best_e))
              then begin
                best_q := q;
                best_t := t;
                best_d := d;
                best_e := e
              end
            in
            D.iter_peers v (fun _ q ->
                if usable q then record q no_via (d2 q dst) q);
            D.iter_far_heads v (fun t ->
                if t >= 0 && t < n && t <> cur && not (banned t) then begin
                  let d = d2 t dst in
                  if d < !best_d then
                    if usable t && peer t then record t no_via d t
                    else begin
                      let b =
                        best_peer (claiming t) (fun q -> d2 q t)
                      in
                      if b >= 0 then record b t d t
                    end
                end);
            if !best_q >= 0 then
              Forward { next = !best_q; via = !best_t; advance = true }
            else begin
              (* Local minimum: one escape hop to the usable peer
                 nearest the destination. The caller bans the forwarder,
                 so an escape walk sheds a node per revisit attempt
                 instead of orbiting until the TTL. *)
              let q = best_peer (fun _ -> true) (fun q -> d2 q dst) in
              if q >= 0 then
                Forward { next = q; via = no_via; advance = false }
              else Stall
            end
      end
    end
  end
