(* In-memory span recorder for one traced [Flat.run] call.

   Spans are recorded from the benchmark's own side of the layer
   boundaries: around the hooks it hands to [Flat.run] (motion, churn
   plan, workload) and the calls it makes inside them, plus one mark per
   [?on_round] call. Nothing inside [lib/] is instrumented. The round
   marks cut the run into intervals:

     run = init | round 1 | ... | round R | trailing hook | finish

   [init] runs from the [Flat.run] call to the first hook, round [r] from
   the previous boundary (the first hook's start, then each [on_round])
   to [on_round r], and [finish] from the end of the last hook to the
   return. A round's engine self time is its interval minus the hook
   spans inside it. Every span carries the calling domain's allocation
   counters at its start and end. *)

type kind =
  | Run
  | Init
  | Round
  | Finish
  | Motion  (** the [?motion] hook *)
  | Mobility  (** [Fleet.step_moved] inside the motion hook *)
  | Flush  (** [Motion.flush] inside the motion hook *)
  | Churn_plan  (** the churn plan, wrapped in [Churn.generator] *)
  | Workload  (** the [?workload] hook, its [read] calls included *)

let kind_name = function
  | Run -> "run"
  | Init -> "engine.init"
  | Round -> "engine.round"
  | Finish -> "engine.finish"
  | Motion -> "motion"
  | Mobility -> "mobility.step"
  | Flush -> "topology.flush"
  | Churn_plan -> "churn.plan"
  | Workload -> "traffic.tick"

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable len : int;
  mutable kinds : kind array;
  mutable start : int array;
  mutable stop : int array;
  mutable round : int array;
  mutable minor0 : float array;
  mutable minor1 : float array;
  mutable major0 : float array;
  mutable major1 : float array;
  mutable reads_in : int array;  (** ns of [read] calls inside the span *)
  mutable first_hook : int;  (** -1 until the first hook opens *)
  mutable boundary : int;  (** start of the current round interval *)
  mutable b_minor : float;
  mutable b_major : float;
  mutable cur_round : int;
  (* Counters kept beside the spans: one span per [read] would dwarf the
     run (a traffic run makes about a million reads). *)
  mutable reads : int;
  mutable read_ns : int;
  mutable emitted : int;
  mutable moved : int;
  mutable flips : int;
}

let create () =
  let cap = 1024 in
  {
    len = 0;
    kinds = Array.make cap Run;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    round = Array.make cap 0;
    minor0 = Array.make cap 0.0;
    minor1 = Array.make cap 0.0;
    major0 = Array.make cap 0.0;
    major1 = Array.make cap 0.0;
    reads_in = Array.make cap 0;
    first_hook = -1;
    boundary = -1;
    b_minor = 0.0;
    b_major = 0.0;
    cur_round = 1;
    reads = 0;
    read_ns = 0;
    emitted = 0;
    moved = 0;
    flips = 0;
  }

let grow t =
  let cap = 2 * Array.length t.kinds in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.kinds <- ext t.kinds Run;
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.round <- ext t.round 0;
  t.minor0 <- ext t.minor0 0.0;
  t.minor1 <- ext t.minor1 0.0;
  t.major0 <- ext t.major0 0.0;
  t.major1 <- ext t.major1 0.0;
  t.reads_in <- ext t.reads_in 0

let slot t kind ~start ~minor ~major =
  if t.len = Array.length t.kinds then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.kinds.(i) <- kind;
  t.start.(i) <- start;
  t.round.(i) <- t.cur_round;
  t.minor0.(i) <- minor;
  t.major0.(i) <- major;
  t.reads_in.(i) <- 0;
  i

let set_stop t i ~stop ~minor ~major =
  t.stop.(i) <- stop;
  t.minor1.(i) <- minor;
  t.major1.(i) <- major

(* The run span takes slot 0, so span ids are stable parent indexes. *)
let begin_run t =
  let minor, _, major = Gc.counters () in
  ignore (slot t Run ~start:(now ()) ~minor ~major)

let mark_first_hook t ~at ~minor ~major =
  if t.first_hook < 0 then begin
    t.first_hook <- at;
    t.boundary <- at;
    t.b_minor <- minor;
    t.b_major <- major
  end

let span t kind f =
  let start = now () in
  let minor, _, major = Gc.counters () in
  mark_first_hook t ~at:start ~minor ~major;
  let i = slot t kind ~start ~minor ~major in
  let reads0 = t.read_ns in
  let v = f () in
  let minor, _, major = Gc.counters () in
  set_stop t i ~stop:(now ()) ~minor ~major;
  t.reads_in.(i) <- t.read_ns - reads0;
  v

(* [span] when tracing, a plain call otherwise. *)
let within tr kind f = match tr with None -> f () | Some t -> span t kind f

(* [?on_round] mark: files the interval since the previous boundary. *)
let round_mark t ~round =
  let stop = now () in
  let minor, _, major = Gc.counters () in
  mark_first_hook t ~at:stop ~minor ~major;
  t.cur_round <- round;
  let i = slot t Round ~start:t.boundary ~minor:t.b_minor ~major:t.b_major in
  set_stop t i ~stop ~minor ~major;
  t.boundary <- stop;
  t.b_minor <- minor;
  t.b_major <- major;
  (* Hooks after this mark run in the next round's interval. *)
  t.cur_round <- round + 1

let read t f p =
  let t0 = now () in
  let v = f p in
  t.read_ns <- t.read_ns + (now () - t0);
  t.reads <- t.reads + 1;
  v

(* Closes the run span and files [init] and [finish]. *)
let end_run t =
  let stop = now () in
  let minor, _, major = Gc.counters () in
  set_stop t 0 ~stop ~minor ~major;
  let first = if t.first_hook < 0 then stop else t.first_hook in
  let last_hook = ref first in
  for j = 1 to t.len - 1 do
    if t.stop.(j) > !last_hook then last_hook := t.stop.(j)
  done;
  t.cur_round <- 0;
  let i = slot t Init ~start:t.start.(0) ~minor:0.0 ~major:0.0 in
  t.stop.(i) <- first;
  let i = slot t Finish ~start:!last_hook ~minor:0.0 ~major:0.0 in
  t.stop.(i) <- stop

(* Parents by interval containment: mobility and flush sit inside the
   motion hook opened just before them; every other hook inside the
   round interval that contains its start, or the run when it follows
   the last round mark. *)
let parents t =
  let parent = Array.make t.len 0 in
  parent.(0) <- -1;
  let rounds =
    Array.of_list
      (List.filter (fun i -> t.kinds.(i) = Round) (List.init t.len Fun.id))
  in
  let containing s =
    let lo = ref 0 and hi = ref (Array.length rounds - 1) and found = ref 0 in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let r = rounds.(mid) in
      if s < t.start.(r) then hi := mid - 1
      else if s >= t.stop.(r) then lo := mid + 1
      else begin
        found := r;
        lo := !hi + 1
      end
    done;
    !found
  in
  let last_motion = ref 0 in
  for i = 1 to t.len - 1 do
    match t.kinds.(i) with
    | Run | Init | Finish | Round -> ()
    | Mobility | Flush -> parent.(i) <- !last_motion
    | Motion ->
        last_motion := i;
        parent.(i) <- containing t.start.(i)
    | Churn_plan | Workload -> parent.(i) <- containing t.start.(i)
  done;
  parent

let write t oc =
  let parent = parents t in
  let t0 = t.start.(0) in
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"id\": %d, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \
       \"parent\": %d, \"round\": %d}\n"
      i (kind_name t.kinds.(i)) (t.start.(i) - t0) (t.stop.(i) - t0)
      parent.(i) t.round.(i)
  done

(* ----------------------------------------------------------- analysis *)

let dur t i = t.stop.(i) - t.start.(i)

(* The sample with ten samples above it, and its percentile: the
   highest percentile a run of this length resolves. *)
let tail samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else
    let k = max 0 (n - 11) in
    (a.(k), 100.0 *. float_of_int (k + 1) /. float_of_int n)

let median samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type summary = {
  run_ns : int;
  init_ns : int;
  finish_ns : int;
  engine_ns : int;  (** Σ round self time *)
  round_self_ms : float array;  (** per round, in round order *)
  engine_minor : float;
  engine_major : float;
  mobility_ns : int;
  flush_ns : int;
  churn_ns : int;
  tick_ns : int;  (** workload hook minus its reads *)
  tick_self_ms : float array;
  remainder_ns : int;
}

let summarize t =
  let parent = parents t in
  let nchild = Array.make t.len 0 in
  let cminor = Array.make t.len 0.0 and cmajor = Array.make t.len 0.0 in
  for i = 1 to t.len - 1 do
    let p = parent.(i) in
    if p > 0 then begin
      nchild.(p) <- nchild.(p) + dur t i;
      cminor.(p) <- cminor.(p) +. (t.minor1.(i) -. t.minor0.(i));
      cmajor.(p) <- cmajor.(p) +. (t.major1.(i) -. t.major0.(i))
    end
  done;
  let total k =
    let s = ref 0 in
    for i = 0 to t.len - 1 do
      if t.kinds.(i) = k then s := !s + dur t i
    done;
    !s
  in
  let rounds = ref [] and engine_ns = ref 0 in
  let engine_minor = ref 0.0 and engine_major = ref 0.0 in
  for i = t.len - 1 downto 0 do
    if t.kinds.(i) = Round then begin
      let self = dur t i - nchild.(i) in
      engine_ns := !engine_ns + self;
      rounds := (float_of_int self /. 1e6) :: !rounds;
      engine_minor :=
        !engine_minor +. (t.minor1.(i) -. t.minor0.(i)) -. cminor.(i);
      engine_major :=
        !engine_major +. (t.major1.(i) -. t.major0.(i)) -. cmajor.(i)
    end
  done;
  let tick_self_ms =
    Array.of_list
      (List.filter_map
         (fun i ->
           if t.kinds.(i) = Workload then
             Some (float_of_int (dur t i - t.reads_in.(i)) /. 1e6)
           else None)
         (List.init t.len Fun.id))
  in
  let round_self_ms = Array.of_list !rounds in
  let engine_ns = !engine_ns in
  let run_ns = dur t 0 in
  let init_ns = total Init and finish_ns = total Finish in
  let mobility_ns = total Mobility and flush_ns = total Flush in
  let churn_ns = total Churn_plan in
  let tick_ns = total Workload - t.read_ns in
  {
    run_ns;
    init_ns;
    finish_ns;
    engine_ns;
    round_self_ms;
    engine_minor = !engine_minor;
    engine_major = !engine_major;
    mobility_ns;
    flush_ns;
    churn_ns;
    tick_ns;
    tick_self_ms;
    (* What no named part covers: the motion hook's own glue and the
       recorder's clock reads between spans. *)
    remainder_ns =
      run_ns - init_ns - finish_ns - engine_ns - mobility_ns - flush_ns
      - churn_ns - tick_ns - t.read_ns;
  }
