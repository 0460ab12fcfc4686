(* The benchmark's own tests, on smoke-sized variants of the four
   workloads: the printed metrics match BENCHMARK.json by name and unit,
   tracing changes no output, the trace accounts for the timed call,
   cold is domain-count independent, and the output checks reject
   wrong outputs. *)

open Perfbench

let index_from s i sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go i

let contains s sub = index_from s 0 sub <> None

let benchmark_json =
  lazy (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all)

(* Name, unit and better-direction of each metric listed under one key
   of BENCHMARK.json, in order. *)
let listed key =
  let s = Lazy.force benchmark_json in
  let find_from = index_from s in
  let start = Option.get (find_from 0 (Printf.sprintf "%S" key)) in
  let stop = Option.get (find_from start "]") in
  let field key from =
    let k = Option.get (find_from from (Printf.sprintf "%S: \"" key)) in
    let v = k + String.length key + 5 in
    let ve = String.index_from s v '"' in
    (String.sub s v (ve - v), ve)
  in
  let rec names i acc =
    match find_from i "\"name\": \"" with
    | Some j when j < stop ->
        let name, e = field "name" j in
        let unit_, e = field "unit" e in
        let better, e = field "better" e in
        names e ((name, unit_, better) :: acc)
    | _ -> List.rev acc
  in
  names start []

let triples ms =
  List.map
    (fun (m : Metrics.t) ->
      ( m.Metrics.name,
        m.Metrics.unit_,
        match m.Metrics.better with Metrics.Lower -> "lower" | Metrics.Higher -> "higher" ))
    ms

let test_listed () =
  Alcotest.(check (list (triple string string string)))
    "end_to_end" (triples Metrics.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (triple string string string)))
    "per_layer" (triples Metrics.per_layer) (listed "per_layer")

(* The real program, parent and children, at smoke scale: the last
   line carries every metric of the mode, each with its unit. *)
let run_main w trace =
  let args =
    [| "./main.exe"; "--workload"; Workloads.to_string w; "--seed"; "3";
       "--seconds"; "1"; "--trace"; string_of_int trace; "--scale"; "smoke" |]
  in
  let ic = Unix.open_process_args_in "./main.exe" args in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  (status, List.nth lines (List.length lines - 1))

let test_printed w () =
  List.iter
    (fun (trace, metrics) ->
      let status, last = run_main w trace in
      Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
      Alcotest.(check bool) "correct" true (contains last "\"correct\": true");
      List.iter
        (fun (m : Metrics.t) ->
          let printed =
            Printf.sprintf "%S: {\"value\": " m.Metrics.name
          and unit_ = Printf.sprintf "\"unit\": %S}" m.Metrics.unit_ in
          match
            Option.map
              (fun i -> String.sub last i (String.length last - i))
              (index_from last 0 printed)
          with
          | None -> Alcotest.failf "%s not printed" m.Metrics.name
          | Some rest ->
              let close = String.index rest '}' in
              Alcotest.(check bool) (m.Metrics.name ^ " unit") true
                (contains (String.sub rest 0 (close + 1)) unit_))
        metrics)
    [ (0, Metrics.end_to_end); (1, Metrics.per_layer) ]

let identity (r : Rep.result) =
  let o = r.Rep.o in
  ( (o.Workloads.rounds, o.Workloads.changed, o.Workloads.events),
    (Printf.sprintf "%016Lx" o.Workloads.digest,
     Option.map Rep.traffic_list o.Workloads.traffic) )

let test_traced_identical w () =
  let plain = Rep.run ~scale:Workloads.Smoke ~traced:false w ~seed:5 ~input:1 in
  let traced = Rep.run ~scale:Workloads.Smoke ~traced:true w ~seed:5 ~input:1 in
  Alcotest.(check (option string)) "plain passes" None plain.Rep.failure;
  Alcotest.(check (option string)) "traced passes" None traced.Rep.failure;
  Alcotest.(check bool) "same counters and digest" true
    (identity plain = identity traced)

(* init + finish + engine self + every hook's self time + remainder is
   the run span, and the remainder is a sliver of it. *)
let test_accounting w () =
  let r = Rep.run ~scale:Workloads.Smoke ~traced:true w ~seed:5 ~input:0 in
  let t = Option.get r.Rep.trace in
  let s = Trace.summarize t in
  let parts =
    s.Trace.init_ns + s.Trace.finish_ns + s.Trace.engine_ns
    + s.Trace.mobility_ns + s.Trace.flush_ns + s.Trace.churn_ns
    + s.Trace.tick_ns + t.Trace.read_ns + s.Trace.remainder_ns
  in
  Alcotest.(check int) "parts sum to the run" s.Trace.run_ns parts;
  Alcotest.(check int) "one round span per round" r.Rep.o.Workloads.rounds
    (Array.length s.Trace.round_self_ms);
  Alcotest.(check bool) "remainder under 5%" true
    (Float.abs (float_of_int s.Trace.remainder_ns)
    < 0.05 *. float_of_int s.Trace.run_ns)

let test_cold_domains () =
  let digest domains =
    let p =
      Workloads.cold ~domains Workloads.Smoke (Workloads.stream ~seed:11 ~input:0)
    in
    let o = p.Workloads.go None in
    (o.Workloads.rounds, o.Workloads.changed, Printf.sprintf "%016Lx" o.Workloads.digest)
  in
  Alcotest.(check (triple int int string)) "1 = 2 domains" (digest 1) (digest 2)

(* The checks themselves: a wrong digest at the default seed and a
   traffic run that loses a message are both failures. *)
let test_checks () =
  let r =
    Rep.run ~scale:Workloads.Smoke ~traced:false Workloads.Traffic ~seed:2 ~input:0
  in
  let o = r.Rep.o in
  Alcotest.(check (option string)) "smoke run passes" None
    (Rep.check Workloads.Smoke Workloads.Traffic ~seed:2 ~input:0 o);
  let t = Option.get o.Workloads.traffic in
  let lost = { o with Workloads.traffic = Some { t with Ss_traffic.Workload.delivered = t.Ss_traffic.Workload.delivered - 1 } } in
  Alcotest.(check bool) "lost message caught" true
    (Rep.check Workloads.Smoke Workloads.Traffic ~seed:2 ~input:0 lost <> None);
  let wrong = { o with Workloads.digest = Int64.succ o.Workloads.digest } in
  Alcotest.(check bool) "wrong digest caught at the default seed" true
    (Rep.check Workloads.Full Workloads.Traffic ~seed:Workloads.default_seed
       ~input:0 wrong
    <> None)

let per_workload name f =
  List.map
    (fun w -> Alcotest.test_case (Workloads.to_string w) `Quick (f w))
    Workloads.all
  |> fun cases -> (name, cases)

let () =
  Alcotest.run "perfbench"
    [
      ("benchmark.json", [ Alcotest.test_case "names and units" `Quick test_listed ]);
      per_workload "printed" test_printed;
      per_workload "traced = untraced" test_traced_identical;
      per_workload "trace accounts for run" test_accounting;
      ("cold", [ Alcotest.test_case "1 = 2 domains" `Quick test_cold_domains ]);
      ("checks", [ Alcotest.test_case "wrong outputs fail" `Quick test_checks ]);
    ]
