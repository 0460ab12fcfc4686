(* The benchmark's entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale smoke]

   repeats the workload in fresh child processes for about S seconds,
   cycling through the seed's inputs; past the first repetition (with
   --trace 1, the first untraced and traced pair) it starts one only
   when it fits in the S seconds. It prints, as its last line, one JSON
   object: whether every output check passed, how many repetitions were
   attempted and failed, and the medians of the metrics — the
   end-to-end ones with --trace 0, the per-layer ones with --trace 1.
   A fresh process per repetition keeps each measurement off the heap
   an earlier one left behind. Exits 1 when any check failed, 2 on bad
   arguments.

     main.exe --rep --workload NAME --seed N --input K --trace 0|1 [--spans FILE]

   is one repetition (the child) on input K of the seed: it prints one
   REP line of key=value fields and, traced, writes its spans as JSON
   lines to FILE. Repetitions cycle through the seed's inputs.

     main.exe --print-expected > perfbench/expected.ml

   runs every input of the default seed once, in this process, and
   prints the exact outputs as the source of expected.ml. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload cold|churn|traffic|lossy --seed N --seconds S \
     --trace 0|1 [--scale full|smoke]";
  exit 2

type args = {
  mutable rep : bool;
  mutable workload : Workloads.name option;
  mutable seed : int option;
  mutable seconds : int;
  mutable trace : bool;
  mutable scale : Workloads.scale;
  mutable spans : string option;
  mutable input : int;
}

let parse argv =
  let a =
    {
      rep = false;
      workload = None;
      seed = None;
      seconds = 10;
      trace = false;
      scale = Workloads.Full;
      spans = None;
      input = 0;
    }
  in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--rep" :: tl ->
        a.rep <- true;
        go tl
    | "--workload" :: w :: tl ->
        (match Workloads.of_string w with
        | Some n -> a.workload <- Some n
        | None -> usage ());
        go tl
    | "--seed" :: s :: tl ->
        a.seed <- Some (int_arg s);
        go tl
    | "--seconds" :: s :: tl ->
        a.seconds <- int_arg s;
        if a.seconds < 1 then usage ();
        go tl
    | "--trace" :: ("0" | "1" as t) :: tl ->
        a.trace <- t = "1";
        go tl
    | "--scale" :: "full" :: tl ->
        a.scale <- Workloads.Full;
        go tl
    | "--scale" :: "smoke" :: tl ->
        a.scale <- Workloads.Smoke;
        go tl
    | "--spans" :: f :: tl ->
        a.spans <- Some f;
        go tl
    | "--input" :: k :: tl ->
        a.input <- int_arg k;
        if a.input < 0 || a.input >= Workloads.inputs then usage ();
        go tl
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (a.workload, a.seed) with
  | Some w, Some s -> (a, w, s)
  | _ -> usage ()

(* ------------------------------------------------------------ child *)

let fields a (r : Rep.result) =
  let o = r.Rep.o in
  let f = Printf.sprintf "%.17g" in
  [
    ("ok", if r.Rep.failure = None then "1" else "0");
    ("input", string_of_int a.input);
    ("setup_s", f r.Rep.setup_s);
    ("run_s", f o.Workloads.run_s);
    ("cpu_s", f o.Workloads.cpu_s);
    ("alloc_words", f o.Workloads.alloc_words);
    ("peak_rss_mb", f r.Rep.peak_rss_mb);
    ("nodes", string_of_int o.Workloads.nodes);
    ("domains", string_of_int o.Workloads.domains);
    ("rounds", string_of_int o.Workloads.rounds);
    ("changed", string_of_int o.Workloads.changed);
    ("events", string_of_int o.Workloads.events);
    ("digest", Printf.sprintf "%016Lx" o.Workloads.digest);
    ( "traffic",
      match o.Workloads.traffic with
      | None -> "-"
      | Some t ->
          String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) (Rep.traffic_list t)) );
    ( "failure",
      match r.Rep.failure with
      | None -> "-"
      | Some s -> String.map (fun c -> if c = ' ' then '_' else c) s );
  ]
  @ List.map (fun (k, v) -> ("L." ^ k, f v)) r.Rep.layers

let child a name seed =
  let r = Rep.run ~scale:a.scale ~traced:a.trace name ~seed ~input:a.input in
  (match (r.Rep.trace, a.spans) with
  | Some t, Some file ->
      let oc = open_out file in
      Trace.write t oc;
      close_out oc
  | _ -> ());
  print_endline
    ("REP "
    ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (fields a r)))

(* ----------------------------------------------------------- parent *)

type rep_line = { kv : (string * string) list; traced : bool }

let spawn a name seed ~traced ~input ~index =
  let exe = Sys.executable_name in
  let spans =
    if traced && Sys.file_exists "perfbench" && Sys.is_directory "perfbench"
    then begin
      let dir = Filename.concat "perfbench" "_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      [
        "--spans";
        Filename.concat dir
          (Printf.sprintf "spans-%s-seed%d-rep%d.jsonl" (Workloads.to_string name)
             seed index);
      ]
    end
    else []
  in
  let args =
    [ exe; "--rep"; "--workload"; Workloads.to_string name; "--seed";
      string_of_int seed; "--input"; string_of_int input; "--trace";
      (if traced then "1" else "0"); "--scale";
      (match a.scale with Workloads.Full -> "full" | Workloads.Smoke -> "smoke") ]
    @ spans
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let rep = ref None in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 4 && String.sub line 0 4 = "REP " then
         rep :=
           Some
             (List.filter_map
                (fun kv ->
                  match String.index_opt kv '=' with
                  | None -> None
                  | Some i ->
                      Some
                        ( String.sub kv 0 i,
                          String.sub kv (i + 1) (String.length kv - i - 1) ))
                (String.split_on_char ' '
                   (String.sub line 4 (String.length line - 4))))
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !rep) with
  | Unix.WEXITED 0, Some kv -> Ok { kv; traced }
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "repetition exited with %d" c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      Error (Printf.sprintf "repetition killed by signal %d" s)

let median l = Trace.median (Array.of_list l)

let num r k = float_of_string (List.assoc k r.kv)

(* The fields every repetition of one input must agree on. *)
let identity r =
  List.map
    (fun k -> List.assoc_opt k r.kv)
    [ "input"; "nodes"; "rounds"; "changed"; "events"; "digest"; "traffic" ]

let parent a name seed =
  let t0 = Unix.gettimeofday () in
  let min_reps = if a.trace then 2 else 1 and max_reps = 1_000 in
  let reps = ref [] and failed = ref 0 and attempted = ref 0 in
  (* Past the minimum, start another repetition only while one as long
     as the last still fits in the budget, so a run ends within it. *)
  let last = ref 0.0 in
  while
    !attempted < max_reps
    && (!attempted < min_reps
       || float_of_int a.seconds -. (Unix.gettimeofday () -. t0) >= !last)
  do
    let rep_start = Unix.gettimeofday () in
    (* Traced runs pair an untraced and a traced repetition per input. *)
    let traced = a.trace && !attempted mod 2 = 1 in
    let input =
      (if a.trace then !attempted / 2 else !attempted) mod Workloads.inputs
    in
    (* The host's speed around the repetition, timed here so that the
       reference's buffer and time stay out of the child's figures. *)
    let ref_before = Calib.measure () in
    let outcome = spawn a name seed ~traced ~input ~index:!attempted in
    let ref_s = 0.5 *. (ref_before +. Calib.measure ()) in
    (match outcome with
    | Ok r ->
        let r = { r with kv = r.kv @ [ ("ref_s", Printf.sprintf "%.17g" ref_s) ] } in
        let same_input r0 = List.assoc_opt "input" r0.kv = List.assoc_opt "input" r.kv in
        let consistent =
          match List.find_opt same_input !reps with
          | None -> true
          | Some r0 -> identity r0 = identity r
        in
        if List.assoc_opt "ok" r.kv <> Some "1" then begin
          incr failed;
          Printf.eprintf "check failed: %s\n%!"
            (Option.value ~default:"?" (List.assoc_opt "failure" r.kv))
        end
        else if not consistent then begin
          incr failed;
          prerr_endline "check failed: repetitions disagree on their outputs"
        end;
        reps := r :: !reps
    | Error e ->
        incr failed;
        Printf.eprintf "check failed: %s\n%!" e);
    last := Unix.gettimeofday () -. rep_start;
    incr attempted
  done;
  let reps = List.rev !reps in
  let plain = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  let med rs k = median (List.map (fun r -> num r k) rs) in
  List.iter
    (fun r ->
      Printf.printf "# rep traced=%b %s\n" r.traced
        (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) r.kv)))
    reps;
  let domains = match reps with r :: _ -> List.assoc "domains" r.kv | [] -> "?" in
  Printf.printf
    "# host: nproc=%d ocaml=%s os=%s domains=%s workload=%s seed=%d \
     seconds=%d reps=%d wall_s=%.1f\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.os_type domains (Workloads.to_string name) seed
    a.seconds !attempted
    (Unix.gettimeofday () -. t0);
  (* Times at the reference's nominal host speed (see calib.ml). *)
  let scaled rs k =
    median (List.map (fun r -> Calib.scale ~ref_s:(num r "ref_s") (num r k)) rs)
  in
  if plain <> [] then
    Printf.printf
      "# unscaled medians: setup_s=%.4f run_s=%.4f cpu_s=%.4f ref_s=%.4f \
       (nominal %.4f)\n"
      (med plain "setup_s") (med plain "run_s") (med plain "cpu_s")
      (med plain "ref_s") Calib.nominal_s;
  let values =
    if plain = [] then []
    else if not a.trace then
      [
        ("setup_s", scaled plain "setup_s");
        ("run_s", scaled plain "run_s");
        ("cpu_s", scaled plain "cpu_s");
        ( "node_rounds_per_s",
          median
            (List.map
               (fun r ->
                 num r "nodes" *. num r "rounds"
                 /. Calib.scale ~ref_s:(num r "ref_s") (num r "run_s"))
               plain) );
        ("peak_rss_mb", med plain "peak_rss_mb");
        ("alloc_mwords", med plain "alloc_words" /. 1e6);
      ]
    else if traced = [] then []
    else
      List.map
        (fun (m : Metrics.t) ->
          ( m.Metrics.name,
            match m.Metrics.name with
            | "trace.overhead_ratio" ->
                (med traced "run_s" /. med plain "run_s") -. 1.0
            | "host.ref_ms" -> 1e3 *. med traced "ref_s"
            | name -> med traced ("L." ^ name) ))
        Metrics.per_layer
  in
  let correct = !failed = 0 && values <> [] in
  print_endline
    (Metrics.json_result ~correct ~attempted:!attempted ~failed:!failed values);
  if not correct then exit 1

(* ------------------------------------------------------ expectations *)

let print_expected () =
  let seed = Workloads.default_seed in
  print_string
    "(* Exact outputs of every full-scale workload on each input of the\n\
    \   default seed. The simulation is deterministic, so a change here is a\n\
    \   change of behaviour, not of speed: regenerate only for a deliberate\n\
    \   one, with [main.exe --print-expected > perfbench/expected.ml]. *)\n\n\
     type t = { digest : string; counts : (string * int) list }\n\n\
     let default_seed : (string * t list) list =\n  [\n";
  List.iter
    (fun name ->
      Printf.printf "    ( %S,\n      [\n" (Workloads.to_string name);
      for input = 0 to Workloads.inputs - 1 do
        let o =
          (Rep.run ~scale:Workloads.Full ~traced:false name ~seed ~input).Rep.o
        in
        Gc.compact ();
        let counts =
          [ ("rounds", o.Workloads.rounds); ("changed", o.Workloads.changed);
            ("events", o.Workloads.events) ]
          @ Option.fold ~none:[] ~some:Rep.traffic_list o.Workloads.traffic
        in
        Printf.printf "        { digest = \"%016Lx\";\n          counts = [ %s ] };\n"
          o.Workloads.digest
          (String.concat "; "
             (List.map (fun (k, v) -> Printf.sprintf "(%S, %d)" k v) counts))
      done;
      print_string "      ] );\n")
    Workloads.all;
  print_string "  ]\n"

let () =
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--print-expected" ] then begin
    print_expected ();
    exit 0
  end;
  let a, name, seed = parse Sys.argv in
  if a.rep then child a name seed else parent a name seed
