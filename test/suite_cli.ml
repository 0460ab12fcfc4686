(* The repro CLI's argument contract: out-of-range numeric values (run,
   domain and round counts below one, non-positive intensities, delivery
   probabilities outside [0, 1], negative time steps) are usage errors —
   cmdliner's exit 124 with a message naming the option — never an
   uncaught exception from inside a sweep (exit 125). The
   binary is a declared dependency of the test stanza; dune runs the
   suite from the build tree's test directory, where it sits at
   [../bin/repro.exe]. *)

let repro = Filename.concat (Filename.concat ".." "bin") "repro.exe"

(* Runs the CLI with [args] and an optional REPRO_JOBS value; returns the
   exit code and what it printed on stderr. *)
let run_cli ?jobs_env args =
  let err = Filename.temp_file "repro_cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let env =
    match jobs_env with
    | None -> "env -u REPRO_JOBS"
    | Some v -> "env REPRO_JOBS=" ^ Filename.quote v
  in
  let cmd =
    Printf.sprintf "%s %s %s >/dev/null 2>%s" env (Filename.quote repro)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote err)
  in
  let code = Sys.command cmd in
  let ic = open_in err in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  (code, text)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_usage_error ?jobs_env ?(expected = "positive integer") ~mentions
    args () =
  let code, err = run_cli ?jobs_env args in
  Alcotest.(check int)
    (Printf.sprintf "exit 124 for %s" (String.concat " " args))
    124 code;
  Alcotest.(check bool)
    (Printf.sprintf "message names %s: %s" mentions err)
    true
    (contains ~sub:mentions err && contains ~sub:expected err)

let suite =
  [
    Alcotest.test_case "--runs 0 is a usage error" `Quick
      (check_usage_error ~mentions:"--runs" [ "table2"; "--runs"; "0" ]);
    Alcotest.test_case "--runs -2 is a usage error" `Quick
      (check_usage_error ~mentions:"--runs" [ "churn"; "--runs=-2" ]);
    Alcotest.test_case "--jobs 0 is a usage error" `Quick
      (check_usage_error ~mentions:"--jobs" [ "table2"; "--jobs"; "0" ]);
    Alcotest.test_case "REPRO_JOBS=-1 is a usage error" `Quick
      (check_usage_error ~jobs_env:"-1" ~mentions:"REPRO_JOBS" [ "table2" ]);
    Alcotest.test_case "--intensity -5 is a usage error" `Quick
      (check_usage_error ~expected:"positive number" ~mentions:"--intensity"
         [ "churn"; "--intensity=-5" ]);
    Alcotest.test_case "--tau 1.5 is a usage error" `Quick
      (check_usage_error ~expected:"probability in [0, 1]" ~mentions:"--tau"
         [ "motion"; "--tau"; "1.5" ]);
    Alcotest.test_case "--dt -1 is a usage error" `Quick
      (check_usage_error ~expected:"non-negative number" ~mentions:"--dt"
         [ "motion"; "--dt=-1" ]);
    Alcotest.test_case "--rounds 0 is a usage error" `Quick
      (check_usage_error ~mentions:"--rounds" [ "motion"; "--rounds"; "0" ]);
  ]
