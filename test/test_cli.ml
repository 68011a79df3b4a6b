(* CLI argument validation: the strict positive-int converter behind
   --checkpoint, --shards, --clients and --queue-cap, the config checks of
   Middleware.validate, and the replication flag preconditions. These run
   the real dsched binary — the tests execute from _build/default/test,
   next to bin/. *)

let dsched_exe = Filename.concat ".." (Filename.concat "bin" "dsched.exe")

let dsched args =
  let out = Filename.temp_file "dsched_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>&1" dsched_exe args (Filename.quote out))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let check_rejected ?exit ~flag ~needle args =
  let code, text = dsched args in
  (match exit with
  | Some e -> Alcotest.(check int) (flag ^ " exit code") e code
  | None ->
    Alcotest.(check bool)
      (Printf.sprintf "%s rejected (exit %d)" flag code)
      true (code <> 0));
  Alcotest.(check bool)
    (Printf.sprintf "%s error mentions %S (got: %s)" flag needle text)
    true (contains ~needle text);
  Alcotest.(check bool)
    (Printf.sprintf "%s is not an uncaught exception (got: %s)" flag text)
    false
    (contains ~needle:"internal error" text)

let test_checkpoint_rejects_nonpositive () =
  check_rejected ~flag:"--checkpoint 0" ~needle:"--checkpoint must be positive"
    "run --duration 0.1 --journal /tmp/x.journal --checkpoint 0";
  check_rejected ~flag:"--checkpoint -3" ~needle:"--checkpoint must be positive"
    "run --duration 0.1 --journal /tmp/x.journal --checkpoint=-3"

let test_checkpoint_rejects_nonnumeric () =
  check_rejected ~flag:"--checkpoint four"
    ~needle:"--checkpoint must be a positive integer"
    "run --duration 0.1 --journal /tmp/x.journal --checkpoint four"

let test_shards_rejects_nonpositive () =
  check_rejected ~flag:"--shards 0" ~needle:"--shards must be positive"
    "run --duration 0.1 --shards 0";
  check_rejected ~flag:"--shards -2" ~needle:"--shards must be positive"
    "run --duration 0.1 --shards=-2"

let test_shards_rejects_nonnumeric () =
  check_rejected ~flag:"--shards many"
    ~needle:"--shards must be a positive integer"
    "run --duration 0.1 --shards many"

let test_clients_queue_cap_reject_nonpositive () =
  check_rejected ~flag:"--clients -1" ~needle:"--clients must be positive"
    "run --duration 0.1 --clients=-1";
  check_rejected ~flag:"--queue-cap 0" ~needle:"--queue-cap must be positive"
    "run --duration 0.1 --queue-cap=0"

(* Values the parser accepts but the middleware cannot run with: a message
   and exit 2, not an uncaught Invalid_argument. *)
let test_config_rejected_with_message () =
  List.iter
    (fun (flag, needle) ->
      check_rejected ~exit:2 ~flag ~needle ("run --duration 0.1 " ^ flag))
    [
      ("--batch-timeout=-1", "batch_timeout must be positive");
      ("--max-retries=-1", "max_retries must be non-negative");
    ]

let test_repl_flag_preconditions () =
  (* The standby needs a primary journal to mirror, and a fault plan for the
     link needs a standby to run it against. *)
  check_rejected ~flag:"--standby without --journal" ~needle:"--journal"
    "run --duration 0.1 --standby /tmp/ds_cli_standby.d";
  check_rejected ~flag:"--repl-faults without --standby" ~needle:"--standby"
    "run --duration 0.1 --journal /tmp/x.journal --repl-faults drop=0.1"

(* A run its config rejects must leave the standby directory alone: no new
   directory, and an existing standby journal byte for byte as it was. *)
let test_rejected_run_keeps_standby () =
  let base = Filename.temp_file "dsched_cli_standby" "" in
  Sys.remove base;
  let journal = Filename.quote (base ^ ".journal") in
  let rejected dir =
    check_rejected ~exit:2 ~flag:"--faults crash=5 --standby"
      ~needle:"crash fault is incompatible with replication"
      (Printf.sprintf "run --duration 0.1 --faults crash=5 --journal %s --standby %s"
         journal (Filename.quote dir))
  in
  rejected base;
  Alcotest.(check bool) "no standby directory made" false (Sys.file_exists base);
  Sys.mkdir base 0o755;
  let standby = Filename.concat base "standby.journal" in
  Out_channel.with_open_bin standby (fun oc -> output_string oc "earlier standby");
  rejected base;
  Alcotest.(check string) "existing standby journal kept" "earlier standby"
    (In_channel.with_open_bin standby In_channel.input_all);
  Sys.remove standby;
  Sys.rmdir base

let tests =
  [
    Alcotest.test_case "--checkpoint rejects non-positive values" `Quick
      test_checkpoint_rejects_nonpositive;
    Alcotest.test_case "--checkpoint rejects non-numeric values" `Quick
      test_checkpoint_rejects_nonnumeric;
    Alcotest.test_case "--shards rejects non-positive values" `Quick
      test_shards_rejects_nonpositive;
    Alcotest.test_case "--shards rejects non-numeric values" `Quick
      test_shards_rejects_nonnumeric;
    Alcotest.test_case "replication flags validate their prerequisites" `Quick
      test_repl_flag_preconditions;
    Alcotest.test_case "--clients, --queue-cap reject non-positive" `Quick
      test_clients_queue_cap_reject_nonpositive;
    Alcotest.test_case "out-of-range config exits 2 with a message" `Quick
      test_config_rejected_with_message;
    Alcotest.test_case "a rejected run leaves the standby directory alone"
      `Quick test_rejected_run_keeps_standby;
  ]
