(* The bench harness's CLI contract: [list] names exactly what the dispatch
   accepts, unknown names exit 2, and every experiment writes a stamped
   JSON artifact under --json. These run the real bench binary — the tests
   execute from _build/default/test, next to bench/. *)

module Json = Ds_obs.Json

let bench_exe = Filename.concat ".." (Filename.concat "bench" "main.exe")

let bench args =
  let out = Filename.temp_file "bench_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>&1" bench_exe args (Filename.quote out))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let expected_names =
  [
    "all"; "table1"; "table2"; "figure2"; "native-overhead";
    "declarative-overhead"; "crossover"; "listing1-micro"; "succinctness";
    "datalog-vs-sql"; "optimizer"; "index"; "triggers"; "relaxed";
    "batch-sweep"; "open-loop"; "mpl"; "deadlock-policy"; "pruning"; "faults";
    "obs"; "parallel"; "shards"; "recovery"; "failover"; "swarm";
  ]

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1))
  in
  nn = 0 || at 0

let test_list () =
  let code, text = bench "list" in
  Alcotest.(check int) "list exits 0" 0 code;
  let listed = String.split_on_char ' ' (String.trim text) in
  Alcotest.(check (list string)) "list names" expected_names listed;
  (* the CLI doc is generated from the same list *)
  let _, help = bench "--help=plain" in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "--help mentions %s" name)
        true (contains ~needle:name help))
    listed

let test_unknown_exits_2 () =
  let code, text = bench "no-such-experiment" in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) "message names the experiment" true
    (contains ~needle:"no-such-experiment" text)

let member path j =
  List.fold_left (fun j k -> Option.bind j (Json.mem k)) (Some j) path

let test_json name () =
  let path = Filename.temp_file ("bench_" ^ name) ".json" in
  let code, out =
    bench (Printf.sprintf "%s --json %s" name (Filename.quote path))
  in
  Alcotest.(check int) (name ^ " exits 0: " ^ out) 0 code;
  let j =
    Json.of_string (In_channel.with_open_text path In_channel.input_all)
  in
  Sys.remove path;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "stamp.%s present" k)
        true
        (member [ "stamp"; k ] j <> None))
    [ "commit"; "seed"; "config" ];
  Alcotest.(check (option string))
    "experiment" (Some name)
    (Option.bind (member [ "experiment" ] j) Json.str);
  match member [ "points" ] j with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "points missing or empty"

let tests =
  [
    Alcotest.test_case "list prints the dispatchable names" `Quick test_list;
    Alcotest.test_case "unknown experiment exits 2" `Quick test_unknown_exits_2;
  ]
  @ List.map
      (fun name ->
        Alcotest.test_case (name ^ " --json writes stamped points") `Quick
          (test_json name))
      [ "table1"; "table2"; "succinctness" ]
