(* The trace-validation battery for Ds_obs: sink semantics, span-tree
   invariants (including under fault injection and a mid-run crash), export
   round trips, the traces relation, metrics, and the no-observer-effect
   guarantee. *)

open Ds_obs
open Ds_core
open Ds_workload

(* Ds_workload has its own (request-stream) Trace; we mean the sink. *)
module Trace = Ds_obs.Trace

let ev ?(at = 0.) ?(seq = 0) ?(op = 'r') ?(obj = 0) ?(arg = -1)
    ?(tier = "standard") kind ta =
  { Trace.at; ta; seq; kind; op; obj; arg; tier }

(* --- sink semantics ----------------------------------------------------- *)

let test_sink_basics () =
  let tr = Trace.create () in
  Alcotest.(check bool) "enabled" true (Trace.enabled tr);
  Alcotest.(check bool) "is_on Some" true (Trace.is_on (Some tr));
  Alcotest.(check bool) "is_on None" false (Trace.is_on None);
  Trace.emit (Some tr) Trace.Enqueued ~ta:1 ~seq:0 ~op:'r' ~obj:7 ~tier:"free"
    ();
  Alcotest.(check int) "one event" 1 (Trace.count tr);
  (match Trace.events tr with
  | [ e ] ->
    Alcotest.(check int) "ta" 1 e.Trace.ta;
    Alcotest.(check int) "obj" 7 e.Trace.obj;
    Alcotest.(check int) "arg default" (-1) e.Trace.arg;
    Alcotest.(check string) "tier" "free" e.Trace.tier
  | _ -> Alcotest.fail "expected one event");
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.count tr)

let test_disabled_sink_records_nothing () =
  let tr = Trace.create ~enabled:false () in
  Alcotest.(check bool) "is_on disabled" false (Trace.is_on (Some tr));
  Trace.emit (Some tr) Trace.Commit ~ta:1 ~seq:(-1) ();
  Trace.emit_txn (Some tr) Trace.Abort ~ta:2;
  Alcotest.(check int) "nothing recorded" 0 (Trace.count tr);
  Trace.set_enabled tr true;
  Trace.emit_txn (Some tr) Trace.Commit ~ta:3;
  Alcotest.(check int) "re-enabled records" 1 (Trace.count tr);
  (* None sink: emission is a no-op, not an error. *)
  Trace.emit None Trace.Commit ~ta:1 ~seq:0 ()

let test_kind_string_roundtrip () =
  let kinds =
    [
      Trace.Enqueued; Trace.Drained; Trace.Sched_admit; Trace.Sched_defer;
      Trace.Dispatched; Trace.Lock_wait; Trace.Lock_grant; Trace.Exec_start;
      Trace.Exec_done; Trace.Commit; Trace.Abort; Trace.Retry;
      Trace.Dead_letter;
    ]
  in
  List.iter
    (fun k ->
      match Trace.kind_of_string (Trace.kind_to_string k) with
      | Some k' when k = k' -> ()
      | _ -> Alcotest.failf "kind %s did not round trip" (Trace.kind_to_string k))
    kinds;
  Alcotest.(check bool) "unknown kind" true
    (Trace.kind_of_string "bogus" = None);
  Alcotest.(check bool) "terminals" true
    (List.for_all Trace.is_terminal [ Trace.Commit; Trace.Abort; Trace.Dead_letter ]
    && not (Trace.is_terminal Trace.Retry))

(* --- span trees and validation ------------------------------------------ *)

let test_span_build () =
  let events =
    [
      ev ~at:0.0 Trace.Enqueued 1;
      ev ~at:0.1 Trace.Sched_admit 1;
      ev ~at:0.2 Trace.Exec_start 1;
      ev ~at:0.3 Trace.Exec_done 1;
      ev ~at:0.1 ~seq:0 Trace.Enqueued 2;
      ev ~at:0.4 ~seq:(-1) ~op:'c' Trace.Commit 1;
    ]
  in
  match Span.build events with
  | [ t1; t2 ] ->
    Alcotest.(check int) "ordered by ta" 1 t1.Span.ta;
    Alcotest.(check int) "second tree" 2 t2.Span.ta;
    Alcotest.(check bool) "terminal" true (t1.Span.terminal = Some Trace.Commit);
    Alcotest.(check bool) "no terminal yet" true (t2.Span.terminal = None);
    Alcotest.(check (float 1e-9)) "latency" 0.4
      (Option.get (Span.latency t1));
    Alcotest.(check bool) "open tree has no latency" true
      (Span.latency t2 = None);
    Alcotest.(check int) "one request span" 1 (List.length t1.Span.spans);
    Alcotest.(check bool) "render mentions commit" true
      (String.length (Span.render t1) > 0)
  | trees -> Alcotest.failf "expected 2 trees, got %d" (List.length trees)

let test_validate_rejects_time_travel () =
  let events =
    [ ev ~at:1.0 Trace.Enqueued 1; ev ~at:0.5 Trace.Sched_admit 1 ]
  in
  match Span.validate events with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "backwards timestamps must be rejected"

let test_validate_rejects_double_terminal () =
  let events =
    [
      ev ~at:0.0 Trace.Enqueued 1;
      ev ~at:0.1 ~seq:(-1) ~op:'c' Trace.Commit 1;
      ev ~at:0.2 ~seq:(-1) ~op:'a' Trace.Abort 1;
    ]
  in
  match Span.validate events with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "two terminals must be rejected"

let test_validate_rejects_unadmitted_exec () =
  let events = [ ev ~at:0.0 Trace.Enqueued 1; ev ~at:0.1 Trace.Exec_start 1 ] in
  match Span.validate events with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "exec without admission must be rejected"

let test_validate_accepts_ties () =
  (* The discrete-event clock legitimately produces equal timestamps. *)
  let events =
    [
      ev ~at:0.5 Trace.Enqueued 1;
      ev ~at:0.5 Trace.Sched_admit 1;
      ev ~at:0.5 Trace.Exec_start 1;
      ev ~at:0.5 ~seq:(-1) ~op:'c' Trace.Commit 1;
    ]
  in
  match Span.validate events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ties must be legal: %s" e

(* --- JSON ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("n", Json.Num 3.25);
        ("i", Json.Num 42.);
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("o", Json.Obj [ ("empty", Json.List []) ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true
    (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "unicode escape" true
    (Json.of_string {|"A"|} = Json.Str "A");
  Alcotest.(check bool) "nested access" true
    (Option.bind (Json.mem "n" v) Json.num = Some 3.25)

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "should not parse: %s" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

let json_number_roundtrip =
  QCheck2.Test.make ~name:"Json number printing is lossless" ~count:500
    QCheck2.Gen.(float_range (-1e9) 1e9)
    (fun f ->
      match Json.of_string (Json.to_string (Json.Num f)) with
      | Json.Num g -> Float.equal f g
      | _ -> false)

(* --- a seeded middleware run to trace ------------------------------------ *)

let chaos_plan =
  {
    Faults.none with
    Faults.batch_fail_rate = 0.1;
    stall_rate = 0.05;
    stall_duration = 0.05;
    poison_rate = 0.02;
    disconnect_rate = 0.02;
  }

let mw_config ?(faults = Faults.none) ?(seed = 42) ?trace ?metrics () =
  {
    Middleware.default_config with
    Middleware.n_clients = 8;
    duration = 2.0;
    spec = { Spec.small with Spec.n_objects = 64 };
    seed;
    faults;
    (* Wall-clock cycle charging is non-deterministic; everything here
       compares seeded runs. *)
    charge_scheduler_time = false;
    trace;
    metrics;
  }

let traced_run ?faults ?seed () =
  let tr = Trace.create () in
  let stats, _ = Middleware.run_sharded (mw_config ?faults ?seed ~trace:tr ()) in
  (stats, Trace.events tr)

let test_middleware_trace_valid () =
  let stats, events = traced_run () in
  Alcotest.(check bool) "committed something" true
    (stats.Middleware.committed_txns > 0);
  Alcotest.(check bool) "events recorded" true (events <> []);
  (match Span.validate events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid trace: %s" e);
  (* Terminals in the trace match the stats counters: one tree per ta that
     reached a terminal, committed trees = committed transactions. *)
  let trees = Span.build events in
  let commits =
    List.length
      (List.filter (fun t -> t.Span.terminal = Some Trace.Commit) trees)
  in
  Alcotest.(check int) "trace commits = stats commits"
    stats.Middleware.committed_txns commits

let test_faulty_trace_valid () =
  let stats, events = traced_run ~faults:chaos_plan ~seed:7 () in
  (match Span.validate events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid chaos trace: %s" e);
  Alcotest.(check bool) "chaos actually injected" true
    (stats.Middleware.injected_failures > 0 || stats.Middleware.retries > 0);
  (* Retries appear between dispatch and the terminal, never after one. *)
  let trees = Span.build events in
  List.iter
    (fun t ->
      match t.Span.terminal with
      | None -> ()
      | Some _ ->
        let saw_terminal = ref false in
        List.iter
          (fun (e : Trace.event) ->
            if Trace.is_terminal e.Trace.kind then saw_terminal := true
            else if !saw_terminal then
              Alcotest.failf "ta %d: %s after terminal" t.Span.ta
                (Trace.kind_to_string e.Trace.kind))
          (List.concat_map (fun (s : Span.span) -> s.Span.events) t.Span.spans
          @ t.Span.txn_events))
    trees

let test_crash_trace_valid () =
  (* A mid-run crash plus journal recovery must still yield a well-formed
     trace; the recovered scheduler keeps emitting into the same sink. *)
  let _, events =
    traced_run
      ~faults:{ chaos_plan with Faults.crash_at_cycle = Some 20 }
      ~seed:11 ()
  in
  match Span.validate events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid post-crash trace: %s" e

let trace_invariants_prop =
  QCheck2.Test.make
    ~name:"middleware traces well-formed across seeds and fault rates"
    ~count:12
    QCheck2.Gen.(
      pair (int_range 1 1000)
        (pair (float_bound_inclusive 0.15) (float_bound_inclusive 0.05)))
    (fun (seed, (batch_fail_rate, poison_rate)) ->
      let faults =
        { Faults.none with Faults.batch_fail_rate; poison_rate }
      in
      let _, events = traced_run ~faults ~seed () in
      match Span.validate events with Ok () -> true | Error _ -> false)

(* --- no observer effect -------------------------------------------------- *)

(* mean_cycle_time / p95_cycle_time / scheduler_time are wall-clock
   measurements; everything else must be bit-identical. *)
let deterministic (s : Middleware.stats) =
  {
    s with
    Middleware.mean_cycle_time = 0.;
    p95_cycle_time = 0.;
    scheduler_time = 0.;
    recovery_time = 0.;
  }

let test_no_observer_effect () =
  let plain, _ = Middleware.run_sharded (mw_config ~faults:chaos_plan ()) in
  let traced, events = traced_run ~faults:chaos_plan () in
  Alcotest.(check bool) "tracing changes nothing" true
    (deterministic plain = deterministic traced);
  Alcotest.(check bool) "but did record" true (events <> [])

let test_disabled_sink_full_run () =
  (* The overhead regression: a disabled sink through a whole run records
     zero events and leaves the stats untouched. *)
  let plain, _ = Middleware.run_sharded (mw_config ()) in
  let tr = Trace.create ~enabled:false () in
  let gated, _ = Middleware.run_sharded (mw_config ~trace:tr ()) in
  Alcotest.(check int) "no events" 0 (Trace.count tr);
  Alcotest.(check bool) "identical stats" true
    (deterministic plain = deterministic gated)

(* --- export / load ------------------------------------------------------- *)

let test_export_roundtrips () =
  let _, events = traced_run ~faults:chaos_plan () in
  Alcotest.(check bool) "jsonl roundtrip" true
    (Export.load_string (Export.to_jsonl events) = events);
  Alcotest.(check bool) "chrome roundtrip" true
    (Export.load_string (Export.to_chrome events) = events)

let test_export_files () =
  let _, events = traced_run () in
  let check_file path =
    Export.save path events;
    let loaded = Export.load path in
    Sys.remove path;
    Alcotest.(check bool) (path ^ " roundtrip") true (loaded = events)
  in
  check_file (Filename.temp_file "dsched_trace" ".json");
  check_file (Filename.temp_file "dsched_trace" ".jsonl")

(* --- the traces relation ------------------------------------------------- *)

let test_traces_relation () =
  let _, events = traced_run () in
  let table = Export.to_table events in
  let catalog = Ds_sql.Catalog.create () in
  Ds_sql.Catalog.register catalog table;
  let query stmt =
    match Ds_sql.Exec.exec_script catalog stmt with
    | Ds_sql.Exec.Rows (_, rows) -> rows
    | _ -> Alcotest.failf "expected rows from %s" stmt
  in
  (match query "SELECT COUNT(*) FROM traces" with
  | [ [| Ds_relal.Value.Int n |] ] ->
    Alcotest.(check int) "row per event" (List.length events) n
  | _ -> Alcotest.fail "count query shape");
  (* Terminal accounting via SQL agrees with the span trees. *)
  let sql_commits =
    match query "SELECT COUNT(*) FROM traces WHERE kind = 'commit'" with
    | [ [| Ds_relal.Value.Int n |] ] -> n
    | _ -> Alcotest.fail "commit count shape"
  in
  let tree_commits =
    List.length
      (List.filter
         (fun t -> t.Span.terminal = Some Trace.Commit)
         (Span.build events))
  in
  Alcotest.(check int) "sql commits = tree commits" tree_commits sql_commits

(* --- metrics ------------------------------------------------------------- *)

let test_metrics_online () =
  let m = Metrics.create () in
  let stats, _ = Middleware.run_sharded (mw_config ~metrics:m ()) in
  let cycle_rows = Metrics.cycles m in
  Alcotest.(check int) "row per cycle" stats.Middleware.cycles
    (List.length cycle_rows);
  List.iter
    (fun (r : Metrics.cycle_row) ->
      if r.Metrics.admit_ratio < 0. || r.Metrics.admit_ratio > 1. then
        Alcotest.failf "cycle %d: admit ratio %f out of range" r.Metrics.cycle
          r.Metrics.admit_ratio)
    cycle_rows;
  (match Metrics.tier_quantiles m with
  | [] -> Alcotest.fail "no tier rows despite commits"
  | rows ->
    List.iter
      (fun (_, n, p50, p95, p99) ->
        Alcotest.(check bool) "n > 0" true (n > 0);
        Alcotest.(check bool) "quantiles ordered" true
          (p50 <= p95 +. 1e-9 && p95 <= p99 +. 1e-9))
      rows);
  Alcotest.(check bool) "render" true (String.length (Metrics.render m) > 0)

(* The stats come from the run's rows of its counter store, wherever that
   store lives: a private one ([metrics = None]), the caller's, or the
   caller's already holding an earlier run's rows. *)
let test_stats_from_any_store () =
  List.iter
    (fun (label, cfg) ->
      let private_, _ = Middleware.run_sharded cfg in
      Alcotest.(check bool) (label ^ ": commits") true
        (private_.Middleware.committed_txns > 0);
      let m = Metrics.create () in
      let first, _ =
        Middleware.run_sharded { cfg with Middleware.metrics = Some m }
      in
      let again, _ =
        Middleware.run_sharded { cfg with Middleware.metrics = Some m }
      in
      Alcotest.(check bool)
        (label ^ ": caller's store, same stats")
        true
        (deterministic private_ = deterministic first);
      Alcotest.(check bool)
        (label ^ ": shared store, same stats")
        true
        (deterministic private_ = deterministic again);
      Alcotest.(check int)
        (label ^ ": both runs' cycles in the store")
        (2 * private_.Middleware.cycles)
        (List.length (Metrics.cycles m)))
    [
      ("S=1", mw_config ());
      ( "S=2 faulted",
        {
          (mw_config
             ~faults:{ chaos_plan with Faults.crash_at_cycle = Some 30 }
             ())
          with
          Middleware.shards = 2;
        } );
    ]

let test_metrics_offline_agrees () =
  (* Online tier histograms and the offline trace-derived view measure the
     same latencies: same tiers, same sample counts. *)
  let m = Metrics.create () in
  let tr = Trace.create () in
  let _ = Middleware.run_sharded (mw_config ~trace:tr ~metrics:m ()) in
  let online = Metrics.tier_quantiles m in
  let offline = Metrics.latency_rows (Trace.events tr) in
  let shape rows = List.map (fun (tier, n, _, _, _) -> (tier, n)) rows in
  (* Offline counts every terminated transaction; online only commits inside
     the measurement window, so offline dominates per tier. *)
  List.iter
    (fun (tier, n_online) ->
      match List.assoc_opt tier (shape offline) with
      | Some n_offline when n_offline >= n_online -> ()
      | Some n_offline ->
        Alcotest.failf "tier %s: offline %d < online %d" tier n_offline n_online
      | None -> Alcotest.failf "tier %s missing offline" tier)
    (shape online)

let test_lock_wait_offenders () =
  let events =
    [
      ev ~at:0.0 ~obj:5 ~arg:2 Trace.Lock_wait 1;
      ev ~at:0.3 ~obj:5 Trace.Lock_grant 1;
      ev ~at:0.1 ~obj:9 ~arg:1 Trace.Lock_wait 2;
      ev ~at:0.2 ~obj:9 Trace.Lock_grant 2;
      (* an unmatched wait contributes nothing *)
      ev ~at:0.5 ~obj:9 ~arg:1 Trace.Lock_wait 3;
    ]
  in
  match Metrics.lock_wait_offenders events with
  | [ (5, w5, 1); (9, w9, 1) ] ->
    Alcotest.(check bool) "sorted by total wait" true
      (Float.abs (w5 -. 0.3) < 1e-9 && Float.abs (w9 -. 0.1) < 1e-9)
  | rows -> Alcotest.failf "unexpected offender rows (%d)" (List.length rows)

(* --- the native lock-based server ---------------------------------------- *)

let test_native_trace_valid () =
  let tr = Trace.create () in
  let stats =
    Ds_server.Native_sim.run
      {
        Ds_server.Native_sim.default_config with
        Ds_server.Native_sim.n_clients = 10;
        duration = 0.5;
        seed = 5;
        spec = { Spec.small with Spec.n_objects = 24 };
        trace = Some tr;
      }
  in
  Alcotest.(check bool) "committed" true
    (stats.Ds_server.Native_sim.committed_txns > 0);
  let events = Trace.events tr in
  Alcotest.(check bool) "events" true (events <> []);
  (match Span.validate events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid native trace: %s" e);
  (* Contended native runs block on locks; waits must pair with grants or a
     terminal (an aborted waiter never gets the grant). *)
  Alcotest.(check bool) "saw lock traffic" true
    (List.exists (fun (e : Trace.event) -> e.Trace.kind = Trace.Lock_wait) events)

let tests =
  [
    Alcotest.test_case "sink basics" `Quick test_sink_basics;
    Alcotest.test_case "disabled sink records nothing" `Quick
      test_disabled_sink_records_nothing;
    Alcotest.test_case "kind string roundtrip" `Quick test_kind_string_roundtrip;
    Alcotest.test_case "span build" `Quick test_span_build;
    Alcotest.test_case "validate: time travel" `Quick
      test_validate_rejects_time_travel;
    Alcotest.test_case "validate: double terminal" `Quick
      test_validate_rejects_double_terminal;
    Alcotest.test_case "validate: unadmitted exec" `Quick
      test_validate_rejects_unadmitted_exec;
    Alcotest.test_case "validate: equal timestamps" `Quick
      test_validate_accepts_ties;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    QCheck_alcotest.to_alcotest json_number_roundtrip;
    Alcotest.test_case "middleware trace valid" `Quick
      test_middleware_trace_valid;
    Alcotest.test_case "trace valid under faults" `Quick test_faulty_trace_valid;
    Alcotest.test_case "trace valid across crash" `Quick test_crash_trace_valid;
    QCheck_alcotest.to_alcotest trace_invariants_prop;
    Alcotest.test_case "no observer effect" `Quick test_no_observer_effect;
    Alcotest.test_case "disabled sink full run" `Quick
      test_disabled_sink_full_run;
    Alcotest.test_case "export roundtrips" `Quick test_export_roundtrips;
    Alcotest.test_case "export files" `Quick test_export_files;
    Alcotest.test_case "traces relation" `Quick test_traces_relation;
    Alcotest.test_case "metrics online" `Quick test_metrics_online;
    Alcotest.test_case "stats from any counter store" `Quick
      test_stats_from_any_store;
    Alcotest.test_case "metrics offline agrees" `Quick
      test_metrics_offline_agrees;
    Alcotest.test_case "lock wait offenders" `Quick test_lock_wait_offenders;
    Alcotest.test_case "native trace valid" `Quick test_native_trace_valid;
  ]
