(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus the ablations listed in DESIGN.md.

     dune exec bench/main.exe                 -- all experiments, quick scale
     dune exec bench/main.exe -- figure2 --window 240 --runs 3
     dune exec bench/main.exe -- list

   Quick scale uses shorter measurement windows than the paper's 240 s; the
   reported ratios are window-relative, so the shapes are comparable. *)

open Ds_core
open Ds_server
open Ds_workload
module Tablefmt = Ds_util.Tablefmt

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Shared measurement machinery                                       *)
(* ------------------------------------------------------------------ *)

let native_run ~clients ~window ~seed ~log =
  Native_sim.run
    {
      Native_sim.default_config with
      Native_sim.n_clients = clients;
      duration = window;
      seed;
      log_schedule = log;
    }

(* Averaged MU statistics + SU replay time for one client count. *)
type mu_point = {
  clients : int;
  committed_stmts : float;
  su_time : float;
  ratio_pct : float;  (** MU window / SU replay of the committed schedule *)
  deadlocks : float;
  cpu_util : float;
}

let measure_mu ~window ~runs clients =
  let stmts = ref 0. and su = ref 0. and dl = ref 0. and cpu = ref 0. in
  for r = 1 to runs do
    let s = native_run ~clients ~window ~seed:(41 + r) ~log:true in
    stmts := !stmts +. float_of_int s.Native_sim.committed_stmts;
    su := !su +. Replay.single_user_time Cost_model.default s.Native_sim.schedule;
    dl := !dl +. float_of_int s.Native_sim.deadlocks;
    cpu := !cpu +. s.Native_sim.cpu_utilization
  done;
  let f = float_of_int runs in
  let su_time = !su /. f in
  {
    clients;
    committed_stmts = !stmts /. f;
    su_time;
    ratio_pct = 100. *. window /. su_time;
    deadlocks = !dl /. f;
    cpu_util = !cpu /. f;
  }

(* ------------------------------------------------------------------ *)
(* E1 — Figure 2                                                      *)
(* ------------------------------------------------------------------ *)

let figure2 ~window ~runs () =
  section
    (Printf.sprintf
       "Figure 2: execution time MU / execution time SU (%%), %.0f s window, \
        %d run(s) per point"
       window runs);
  let points = [ 1; 25; 50; 100; 150; 200; 250; 300; 350; 400; 450; 500; 550; 600 ] in
  let t =
    Tablefmt.create
      ~aligns:[ Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      [ "clients"; "MU stmts"; "SU time (s)"; "MU/SU (%)"; "deadlocks" ]
  in
  let series = ref [] in
  List.iter
    (fun clients ->
      let p = measure_mu ~window ~runs clients in
      series := (clients, p.ratio_pct) :: !series;
      Tablefmt.add_row t
        [
          string_of_int clients;
          Printf.sprintf "%.0f" p.committed_stmts;
          Printf.sprintf "%.1f" p.su_time;
          Printf.sprintf "%.0f" p.ratio_pct;
          Printf.sprintf "%.0f" p.deadlocks;
        ])
    points;
  Tablefmt.print t;
  (* ASCII rendition of the figure (log-scale y, like the paper's plot). *)
  note "";
  note "log10(MU/SU %%) vs clients  (paper: ~100%% at 1 client, knee before 500)";
  List.iter
    (fun (c, ratio) ->
      let stars = int_of_float ((log10 (Float.max 100. ratio) -. 1.9) *. 25.) in
      note "%5d | %s %.0f%%" c (String.make (max 1 stars) '#') ratio)
    (List.rev !series)

(* ------------------------------------------------------------------ *)
(* E2 — §4.2.2 native scheduler overhead                              *)
(* ------------------------------------------------------------------ *)

let native_overhead ~window ~runs () =
  section
    (Printf.sprintf
       "Native scheduler overhead (paper 4.2.2; paper at 240 s: 300 clients \
        -> 550055 stmts, SU 194 s, overhead 46 s; 500 clients -> 48267 \
        stmts, SU 15 s, overhead 225 s)"
       );
  let t =
    Tablefmt.create
      ~aligns:
        [ Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      [ "clients"; "MU stmts"; "SU time (s)"; "overhead (s)"; "CPU util (%)" ]
  in
  List.iter
    (fun clients ->
      let p = measure_mu ~window ~runs clients in
      Tablefmt.add_row t
        [
          string_of_int clients;
          Printf.sprintf "%.0f" p.committed_stmts;
          Printf.sprintf "%.1f" p.su_time;
          Printf.sprintf "%.1f" (window -. p.su_time);
          Printf.sprintf "%.0f" (100. *. p.cpu_util);
        ])
    [ 300; 500 ];
  Tablefmt.print t;
  note "window = %.0f s; 'overhead' = window - SU replay time (paper's method)"
    window

(* ------------------------------------------------------------------ *)
(* E3 — §4.3.2 declarative scheduling overhead                        *)
(* ------------------------------------------------------------------ *)

let declarative_overhead ~runs () =
  section
    "Declarative scheduling overhead (paper 4.3.2; paper: 358 ms per cycle at \
     300 clients, 545 ms at 500; qualified ~ clients/2)";
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right;
        ]
      [
        "clients"; "pending"; "history"; "qualified"; "cycle (ms)"; "query (ms)";
      ]
  in
  List.iter
    (fun clients ->
      let m =
        Overhead_probe.measure ~runs
          { Overhead_probe.default_setup with Overhead_probe.n_clients = clients }
          Builtin.ss2pl_sql
      in
      Tablefmt.add_row t
        [
          string_of_int clients;
          string_of_int m.Overhead_probe.pending;
          string_of_int m.Overhead_probe.history;
          string_of_int m.Overhead_probe.qualified;
          Printf.sprintf "%.3f" (1000. *. m.Overhead_probe.cycle_time);
          Printf.sprintf "%.3f" (1000. *. m.Overhead_probe.query_time);
        ])
    [ 50; 100; 200; 300; 400; 500; 600 ];
  Tablefmt.print t;
  note
    "One cycle = drain queue + insert pending + run Listing 1 + move \
     qualified to history (the paper's 4.3.1 measurement)."

(* ------------------------------------------------------------------ *)
(* E3b — crossover: native vs declarative amortized overhead           *)
(* ------------------------------------------------------------------ *)

let crossover ~window ~runs ~cycle_scale () =
  section
    (Printf.sprintf
       "Crossover: native scheduling overhead vs amortized declarative \
        overhead (cycle-time scale factor %.0fx)"
       cycle_scale);
  note
    "The paper (2010, commercial DBMS as query processor) found the \
     crossover between 300 and 500 clients. Our in-process OCaml engine \
     evaluates Listing 1 orders of magnitude faster, which moves the \
     crossover to much lower client counts; --cycle-scale emulates a slower \
     scheduler database.";
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Left;
        ]
      [
        "clients"; "native ovh (s)"; "declarative ovh (s)"; "cycles needed";
        "winner";
      ]
  in
  List.iter
    (fun clients ->
      let p = measure_mu ~window ~runs clients in
      let m =
        Overhead_probe.measure ~runs
          { Overhead_probe.default_setup with Overhead_probe.n_clients = clients }
          Builtin.ss2pl_sql
      in
      let native_ovh = window -. p.su_time in
      let decl_ovh =
        cycle_scale
        *. Overhead_probe.amortized_overhead m
             ~total_stmts:(int_of_float p.committed_stmts)
      in
      let cycles_needed =
        p.committed_stmts /. float_of_int (max 1 m.Overhead_probe.qualified)
      in
      Tablefmt.add_row t
        [
          string_of_int clients;
          Printf.sprintf "%.1f" native_ovh;
          Printf.sprintf "%.1f" decl_ovh;
          Printf.sprintf "%.0f" cycles_needed;
          (if decl_ovh < native_ovh then "declarative" else "native");
        ])
    [ 1; 10; 25; 50; 100; 200; 300; 400; 500 ];
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E4 — Table 1                                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section
    "Table 1: related approaches (P performance, QoS, D declarativity, F \
     flexibility, HS high scalability)";
  print_string (Related.render_table ())

(* ------------------------------------------------------------------ *)
(* E5 — Table 2                                                       *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: attributes of the requests / history / rte tables";
  let t = Tablefmt.create [ "Attribute"; "Description" ] in
  List.iter (Tablefmt.add_row t)
    [
      [ "ID"; "Consecutive request number" ];
      [ "TA"; "Transaction number" ];
      [ "INTRATA"; "Request number within a transaction" ];
      [ "Operation"; "Operation type (read/write/abort/commit)" ];
      [ "Object"; "Object number" ];
    ];
  Tablefmt.print t;
  let s = Relations.schema ~extended:false in
  note "Implemented schema: %s"
    (Format.asprintf "%a" Ds_relal.Schema.pp s);
  note "Extended (QoS) schema: %s"
    (Format.asprintf "%a" Ds_relal.Schema.pp (Relations.schema ~extended:true))

(* ------------------------------------------------------------------ *)
(* E6/A2 — Listing 1 microbenchmark via Bechamel                       *)
(* ------------------------------------------------------------------ *)

let listing1_micro ~clients () =
  section
    (Printf.sprintf
       "Listing 1 evaluation cost at %d clients (Bechamel; optimizer ablation \
        A2)"
       clients);
  (* Time the protocol query on a standard probe fill: 20 history rows per
     active transaction, one pending request each. *)
  let make_test level name =
    let rels = Relations.create () in
    let rng = Ds_sim.Rng.create 42 in
    let gen = Generator.create Spec.paper_default rng in
    for c = 1 to clients do
      let txn = Generator.next_txn gen ~ta:c in
      List.iteri
        (fun i (r : Ds_model.Request.t) ->
          if i < 20 then
            Ds_relal.Table.insert rels.Relations.history
              (Relations.row_of_request ~extended:false r)
          else if i = 20 then
            Ds_relal.Table.insert rels.Relations.requests
              (Relations.row_of_request ~extended:false r))
        txn.Ds_model.Txn.requests
    done;
    let plan =
      Ds_sql.Exec.prepare ~optimize:level rels.Relations.catalog Queries.ss2pl
    in
    Bechamel.Test.make ~name
      (Bechamel.Staged.stage (fun () -> ignore (Ds_sql.Exec.run_plan plan)))
  in
  let tests =
    [
      make_test `None "ss2pl-noopt";
      make_test `Basic "ss2pl-basic";
      make_test `Full "ss2pl-full";
    ]
  in
  let benchmark test =
    let open Bechamel in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
    Benchmark.all cfg instances test
  in
  let open Bechamel in
  List.iter
    (fun test ->
      let results = benchmark test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> note "%-14s %10.3f ms/run" name (est /. 1e6)
          | _ -> note "%-14s (no estimate)" name)
        ols)
    tests

(* ------------------------------------------------------------------ *)
(* A1 — trigger policies                                              *)
(* ------------------------------------------------------------------ *)

let middleware_cfg ~protocol ~trigger ~clients ~duration ~spec =
  {
    Middleware.default_config with
    Middleware.n_clients = clients;
    duration;
    spec;
    protocol;
    trigger;
    charge_scheduler_time = true;
  }

let trigger_policies ~duration () =
  section
    "Ablation A1: trigger policy (paper 3.3: 'the best condition has to be \
     evaluated experimentally')";
  let spec = { Spec.paper_default with Spec.n_objects = 20_000 } in
  let t =
    Tablefmt.create
      ~aligns:
        [ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      [ "trigger"; "committed txns"; "cycles"; "mean batch"; "p95 latency (s)" ]
  in
  List.iter
    (fun trigger ->
      let s =
        Middleware.run
          (middleware_cfg ~protocol:Builtin.ss2pl_ocaml ~trigger ~clients:100
             ~duration ~spec)
      in
      Tablefmt.add_row t
        [
          Trigger.to_string trigger;
          string_of_int s.Middleware.committed_txns;
          string_of_int s.Middleware.cycles;
          Printf.sprintf "%.1f" s.Middleware.mean_batch;
          Printf.sprintf "%.3f" s.Middleware.p95_txn_latency;
        ])
    [
      Trigger.Time_lapse 0.002;
      Trigger.Time_lapse 0.01;
      Trigger.Time_lapse 0.05;
      Trigger.Fill_level 25;
      Trigger.Fill_level 100;
      Trigger.Hybrid (0.01, 100);
    ];
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* A3 — SQL vs Datalog vs hand-coded                                  *)
(* ------------------------------------------------------------------ *)

let succinctness () =
  section
    "Ablation A3a: specification size (paper 3.4 productivity metric, lines)";
  let t =
    Tablefmt.create
      ~aligns:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right ]
      [ "protocol"; "language"; "spec lines" ]
  in
  List.iter
    (fun (p : Protocol.t) ->
      Tablefmt.add_row t
        [
          p.Protocol.name;
          (match p.Protocol.language with
          | `Sql -> "SQL"
          | `Datalog -> "Datalog"
          | `Ocaml -> "OCaml (imperative)");
          string_of_int p.Protocol.spec_loc;
        ])
    [
      Builtin.ss2pl_sql;
      Builtin.ss2pl_datalog;
      Builtin.ss2pl_ocaml;
      Builtin.ss2pl_ordered_sql;
      Builtin.ss2pl_ordered_datalog;
      Builtin.read_committed_sql;
      Builtin.read_committed_datalog;
    ];
  Tablefmt.print t

let datalog_vs_sql ~runs () =
  section "Ablation A3b: protocol evaluation cost, SQL vs Datalog vs OCaml";
  let t =
    Tablefmt.create
      ~aligns:[ Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      [ "clients"; "SQL (ms)"; "Datalog (ms)"; "OCaml (ms)" ]
  in
  List.iter
    (fun clients ->
      let time proto =
        let m =
          Overhead_probe.measure ~runs
            { Overhead_probe.default_setup with Overhead_probe.n_clients = clients }
            proto
        in
        1000. *. m.Overhead_probe.cycle_time
      in
      Tablefmt.add_row t
        [
          string_of_int clients;
          Printf.sprintf "%.2f" (time Builtin.ss2pl_sql);
          Printf.sprintf "%.2f" (time Builtin.ss2pl_datalog);
          Printf.sprintf "%.2f" (time Builtin.ss2pl_ocaml);
        ])
    [ 50; 150; 300; 500 ];
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* A2 — optimizer ablation (table form)                               *)
(* ------------------------------------------------------------------ *)

let optimizer_ablation ~runs () =
  section
    "Ablation A2: optimizer level for Listing 1 (same declarative spec, \
     different plans)";
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right;
        ]
      [ "clients"; "no-opt (ms)"; "basic (ms)"; "full (ms)"; "full, no index (ms)" ]
  in
  List.iter
    (fun clients ->
      let time ?(indexes = true) level =
        let saved = !Ds_relal.Eval.use_table_indexes in
        Ds_relal.Eval.use_table_indexes := indexes;
        let m =
          Overhead_probe.measure ~runs
            { Overhead_probe.default_setup with Overhead_probe.n_clients = clients }
            (Builtin.ss2pl_sql_at level)
        in
        Ds_relal.Eval.use_table_indexes := saved;
        1000. *. m.Overhead_probe.query_time
      in
      Tablefmt.add_row t
        [
          string_of_int clients;
          Printf.sprintf "%.2f" (time `None);
          Printf.sprintf "%.2f" (time `Basic);
          Printf.sprintf "%.2f" (time `Full);
          Printf.sprintf "%.2f" (time ~indexes:false `Full);
        ])
    [ 50; 150; 300 ];
  Tablefmt.print t;
  note
    "The specification is identical in all three columns; only plan \
     rewriting differs (the paper's 1 'optimization without affecting the \
     scheduler specification')."

(* ------------------------------------------------------------------ *)
(* A4 — relaxed consistency under load                                *)
(* ------------------------------------------------------------------ *)

let relaxed_consistency ~duration () =
  section
    "Ablation A4: relaxed consistency under contention (paper 1: 'reduced \
     consistency criteria may be used during times of high load')";
  let spec = { Spec.paper_default with Spec.n_objects = 3_000 } in
  let t =
    Tablefmt.create
      ~aligns:[ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      [ "protocol"; "committed txns"; "starvation aborts"; "p95 latency (s)" ]
  in
  List.iter
    (fun (proto : Protocol.t) ->
      let s =
        Middleware.run
          (middleware_cfg ~protocol:proto ~trigger:(Trigger.Hybrid (0.01, 60))
             ~clients:60 ~duration ~spec)
      in
      Tablefmt.add_row t
        [
          proto.Protocol.name;
          string_of_int s.Middleware.committed_txns;
          string_of_int s.Middleware.aborted_txns;
          Printf.sprintf "%.3f" s.Middleware.p95_txn_latency;
        ])
    [
      Builtin.ss2pl_sql;
      Builtin.read_committed_sql;
      Builtin.rationing ~threshold:300;
      Adaptive.protocol
        (Adaptive.ss2pl_with_relief ~high_watermark:40 ~low_watermark:10);
      Builtin.fcfs;
    ];
  Tablefmt.print t;
  (* Read-mostly variant (80% read-only transactions): the regime where the
     Ganymed-style reader offload (paper 2) pays off. *)
  note "";
  note "Read-mostly variant (80%% read-only transactions):";
  let spec =
    { spec with Spec.read_only_fraction = 0.8; updates_per_txn = 6; selects_per_txn = 14 }
  in
  let t2 =
    Tablefmt.create
      ~aligns:[ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right ]
      [ "protocol"; "committed txns"; "p95 latency (s)" ]
  in
  List.iter
    (fun (proto : Protocol.t) ->
      let s =
        Middleware.run
          (middleware_cfg ~protocol:proto ~trigger:(Trigger.Hybrid (0.01, 60))
             ~clients:60 ~duration ~spec)
      in
      Tablefmt.add_row t2
        [
          proto.Protocol.name;
          string_of_int s.Middleware.committed_txns;
          Printf.sprintf "%.3f" s.Middleware.p95_txn_latency;
        ])
    [ Builtin.ss2pl_sql; Builtin.read_committed_sql; Builtin.reader_offload ];
  Tablefmt.print t2

(* ------------------------------------------------------------------ *)
(* A5 — batch size sweep                                              *)
(* ------------------------------------------------------------------ *)

let batch_sweep ~duration () =
  section "Ablation A5: fill-level (batch size) sweep";
  let spec = { Spec.paper_default with Spec.n_objects = 20_000 } in
  let t =
    Tablefmt.create
      ~aligns:[ Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      [ "fill level"; "committed txns"; "mean cycle (ms)"; "p95 latency (s)" ]
  in
  List.iter
    (fun k ->
      let s =
        Middleware.run
          (middleware_cfg ~protocol:Builtin.ss2pl_ocaml
             ~trigger:(Trigger.Hybrid (0.1, k)) ~clients:120 ~duration ~spec)
      in
      Tablefmt.add_row t
        [
          string_of_int k;
          string_of_int s.Middleware.committed_txns;
          Printf.sprintf "%.3f" (1000. *. s.Middleware.mean_cycle_time);
          Printf.sprintf "%.3f" s.Middleware.p95_txn_latency;
        ])
    [ 10; 30; 60; 120; 240 ];
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* MPL ablation: external admission control on the native scheduler    *)
(* ------------------------------------------------------------------ *)

let mpl_ablation ~window ~runs () =
  section
    "Ablation: multiprogramming limit at 500 clients (the EQMS-style MPL \
     tuning of Schroeder et al., paper 2) - admission control avoids the \
     thrashing the declarative scheduler also avoids";
  let t =
    Tablefmt.create
      ~aligns:[ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      [ "MPL"; "MU stmts"; "deadlocks"; "CPU util (%)" ]
  in
  List.iter
    (fun mpl ->
      let stmts = ref 0. and dl = ref 0. and cpu = ref 0. in
      for r = 1 to runs do
        let s =
          Native_sim.run
            {
              Native_sim.default_config with
              Native_sim.n_clients = 500;
              duration = window;
              seed = 60 + r;
              mpl;
            }
        in
        stmts := !stmts +. float_of_int s.Native_sim.committed_stmts;
        dl := !dl +. float_of_int s.Native_sim.deadlocks;
        cpu := !cpu +. s.Native_sim.cpu_utilization
      done;
      let f = float_of_int runs in
      Tablefmt.add_row t
        [
          (match mpl with None -> "unlimited" | Some k -> string_of_int k);
          Printf.sprintf "%.0f" (!stmts /. f);
          Printf.sprintf "%.0f" (!dl /. f);
          Printf.sprintf "%.0f" (100. *. !cpu /. f);
        ])
    [ None; Some 300; Some 150; Some 75; Some 25 ];
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* Open-loop saturation sweep (the paper's 4.3 operating mode)          *)
(* ------------------------------------------------------------------ *)

let open_loop ~duration () =
  section
    "Open-loop batch scheduling: whole transactions arrive as a Poisson \
     stream (the paper's pre-scheduled workloads); saturation sweep over the \
     arrival rate (server capacity ~ 69 txns/s at 41 ops per txn)";
  let spec = { Spec.paper_default with Spec.n_objects = 50_000 } in
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Right; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right;
        ]
      [
        "txns/s"; "protocol"; "completed"; "p95 latency (s)"; "peak backlog";
        "residual";
      ]
  in
  List.iter
    (fun rate ->
      List.iter
        (fun (proto : Protocol.t) ->
          let s =
            Batch_sim.run
              {
                Batch_sim.default_config with
                Batch_sim.arrival_rate = rate;
                duration;
                spec;
                protocol = proto;
              }
          in
          Tablefmt.add_row t
            [
              Printf.sprintf "%.0f" rate;
              proto.Protocol.name;
              string_of_int s.Batch_sim.completed_txns;
              Printf.sprintf "%.3f" s.Batch_sim.p95_latency;
              string_of_int s.Batch_sim.peak_backlog;
              string_of_int s.Batch_sim.residual_pending;
            ])
        [ Builtin.ss2pl_ocaml; Builtin.c2pl; Builtin.fcfs ])
    [ 20.; 40.; 60.; 80. ];
  Tablefmt.print t;
  note
    "Beyond saturation (~69 txns/s) completions cap at server capacity and \
     latency explodes: the excess queues in front of the server, while the \
     scheduler-side backlog stays bounded at this (low) contention level. \
     The protocols coincide here because conflicts are rare; the closed-loop \
     'relaxed' experiment covers the contended regime."

(* ------------------------------------------------------------------ *)
(* Deadlock policy ablation                                             *)
(* ------------------------------------------------------------------ *)

let deadlock_policy_ablation ~window ~runs () =
  section
    "Ablation: deadlock handling in the native scheduler (detection vs \
     wound-wait), 300 clients on a contended store";
  let t =
    Tablefmt.create
      ~aligns:
        [ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      [ "policy"; "MU stmts"; "deadlocks"; "wounds"; "wasted stmts" ]
  in
  List.iter
    (fun (name, policy) ->
      let stmts = ref 0. and dl = ref 0. and wo = ref 0. and wasted = ref 0. in
      for r = 1 to runs do
        let s =
          Native_sim.run
            {
              Native_sim.default_config with
              Native_sim.n_clients = 300;
              duration = window;
              seed = 70 + r;
              spec = { Spec.paper_default with Spec.n_objects = 20_000 };
              deadlock_policy = policy;
            }
        in
        stmts := !stmts +. float_of_int s.Native_sim.committed_stmts;
        dl := !dl +. float_of_int s.Native_sim.deadlocks;
        wo := !wo +. float_of_int s.Native_sim.wounds;
        wasted := !wasted +. float_of_int s.Native_sim.wasted_stmts
      done;
      let f = float_of_int runs in
      Tablefmt.add_row t
        [
          name;
          Printf.sprintf "%.0f" (!stmts /. f);
          Printf.sprintf "%.0f" (!dl /. f);
          Printf.sprintf "%.0f" (!wo /. f);
          Printf.sprintf "%.0f" (!wasted /. f);
        ])
    [ ("detection", `Detection); ("wound-wait", `Wound_wait) ];
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* History pruning ablation                                            *)
(* ------------------------------------------------------------------ *)

let history_pruning ~duration () =
  section "Ablation: history pruning on/off";
  let spec = { Spec.paper_default with Spec.n_objects = 20_000 } in
  let t =
    Tablefmt.create
      ~aligns:[ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right ]
      [ "pruning"; "committed txns"; "mean cycle (ms)" ]
  in
  List.iter
    (fun prune ->
      let cfg =
        {
          (middleware_cfg ~protocol:Builtin.ss2pl_sql
             ~trigger:(Trigger.Hybrid (0.01, 60)) ~clients:60 ~duration ~spec)
          with
          Middleware.prune_history = prune;
        }
      in
      let s = Middleware.run cfg in
      Tablefmt.add_row t
        [
          (if prune then "every cycle" else "never");
          string_of_int s.Middleware.committed_txns;
          Printf.sprintf "%.3f" (1000. *. s.Middleware.mean_cycle_time);
        ])
    [ true; false ];
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* Chaos sweep: throughput and per-tier latency vs fault rate          *)
(* ------------------------------------------------------------------ *)

let faults_sweep ~duration ~json () =
  section
    "Chaos sweep: fault injection vs graceful degradation (bounded queue, \
     retries with backoff, dead-lettering). 'rate' scales every fault \
     channel; per-tier p95 shows that shedding protects premium traffic.";
  let spec =
    {
      Spec.paper_default with
      Spec.n_objects = 20_000;
      sla_mix =
        [ (Ds_model.Sla.premium, 0.2); (Ds_model.Sla.standard, 0.5); (Ds_model.Sla.free, 0.3) ];
    }
  in
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
        ]
      [
        "fault rate"; "committed"; "retries"; "shed"; "dead";
        "p95 prem (s)"; "p95 std (s)"; "p95 free (s)";
      ]
  in
  let points = ref [] in
  List.iter
    (fun rate ->
      let plan =
        {
          Faults.none with
          Faults.batch_fail_rate = rate;
          stall_rate = rate /. 2.;
          stall_duration = 0.05;
          poison_rate = rate /. 20.;
          disconnect_rate = rate /. 10.;
        }
      in
      let cfg =
        {
          (middleware_cfg ~protocol:Builtin.ss2pl_ocaml
             ~trigger:(Trigger.Hybrid (0.01, 60)) ~clients:60 ~duration ~spec)
          with
          Middleware.extended_relations = true;
          faults = plan;
          max_retries = 4;
          batch_timeout = Some 0.2;
          queue_capacity = Some 40;
          client_redo = true;
          (* fault runs must be reproducible from the seed *)
          charge_scheduler_time = false;
        }
      in
      let s = Middleware.run cfg in
      points := (rate, cfg, s) :: !points;
      let p95 tier =
        match
          List.find_opt (fun (t', _, _, _) -> t' = tier) s.Middleware.latency_by_tier
        with
        | Some (_, _, p, _) -> Printf.sprintf "%.3f" p
        | None -> "-"
      in
      Tablefmt.add_row t
        [
          Printf.sprintf "%.2f" rate;
          string_of_int s.Middleware.committed_txns;
          string_of_int s.Middleware.retries;
          string_of_int s.Middleware.shed_txns;
          string_of_int s.Middleware.dead_lettered;
          p95 Ds_model.Sla.Premium;
          p95 Ds_model.Sla.Standard;
          p95 Ds_model.Sla.Free;
        ])
    [ 0.; 0.02; 0.05; 0.1; 0.2 ];
  Tablefmt.print t;
  note
    "Same seed, same plan => identical counters (deterministic chaos). At \
     high rates the retry ladder trades latency for completed transactions; \
     poison requests end in the dead-letter relation instead of wedging the \
     loop.";
  match json with
  | None -> ()
  | Some path ->
    let open Ds_obs.Json in
    let payload =
      Ds_dst.Stamp.add ~seed:Middleware.default_config.Middleware.seed
        ~config:[ ("experiment", Str "faults"); ("duration", Num duration) ]
    @@ Obj
        [
          ("experiment", Str "faults");
          ("duration", Num duration);
          ( "points",
            List
              (List.rev_map
                 (fun (rate, (cfg : Middleware.config), (s : Middleware.stats)) ->
                   Obj
                     [
                       ("fault_rate", Num rate);
                       (* every record carries the knobs that reproduce it *)
                       ("workers", Num (float_of_int cfg.Middleware.workers));
                       ("seed", Num (float_of_int cfg.Middleware.seed));
                       ("committed", Num (float_of_int s.Middleware.committed_txns));
                       ("retries", Num (float_of_int s.Middleware.retries));
                       ("shed", Num (float_of_int s.Middleware.shed_txns));
                       ("dead", Num (float_of_int s.Middleware.dead_lettered));
                       ("injected", Num (float_of_int s.Middleware.injected_failures));
                     ])
                 !points) );
        ]
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (to_string payload);
        output_char oc '\n');
    note "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Index maintenance scaling: incremental vs rebuild                  *)
(* ------------------------------------------------------------------ *)

(* Per-cycle protocol-query + move cost as history grows, with
   [Table.incremental_maintenance] on vs off. The rebuild baseline pays an
   O(|history|) index rebuild on every probed index every cycle (any
   mutation invalidates); the incremental path pays O(batch log)
   maintenance. Both modes must admit the same requests in the same order —
   checked per point.

   Two regimes, both seeded with [history_size] rows of still-active
   transactions that pin the history size:

   - [`Churn] (write-path bound): each arrival is a write+commit pair on a
     fresh object, and pruning runs every cycle. The query itself is cheap
     ([fcfs]), so the measurement isolates the scheduler write path —
     move_to_history + prune — where the baseline rebuilds the TA hash
     index from all of history each cycle and the incremental path does
     O(batch) posting updates. This is where the big ratio lives.

   - [`Scan] (query bound): SS2PL's Listing 1 recomputes the lock tables
     from the full history every cycle, an O(|history|) floor no index can
     remove, so warm indexes only shave the rebuild share off the total. *)
let index_scaling ~json ~history_sizes ~cycles ~batch () =
  section
    "Index maintenance: per-cycle protocol-query + move time vs history size \
     (incremental vs invalidate-and-rebuild)";
  let run_mode ~regime ~incremental ~history_size =
    let saved = !Ds_relal.Table.incremental_maintenance in
    Ds_relal.Table.incremental_maintenance := incremental;
    let protocol, prune =
      match regime with
      | `Churn -> (Builtin.fcfs, true)
      | `Scan -> (Builtin.ss2pl_sql, false)
    in
    let sched = Scheduler.create ~prune_history_each_cycle:prune protocol in
    let rels = Scheduler.relations sched in
    (* Active transactions (no terminal op, so pruning never removes them)
       holding read locks on distinct objects: they pin the history size and
       are invisible to the fresh arrivals below, which touch disjoint
       objects. *)
    for i = 1 to history_size do
      let r =
        Ds_model.Request.make ~id:i ~ta:i ~intrata:1 ~op:Ds_model.Op.Read
          ~obj:i ()
      in
      Ds_relal.Table.insert rels.Relations.history
        (Relations.row_of_request ~extended:false r)
    done;
    let qualified = ref [] in
    let time = ref 0. and index_time = ref 0. in
    let next_ta = ref (history_size + 1) in
    let one_cycle ~measure =
      for _k = 1 to batch do
        let ta = !next_ta in
        incr next_ta;
        Scheduler.submit sched
          (Ds_model.Request.make ~id:(10 * ta) ~ta ~intrata:1
             ~op:Ds_model.Op.Write ~obj:ta ());
        match regime with
        | `Churn ->
          (* The transaction finishes immediately: its history rows carry a
             terminal op, so the per-cycle prune has real work to do. *)
          Scheduler.submit sched
            (Ds_model.Request.make ~id:((10 * ta) + 1) ~ta ~intrata:2
               ~op:Ds_model.Op.Commit ())
        | `Scan -> ()
      done;
      let reqs, stats = Scheduler.cycle sched in
      qualified :=
        List.rev_append (List.map Ds_model.Request.key reqs) !qualified;
      if measure then begin
        time :=
          !time
          +. stats.Scheduler.times.Scheduler.query
          +. stats.Scheduler.times.Scheduler.move;
        index_time := !index_time +. stats.Scheduler.index_time
      end
    in
    (* Two warmup cycles let the incremental mode pay its one-time lazy
       builds outside the window; the rebuild mode rebuilds every cycle, so
       warmup does not flatter it. *)
    one_cycle ~measure:false;
    one_cycle ~measure:false;
    for _c = 1 to cycles do
      one_cycle ~measure:true
    done;
    Ds_relal.Table.incremental_maintenance := saved;
    let per_cycle x = x /. float_of_int cycles in
    (per_cycle !time, per_cycle !index_time, List.rev !qualified)
  in
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Left;
        ]
      [
        "regime"; "history"; "rebuild (ms)"; "incremental (ms)"; "index (ms)";
        "speedup"; "identical";
      ]
  in
  let points = ref [] in
  List.iter
    (fun (regime, regime_name) ->
      List.iter
        (fun history_size ->
          let rebuild_t, _, rebuild_q =
            run_mode ~regime ~incremental:false ~history_size
          in
          let incr_t, incr_ix, incr_q =
            run_mode ~regime ~incremental:true ~history_size
          in
          let identical = rebuild_q = incr_q in
          let speedup = rebuild_t /. Float.max 1e-9 incr_t in
          points :=
            ( regime_name, history_size, rebuild_t, incr_t, incr_ix, speedup,
              identical )
            :: !points;
          Tablefmt.add_row t
            [
              regime_name;
              string_of_int history_size;
              Printf.sprintf "%.3f" (1000. *. rebuild_t);
              Printf.sprintf "%.3f" (1000. *. incr_t);
              Printf.sprintf "%.3f" (1000. *. incr_ix);
              Printf.sprintf "%.1fx" speedup;
              string_of_bool identical;
            ])
        history_sizes)
    [ (`Churn, "churn (fcfs+prune)"); (`Scan, "scan (ss2pl-sql)") ];
  Tablefmt.print t;
  note
    "%d measured cycles, %d fresh transactions per cycle; 'identical' = both \
     modes admitted the same (TA, INTRATA) sequence; 'index' = incremental \
     mode's per-cycle maintenance time. The churn regime isolates the \
     scheduler write path (move + prune), where the rebuild baseline pays \
     O(|history|) per cycle; the scan regime includes Listing 1's inherent \
     full-history recomputation, which bounds the achievable speedup."
    cycles batch;
  match json with
  | None -> ()
  | Some path ->
    let open Ds_obs.Json in
    let payload =
      Ds_dst.Stamp.add ~seed:0
        ~config:
          [
            ("experiment", Str "index");
            ("cycles", Num (float_of_int cycles));
            ("batch", Num (float_of_int batch));
          ]
    @@ Obj
        [
          ("experiment", Str "index");
          ("cycles", Num (float_of_int cycles));
          ("batch", Num (float_of_int batch));
          ( "points",
            List
              (List.rev_map
                 (fun ( regime, h, rebuild_t, incr_t, incr_ix, speedup,
                        identical ) ->
                   Obj
                     [
                       ("regime", Str regime);
                       ("history", Num (float_of_int h));
                       ("rebuild_s", Num rebuild_t);
                       ("incremental_s", Num incr_t);
                       ("index_s", Num incr_ix);
                       ("speedup", Num speedup);
                       ("identical", Bool identical);
                     ])
                 !points) );
        ]
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (to_string payload);
        output_char oc '\n');
    note "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Observability overhead                                             *)
(* ------------------------------------------------------------------ *)

let obs_overhead ~duration () =
  section
    "Observability: tracing off vs on (same seed; lifecycle events + tier \
     metrics)";
  let spec = { Spec.paper_default with Spec.n_objects = 20_000 } in
  let base =
    {
      (middleware_cfg ~protocol:Builtin.ss2pl_ocaml
         ~trigger:(Trigger.Hybrid (0.01, 60)) ~clients:60 ~duration ~spec)
      with
      (* Wall-clock cycle charging is non-deterministic; the off/on stats
         comparison below needs bit-identical runs. *)
      Middleware.charge_scheduler_time = false;
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let s_off, t_off = time (fun () -> Middleware.run base) in
  let tr = Ds_obs.Trace.create () in
  let m = Ds_obs.Metrics.create () in
  let s_on, t_on =
    time (fun () ->
        Middleware.run
          { base with Middleware.trace = Some tr; metrics = Some m })
  in
  note "tracing off: %.3fs wall" t_off;
  note "tracing on:  %.3fs wall  (%d events, %+.1f%% overhead)" t_on
    (Ds_obs.Trace.count tr)
    (100. *. (t_on -. t_off) /. Float.max 1e-9 t_off);
  (* [mean_cycle_time]/[p95_cycle_time]/[scheduler_time] are wall-clock
     measurements, never reproducible; everything else must be identical. *)
  let deterministic (s : Middleware.stats) =
    {
      s with
      Middleware.mean_cycle_time = 0.;
      p95_cycle_time = 0.;
      scheduler_time = 0.;
    }
  in
  note "simulation stats identical under tracing: %b (no observer effect)"
    (deterministic s_off = deterministic s_on);
  List.iter
    (fun (tier, n, p50, p95, p99) ->
      note "  %-8s n=%d p50=%.3fs p95=%.3fs p99=%.3fs" tier n p50 p95 p99)
    (Ds_obs.Metrics.tier_quantiles m);
  (match Ds_obs.Span.validate (Ds_obs.Trace.events tr) with
  | Ok () -> note "trace valid (%d transactions)"
               (List.length (Ds_obs.Span.build (Ds_obs.Trace.events tr)))
  | Error e -> note "TRACE INVALID: %s" e)

(* ------------------------------------------------------------------ *)
(* Parallel backend scaling                                           *)
(* ------------------------------------------------------------------ *)

let parallel_scaling ~duration ~json () =
  section
    "Parallel backend: conflict-class execution across K workers \
     (low-conflict workload; every schedule checker-validated)";
  let spec = { Spec.paper_default with Spec.n_objects = 20_000 } in
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Left; Tablefmt.Left;
        ]
      [
        "workers"; "committed"; "makespan mean (ms)"; "p95 (ms)"; "speedup";
        "mean util"; "checker"; "conflict-equivalent";
      ]
  in
  let base_makespan = ref None in
  let points = ref [] in
  List.iter
    (fun workers ->
      let m = Ds_obs.Metrics.create () in
      let s, h =
        Middleware.run_sharded
          {
            (middleware_cfg ~protocol:Builtin.ss2pl_ocaml
               ~trigger:(Trigger.Hybrid (0.01, 50))
               ~clients:80 ~duration ~spec)
            with
            Middleware.workers;
            metrics = Some m;
            (* identical virtual-time behavior at every K: don't charge
               wall-clock scheduler time *)
            charge_scheduler_time = false;
          }
      in
      let rte = h.Middleware.merged_rte in
      (* The merged parallel schedule, reassembled from the declarative
         assignment log (pos = delivery order). *)
      let merged = Middleware.delivered h in
      let report =
        Ds_check.Serializability.check_committed
          (Ds_check.Conflict_graph.events_of_requests rte)
      in
      let equiv =
        Ds_check.Equivalence.check ~reference:rte ~candidate:merged ()
      in
      let makespan = s.Middleware.mean_batch_makespan in
      if workers = 1 then base_makespan := Some makespan;
      let speedup =
        match !base_makespan with
        | Some base when makespan > 0. -> base /. makespan
        | _ -> 1.
      in
      let util =
        match Ds_obs.Metrics.parallel m with
        | Some p when p.Ds_obs.Metrics.per_worker <> [] ->
          List.fold_left
            (fun acc (w : Ds_obs.Metrics.worker_row) ->
              acc +. w.Ds_obs.Metrics.utilization)
            0. p.Ds_obs.Metrics.per_worker
          /. float_of_int (List.length p.Ds_obs.Metrics.per_worker)
        | _ -> 0.
      in
      let clean = Ds_check.Serializability.is_clean report in
      let equivalent = Ds_check.Equivalence.is_equivalent equiv in
      points :=
        (workers, s.Middleware.committed_txns, makespan, speedup, util, clean,
         equivalent)
        :: !points;
      Tablefmt.add_row t
        [
          string_of_int workers;
          string_of_int s.Middleware.committed_txns;
          Printf.sprintf "%.3f" (1000. *. makespan);
          Printf.sprintf "%.3f" (1000. *. s.Middleware.p95_batch_makespan);
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.3f" util;
          (if clean then "clean" else "DIRTY");
          (if equivalent then "yes" else "NO");
        ])
    [ 1; 2; 4; 8 ];
  Tablefmt.print t;
  note
    "speedup = mean batch makespan at K=1 / at K; conflict classes of one \
     batch run as overlapping spans, so makespan approaches the largest \
     class instead of the batch total. 'checker' validates the rte log \
     (serializability battery), 'conflict-equivalent' compares the merged \
     delivery order (assignment relation) against the admitted rte order.";
  match json with
  | None -> ()
  | Some path ->
    let open Ds_obs.Json in
    let payload =
      Ds_dst.Stamp.add ~seed:Middleware.default_config.Middleware.seed
        ~config:[ ("experiment", Str "parallel"); ("duration", Num duration) ]
    @@ Obj
        [
          ("experiment", Str "parallel");
          ("duration", Num duration);
          ( "points",
            List
              (List.rev_map
                 (fun (k, committed, makespan, speedup, util, clean, equivalent)
                    ->
                   Obj
                     [
                       ("workers", Num (float_of_int k));
                       ( "seed",
                         Num
                           (float_of_int
                              Middleware.default_config.Middleware.seed) );
                       ("committed", Num (float_of_int committed));
                       ("makespan_s", Num makespan);
                       ("speedup", Num speedup);
                       ("mean_utilization", Num util);
                       ("checker_clean", Bool clean);
                       ("conflict_equivalent", Bool equivalent);
                     ])
                 !points) );
        ]
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (to_string payload);
        output_char oc '\n');
    note "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Sharded scheduler scaling                                          *)
(* ------------------------------------------------------------------ *)

(* The router sends a transaction to shard [obj mod S] when its footprint
   touches a single object group. Partitioned(8, esc) gives every
   transaction a home group out of 8, and 8 is divisible by every sweep
   point, so the identical workload stays single-group at S in {1,2,4,8};
   the [esc] fraction of statements escape to a uniform object, keeping the
   barrier-fenced global lane honest (escape is per statement: at 40
   statements/txn, esc = 0.005 leaves ~0.995^40 = 82%% of transactions
   shard-local). Scheduler cycle cost is superlinear
   in the live relation sizes (protocol queries join requests x history),
   so S lanes each holding ~1/S of the transactions do less total query
   work — that is the speedup being measured, not parallel hardware. *)
let shards_scaling ~duration ~json () =
  section
    "Sharded scheduler: S lanes + barrier-fenced global lane \
     (partitioned workload; every point checker-validated)";
  let spec =
    {
      Spec.paper_default with
      Spec.n_objects = 20_000;
      Spec.access = Spec.Partitioned (8, 0.005);
    }
  in
  let cfg shards =
    {
      (middleware_cfg ~protocol:Builtin.ss2pl_ocaml
         ~trigger:(Trigger.Hybrid (0.01, 50))
         ~clients:80 ~duration ~spec)
      with
      Middleware.shards;
      (* identical virtual-time behavior at every S: don't charge
         wall-clock scheduler time *)
      charge_scheduler_time = false;
    }
  in
  (* S=1 must be the single-scheduler code path bit for bit: same rte log,
     same delivery order. *)
  let s1_identical =
    let _, sched = Middleware.run_full (cfg 1) in
    let _, h = Middleware.run_sharded (cfg 1) in
    let rels = Scheduler.relations sched in
    List.map Ds_model.Request.to_string (Relations.rte_requests rels)
    = List.map Ds_model.Request.to_string h.Middleware.merged_rte
    && Relations.execution_order rels = h.Middleware.merged_execution_order
  in
  note "S=1 bit-identical to the unsharded scheduler: %b" s1_identical;
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Left;
          Tablefmt.Left;
        ]
      [
        "shards"; "committed"; "cycles"; "global txns"; "deferrals";
        "sched time (s)"; "speedup"; "checker"; "conflict-equivalent";
      ]
  in
  let base_time = ref None in
  let points = ref [] in
  List.iter
    (fun shards ->
      let s, h = Middleware.run_sharded (cfg shards) in
      let rte = h.Middleware.merged_rte in
      let merged = Middleware.delivered h in
      let report =
        Ds_check.Serializability.check_committed
          (Ds_check.Conflict_graph.events_of_requests rte)
      in
      let equiv =
        if shards > 1 then
          Ds_check.Equivalence.check_sharded ~shards
            ~shard_of:h.Middleware.shard_of ~reference:rte ~candidate:merged
            ()
        else Ds_check.Equivalence.check ~reference:rte ~candidate:merged ()
      in
      let sched_time = s.Middleware.scheduler_time in
      if shards = 1 then base_time := Some sched_time;
      let speedup =
        match !base_time with
        | Some base when sched_time > 0. -> base /. sched_time
        | _ -> 1.
      in
      let clean = Ds_check.Serializability.is_clean report in
      let equivalent = Ds_check.Equivalence.is_equivalent equiv in
      points :=
        (shards, s.Middleware.committed_txns, s.Middleware.cycles,
         s.Middleware.global_lane_txns, s.Middleware.shard_deferrals,
         sched_time, speedup, clean, equivalent)
        :: !points;
      Tablefmt.add_row t
        [
          string_of_int shards;
          string_of_int s.Middleware.committed_txns;
          string_of_int s.Middleware.cycles;
          string_of_int s.Middleware.global_lane_txns;
          string_of_int s.Middleware.shard_deferrals;
          Printf.sprintf "%.3f" sched_time;
          Printf.sprintf "%.2fx" speedup;
          (if clean then "clean" else "DIRTY");
          (if equivalent then "yes" else "NO");
        ])
    [ 1; 2; 4; 8 ];
  Tablefmt.print t;
  note
    "speedup = total scheduler wall time at S=1 / at S (virtual-time \
     behavior held fixed). 'global txns' crossed shard boundaries and ran \
     on the barrier-fenced global lane; 'deferrals' are admissions parked \
     while the barrier drained. 'checker' validates the stamp-merged rte \
     (serializability battery); 'conflict-equivalent' additionally checks \
     router soundness — no conflicting pair split across shard lanes.";
  match json with
  | None -> ()
  | Some path ->
    let open Ds_obs.Json in
    let payload =
      Ds_dst.Stamp.add ~seed:Middleware.default_config.Middleware.seed
        ~config:[ ("experiment", Str "shards"); ("duration", Num duration) ]
      @@ Obj
          [
            ("experiment", Str "shards");
            ("duration", Num duration);
            ("s1_bit_identical", Bool s1_identical);
            ( "points",
              List
                (List.rev_map
                   (fun (shards, committed, cycles, global_txns, deferrals,
                         sched_time, speedup, clean, equivalent) ->
                     Obj
                       [
                         ("shards", Num (float_of_int shards));
                         ( "seed",
                           Num
                             (float_of_int
                                Middleware.default_config.Middleware.seed) );
                         ("committed", Num (float_of_int committed));
                         ("cycles", Num (float_of_int cycles));
                         ("global_lane_txns", Num (float_of_int global_txns));
                         ("shard_deferrals", Num (float_of_int deferrals));
                         ("scheduler_time_s", Num sched_time);
                         ("speedup", Num speedup);
                         ("checker_clean", Bool clean);
                         ("conflict_equivalent", Bool equivalent);
                       ])
                   !points) );
          ]
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (to_string payload);
        output_char oc '\n');
    note "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Recovery: checkpointed replay vs journal length                    *)
(* ------------------------------------------------------------------ *)

(* Two sweeps.

   The synthetic sweep isolates [Journal.recover]: a scheduler drives a
   churn workload (write+commit pairs, pruned every cycle) through a
   journal at several lengths and checkpoint intervals, then recovery of
   the resulting file is timed. Checkpoints snapshot the pruned live state,
   so with any fixed interval the recover time is governed by the snapshot
   plus the suffix — it stays flat as the journal grows, while the
   no-checkpoint baseline replays every line and grows linearly.

   The middleware sweep measures the same effect end to end: a run that
   crashes mid-flight (with worker faults keeping the supervisor busy)
   recovers from its journal, and the stats report how many lines the
   checkpoint let recovery skip and how long the recovery took. *)
let recovery_bench ~duration ~json () =
  section
    "Recovery: checkpointed replay vs journal length (synthetic journals + \
     a crashing middleware run)";
  let points = ref [] in
  let with_temp_journal f =
    let path = Filename.temp_file "ds_bench" ".journal" in
    Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () -> f path)
  in
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right;
        ]
      [
        "events"; "ckpt every"; "journal lines"; "recover (ms)"; "replayed";
        "skipped";
      ]
  in
  List.iter
    (fun events ->
      List.iter
        (fun checkpoint_every ->
          with_temp_journal (fun path ->
              let journal = Journal.open_ path in
              let sched =
                Scheduler.create ~journal ?checkpoint_every Builtin.fcfs
              in
              let id = ref 0 and ta = ref 0 in
              while !id < events do
                for _ = 1 to 8 do
                  incr ta;
                  incr id;
                  Scheduler.submit sched
                    (Ds_model.Request.make ~id:!id ~ta:!ta ~intrata:1
                       ~op:Ds_model.Op.Write ~obj:(!ta mod 512) ());
                  incr id;
                  Scheduler.submit sched
                    (Ds_model.Request.make ~id:!id ~ta:!ta ~intrata:2
                       ~op:Ds_model.Op.Commit ())
                done;
                ignore (Scheduler.cycle sched)
              done;
              Journal.close journal;
              let lines =
                In_channel.with_open_bin path (fun ic ->
                    let n = ref 0 in
                    String.iter
                      (fun c -> if c = '\n' then incr n)
                      (In_channel.input_all ic);
                    !n)
              in
              (* median-ish of 3: recover is fast, wall time is noisy *)
              let times =
                List.init 3 (fun _ ->
                    let t0 = Unix.gettimeofday () in
                    ignore (Journal.recover path);
                    Unix.gettimeofday () -. t0)
              in
              let recover_s = List.nth (List.sort compare times) 1 in
              let r = Journal.recover path in
              let interval = Option.value ~default:0 checkpoint_every in
              points :=
                `Synthetic
                  (events, interval, lines, recover_s, r.Journal.replayed,
                   r.Journal.skipped)
                :: !points;
              Tablefmt.add_row t
                [
                  string_of_int events;
                  (if interval = 0 then "-" else string_of_int interval);
                  string_of_int lines;
                  Printf.sprintf "%.3f" (1000. *. recover_s);
                  string_of_int r.Journal.replayed;
                  string_of_int r.Journal.skipped;
                ]))
        [ None; Some 100 ])
    [ 2_000; 8_000; 32_000 ];
  Tablefmt.print t;
  note
    "Churn workload, history pruned every cycle, so checkpoints snapshot \
     only live transactions: with the interval fixed, recover time and \
     'replayed' stay flat while the journal grows — the no-checkpoint rows \
     replay everything and scale with journal length.";
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
        ]
      [
        "wcrash"; "ckpt every"; "committed"; "recovery (ms)"; "replayed";
        "skipped"; "reassigned";
      ]
  in
  let spec = { Spec.paper_default with Spec.n_objects = 20_000 } in
  List.iter
    (fun (wcrash, checkpoint_interval) ->
      with_temp_journal (fun path ->
          let cfg =
            {
              (middleware_cfg ~protocol:Builtin.ss2pl_ocaml
                 ~trigger:(Trigger.Hybrid (0.01, 50))
                 ~clients:60 ~duration ~spec)
              with
              Middleware.workers = 4;
              journal_path = Some path;
              checkpoint_interval;
              faults =
                {
                  Faults.none with
                  Faults.crash_at_cycle = Some 40;
                  worker_crash_rate = wcrash;
                  worker_stall_rate = wcrash /. 2.;
                  worker_stall_duration = 0.02;
                };
              charge_scheduler_time = false;
            }
          in
          let s = Middleware.run cfg in
          let interval = Option.value ~default:0 checkpoint_interval in
          points :=
            `Middleware
              (cfg.Middleware.workers, cfg.Middleware.seed, wcrash, interval, s)
            :: !points;
          Tablefmt.add_row t
            [
              Printf.sprintf "%.2f" wcrash;
              (if interval = 0 then "-" else string_of_int interval);
              string_of_int s.Middleware.committed_txns;
              Printf.sprintf "%.3f" (1000. *. s.Middleware.recovery_time);
              string_of_int s.Middleware.recovery_replayed;
              string_of_int s.Middleware.recovery_skipped;
              string_of_int s.Middleware.reassigned_classes;
            ]))
    [ (0., None); (0., Some 10); (0.2, None); (0.2, Some 10) ];
  Tablefmt.print t;
  note
    "Same seed and fault plan per pair of rows; the checkpointed run \
     replays only the journal suffix after the crash at cycle 40 while the \
     supervisor keeps reassigning classes from crashed workers.";
  match json with
  | None -> ()
  | Some path ->
    let open Ds_obs.Json in
    let payload =
      Ds_dst.Stamp.add ~seed:Middleware.default_config.Middleware.seed
        ~config:[ ("experiment", Str "recovery"); ("duration", Num duration) ]
    @@ Obj
        [
          ("experiment", Str "recovery");
          ("duration", Num duration);
          ( "points",
            List
              (List.rev_map
                 (function
                   | `Synthetic (events, interval, lines, recover_s, replayed,
                                 skipped) ->
                     Obj
                       [
                         ("mode", Str "synthetic");
                         ("workers", Num 1.);
                         ("seed", Num 0.);
                         ("events", Num (float_of_int events));
                         ("checkpoint_interval", Num (float_of_int interval));
                         ("journal_lines", Num (float_of_int lines));
                         ("recover_ms", Num (1000. *. recover_s));
                         ("replayed", Num (float_of_int replayed));
                         ("skipped", Num (float_of_int skipped));
                       ]
                   | `Middleware (workers, seed, wcrash, interval, s) ->
                     Obj
                       [
                         ("mode", Str "middleware");
                         ("workers", Num (float_of_int workers));
                         ("seed", Num (float_of_int seed));
                         ("wcrash", Num wcrash);
                         ("checkpoint_interval", Num (float_of_int interval));
                         ( "committed",
                           Num (float_of_int s.Middleware.committed_txns) );
                         ("recovery_ms", Num (1000. *. s.Middleware.recovery_time));
                         ( "replayed",
                           Num (float_of_int s.Middleware.recovery_replayed) );
                         ( "skipped",
                           Num (float_of_int s.Middleware.recovery_skipped) );
                         ( "reassigned",
                           Num (float_of_int s.Middleware.reassigned_classes) );
                         ( "checkpoints",
                           Num (float_of_int s.Middleware.checkpoints) );
                       ])
                 !points) );
        ]
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (to_string payload);
        output_char oc '\n');
    note "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Swarm: simulation-testing throughput                               *)
(* ------------------------------------------------------------------ *)

(* How fast the DST harness burns through scenarios: N generated scenarios
   through the full middleware + journal + invariant battery, reported as
   scenarios/second and invariant verdict counts. The verdicts themselves
   are deterministic in (n, seed); only the timing is wall-clock. *)
let swarm_bench ~n ~seed ~json () =
  section "Swarm: deterministic-simulation scenarios through the full stack";
  let t0 = Unix.gettimeofday () in
  let report = Ds_dst.Swarm.run ~shrink:true ~n ~seed () in
  let elapsed = Unix.gettimeofday () -. t0 in
  let failed = List.length (Ds_dst.Swarm.failed report) in
  let checks = n * List.length Ds_dst.Invariant.names in
  let t =
    Tablefmt.create
      ~aligns:[ Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ]
      [ "scenarios"; "failed"; "invariant checks"; "elapsed (s)"; "scen/s" ]
  in
  Tablefmt.add_row t
    [
      string_of_int n;
      string_of_int failed;
      string_of_int checks;
      Printf.sprintf "%.2f" elapsed;
      Printf.sprintf "%.1f" (float_of_int n /. elapsed);
    ];
  Tablefmt.print t;
  note
    "Every scenario runs the real middleware/scheduler/worker-pool/journal \
     stack and the complete battery (%s); failures would be shrunk to \
     minimal repros. Verdicts are a pure function of (n, seed)."
    (String.concat ", " Ds_dst.Invariant.names);
  match json with
  | None -> ()
  | Some path ->
    let open Ds_obs.Json in
    let payload =
      Ds_dst.Stamp.add ~seed
        ~config:[ ("experiment", Str "swarm"); ("n", Num (float_of_int n)) ]
        (Obj
           [
             ("experiment", Str "swarm");
             ("scenarios", Num (float_of_int n));
             ("failed", Num (float_of_int failed));
             ("invariant_checks", Num (float_of_int checks));
             ("elapsed_s", Num elapsed);
             ("scenarios_per_s", Num (float_of_int n /. elapsed));
           ])
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (to_string payload);
        output_char oc '\n');
    note "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Failover: hot-standby replication under link faults                *)
(* ------------------------------------------------------------------ *)

(* {async, sync} x {clean, lossy, partition} link, each run killed by a
   permanent primary crash (pcrash) mid-flight and failed over to the hot
   standby. The durability verdict per point comes from
   [Equivalence.check_failover]: every transaction a client saw committed
   before the failover is looked up in the promoted standby journal —
   sync mode must lose none, async mode may lose only records above the
   standby's watermark (the lag window). 'fenced' counts the old primary's
   stragglers the promoted standby refused by stale epoch. *)
let failover_bench ~duration ~json () =
  section
    "Failover: hot-standby promotion under replication-link faults \
     (pcrash at cycle 150; durability checked per point)";
  let module Link = Ds_replica.Link in
  let module Session = Ds_replica.Session in
  let links =
    [
      ("clean", Link.none);
      ( "lossy",
        { Link.none with Link.drop_rate = 0.05; dup_rate = 0.02; reorder_rate = 0.1 } );
      (* the outage must open at least one txn-latency (~0.5 s) before the
         crash (cycle 150 at ~1.5 s virtual): a transaction's records are
         streamed at admission, so only txns admitted during the outage and
         acked before the crash are unreplicated when the primary dies —
         async mode loses exactly those, sync mode holds their acks *)
      ( "partition",
        { Link.none with Link.drop_rate = 0.02; partition_at = Some 0.9; partition_for = 0.8 } );
    ]
  in
  let t =
    Tablefmt.create
      ~aligns:
        [
          Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
          Tablefmt.Right; Tablefmt.Left;
        ]
      [
        "mode"; "link"; "committed"; "acked@crash"; "lost<=wm"; "lost>wm";
        "watermark"; "fenced"; "diverg"; "durability";
      ]
  in
  let points = ref [] in
  List.iter
    (fun mode ->
      List.iter
        (fun (link_name, plan) ->
          let dir = Filename.temp_file "ds_bench_repl" "" in
          Sys.remove dir;
          let journal = Filename.temp_file "ds_bench" ".journal" in
          Fun.protect ~finally:(fun () ->
              List.iter
                (fun p -> try Sys.remove p with Sys_error _ -> ())
                [
                  journal;
                  Session.standby_path_of dir;
                  Filename.concat dir "REPL";
                ];
              try Sys.rmdir dir with Sys_error _ -> ())
          @@ fun () ->
          let trace = Ds_obs.Trace.create () in
          let session =
            Session.create ~mode ~plan ~seed:42 ~trace ~dir ()
          in
          let spec = { Spec.paper_default with Spec.n_objects = 20_000 } in
          let cfg =
            {
              (middleware_cfg ~protocol:Builtin.ss2pl_ocaml
                 ~trigger:(Trigger.Hybrid (0.01, 50))
                 ~clients:30 ~duration ~spec)
              with
              Middleware.journal_path = Some journal;
              checkpoint_interval = Some 10;
              (* late enough that a meaningful set of transactions has been
                 acked to clients before the primary dies *)
              faults = { Faults.none with Faults.pcrash_at_cycle = Some 150 };
              client_redo = true;
              repl = Some (Session.hooks session);
              trace = Some trace;
              charge_scheduler_time = false;
            }
          in
          let s = Middleware.run cfg in
          Session.close session;
          let report =
            Ds_dst.Runner.failover_report session
              ~trace_events:(Ds_obs.Trace.events trace)
          in
          let ok = Ds_check.Equivalence.failover_ok report in
          points :=
            (mode, link_name, s, session, report, ok) :: !points;
          Tablefmt.add_row t
            [
              Session.mode_to_string mode;
              link_name;
              string_of_int s.Middleware.committed_txns;
              string_of_int report.Ds_check.Equivalence.acked;
              string_of_int
                (List.length report.Ds_check.Equivalence.lost_below_watermark);
              string_of_int
                (List.length report.Ds_check.Equivalence.lost_above_watermark);
              string_of_int (Session.watermark session);
              string_of_int (Session.fenced session);
              string_of_int (Session.divergences session);
              (if ok then "ok" else "VIOLATION");
            ])
        links)
    [ Session.Async; Session.Sync ];
  Tablefmt.print t;
  let sync_zero_loss =
    List.for_all
      (fun (mode, _, _, _, (r : Ds_check.Equivalence.failover_report), ok) ->
        match mode with
        | Session.Sync ->
          ok && r.Ds_check.Equivalence.lost_above_watermark = []
        | Session.Async -> true)
      !points
  in
  let async_loss_bounded =
    List.for_all
      (fun (mode, _, _, _, (r : Ds_check.Equivalence.failover_report), _) ->
        match mode with
        | Session.Async -> r.Ds_check.Equivalence.lost_below_watermark = []
        | Session.Sync -> true)
      !points
  in
  let fenced_witnessed =
    List.exists
      (fun (_, _, _, session, _, _) -> Session.fenced session > 0)
      !points
  in
  note
    "sync zero-loss: %b; async loss bounded by watermark: %b; stale-epoch \
     fencing witnessed: %b; every run failed over exactly once (epoch 0 -> 1)."
    sync_zero_loss async_loss_bounded fenced_witnessed;
  match json with
  | None -> ()
  | Some path ->
    let open Ds_obs.Json in
    let payload =
      Ds_dst.Stamp.add ~seed:42
        ~config:[ ("experiment", Str "failover"); ("duration", Num duration) ]
    @@ Obj
        [
          ("experiment", Str "failover");
          ("duration", Num duration);
          ("sync_zero_loss", Bool sync_zero_loss);
          ("async_loss_bounded", Bool async_loss_bounded);
          ("fenced_witnessed", Bool fenced_witnessed);
          ( "points",
            List
              (List.rev_map
                 (fun ( mode, link_name, (s : Middleware.stats), session,
                        (r : Ds_check.Equivalence.failover_report), ok ) ->
                   Obj
                     [
                       ("mode", Str (Session.mode_to_string mode));
                       ("link", Str link_name);
                       ("seed", Num 42.);
                       ("committed", Num (float_of_int s.Middleware.committed_txns));
                       ("failovers", Num (float_of_int s.Middleware.failovers));
                       ("epoch", Num (float_of_int (Session.epoch session)));
                       ("watermark", Num (float_of_int (Session.watermark session)));
                       ("acked_at_crash", Num (float_of_int r.Ds_check.Equivalence.acked));
                       ( "lost_below_watermark",
                         Num
                           (float_of_int
                              (List.length
                                 r.Ds_check.Equivalence.lost_below_watermark)) );
                       ( "lost_above_watermark",
                         Num
                           (float_of_int
                              (List.length
                                 r.Ds_check.Equivalence.lost_above_watermark)) );
                       ("fenced", Num (float_of_int (Session.fenced session)));
                       ( "divergences",
                         Num (float_of_int (Session.divergences session)) );
                       ("durability_ok", Bool ok);
                     ])
                 !points) );
        ]
    in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (to_string payload);
        output_char oc '\n');
    note "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let default_history_sizes = [ 1_000; 5_000; 10_000; 20_000 ]

let all_experiments ~window ~runs ~duration ~cycle_scale ~json () =
  table1 ();
  table2 ();
  figure2 ~window ~runs ();
  native_overhead ~window ~runs ();
  declarative_overhead ~runs ();
  crossover ~window ~runs ~cycle_scale ();
  succinctness ();
  datalog_vs_sql ~runs ();
  optimizer_ablation ~runs ();
  index_scaling ~json ~history_sizes:default_history_sizes ~cycles:30
    ~batch:30 ();
  trigger_policies ~duration ();
  relaxed_consistency ~duration ();
  batch_sweep ~duration ();
  open_loop ~duration ();
  mpl_ablation ~window ~runs ();
  deadlock_policy_ablation ~window ~runs ();
  history_pruning ~duration ();
  faults_sweep ~duration ~json:None ();
  obs_overhead ~duration ();
  parallel_scaling ~duration ~json:None ();
  shards_scaling ~duration ~json:None ();
  recovery_bench ~duration ~json:None ();
  failover_bench ~duration ~json:None ();
  swarm_bench ~n:25 ~seed:42 ~json:None ()

let () =
  let open Cmdliner in
  let window =
    Arg.(value & opt float 24. & info [ "window" ] ~doc:"MU measurement window (virtual s); the paper uses 240.")
  in
  let runs = Arg.(value & opt int 2 & info [ "runs" ] ~doc:"Runs per point (averaged).") in
  let duration =
    Arg.(value & opt float 5. & info [ "duration" ] ~doc:"Middleware experiment duration (virtual s).")
  in
  let cycle_scale =
    Arg.(value & opt float 1. & info [ "cycle-scale" ] ~doc:"Scale factor on declarative cycle times (emulates the paper's slower scheduler DBMS; try 100).")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the experiment's results as JSON to $(docv) (index, faults, parallel, recovery and failover).")
  in
  let history_sizes =
    Arg.(value & opt (list int) default_history_sizes & info [ "history-sizes" ] ~doc:"History sizes for the index experiment (comma-separated).")
  in
  let cycles =
    Arg.(value & opt int 30 & info [ "cycles" ] ~doc:"Measured scheduler cycles per index-experiment point.")
  in
  let batch =
    Arg.(value & opt int 30 & info [ "batch" ] ~doc:"Fresh requests submitted per cycle in the index experiment.")
  in
  let swarm_n =
    Arg.(value & opt int 100 & info [ "swarm-n" ] ~doc:"Scenarios for the swarm experiment.")
  in
  let swarm_seed =
    Arg.(value & opt int 42 & info [ "swarm-seed" ] ~doc:"Sweep base seed for the swarm experiment.")
  in
  let experiment =
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT"
           ~doc:"One of: all, table1, table2, figure2, native-overhead, declarative-overhead, crossover, listing1-micro, succinctness, datalog-vs-sql, optimizer, index, triggers, relaxed, batch-sweep, open-loop, mpl, deadlock-policy, pruning, faults, obs, parallel, shards, recovery, failover, swarm, list.")
  in
  let main experiment window runs duration cycle_scale json history_sizes
      cycles batch swarm_n swarm_seed =
    match experiment with
    | "all" -> all_experiments ~window ~runs ~duration ~cycle_scale ~json ()
    | "table1" -> table1 ()
    | "table2" -> table2 ()
    | "figure2" -> figure2 ~window ~runs ()
    | "native-overhead" -> native_overhead ~window ~runs ()
    | "declarative-overhead" -> declarative_overhead ~runs ()
    | "crossover" -> crossover ~window ~runs ~cycle_scale ()
    | "listing1-micro" -> listing1_micro ~clients:300 ()
    | "succinctness" -> succinctness ()
    | "datalog-vs-sql" -> datalog_vs_sql ~runs ()
    | "optimizer" -> optimizer_ablation ~runs ()
    | "index" -> index_scaling ~json ~history_sizes ~cycles ~batch ()
    | "triggers" -> trigger_policies ~duration ()
    | "relaxed" -> relaxed_consistency ~duration ()
    | "batch-sweep" -> batch_sweep ~duration ()
    | "open-loop" -> open_loop ~duration ()
    | "mpl" -> mpl_ablation ~window ~runs ()
    | "deadlock-policy" -> deadlock_policy_ablation ~window ~runs ()
    | "pruning" -> history_pruning ~duration ()
    | "faults" -> faults_sweep ~duration ~json ()
    | "obs" -> obs_overhead ~duration ()
    | "parallel" -> parallel_scaling ~duration ~json ()
    | "shards" -> shards_scaling ~duration ~json ()
    | "recovery" -> recovery_bench ~duration ~json ()
    | "failover" -> failover_bench ~duration ~json ()
    | "swarm" -> swarm_bench ~n:swarm_n ~seed:swarm_seed ~json ()
    | "list" ->
      print_endline
        "all table1 table2 figure2 native-overhead declarative-overhead \
         crossover listing1-micro succinctness datalog-vs-sql optimizer \
         index triggers relaxed batch-sweep open-loop mpl deadlock-policy \
         pruning faults obs parallel shards recovery failover swarm"
    | other ->
      Printf.eprintf "unknown experiment %s (try 'list')\n" other;
      exit 2
  in
  let term =
    Term.(
      const main $ experiment $ window $ runs $ duration $ cycle_scale $ json
      $ history_sizes $ cycles $ batch $ swarm_n $ swarm_seed)
  in
  let info =
    Cmd.info "bench"
      ~doc:"Regenerate the paper's tables and figures plus DESIGN.md ablations"
  in
  exit (Cmd.eval (Cmd.v info term))
