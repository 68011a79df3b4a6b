(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus the ablations listed in DESIGN.md.

     dune exec bench/main.exe                 -- all experiments, quick scale
     dune exec bench/main.exe -- figure2 --window 240 --runs 3
     dune exec bench/main.exe -- shards --json bench-shards.json
     dune exec bench/main.exe -- list

   Each experiment is one record (name, section title, run) in
   [experiments] at the bottom; its rows go through one column list that
   prints the table and builds the JSON points, so the printed report and
   the --json artifact cannot drift apart.

   Quick scale uses shorter measurement windows than the paper's 240 s; the
   reported ratios are window-relative, so the shapes are comparable. *)

open Ds_core
open Ds_server
open Ds_workload
module Tablefmt = Ds_util.Tablefmt
module Json = Ds_obs.Json

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Columns, reports and experiments                                   *)
(* ------------------------------------------------------------------ *)

(* A column is declared once: its JSON key, its table header (none for a
   JSON-only column) and how a row renders as a cell and as JSON. *)
type 'r column = {
  key : string;
  head : string option;
  align : Tablefmt.align;
  text : 'r -> string;
  json : 'r -> Json.t;
}

let col ?head ?(align = Tablefmt.Right) key text json =
  { key; head; align; text; json }

let num_i n = Json.Num (float_of_int n)

let int ?head key get =
  col ?head key (fun r -> string_of_int (get r)) (fun r -> num_i (get r))

(* [scale] applies to the printed cell only: JSON keeps the raw value, so a
   "_s" key can back a "(ms)" header. *)
let float ?head ?(scale = 1.) key fmt get =
  col ?head key
    (fun r -> Printf.sprintf fmt (scale *. get r))
    (fun r -> Json.Num (get r))

let str ?head key get =
  col ?head ~align:Tablefmt.Left key get (fun r -> Json.Str (get r))

let flag ?head key (yes, no) get =
  col ?head ~align:Tablefmt.Left key
    (fun r -> if get r then yes else no)
    (fun r -> Json.Bool (get r))

(* A JSON-only column with the same value on every row. *)
let const key v = col key (fun _ -> "") (fun _ -> v)

let fields cols r = List.map (fun c -> (c.key, c.json r)) cols

(* The one row emitter: prints the columns that have a header as a table
   and returns every row as a JSON point. *)
let emit rows cols =
  let shown = List.filter (fun c -> c.head <> None) cols in
  let t =
    Tablefmt.create
      ~aligns:(List.map (fun c -> c.align) shown)
      (List.filter_map (fun c -> c.head) shown)
  in
  List.iter
    (fun r -> Tablefmt.add_row t (List.map (fun c -> c.text r) shown))
    rows;
  Tablefmt.print t;
  List.map (fun r -> Json.Obj (fields cols r)) rows

(* The flags, one record shared by [all] and single runs. *)
type params = {
  window : float;  (** MU measurement window (virtual s) *)
  runs : int;  (** runs per point, averaged *)
  duration : float;  (** middleware experiment duration (virtual s) *)
  cycle_scale : float;  (** scale factor on declarative cycle times *)
  history_sizes : int list;  (** index experiment sweep *)
  cycles : int;  (** measured cycles per index point *)
  swarm_n : int;  (** swarm experiment scenarios *)
}

type report = {
  seed : int;  (** the seed the artifact stamp records *)
  config : (string * Json.t) list;  (** knobs: in the stamp and top level *)
  summary : (string * Json.t) list;  (** top-level verdicts *)
  points : Json.t list;
}

let mw_seed = Middleware.default_config.Middleware.seed

let report ?(seed = mw_seed) ?(summary = []) config points =
  { seed; config; summary; points }

let by_window p = [ ("window", Json.Num p.window); ("runs", num_i p.runs) ]
let by_runs p = [ ("runs", num_i p.runs) ]
let by_duration p = [ ("duration", Json.Num p.duration) ]

type experiment = {
  name : string;
  title : string;  (** the section banner *)
  in_all : bool;  (** part of [all] (the Bechamel micro is not) *)
  run : params -> report;
}

let exp ?(in_all = true) name title run = { name; title; in_all; run }

(* ------------------------------------------------------------------ *)
(* Shared measurement machinery                                       *)
(* ------------------------------------------------------------------ *)

(* Runs [cfg] once per seed [seed .. seed + runs - 1] and returns [avg]:
   the mean over those runs of a statistic of each run's [keep] projection
   (which lets a caller drop the logged schedule once it has used it). *)
let native_avg ~runs ~seed cfg keep =
  let xs =
    List.init runs (fun r ->
        keep (Native_sim.run { cfg with Native_sim.seed = seed + r }))
  in
  fun f -> List.fold_left (fun acc x -> acc +. f x) 0. xs /. float_of_int runs

(* Averaged MU statistics + SU replay time for one client count. *)
type mu_point = {
  clients : int;
  committed_stmts : float;
  su_time : float;
  ratio_pct : float;  (** MU window / SU replay of the committed schedule *)
  deadlocks : float;
  cpu_util : float;
}

let mu_seed = 42

let measure_mu p clients =
  let avg =
    native_avg ~runs:p.runs ~seed:mu_seed
      {
        Native_sim.default_config with
        Native_sim.n_clients = clients;
        duration = p.window;
        log_schedule = true;
      }
      (fun s ->
        ( { s with Native_sim.schedule = [] },
          Replay.single_user_time Cost_model.default s.Native_sim.schedule ))
  in
  let su_time = avg snd in
  {
    clients;
    committed_stmts =
      avg (fun (s, _) -> float_of_int s.Native_sim.committed_stmts);
    su_time;
    ratio_pct = 100. *. p.window /. su_time;
    deadlocks = avg (fun (s, _) -> float_of_int s.Native_sim.deadlocks);
    cpu_util = avg (fun (s, _) -> s.Native_sim.cpu_utilization);
  }

let mu_cols =
  [
    int ~head:"clients" "clients" (fun m -> m.clients);
    float ~head:"MU stmts" "mu_stmts" "%.0f" (fun m -> m.committed_stmts);
    float ~head:"SU time (s)" "su_time_s" "%.1f" (fun m -> m.su_time);
  ]

(* A column of a Native_sim sweep whose rows carry [avg]. *)
let mean ?scale head key f =
  float ~head ?scale key "%.0f" (fun (_, avg) -> avg f)

let probe p clients proto =
  Overhead_probe.measure ~runs:p.runs
    { Overhead_probe.default_setup with Overhead_probe.n_clients = clients }
    proto

(* Heap words a call allocates, as (minor, promoted) means over [calls]
   calls after one warm-up call. [Gc.minor_words] is exact; the promoted
   count only moves at minor collections, hence the mean. *)
type words = { minor : float; promoted : float }

let alloc_per_call ~calls f =
  f ();
  let m0 = Gc.minor_words () and _, p0, _ = Gc.counters () in
  for _ = 1 to calls do
    f ()
  done;
  let m1 = Gc.minor_words () and _, p1, _ = Gc.counters () in
  let n = float_of_int calls in
  { minor = (m1 -. m0) /. n; promoted = (p1 -. p0) /. n }

(* [proto] with the heap words of each protocol evaluation added to [acc]
   (its call count in [calls]). *)
let counting_words proto ~acc ~calls =
  {
    proto with
    Protocol.prepare =
      (fun rels ->
        let qualify = proto.Protocol.prepare rels in
        fun () ->
          let m0 = Gc.minor_words () and _, p0, _ = Gc.counters () in
          let keys = qualify () in
          let m1 = Gc.minor_words () and _, p1, _ = Gc.counters () in
          acc := { minor = !acc.minor +. m1 -. m0; promoted = !acc.promoted +. p1 -. p0 };
          incr calls;
          keys);
  }

let alloc_cols get =
  [
    float ~head:"minor kw/run" ~scale:1e-3 "minor_words" "%.1f" (fun r ->
        (get r).minor);
    float ~head:"promoted kw/run" ~scale:1e-3 "promoted_words" "%.1f" (fun r ->
        (get r).promoted);
  ]

let spec20k = { Spec.paper_default with Spec.n_objects = 20_000 }

let mw_cfg ?(protocol = Builtin.ss2pl_ocaml)
    ?(trigger = Trigger.Hybrid (0.01, 50)) ?(spec = spec20k) ~clients p =
  {
    Middleware.default_config with
    Middleware.n_clients = clients;
    duration = p.duration;
    spec;
    protocol;
    trigger;
    charge_scheduler_time = true;
  }

(* Middleware stats columns shared by the closed-loop experiments. *)
let committed ?(head = "committed") get =
  int ~head "committed" (fun r -> (get r).Middleware.committed_txns)

let p95_latency get =
  float ~head:"p95 latency (s)" "p95_latency_s" "%.3f" (fun r ->
      (get r).Middleware.p95_txn_latency)

let mean_cycle get =
  float ~head:"mean cycle (ms)" ~scale:1000. "mean_cycle_s" "%.3f" (fun r ->
      (get r).Middleware.mean_cycle_time)

(* Checker and conflict-equivalence verdicts for a run's merged schedule;
   with [shards > 1] equivalence also checks router soundness. *)
let verdicts ?(shards = 1) (h : Middleware.handle) =
  let rte = h.Middleware.merged_rte in
  (* The merged schedule, reassembled from the declarative assignment log
     (pos = delivery order). *)
  let merged = Middleware.delivered h in
  let serial =
    Ds_check.Serializability.check_committed
      (Ds_check.Conflict_graph.events_of_requests rte)
  in
  let equiv =
    if shards > 1 then
      Ds_check.Equivalence.check_sharded ~shards
        ~shard_of:h.Middleware.shard_of ~reference:rte ~candidate:merged ()
    else Ds_check.Equivalence.check ~reference:rte ~candidate:merged ()
  in
  ( Ds_check.Serializability.is_clean serial,
    Ds_check.Equivalence.is_equivalent equiv )

let verdict_cols get =
  [
    flag ~head:"checker" "checker_clean" ("clean", "DIRTY") (fun r ->
        fst (get r));
    flag ~head:"conflict-equivalent" "conflict_equivalent" ("yes", "NO")
      (fun r -> snd (get r));
  ]

(* [base /. x], the ratio the scaling experiments report against their
   first point. *)
let ratio base x = if x > 0. then base /. x else 1.

let with_temp_journal f =
  let path = Filename.temp_file "ds_bench" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Experiments                                                        *)
(* ------------------------------------------------------------------ *)

(* E1 — Figure 2 *)
let figure2 =
  exp "figure2" "Figure 2: execution time MU / execution time SU (%)"
  @@ fun p ->
  note "%.0f s window, %d run(s) per point" p.window p.runs;
  let rows =
    List.map (measure_mu p)
      [ 1; 25; 50; 100; 150; 200; 250; 300; 350; 400; 450; 500; 550; 600 ]
  in
  let points =
    emit rows
      (mu_cols
      @ [
          float ~head:"MU/SU (%)" "mu_su_pct" "%.0f" (fun m -> m.ratio_pct);
          float ~head:"deadlocks" "deadlocks" "%.0f" (fun m -> m.deadlocks);
        ])
  in
  (* ASCII rendition of the figure (log-scale y, like the paper's plot). *)
  note "";
  note "log10(MU/SU %%) vs clients  (paper: ~100%% at 1 client, knee before 500)";
  List.iter
    (fun m ->
      let stars =
        int_of_float ((log10 (Float.max 100. m.ratio_pct) -. 1.9) *. 25.)
      in
      note "%5d | %s %.0f%%" m.clients (String.make (max 1 stars) '#')
        m.ratio_pct)
    rows;
  report ~seed:mu_seed (by_window p) points

(* E2 — §4.2.2 native scheduler overhead *)
let native_overhead =
  exp "native-overhead"
    "Native scheduler overhead (paper 4.2.2; paper at 240 s: 300 clients -> \
     550055 stmts, SU 194 s, overhead 46 s; 500 clients -> 48267 stmts, SU \
     15 s, overhead 225 s)"
  @@ fun p ->
  let points =
    emit
      (List.map (measure_mu p) [ 300; 500 ])
      (mu_cols
      @ [
          float ~head:"overhead (s)" "overhead_s" "%.1f" (fun m ->
              p.window -. m.su_time);
          float ~head:"CPU util (%)" ~scale:100. "cpu_util" "%.0f" (fun m ->
              m.cpu_util);
        ])
  in
  note "window = %.0f s; 'overhead' = window - SU replay time (paper's method)"
    p.window;
  report ~seed:mu_seed (by_window p) points

(* E3 — §4.3.2 declarative scheduling overhead *)
let declarative_overhead =
  exp "declarative-overhead"
    "Declarative scheduling overhead (paper 4.3.2; paper: 358 ms per cycle at \
     300 clients, 545 ms at 500; qualified ~ clients/2)"
  @@ fun p ->
  let module O = Overhead_probe in
  let ms head key get = float ~head ~scale:1000. key "%.3f" get in
  let points =
    emit
      (List.map
         (fun c -> probe p c Builtin.ss2pl_sql)
         [ 50; 100; 200; 300; 400; 500; 600 ])
      [
        int ~head:"clients" "clients" (fun m -> m.O.n_clients);
        int ~head:"pending" "pending" (fun m -> m.O.pending);
        int ~head:"history" "history" (fun m -> m.O.history);
        int ~head:"qualified" "qualified" (fun m -> m.O.qualified);
        ms "cycle (ms)" "cycle_s" (fun m -> m.O.cycle_time);
        ms "query (ms)" "query_s" (fun m -> m.O.query_time);
      ]
  in
  note
    "One cycle = drain queue + insert pending + run Listing 1 + move \
     qualified to history (the paper's 4.3.1 measurement).";
  report (by_runs p) points

(* E3b — crossover: native vs declarative amortized overhead *)
let crossover =
  exp "crossover"
    "Crossover: native scheduling overhead vs amortized declarative overhead"
  @@ fun p ->
  note "cycle-time scale factor %.0fx" p.cycle_scale;
  note
    "The paper (2010, commercial DBMS as query processor) found the \
     crossover between 300 and 500 clients. Our in-process OCaml engine \
     evaluates Listing 1 orders of magnitude faster, which moves the \
     crossover to much lower client counts; --cycle-scale emulates a slower \
     scheduler database.";
  let point clients =
    let mu = measure_mu p clients in
    let m = probe p clients Builtin.ss2pl_sql in
    let decl_ovh =
      p.cycle_scale
      *. Overhead_probe.amortized_overhead m
           ~total_stmts:(int_of_float mu.committed_stmts)
    in
    let cycles_needed =
      mu.committed_stmts /. float_of_int (max 1 m.Overhead_probe.qualified)
    in
    (clients, p.window -. mu.su_time, decl_ovh, cycles_needed)
  in
  let ovh head key get = float ~head key "%.1f" get in
  let points =
    emit
      (List.map point [ 1; 10; 25; 50; 100; 200; 300; 400; 500 ])
      [
        int ~head:"clients" "clients" (fun (c, _, _, _) -> c);
        ovh "native ovh (s)" "native_overhead_s" (fun (_, n, _, _) -> n);
        ovh "declarative ovh (s)" "declarative_overhead_s" (fun (_, _, d, _) ->
            d);
        float ~head:"cycles needed" "cycles_needed" "%.0f" (fun (_, _, _, c) ->
            c);
        str ~head:"winner" "winner" (fun (_, n, d, _) ->
            if d < n then "declarative" else "native");
      ]
  in
  report ~seed:mu_seed (("cycle_scale", Json.Num p.cycle_scale) :: by_window p)
    points

(* E4 — Table 1 *)
let table1 =
  exp "table1"
    "Table 1: related approaches (P performance, QoS, D declarativity, F \
     flexibility, HS high scalability)"
  @@ fun _ ->
  let feature head key get =
    col ~head ~align:Tablefmt.Center key
      (fun (a : Related.approach) ->
        if get a.Related.features then "+" else "-")
      (fun a -> Json.Bool (get a.Related.features))
  in
  let points =
    emit
      (Related.paper_rows @ [ Related.declarative_scheduler ])
      [
        str ~head:"Approach" "approach" (fun a -> a.Related.name);
        str "reference" (fun a -> a.Related.reference);
        feature "P" "performance" (fun f -> f.Related.performance);
        feature "QoS" "qos" (fun f -> f.Related.qos);
        feature "D" "declarative" (fun f -> f.Related.declarative);
        feature "F" "flexible" (fun f -> f.Related.flexible);
        feature "HS" "high_scalability" (fun f -> f.Related.high_scalability);
      ]
  in
  report [] points

(* E5 — Table 2 *)
let table2 =
  exp "table2" "Table 2: attributes of the requests / history / rte tables"
  @@ fun _ ->
  let points =
    emit
      [
        ("ID", "Consecutive request number");
        ("TA", "Transaction number");
        ("INTRATA", "Request number within a transaction");
        ("Operation", "Operation type (read/write/abort/commit)");
        ("Object", "Object number");
      ]
      [
        str ~head:"Attribute" "attribute" fst;
        str ~head:"Description" "description" snd;
      ]
  in
  let s = Relations.schema ~extended:false in
  note "Implemented schema: %s"
    (Format.asprintf "%a" Ds_relal.Schema.pp s);
  note "Extended (QoS) schema: %s"
    (Format.asprintf "%a" Ds_relal.Schema.pp (Relations.schema ~extended:true));
  report [] points

(* E6/A2 — Listing 1 microbenchmark via Bechamel *)
let listing1_micro =
  let clients = 300 in
  exp ~in_all:false "listing1-micro"
    (Printf.sprintf
       "Listing 1 evaluation cost at %d clients (Bechamel; optimizer ablation \
        A2)"
       clients)
  @@ fun _ ->
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
    let run () = ignore (Ds_sql.Exec.run_plan plan) in
    (* The unoptimized plans take seconds per evaluation. *)
    let words = alloc_per_call ~calls:(if level = `None then 2 else 50) run in
    (Bechamel.Test.make ~name (Bechamel.Staged.stage run), words)
  in
  let estimate test =
    let open Bechamel in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
    let ols =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock
        (Benchmark.all cfg instances test)
    in
    Hashtbl.fold
      (fun name result acc ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> (name, Some (est /. 1e6)) :: acc
        | _ -> (name, None) :: acc)
      ols []
  in
  let points =
    emit
      (List.concat_map
         (fun (test, words) ->
           List.map (fun (name, ms) -> (name, ms, words)) (estimate test))
         [
           make_test `None "ss2pl-noopt";
           make_test `Basic "ss2pl-basic";
           make_test `Full "ss2pl-full";
         ])
      ([
         str ~head:"plan" "plan" (fun (name, _, _) -> name);
         col ~head:"ms/run" "ms_per_run"
           (fun (_, ms, _) ->
             Option.fold ~none:"(no estimate)" ~some:(Printf.sprintf "%.3f") ms)
           (fun (_, ms, _) ->
             Option.fold ~none:Json.Null ~some:(fun v -> Json.Num v) ms);
       ]
      @ alloc_cols (fun (_, _, words) -> words))
  in
  report ~seed:42 [ ("clients", num_i clients) ] points

let trigger_policies =
  exp "triggers"
    "Ablation A1: trigger policy (paper 3.3: 'the best condition has to be \
     evaluated experimentally')"
  @@ fun p ->
  let run trigger =
    (trigger, fst (Middleware.run_sharded (mw_cfg ~trigger ~clients:100 p)))
  in
  let points =
    emit
      (List.map run
         [
           Trigger.Time_lapse 0.002;
           Trigger.Time_lapse 0.01;
           Trigger.Time_lapse 0.05;
           Trigger.Fill_level 25;
           Trigger.Fill_level 100;
           Trigger.Hybrid (0.01, 100);
         ])
      [
        str ~head:"trigger" "trigger" (fun (tr, _) -> Trigger.to_string tr);
        committed ~head:"committed txns" snd;
        int ~head:"cycles" "cycles" (fun (_, s) -> s.Middleware.cycles);
        float ~head:"mean batch" "mean_batch" "%.1f" (fun (_, s) ->
            s.Middleware.mean_batch);
        p95_latency snd;
      ]
  in
  report (by_duration p) points

let succinctness =
  exp "succinctness"
    "Ablation A3a: specification size (paper 3.4 productivity metric, lines)"
  @@ fun _ ->
  let points =
    emit
      [
        Builtin.ss2pl_sql;
        Builtin.ss2pl_datalog;
        Builtin.ss2pl_ocaml;
        Builtin.ss2pl_ordered_sql;
        Builtin.ss2pl_ordered_datalog;
        Builtin.read_committed_sql;
        Builtin.read_committed_datalog;
      ]
      [
        str ~head:"protocol" "protocol" (fun pr -> pr.Protocol.name);
        str ~head:"language" "language" (fun pr ->
            match pr.Protocol.language with
            | `Sql -> "SQL"
            | `Datalog -> "Datalog"
            | `Ocaml -> "OCaml (imperative)");
        int ~head:"spec lines" "spec_lines" (fun pr -> pr.Protocol.spec_loc);
      ]
  in
  report [] points

(* Columns of the experiments whose rows are a client count and an array
   of timings, one per [(head, key)]. *)
let timings_cols heads =
  int ~head:"clients" "clients" fst
  :: List.mapi
       (fun i (head, key) -> float ~head key "%.2f" (fun (_, t) -> t.(i)))
       heads

let datalog_vs_sql =
  exp "datalog-vs-sql"
    "Ablation A3b: protocol evaluation cost, SQL vs Datalog vs OCaml"
  @@ fun p ->
  let time c proto = 1000. *. (probe p c proto).Overhead_probe.cycle_time in
  let points =
    emit
      (List.map
         (fun c ->
           let sql = time c Builtin.ss2pl_sql in
           let datalog = time c Builtin.ss2pl_datalog in
           (c, [| sql; datalog; time c Builtin.ss2pl_ocaml |]))
         [ 50; 150; 300; 500 ])
      (timings_cols
         [
           ("SQL (ms)", "sql_ms");
           ("Datalog (ms)", "datalog_ms");
           ("OCaml (ms)", "ocaml_ms");
         ])
  in
  report (by_runs p) points

let optimizer_ablation =
  exp "optimizer"
    "Ablation A2: optimizer level for Listing 1 (same declarative spec, \
     different plans)"
  @@ fun p ->
  let run c (plan, level, indexes) =
    let saved = !Ds_relal.Eval.use_table_indexes in
    Ds_relal.Eval.use_table_indexes := indexes;
    let acc = ref { minor = 0.; promoted = 0. } and calls = ref 0 in
    let m =
      probe p c (counting_words (Builtin.ss2pl_sql_at level) ~acc ~calls)
    in
    Ds_relal.Eval.use_table_indexes := saved;
    let n = float_of_int (max 1 !calls) in
    ( c,
      plan,
      1000. *. m.Overhead_probe.query_time,
      { minor = !acc.minor /. n; promoted = !acc.promoted /. n } )
  in
  let points =
    emit
      (List.concat_map
         (fun c ->
           List.map (run c)
             [
               ("no-opt", `None, true);
               ("basic", `Basic, true);
               ("full", `Full, true);
               ("full, no index", `Full, false);
             ])
         [ 50; 150; 300 ])
      ([
         int ~head:"clients" "clients" (fun (c, _, _, _) -> c);
         str ~head:"plan" "plan" (fun (_, plan, _, _) -> plan);
         float ~head:"query (ms)" "query_ms" "%.2f" (fun (_, _, ms, _) -> ms);
       ]
      @ alloc_cols (fun (_, _, _, words) -> words))
  in
  note
    "The specification is identical in every row; only plan rewriting \
     differs (the paper's 1 'optimization without affecting the scheduler \
     specification').";
  report (by_runs p) points

let relaxed_consistency =
  exp "relaxed"
    "Ablation A4: relaxed consistency under contention (paper 1: 'reduced \
     consistency criteria may be used during times of high load')"
  @@ fun p ->
  let run spec (protocol : Protocol.t) =
    let trigger = Trigger.Hybrid (0.01, 60) in
    ( protocol,
      fst (Middleware.run_sharded (mw_cfg ~protocol ~trigger ~spec ~clients:60 p)) )
  in
  let head mix =
    [
      const "mix" (Json.Str mix);
      str ~head:"protocol" "protocol" (fun (pr, _) -> pr.Protocol.name);
      committed ~head:"committed txns" snd;
    ]
  in
  let spec = { Spec.paper_default with Spec.n_objects = 3_000 } in
  let contended =
    emit
      (List.map (run spec)
         [
           Builtin.ss2pl_sql;
           Builtin.read_committed_sql;
           Builtin.rationing ~threshold:300;
           Adaptive.protocol
             (Adaptive.ss2pl_with_relief ~high_watermark:40 ~low_watermark:10);
           Builtin.fcfs;
         ])
      (head "contended"
      @ [
          int ~head:"starvation aborts" "starvation_aborts" (fun (_, s) ->
              s.Middleware.aborted_txns);
          p95_latency snd;
        ])
  in
  (* Read-mostly variant (80% read-only transactions): the regime where the
     Ganymed-style reader offload (paper 2) pays off. *)
  note "";
  note "Read-mostly variant (80%% read-only transactions):";
  let spec =
    { spec with Spec.read_only_fraction = 0.8; updates_per_txn = 6; selects_per_txn = 14 }
  in
  let read_mostly =
    emit
      (List.map (run spec)
         [
           Builtin.ss2pl_sql;
           Builtin.read_committed_sql;
           Builtin.reader_offload;
         ])
      (head "read-mostly" @ [ p95_latency snd ])
  in
  report (by_duration p) (contended @ read_mostly)

let batch_sweep =
  exp "batch-sweep" "Ablation A5: fill-level (batch size) sweep" @@ fun p ->
  let run k =
    let trigger = Trigger.Hybrid (0.1, k) in
    (k, fst (Middleware.run_sharded (mw_cfg ~trigger ~clients:120 p)))
  in
  let points =
    emit
      (List.map run [ 10; 30; 60; 120; 240 ])
      [
        int ~head:"fill level" "fill_level" fst;
        committed ~head:"committed txns" snd;
        mean_cycle snd;
        p95_latency snd;
      ]
  in
  report (by_duration p) points

let mpl_ablation =
  exp "mpl"
    "Ablation: multiprogramming limit at 500 clients (the EQMS-style MPL \
     tuning of Schroeder et al., paper 2) - admission control avoids the \
     thrashing the declarative scheduler also avoids"
  @@ fun p ->
  let run mpl =
    ( mpl,
      native_avg ~runs:p.runs ~seed:61
        {
          Native_sim.default_config with
          Native_sim.n_clients = 500;
          duration = p.window;
          mpl;
        }
        Fun.id )
  in
  let points =
    emit
      (List.map run [ None; Some 300; Some 150; Some 75; Some 25 ])
      [
        col ~head:"MPL" ~align:Tablefmt.Left "mpl"
          (fun (mpl, _) ->
            Option.fold ~none:"unlimited" ~some:string_of_int mpl)
          (fun (mpl, _) -> Option.fold ~none:Json.Null ~some:num_i mpl);
        mean "MU stmts" "mu_stmts" (fun s ->
            float_of_int s.Native_sim.committed_stmts);
        mean "deadlocks" "deadlocks" (fun s ->
            float_of_int s.Native_sim.deadlocks);
        mean "CPU util (%)" ~scale:100. "cpu_util" (fun s ->
            s.Native_sim.cpu_utilization);
      ]
  in
  report ~seed:61 (by_window p) points

let open_loop =
  exp "open-loop"
    "Open-loop batch scheduling: whole transactions arrive as a Poisson \
     stream (the paper's pre-scheduled workloads); saturation sweep over the \
     arrival rate (server capacity ~ 69 txns/s at 41 ops per txn)"
  @@ fun p ->
  let spec = { Spec.paper_default with Spec.n_objects = 50_000 } in
  let run rate (protocol : Protocol.t) =
    let s =
      Batch_sim.run
        {
          Batch_sim.default_config with
          Batch_sim.arrival_rate = rate;
          duration = p.duration;
          spec;
          protocol;
        }
    in
    (rate, protocol, s)
  in
  let count head key f = int ~head key (fun (_, _, s) -> f s) in
  let points =
    emit
      (List.concat_map
         (fun rate ->
           List.map (run rate)
             [ Builtin.ss2pl_ocaml; Builtin.c2pl; Builtin.fcfs ])
         [ 20.; 40.; 60.; 80. ])
      [
        float ~head:"txns/s" "arrival_rate" "%.0f" (fun (r, _, _) -> r);
        str ~head:"protocol" "protocol" (fun (_, pr, _) -> pr.Protocol.name);
        count "completed" "completed" (fun s -> s.Batch_sim.completed_txns);
        float ~head:"p95 latency (s)" "p95_latency_s" "%.3f" (fun (_, _, s) ->
            s.Batch_sim.p95_latency);
        count "peak backlog" "peak_backlog" (fun s -> s.Batch_sim.peak_backlog);
        count "residual" "residual" (fun s -> s.Batch_sim.residual_pending);
      ]
  in
  note
    "Beyond saturation (~69 txns/s) completions cap at server capacity and \
     latency explodes: the excess queues in front of the server, while the \
     scheduler-side backlog stays bounded at this (low) contention level. \
     The protocols coincide here because conflicts are rare; the closed-loop \
     'relaxed' experiment covers the contended regime.";
  report (by_duration p) points

let deadlock_policy_ablation =
  exp "deadlock-policy"
    "Ablation: deadlock handling in the native scheduler (detection vs \
     wound-wait), 300 clients on a contended store"
  @@ fun p ->
  let run (name, policy) =
    ( name,
      native_avg ~runs:p.runs ~seed:71
        {
          Native_sim.default_config with
          Native_sim.n_clients = 300;
          duration = p.window;
          spec = spec20k;
          deadlock_policy = policy;
        }
        Fun.id )
  in
  let count head key get = mean head key (fun s -> float_of_int (get s)) in
  let points =
    emit
      (List.map run [ ("detection", `Detection); ("wound-wait", `Wound_wait) ])
      [
        str ~head:"policy" "policy" fst;
        count "MU stmts" "mu_stmts" (fun s -> s.Native_sim.committed_stmts);
        count "deadlocks" "deadlocks" (fun s -> s.Native_sim.deadlocks);
        count "wounds" "wounds" (fun s -> s.Native_sim.wounds);
        count "wasted stmts" "wasted_stmts" (fun s ->
            s.Native_sim.wasted_stmts);
      ]
  in
  report ~seed:71 (by_window p) points

let history_pruning =
  exp "pruning" "Ablation: history pruning on/off" @@ fun p ->
  let run prune =
    let cfg =
      mw_cfg ~protocol:Builtin.ss2pl_sql ~trigger:(Trigger.Hybrid (0.01, 60))
        ~clients:60 p
    in
    ( prune,
      fst (Middleware.run_sharded { cfg with Middleware.prune_history = prune }) )
  in
  let points =
    emit
      (List.map run [ true; false ])
      [
        flag ~head:"pruning" "prune_history" ("every cycle", "never") fst;
        committed ~head:"committed txns" snd;
        mean_cycle snd;
      ]
  in
  report (by_duration p) points

let faults_sweep =
  exp "faults"
    "Chaos sweep: fault injection vs graceful degradation (bounded queue, \
     retries with backoff, dead-lettering). 'rate' scales every fault \
     channel; per-tier p95 shows that shedding protects premium traffic."
  @@ fun p ->
  let spec =
    {
      spec20k with
      sla_mix =
        [ (Ds_model.Sla.premium, 0.2); (Ds_model.Sla.standard, 0.5); (Ds_model.Sla.free, 0.3) ];
    }
  in
  let run rate =
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
        (mw_cfg ~trigger:(Trigger.Hybrid (0.01, 60)) ~spec ~clients:60 p) with
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
    (cfg, fst (Middleware.run_sharded cfg))
  in
  let count head key f = int ~head key (fun (_, s) -> f s) in
  let p95 head key tier =
    let get (_, s) =
      List.find_map
        (fun (t, _, q, _) -> if t = tier then Some q else None)
        s.Middleware.latency_by_tier
    in
    col ~head key
      (fun r -> Option.fold ~none:"-" ~some:(Printf.sprintf "%.3f") (get r))
      (fun r -> Option.fold ~none:Json.Null ~some:(fun q -> Json.Num q) (get r))
  in
  let points =
    emit
      (List.map run [ 0.; 0.02; 0.05; 0.1; 0.2 ])
      [
        float ~head:"fault rate" "fault_rate" "%.2f" (fun (cfg, _) ->
            cfg.Middleware.faults.Faults.batch_fail_rate);
        (* every record carries the knobs that reproduce it *)
        int "workers" (fun ((cfg : Middleware.config), _) ->
            cfg.Middleware.workers);
        int "seed" (fun (cfg, _) -> cfg.Middleware.seed);
        committed snd;
        count "retries" "retries" (fun s -> s.Middleware.retries);
        count "shed" "shed" (fun s -> s.Middleware.shed_txns);
        count "dead" "dead" (fun s -> s.Middleware.dead_lettered);
        p95 "p95 prem (s)" "p95_premium_s" Ds_model.Sla.Premium;
        p95 "p95 std (s)" "p95_standard_s" Ds_model.Sla.Standard;
        p95 "p95 free (s)" "p95_free_s" Ds_model.Sla.Free;
        int "injected" (fun (_, s) -> s.Middleware.injected_failures);
      ]
  in
  note
    "Same seed, same plan => identical counters (deterministic chaos). At \
     high rates the retry ladder trades latency for completed transactions; \
     poison requests end in the dead-letter relation instead of wedging the \
     loop.";
  report (by_duration p) points

(* Fresh requests submitted per cycle in the index experiment. *)
let index_batch = 30

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
let index_scaling =
  exp "index"
    "Index maintenance: per-cycle protocol-query + move time vs history size \
     (incremental vs invalidate-and-rebuild)"
  @@ fun p ->
  let cycles = p.cycles in
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
      for _k = 1 to index_batch do
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
  let point (regime, name) history_size =
    let rebuild, _, rebuild_q =
      run_mode ~regime ~incremental:false ~history_size
    in
    let incr, index, incr_q =
      run_mode ~regime ~incremental:true ~history_size
    in
    (name, history_size, [| rebuild; incr; index |], rebuild_q = incr_q)
  in
  let ms head key i =
    float ~head ~scale:1000. key "%.3f" (fun (_, _, t, _) -> t.(i))
  in
  let points =
    emit
      (List.concat_map
         (fun regime -> List.map (point regime) p.history_sizes)
         [ (`Churn, "churn (fcfs+prune)"); (`Scan, "scan (ss2pl-sql)") ])
      [
        str ~head:"regime" "regime" (fun (r, _, _, _) -> r);
        int ~head:"history" "history" (fun (_, h, _, _) -> h);
        ms "rebuild (ms)" "rebuild_s" 0;
        ms "incremental (ms)" "incremental_s" 1;
        ms "index (ms)" "index_s" 2;
        float ~head:"speedup" "speedup" "%.1fx" (fun (_, _, t, _) ->
            t.(0) /. Float.max 1e-9 t.(1));
        flag ~head:"identical" "identical" ("true", "false")
          (fun (_, _, _, same) -> same);
      ]
  in
  note
    "%d measured cycles, %d fresh transactions per cycle; 'identical' = both \
     modes admitted the same (TA, INTRATA) sequence; 'index' = incremental \
     mode's per-cycle maintenance time. The churn regime isolates the \
     scheduler write path (move + prune), where the rebuild baseline pays \
     O(|history|) per cycle; the scan regime includes Listing 1's inherent \
     full-history recomputation, which bounds the achievable speedup."
    cycles index_batch;
  report ~seed:0 [ ("cycles", num_i cycles); ("batch", num_i index_batch) ]
    points

let obs_overhead =
  exp "obs"
    "Observability: tracing off vs on (same seed; lifecycle events + tier \
     metrics)"
  @@ fun p ->
  let base =
    {
      (mw_cfg ~trigger:(Trigger.Hybrid (0.01, 60)) ~clients:60 p) with
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
  let s_off, t_off = time (fun () -> fst (Middleware.run_sharded base)) in
  let tr = Ds_obs.Trace.create () in
  let m = Ds_obs.Metrics.create () in
  let s_on, t_on =
    time (fun () ->
        fst
          (Middleware.run_sharded
             { base with Middleware.trace = Some tr; metrics = Some m }))
  in
  let overhead_pct = 100. *. (t_on -. t_off) /. Float.max 1e-9 t_off in
  note "tracing off: %.3fs wall" t_off;
  note "tracing on:  %.3fs wall  (%d events, %+.1f%% overhead)" t_on
    (Ds_obs.Trace.count tr) overhead_pct;
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
  let identical = deterministic s_off = deterministic s_on in
  note "simulation stats identical under tracing: %b (no observer effect)"
    identical;
  let points =
    emit
      (Ds_obs.Metrics.tier_quantiles m)
      [
        str ~head:"tier" "tier" (fun (t, _, _, _, _) -> t);
        int ~head:"n" "n" (fun (_, n, _, _, _) -> n);
        float ~head:"p50 (s)" "p50_s" "%.3f" (fun (_, _, q, _, _) -> q);
        float ~head:"p95 (s)" "p95_s" "%.3f" (fun (_, _, _, q, _) -> q);
        float ~head:"p99 (s)" "p99_s" "%.3f" (fun (_, _, _, _, q) -> q);
      ]
  in
  let valid =
    match Ds_obs.Span.validate (Ds_obs.Trace.events tr) with
    | Ok () ->
      note "trace valid (%d transactions)"
        (List.length (Ds_obs.Span.build (Ds_obs.Trace.events tr)));
      true
    | Error e ->
      note "TRACE INVALID: %s" e;
      false
  in
  report (by_duration p) points
    ~summary:
      [
        ("stats_identical", Json.Bool identical);
        ("trace_valid", Json.Bool valid);
        ("overhead_pct", Json.Num overhead_pct);
      ]

let parallel_scaling =
  exp "parallel"
    "Parallel backend: conflict-class execution across K workers \
     (low-conflict workload; every schedule checker-validated)"
  @@ fun p ->
  let run workers =
    let m = Ds_obs.Metrics.create () in
    let s, h =
      Middleware.run_sharded
        {
          (mw_cfg ~clients:80 p) with
          Middleware.workers;
          metrics = Some m;
          (* identical virtual-time behavior at every K: don't charge
             wall-clock scheduler time *)
          charge_scheduler_time = false;
        }
    in
    let util =
      match Ds_obs.Metrics.parallel m with
      | Some { Ds_obs.Metrics.per_worker = _ :: _ as ws; _ } ->
        List.fold_left (fun acc w -> acc +. w.Ds_obs.Metrics.utilization) 0. ws
        /. float_of_int (List.length ws)
      | _ -> 0.
    in
    (workers, s, util, verdicts h)
  in
  let rows = List.map run [ 1; 2; 4; 8 ] in
  let makespan (_, s, _, _) = s.Middleware.mean_batch_makespan in
  let base = makespan (List.hd rows) in
  let ms head key get = float ~head ~scale:1000. key "%.3f" get in
  let points =
    emit rows
      ([
         int ~head:"workers" "workers" (fun (k, _, _, _) -> k);
         const "seed" (num_i mw_seed);
         committed (fun (_, s, _, _) -> s);
         ms "makespan mean (ms)" "makespan_s" makespan;
         ms "p95 (ms)" "p95_makespan_s" (fun (_, s, _, _) ->
             s.Middleware.p95_batch_makespan);
         float ~head:"makespan ratio" "speedup" "%.2fx" (fun r ->
             ratio base (makespan r));
         float ~head:"mean util" "mean_utilization" "%.3f" (fun (_, _, u, _) ->
             u);
       ]
      @ verdict_cols (fun (_, _, _, v) -> v))
  in
  note
    "makespan ratio = mean batch makespan at K=1 / at K; conflict classes of \
     one batch run as overlapping spans, so makespan approaches the largest \
     class instead of the batch total. 'checker' validates the rte log \
     (serializability battery), 'conflict-equivalent' compares the merged \
     delivery order (assignment relation) against the admitted rte order.";
  report (by_duration p) points

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
   work — that is the ratio being measured, not parallel hardware. *)
let shards_scaling =
  exp "shards"
    "Sharded scheduler: S lanes + barrier-fenced global lane (partitioned \
     workload; every point checker-validated)"
  @@ fun p ->
  let spec = { spec20k with Spec.access = Spec.Partitioned (8, 0.005) } in
  let cfg shards =
    {
      (mw_cfg ~spec ~clients:80 p) with
      Middleware.shards;
      (* identical virtual-time behavior at every S: don't charge
         wall-clock scheduler time *)
      charge_scheduler_time = false;
    }
  in
  (* At S=1 the stamp-merged views must be the single lane's own, bit for
     bit: same rte log, same delivery order. *)
  let s1_identical =
    let _, h = Middleware.run_sharded (cfg 1) in
    let rels = Scheduler.relations h.Middleware.lane_schedulers.(0) in
    List.map Ds_model.Request.to_string (Relations.rte_requests rels)
    = List.map Ds_model.Request.to_string h.Middleware.merged_rte
    && Relations.execution_order rels = h.Middleware.merged_execution_order
  in
  note "S=1 bit-identical to the unsharded scheduler: %b" s1_identical;
  let run shards =
    let s, h = Middleware.run_sharded (cfg shards) in
    (shards, s, verdicts ~shards h)
  in
  let rows = List.map run [ 1; 2; 4; 8 ] in
  let sched_time (_, s, _) = s.Middleware.scheduler_time in
  let base = sched_time (List.hd rows) in
  let count head key f = int ~head key (fun (_, s, _) -> f s) in
  let points =
    emit rows
      ([
         int ~head:"shards" "shards" (fun (n, _, _) -> n);
         const "seed" (num_i mw_seed);
         committed (fun (_, s, _) -> s);
         count "cycles" "cycles" (fun s -> s.Middleware.cycles);
         count "global txns" "global_lane_txns" (fun s ->
             s.Middleware.global_lane_txns);
         count "deferrals" "shard_deferrals" (fun s ->
             s.Middleware.shard_deferrals);
         float ~head:"sched time (s)" "scheduler_time_s" "%.3f" sched_time;
         float ~head:"sched-time ratio" "speedup" "%.2fx" (fun r ->
             ratio base (sched_time r));
       ]
      @ verdict_cols (fun (_, _, v) -> v))
  in
  note
    "sched-time ratio = total scheduler wall time at S=1 / at S \
     (virtual-time behavior held fixed). 'global txns' crossed shard \
     boundaries and ran on the barrier-fenced global lane; 'deferrals' are \
     admissions parked while the barrier drained. 'checker' validates the \
     stamp-merged rte (serializability battery); 'conflict-equivalent' \
     additionally checks router soundness — no conflicting pair split \
     across shard lanes.";
  report (by_duration p) points
    ~summary:[ ("s1_bit_identical", Json.Bool s1_identical) ]

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
let recovery_bench =
  exp "recovery"
    "Recovery: checkpointed replay vs journal length (synthetic journals + a \
     crashing middleware run)"
  @@ fun p ->
  let ckpt get =
    col ~head:"ckpt every" "checkpoint_interval"
      (fun r -> match get r with 0 -> "-" | i -> string_of_int i)
      (fun r -> num_i (get r))
  in
  let synthetic events checkpoint_every =
    with_temp_journal @@ fun path ->
    let journal = Journal.open_ path in
    let sched = Scheduler.create ~journal ?checkpoint_every Builtin.fcfs in
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
      In_channel.with_open_bin path In_channel.input_all
      |> String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0
    in
    (* median-ish of 3: recover is fast, wall time is noisy *)
    let times =
      List.init 3 (fun _ ->
          let t0 = Unix.gettimeofday () in
          ignore (Journal.recover path);
          Unix.gettimeofday () -. t0)
    in
    let recover_s = List.nth (List.sort compare times) 1 in
    let interval = Option.value ~default:0 checkpoint_every in
    ((events, interval, lines), recover_s, Journal.recover path)
  in
  let synthetic_points =
    emit
      (List.concat_map
         (fun events -> List.map (synthetic events) [ None; Some 100 ])
         [ 2_000; 8_000; 32_000 ])
      [
        const "mode" (Json.Str "synthetic");
        const "workers" (Json.Num 1.);
        const "seed" (Json.Num 0.);
        int ~head:"events" "events" (fun ((e, _, _), _, _) -> e);
        ckpt (fun ((_, i, _), _, _) -> i);
        int ~head:"journal lines" "journal_lines" (fun ((_, _, l), _, _) -> l);
        float ~head:"recover (ms)" "recover_ms" "%.3f" (fun (_, t, _) ->
            1000. *. t);
        int ~head:"replayed" "replayed" (fun (_, _, r) -> r.Journal.replayed);
        int ~head:"skipped" "skipped" (fun (_, _, r) -> r.Journal.skipped);
      ]
  in
  note
    "Churn workload, history pruned every cycle, so checkpoints snapshot \
     only live transactions: with the interval fixed, recover time and \
     'replayed' stay flat while the journal grows — the no-checkpoint rows \
     replay everything and scale with journal length.";
  let crashing (wcrash, checkpoint_interval) =
    with_temp_journal @@ fun path ->
    let cfg =
      {
        (mw_cfg ~clients:60 p) with
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
    (cfg, fst (Middleware.run_sharded cfg))
  in
  let count ?head key f = int ?head key (fun (_, s) -> f s) in
  let middleware_points =
    emit
      (List.map crashing
         [ (0., None); (0., Some 10); (0.2, None); (0.2, Some 10) ])
      [
        const "mode" (Json.Str "middleware");
        int "workers" (fun ((cfg : Middleware.config), _) ->
            cfg.Middleware.workers);
        int "seed" (fun (cfg, _) -> cfg.Middleware.seed);
        float ~head:"wcrash" "wcrash" "%.2f" (fun (cfg, _) ->
            cfg.Middleware.faults.Faults.worker_crash_rate);
        ckpt (fun (cfg, _) ->
            Option.value ~default:0 cfg.Middleware.checkpoint_interval);
        committed snd;
        float ~head:"recovery (ms)" "recovery_ms" "%.3f" (fun (_, s) ->
            1000. *. s.Middleware.recovery_time);
        count ~head:"replayed" "replayed" (fun s ->
            s.Middleware.recovery_replayed);
        count ~head:"skipped" "skipped" (fun s ->
            s.Middleware.recovery_skipped);
        count ~head:"reassigned" "reassigned" (fun s ->
            s.Middleware.reassigned_classes);
        count "checkpoints" (fun s -> s.Middleware.checkpoints);
      ]
  in
  note
    "Same seed and fault plan per pair of rows; the checkpointed run \
     replays only the journal suffix after the crash at cycle 40 while the \
     supervisor keeps reassigning classes from crashed workers.";
  report (by_duration p) (synthetic_points @ middleware_points)

(* Sweep base seed for the swarm experiment. *)
let swarm_seed = 42

(* How fast the DST harness burns through scenarios: N generated scenarios
   through the full middleware + journal + invariant battery, reported as
   scenarios/second and invariant verdict counts. The verdicts themselves
   are deterministic in (n, seed); only the timing is wall-clock. *)
let swarm_bench =
  exp "swarm" "Swarm: deterministic-simulation scenarios through the full stack"
  @@ fun p ->
  let n = p.swarm_n in
  let t0 = Unix.gettimeofday () in
  let swarm = Ds_dst.Swarm.run ~shrink:true ~n ~seed:swarm_seed () in
  let elapsed = Unix.gettimeofday () -. t0 in
  let failed = List.length (Ds_dst.Swarm.failed swarm) in
  let cols =
    [
      int ~head:"scenarios" "scenarios" (fun () -> n);
      int ~head:"failed" "failed" (fun () -> failed);
      int ~head:"invariant checks" "invariant_checks" (fun () ->
          n * List.length Ds_dst.Invariant.names);
      float ~head:"elapsed (s)" "elapsed_s" "%.2f" (fun () -> elapsed);
      float ~head:"scen/s" "scenarios_per_s" "%.1f" (fun () ->
          float_of_int n /. elapsed);
    ]
  in
  let points = emit [ () ] cols in
  note
    "Every scenario runs the real middleware/scheduler/worker-pool/journal \
     stack and the complete battery (%s); failures would be shrunk to \
     minimal repros. Verdicts are a pure function of (n, seed)."
    (String.concat ", " Ds_dst.Invariant.names);
  report ~seed:swarm_seed [ ("n", num_i n) ] points ~summary:(fields cols ())

(* Seed of every failover run's replication link. *)
let failover_seed = 42

(* {async, sync} x {clean, lossy, partition} link, each run killed by a
   permanent primary crash (pcrash) mid-flight and failed over to the hot
   standby. The durability verdict per point comes from
   [Equivalence.check_failover]: every transaction a client saw committed
   before the failover is looked up in the promoted standby journal —
   sync mode must lose none, async mode may lose only records above the
   standby's watermark (the lag window). 'fenced' counts the old primary's
   stragglers the promoted standby refused by stale epoch. *)
let failover_bench =
  exp "failover"
    "Failover: hot-standby promotion under replication-link faults (pcrash \
     at cycle 150; durability checked per point)"
  @@ fun p ->
  let module Link = Ds_replica.Link in
  let module Session = Ds_replica.Session in
  let module E = Ds_check.Equivalence in
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
  let run mode (link, plan) =
    let dir = Filename.temp_file "ds_bench_repl" "" in
    Sys.remove dir;
    with_temp_journal @@ fun journal ->
    Fun.protect ~finally:(fun () ->
        List.iter
          (fun f -> try Sys.remove f with Sys_error _ -> ())
          [ Session.standby_path_of dir; Filename.concat dir "REPL" ];
        try Sys.rmdir dir with Sys_error _ -> ())
    @@ fun () ->
    let trace = Ds_obs.Trace.create () in
    let session =
      Session.create ~mode ~plan ~seed:failover_seed ~trace ~dir ()
    in
    let cfg =
      {
        (mw_cfg ~clients:30 p) with
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
    let s, _ = Middleware.run_sharded cfg in
    Session.close session;
    let r =
      Ds_dst.Runner.failover_report session
        ~trace_events:(Ds_obs.Trace.events trace)
    in
    (mode, link, s, session, r, E.failover_ok r)
  in
  let rows =
    List.concat_map
      (fun mode -> List.map (run mode) links)
      [ Session.Async; Session.Sync ]
  in
  let session ?head key f = int ?head key (fun (_, _, _, se, _, _) -> f se) in
  let audit ?head key f = int ?head key (fun (_, _, _, _, r, _) -> f r) in
  let points =
    emit rows
      [
        str ~head:"mode" "mode" (fun (m, _, _, _, _, _) ->
            Session.mode_to_string m);
        str ~head:"link" "link" (fun (_, l, _, _, _, _) -> l);
        const "seed" (num_i failover_seed);
        committed (fun (_, _, s, _, _, _) -> s);
        int "failovers" (fun (_, _, s, _, _, _) -> s.Middleware.failovers);
        session "epoch" Session.epoch;
        audit ~head:"acked@crash" "acked_at_crash" (fun r -> r.E.acked);
        audit ~head:"lost<=wm" "lost_below_watermark" (fun r ->
            List.length r.E.lost_below_watermark);
        audit ~head:"lost>wm" "lost_above_watermark" (fun r ->
            List.length r.E.lost_above_watermark);
        session ~head:"watermark" "watermark" Session.watermark;
        session ~head:"fenced" "fenced" Session.fenced;
        session ~head:"diverg" "divergences" Session.divergences;
        flag ~head:"durability" "durability_ok" ("ok", "VIOLATION")
          (fun (_, _, _, _, _, ok) -> ok);
      ]
  in
  (* [holds mode f]: [f] holds for every run in [mode]. *)
  let holds mode f =
    List.for_all (fun (m, _, _, _, r, ok) -> m <> mode || f r ok) rows
  in
  let sync_zero_loss =
    holds Session.Sync (fun r ok -> ok && r.E.lost_above_watermark = [])
  in
  let async_loss_bounded =
    holds Session.Async (fun r _ -> r.E.lost_below_watermark = [])
  in
  let fenced_witnessed =
    List.exists (fun (_, _, _, se, _, _) -> Session.fenced se > 0) rows
  in
  note
    "sync zero-loss: %b; async loss bounded by watermark: %b; stale-epoch \
     fencing witnessed: %b; every run failed over exactly once (epoch 0 -> 1)."
    sync_zero_loss async_loss_bounded fenced_witnessed;
  report ~seed:failover_seed (by_duration p) points
    ~summary:
      [
        ("sync_zero_loss", Json.Bool sync_zero_loss);
        ("async_loss_bounded", Json.Bool async_loss_bounded);
        ("fenced_witnessed", Json.Bool fenced_witnessed);
      ]

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

(* The one experiment list: [all], the dispatch, [list] and the CLI doc
   all read it, in this order. *)
let experiments =
  [
    table1; table2; figure2; native_overhead; declarative_overhead; crossover;
    listing1_micro; succinctness; datalog_vs_sql; optimizer_ablation;
    index_scaling; trigger_policies; relaxed_consistency; batch_sweep;
    open_loop; mpl_ablation; deadlock_policy_ablation; history_pruning;
    faults_sweep; obs_overhead; parallel_scaling; shards_scaling;
    recovery_bench; failover_bench; swarm_bench;
  ]

let names = "all" :: List.map (fun e -> e.name) experiments

(* Runs one experiment under its section banner and returns its stamped
   JSON object. *)
let run_experiment p e =
  let rule = String.make 62 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" rule e.title rule;
  let r = e.run p in
  let head = ("experiment", Json.Str e.name) :: r.config in
  Ds_dst.Stamp.add ~seed:r.seed ~config:head
    (Json.Obj (head @ r.summary @ [ ("points", Json.List r.points) ]))

let main name p json =
  let write payload =
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Json.to_string payload);
            output_char oc '\n');
        note "wrote %s" path)
      json
  in
  match (name, List.find_opt (fun e -> e.name = name) experiments) with
  | "list", _ -> print_endline (String.concat " " names)
  | "all", _ ->
    write
      (Json.List
         (List.filter_map
            (fun e -> if e.in_all then Some (run_experiment p e) else None)
            experiments))
  | _, Some e -> write (run_experiment p e)
  | _, None ->
    Printf.eprintf "unknown experiment %s (try 'list')\n" name;
    exit 2

let () =
  let open Cmdliner in
  let opt c default name doc =
    Arg.(value & opt c default & info [ name ] ~doc)
  in
  let params window runs duration cycle_scale history_sizes cycles swarm_n =
    { window; runs; duration; cycle_scale; history_sizes; cycles; swarm_n }
  in
  let params =
    Term.(
      const params
      $ opt Arg.float 24. "window"
          "MU measurement window (virtual s); the paper uses 240."
      $ opt Arg.int 2 "runs" "Runs per point (averaged)."
      $ opt Arg.float 5. "duration"
          "Middleware experiment duration (virtual s)."
      $ opt Arg.float 1. "cycle-scale"
          "Scale factor on declarative cycle times (emulates the paper's \
           slower scheduler DBMS; try 100)."
      $ opt Arg.(list int) [ 1_000; 5_000; 10_000; 20_000 ] "history-sizes"
          "History sizes for the index experiment (comma-separated)."
      $ opt Arg.int 30 "cycles"
          "Measured scheduler cycles per index-experiment point."
      $ opt Arg.int 25 "swarm-n" "Scenarios for the swarm experiment.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the experiment's stamped rows as JSON to $(docv); every \
             experiment accepts it, and $(b,all) writes a JSON list of every \
             experiment's object.")
  in
  let experiment =
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT"
           ~doc:("One of: " ^ String.concat ", " (names @ [ "list" ]) ^ "."))
  in
  let info =
    Cmd.info "bench"
      ~doc:"Regenerate the paper's tables and figures plus DESIGN.md ablations"
  in
  exit (Cmd.eval (Cmd.v info Term.(const main $ experiment $ params $ json)))
