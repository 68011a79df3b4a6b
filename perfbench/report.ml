(* Runs a workload for a wall-clock budget and turns its simulations into
   the benchmark's metrics: end to end (untraced) or per layer (probed and
   traced pairs). *)

open Ds_core

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* A run's result: its metrics, the number of simulations they were
   measured on, and every gated run — the simulations plus, end to end, the
   set-up runs. *)
type run = { metrics : metric list; simulations : int; gated : Sim.outcome list }

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile. *)
let quantile q = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0. then 0. else a /. b
let ms s = 1000. *. s
let mb bytes = float_of_int bytes /. (1024. *. 1024.)
let commits (o : Sim.outcome) = o.Sim.stats.Middleware.committed_txns
let attempts (o : Sim.outcome) = commits o + o.Sim.stats.Middleware.aborted_txns

(* Repeats [f i] for i = 1, 2, ... while another repetition of the mean
   length so far still fits in [seconds] (at least once). *)
let repeat ~seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go i acc =
    let spent = Unix.gettimeofday () -. t0 in
    if i > 1 && spent *. float_of_int i /. float_of_int (i - 1) > seconds then
      List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 1 []

let sim_line label i (o : Sim.outcome) =
  let s = o.Sim.stats in
  Printf.printf
    "  %s %d: commits=%d aborts=%d cycles=%d wall=%.3fs sched=%.9fs lanes=%.9fs \
     setup=%.6fs check=%.3fs mean=%.0fms %s\n%!"
    label i s.Middleware.committed_txns s.Middleware.aborted_txns s.Middleware.cycles
    o.Sim.wall s.Middleware.scheduler_time
    (Array.fold_left (fun acc (p, _) -> acc +. Scheduler.total_time p) 0. o.Sim.lanes)
    o.Sim.setup o.Sim.check_time (ms s.Middleware.mean_txn_latency)
    (match o.Sim.failures with [] -> "correct" | f -> "FAILED: " ^ String.concat "; " f)

let simulate ?probe ?trace ?(metrics = Ds_obs.Metrics.create ()) (w : Workload.t) ~dir
    ~seed label i =
  let o =
    Sim.run ?probe ?trace w ~metrics
      ~dir:(Printf.sprintf "%s/%s-%d" dir label i)
      ~seed:((seed * 1000) + i)
  in
  sim_line label i o;
  o

(* Zero-duration runs sample the program's set-up between simulations, so
   that setup_s is the median of many samples. After each simulation they
   run until they have taken [setup_share] of the simulations' wall time. *)
let setup_share = 0.1

(* Each set-up sample is divided by the time of [Sim.reference ()] timed
   just before it and scaled by [reference_seconds], a round figure for
   that task on a 2-vCPU Xeon virtual machine (92-220 us, depending on the
   workload's process). The raw set-up times of ten-run sets made minutes
   apart drifted by up to 39% with the machine's speed, their ratios to the
   reference by at most 8% (see README.md). Work added to set-up still
   raises the ratio in full. *)
let reference_seconds = 200e-6

let setup_runs (w : Workload.t) ~dir ~seed i ~budget =
  let t0 = Unix.gettimeofday () in
  let rec go j acc =
    if j > 1 && Unix.gettimeofday () -. t0 >= budget then acc
    else
      go (j + 1)
        (Sim.run w ~duration:0. ~metrics:(Ds_obs.Metrics.create ())
           ~dir:(Printf.sprintf "%s/setup-%d-%d" dir i j)
           ~seed:((seed * 1000) + i)
        :: acc)
  in
  go 1 []

(* Consecutive simulations of a run report into one [Ds_obs.Metrics.t]
   until it holds [group_commits] committed transactions, so that each
   group's p99 but the run's last rests on at least ten samples beyond
   it. *)
let group_commits = 1000

(* (samples, p50, p99) of a registry's latencies; every workload has the
   one standard SLA tier. *)
let tier_latency metrics =
  match Ds_obs.Metrics.tier_quantiles metrics with
  | [ (_, n, p50, _, p99) ] -> (n, p50, p99)
  | rows -> failwith (Printf.sprintf "expected one SLA tier, got %d" (List.length rows))

(* Per-simulation values are reduced by their median over the run's
   simulations, which a slow spell of a shared machine during a few of them
   does not move; counts are pooled. Latency quantiles are the
   sample-weighted mean over the run's groups of simulations (see
   [group_commits]) of each group's [tier_quantiles]: a group's quantile is
   the middle of a histogram bucket ~12% wide, and on durable-skewed the
   pooled p99 of a whole run read the same bucket on every run, while the
   mean of the groups' buckets moves with the share of samples on each side
   of a bucket edge. The last group, which may hold fewer samples, weighs
   in by its sample count. Latency is that of the committing attempt: a
   redo restarts its transaction's clock. A simulation that failed a
   correctness check counts all its transactions as aborted. *)
let end_to_end (w : Workload.t) ~dir ~seed ~seconds =
  let duration = w.Workload.sim_duration in
  let groups = ref [] and group = ref (Ds_obs.Metrics.create (), 0) in
  let setups = ref [] in
  let sims =
    repeat ~seconds (fun i ->
        let metrics, n = !group in
        let o = simulate ~metrics w ~dir ~seed "sim" i in
        let n = n + commits o in
        if n >= group_commits then begin
          groups := metrics :: !groups;
          group := (Ds_obs.Metrics.create (), 0)
        end
        else group := (metrics, n);
        setups := setup_runs w ~dir ~seed i ~budget:(setup_share *. o.Sim.wall) @ !setups;
        o)
  in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  let per_sim f = median (List.map f sims) in
  let n_attempts = isum attempts sims in
  let good = isum (fun o -> if o.Sim.failures = [] then commits o else 0) sims in
  let latencies =
    List.map tier_latency (if snd !group > 0 then fst !group :: !groups else !groups)
  in
  let samples = isum (fun (n, _, _) -> n) latencies in
  let mean f =
    sum (fun ((n, _, _) as l) -> float_of_int n *. f l) latencies /. float_of_int samples
  in
  let sampled = sims @ !setups in
  let setup_samples =
    List.map (fun o -> reference_seconds *. o.Sim.setup /. o.Sim.reference) sampled
  in
  Printf.printf
    "  %d latency samples in %d groups, the smallest of %d; %d of %d transactions \
     aborted or failed (abort_ratio %.4f); txn_p50_ms %.1f ms (not gated); %d \
     set-up samples, median %.1f us raw, reference work median %.1f us\n"
    samples (List.length latencies)
    (List.fold_left (fun acc (n, _, _) -> min acc n) max_int latencies)
    (n_attempts - good) n_attempts
    (ratio (float_of_int (n_attempts - good)) (float_of_int n_attempts))
    (ms (mean (fun (_, p50, _) -> p50)))
    (List.length setup_samples)
    (1e6 *. median (List.map (fun o -> o.Sim.setup) sampled))
    (1e6 *. median (List.map (fun o -> o.Sim.reference) sampled));
  {
    simulations = List.length sims;
    gated = sampled;
    metrics =
      [
        m "commit_tps" "1/s" (per_sim (fun o -> float_of_int (commits o) /. duration));
        m "txn_mean_ms" "ms" (per_sim (fun o -> ms o.Sim.stats.Middleware.mean_txn_latency));
        m "txn_p99_ms" "ms" (ms (mean (fun (_, _, p99) -> p99)));
        m "attempts_per_commit" "ratio"
          (ratio (float_of_int n_attempts) (float_of_int good));
        m "setup_s" "s" (median setup_samples);
        m "heap_peak_mb" "MB" (mb top_heap);
      ];
  }

(* Each pair runs the same seed twice: probed (wall spans around the
   protocol, the replication pump and index maintenance) and probed plus
   the trace sink. Scheduler, journal, replica, backend and router metrics
   come from the probed runs; request phases and transaction latency
   quantiles from the traced ones; the overhead compares the two. *)
type pair = {
  probed : Sim.outcome;
  probe : Probe.t;  (** spans and counters of the probed simulation *)
  traced : Sim.outcome;
  trace_probe : Probe.t;  (** the traced simulation's, with request spans *)
  samples : (string * Float.Array.t) list;
      (** request phase and latency samples of the traced simulation *)
  self : (string * bool * float * int) list;  (** [Probe.self_times probe] *)
}

let admitted (r : Ds_obs.Metrics.cycle_row) = r.Ds_obs.Metrics.qualified

(* the requests the protocol query saw: the pending backlog plus the drain *)
let offered (r : Ds_obs.Metrics.cycle_row) =
  r.Ds_obs.Metrics.pending_before + r.Ds_obs.Metrics.drained

let cycle_sum f (o : Sim.outcome) = isum f (Ds_obs.Metrics.cycles o.Sim.metrics)

let per_layer (w : Workload.t) ~dir ~seed ~seconds ~spans_out =
  let duration = w.Workload.sim_duration in
  let pairs =
    repeat ~seconds (fun i ->
        let probe = Probe.create () in
        let probed = simulate ~probe w ~dir ~seed "probed" i in
        let trace_probe = Probe.create () in
        let sink = Ds_obs.Trace.create () in
        let traced = simulate ~probe:trace_probe ~trace:sink w ~dir ~seed "traced" i in
        (* unboxed, so that a run's samples stay small in memory *)
        let samples =
          Hashtbl.fold
            (fun name xs acc -> (name, Float.Array.of_list xs) :: acc)
            (Probe.add_trace trace_probe (Ds_obs.Trace.events sink))
            []
        in
        let self = Probe.self_times probe in
        (* only the first pair's spans are kept for the spans file *)
        if i > 1 then begin
          probe.Probe.spans <- [];
          trace_probe.Probe.spans <- []
        end;
        { probed; probe; traced; trace_probe; samples; self })
  in
  let probed = List.map (fun p -> p.probed) pairs in
  let traced = List.map (fun p -> p.traced) pairs in
  let n_commits = float_of_int (isum commits probed) in
  let per_commit x = ratio x n_commits in
  let lanes = List.concat_map (fun o -> Array.to_list o.Sim.lanes) probed in
  let cycles = float_of_int (isum snd lanes) in
  let per_cycle x = ratio x cycles in
  let phase f = sum (fun (p, _) -> f p) lanes in
  let stats f = float_of_int (isum (fun o -> f o.Sim.stats) probed) in
  let probe_sum f = sum (fun p -> f p.probe) pairs in
  let probe_isum f = float_of_int (isum (fun p -> f p.probe) pairs) in
  let parallel = List.filter_map (fun o -> Ds_obs.Metrics.parallel o.Sim.metrics) probed in
  let workers = List.concat_map (fun p -> p.Ds_obs.Metrics.per_worker) parallel in
  let imbalance o =
    let q = Array.map (fun (p, _) -> p.Scheduler.query) o.Sim.lanes in
    ratio (Array.fold_left Float.max 0. q)
      (Array.fold_left ( +. ) 0. q /. float_of_int (Array.length q))
  in
  let samples name =
    List.concat_map
      (fun p ->
        Option.fold ~none:[] ~some:Float.Array.to_list (List.assoc_opt name p.samples))
      pairs
  in
  let req name = ms (median (samples name)) in
  let latencies = samples "txn.latency" in
  let self_times =
    let totals = Hashtbl.create 8 in
    List.iter
      (fun p ->
        List.iter
          (fun (name, _, self, _) ->
            Hashtbl.replace totals name
              (self +. Option.value ~default:0. (Hashtbl.find_opt totals name)))
          p.self)
      pairs;
    totals
  in
  let self name = per_commit (ms (Option.value ~default:0. (Hashtbl.find_opt self_times name))) in
  let wall_per_commit o = ratio o.Sim.wall (float_of_int (commits o)) in
  let wall = sum (fun o -> o.Sim.wall) probed in
  let sched_time = sum (fun o -> o.Sim.stats.Middleware.scheduler_time) probed in
  let pump_time = probe_sum (fun p -> p.Probe.pump_time) in
  (* The first pair's spans, kept in memory until now. *)
  (match pairs with
  | p :: _ ->
    Out_channel.with_open_text spans_out (fun oc ->
        Probe.write p.probe ~sim:"probed 1" oc;
        Probe.write p.trace_probe ~sim:"traced 1" oc)
  | [] -> ());
  Printf.printf "  spans: %s\n" spans_out;
  Printf.printf "  wall-time ledger of the probed simulations, ms per commit:\n";
  List.iter
    (fun (name, x) -> Printf.printf "    %-26s %9.4f\n" name (per_commit (ms x)))
    [
      ("scheduler.drain_insert", phase (fun p -> p.Scheduler.drain_insert));
      ("scheduler.query", phase (fun p -> p.Scheduler.query));
      ("  of which protocol.call", probe_sum (fun p -> p.Probe.protocol_time));
      ("scheduler.move", phase (fun p -> p.Scheduler.move));
      ("replica.pump", pump_time);
      ("sim.other", wall -. sched_time -. pump_time);
      ("total wall", wall);
    ];
  Printf.printf "  self time of the probed simulations' spans, ms per commit:\n";
  Hashtbl.to_seq self_times |> List.of_seq |> List.sort compare
  |> List.iter (fun (name, total) ->
         Printf.printf "    %-26s %9.4f\n" name (per_commit (ms total)));
  {
    simulations = List.length probed + List.length traced;
    gated = probed @ traced;
    metrics =
      [
        m "base.commit_tps" "1/s" (n_commits /. (duration *. float_of_int (List.length probed)));
        m "base.commits" "count" n_commits;
        m "base.cycles" "count" cycles;
        m "base.wall_ms_per_commit" "ms" (per_commit (ms wall));
        m "scheduler.drain_insert_ms_per_cycle" "ms"
          (per_cycle (ms (phase (fun p -> p.Scheduler.drain_insert))));
        m "scheduler.query_ms_per_cycle" "ms" (per_cycle (ms (phase (fun p -> p.Scheduler.query))));
        m "scheduler.move_ms_per_cycle" "ms" (per_cycle (ms (phase (fun p -> p.Scheduler.move))));
        m "scheduler.cycles_per_commit" "ratio" (per_commit cycles);
        m "scheduler.admit_ratio" "ratio"
          (ratio
             (float_of_int (isum (fun o -> cycle_sum admitted o) probed))
             (float_of_int (isum (fun o -> cycle_sum offered o) probed)));
        m "protocol.call_ms" "ms"
          (ms
             (ratio (probe_sum (fun p -> p.Probe.protocol_time))
                (probe_isum (fun p -> p.Probe.protocol_calls))));
        m "protocol.rows_in_per_qualified" "ratio"
          (ratio (probe_isum (fun p -> p.Probe.rows_in)) (probe_isum (fun p -> p.Probe.qualified)));
        m "relal.index_ms_per_cycle" "ms" (per_cycle (ms (sum (fun o -> o.Sim.index_time) probed)));
        m "journal.bytes_per_commit" "B"
          (per_commit (float_of_int (isum (fun o -> o.Sim.journal_bytes) probed)));
        (* the scheduler flushes the journal - an fsync under sync_journal -
           once per cycle, once more per checkpoint and once per abort *)
        m "journal.fsyncs_per_commit" "ratio"
          (if w.Workload.cfg.Middleware.sync_journal then
             per_commit
               (cycles +. stats (fun s -> s.Middleware.checkpoints)
               +. stats (fun s -> s.Middleware.aborted_txns))
           else 0.);
        m "journal.recover_ms" "ms" (ms (median (List.map (fun o -> o.Sim.recover_time) probed)));
        m "replica.pump_ms_per_commit" "ms" (per_commit (ms pump_time));
        m "replica.retransmits" "count" (float_of_int (isum (fun o -> o.Sim.retransmits) probed));
        m "replica.lag_records" "count" (float_of_int (isum (fun o -> o.Sim.lag_records) probed));
        m "backend.utilization" "ratio"
          (ratio (sum (fun r -> r.Ds_obs.Metrics.utilization) workers)
             (float_of_int (List.length workers)));
        m "backend.makespan_ms" "ms"
          (ms (median (List.map (fun p -> p.Ds_obs.Metrics.makespan_mean) parallel)));
        m "router.global_share" "ratio"
          (ratio (stats (fun s -> s.Middleware.global_lane_txns))
             (float_of_int (isum attempts probed)));
        m "router.deferrals_per_commit" "ratio"
          (per_commit (stats (fun s -> s.Middleware.shard_deferrals)));
        m "router.lane_query_imbalance" "ratio" (median (List.map imbalance probed));
        m "sim.other_ms_per_commit" "ms" (per_commit (ms (wall -. sched_time -. pump_time)));
        m "req.queue_ms" "ms" (req "req.queue");
        m "req.defer_ms" "ms" (req "req.defer");
        m "req.dispatch_ms" "ms" (req "req.dispatch");
        m "req.exec_ms" "ms" (req "req.exec");
        m "req.ack_ms" "ms" (req "req.ack");
        m "latency.txn_p50_ms" "ms" (ms (quantile 0.5 latencies));
        m "latency.txn_samples" "count" (float_of_int (List.length latencies));
        m "trace.overhead_pct" "%"
          (median
             (List.map
                (fun p ->
                  100. *. (ratio (wall_per_commit p.traced) (wall_per_commit p.probed) -. 1.))
                pairs));
        m "check.serializability_ms" "ms"
          (ms (median (List.map (fun o -> o.Sim.check_time) (probed @ traced))));
        m "self.run_ms_per_commit" "ms" (self "run");
        m "self.protocol_ms_per_commit" "ms" (self "protocol.call");
      ];
  }

(* The result line: one JSON object, numbers with all their digits. *)
let result_json ~correct ~attempted ~failed metrics =
  let module J = Ds_obs.Json in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Num (float_of_int attempted));
         ("failed", J.Num (float_of_int failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun x ->
                  if not (Float.is_finite x.value) then
                    failwith ("non-finite value for " ^ x.name);
                  (x.name, J.Obj [ ("value", J.Num x.value); ("unit", J.Str x.unit_) ]))
                metrics) );
       ])
