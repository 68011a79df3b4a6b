(* One simulation of a workload through [Middleware.run_sharded], and the
   correctness gate applied to its output. *)

open Ds_core
open Ds_model
module Session = Ds_replica.Session

type outcome = {
  stats : Middleware.stats;
  wall : float;  (** seconds inside [run_sharded] *)
  setup : float;
      (** seconds of the run's set-up: from the [run_sharded] call until
          the last lane's [Scheduler.create] has compiled the protocol,
          plus [Session.create] for the standby *)
  reference : float;  (** seconds of [reference ()], timed just before the set-up *)
  lanes : (Scheduler.phase_times * int) array;
      (** per scheduler lane: cumulative phase times and cycles run *)
  metrics : Ds_obs.Metrics.t;  (** the registry the run reported into *)
  index_time : float;  (** [Table.maintenance_time] delta over the run *)
  journal_bytes : int;  (** primary journal size after the run *)
  recover_time : float;  (** [Journal.recover] on the primary journal *)
  retransmits : int;
  lag_records : int;
  check_time : float;  (** the serializability audit *)
  failures : string list;  (** failed correctness checks; [] = correct *)
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The delivered requests in cross-lane delivery order. *)
let delivered (h : Middleware.handle) =
  let by_key = Hashtbl.create 4096 in
  List.iter (fun r -> Hashtbl.replace by_key (Request.key r) r) h.Middleware.merged_rte;
  List.filter_map (Hashtbl.find_opt by_key) h.Middleware.merged_execution_order

let committed_tas rte =
  let tas = Hashtbl.create 1024 in
  List.iter
    (fun (r : Request.t) ->
      if Op.equal r.Request.op Op.Commit then Hashtbl.replace tas r.Request.ta ())
    rte;
  tas

(* Every run: the merged schedule is conflict-serializable (and strict,
   rigorous, commit-ordered), and the delivery order is conflict-equivalent
   to it — with router soundness when sharded. With a standby: its journal
   is a byte prefix of the primary's, every committed transaction's records
   are at or below the watermark, and the checkpoint state hashes never
   diverged. The lanes' cumulative phase times add up to the scheduler time
   the middleware charged, within [ledger_tolerance] seconds per cycle
   (float rounding of two summation orders). When probed, the wall-clock
   spans nest as the layers do: the protocol calls the probe timed fit in
   the lanes' query phases, which fit in the wall time of the run, both
   within [nesting_tolerance] seconds. *)
let ledger_tolerance = 1e-9
let nesting_tolerance = 1e-6

let check ?probe (w : Workload.t) ~journal ~session ~wall (stats : Middleware.stats)
    (h : Middleware.handle) =
  let rte = h.Middleware.merged_rte in
  let t0 = Unix.gettimeofday () in
  let report =
    Ds_check.Serializability.check_committed
      (Ds_check.Conflict_graph.events_of_requests rte)
  in
  let check_time = Unix.gettimeofday () -. t0 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  if not (Ds_check.Serializability.is_clean report) then
    fail "serializability: %s"
      (Format.asprintf "%a" Ds_check.Serializability.pp_report report);
  let shards = w.Workload.cfg.Middleware.shards in
  let equiv =
    if shards > 1 then
      Ds_check.Equivalence.check_sharded ~shards ~shard_of:h.Middleware.shard_of
        ~reference:rte ~candidate:(delivered h) ()
    else Ds_check.Equivalence.check ~reference:rte ~candidate:(delivered h) ()
  in
  if not (Ds_check.Equivalence.is_equivalent equiv) then
    fail "equivalence: %s" (Format.asprintf "%a" Ds_check.Equivalence.pp_report equiv);
  let lanes_time, lanes_query, lanes_cycles =
    Array.fold_left
      (fun (t, q, n) s ->
        let c = Scheduler.cumulative_times s in
        (t +. Scheduler.total_time c, q +. c.Scheduler.query, n + Scheduler.cycles_run s))
      (0., 0., 0) h.Middleware.lane_schedulers
  in
  let drift = Float.abs (lanes_time -. stats.Middleware.scheduler_time) in
  if drift > ledger_tolerance *. float_of_int (max 1 lanes_cycles) then
    fail "ledger: lane phase times sum to %.9fs, scheduler time is %.9fs"
      lanes_time stats.Middleware.scheduler_time;
  Option.iter
    (fun (p : Probe.t) ->
      if p.Probe.protocol_time > lanes_query +. nesting_tolerance then
        fail "nesting: protocol calls took %.6fs, query phases %.6fs"
          p.Probe.protocol_time lanes_query;
      if lanes_query > wall +. nesting_tolerance then
        fail "nesting: query phases took %.6fs, the run %.6fs" lanes_query wall)
    probe;
  (match (journal, session) with
  | Some primary, Some s ->
    let p = read_file primary and sb = read_file (Session.standby_path s) in
    if
      String.length sb > String.length p
      || String.sub p 0 (String.length sb) <> sb
    then fail "standby journal is not a byte prefix of the primary's";
    let committed = committed_tas rte in
    let wm = Session.watermark s in
    List.iter
      (fun (ta, lsn) ->
        if Hashtbl.mem committed ta && lsn > wm then
          fail "committed ta %d at lsn %d above watermark %d" ta lsn wm)
      (Session.ta_lsns s);
    if Session.divergences s > 0 then
      fail "standby state diverged at %d checkpoints" (Session.divergences s)
  | _ -> ());
  (check_time, List.rev !failures)

(* A fixed piece of work that uses none of the program's code. It is timed
   next to every set-up sample, because set-up is 30-180 us of protocol
   compilation and allocation whose wall time follows the speed of a shared
   machine more closely than the program's commit rate does. *)
let reference () =
  let h = Hashtbl.create 16 in
  for i = 0 to 299 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
  ignore (Sys.opaque_identity (List.sort compare rows))

(* [timed_setup p ~lanes ~ready] is [p] with a [prepare] that sets [ready]
   to the wall-clock time the [lanes]-th [prepare] returns: the moment the
   middleware's last [Scheduler.create] has compiled the protocol. *)
let timed_setup (p : Protocol.t) ~lanes ~ready =
  let prepared = ref 0 in
  {
    p with
    Protocol.prepare =
      (fun rels ->
        let qualify = p.Protocol.prepare rels in
        incr prepared;
        if !prepared = lanes then ready := Unix.gettimeofday ();
        qualify);
  }

(* Runs one simulation of [w] with [seed] for [duration] virtual seconds
   (the workload's by default), reporting into [metrics]. Journal files
   live in [dir], removed afterwards. [probe] wraps the protocol and the
   replication pump and times the run as spans; [trace] attaches an event
   sink. *)
let run ?probe ?trace ?duration (w : Workload.t) ~metrics ~dir ~seed =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let journal =
    if w.Workload.standby then Some (Filename.concat dir "primary.journal") else None
  in
  let t0 = Unix.gettimeofday () in
  reference ();
  let reference_time = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let session =
    if w.Workload.standby then
      Some
        (Session.create ~mode:Session.Sync ~plan:Ds_replica.Link.none ~seed
           ~dir:(Filename.concat dir "standby") ())
    else None
  in
  let session_setup = Unix.gettimeofday () -. t0 in
  let wrap f x = match probe with Some p -> f p x | None -> x in
  let ready = ref Float.nan in
  let cfg =
    {
      w.Workload.cfg with
      Middleware.seed;
      duration = Option.value duration ~default:w.Workload.sim_duration;
      protocol =
        timed_setup ~lanes:(Workload.lanes w) ~ready
          (wrap Probe.wrap_protocol w.Workload.cfg.Middleware.protocol);
      journal_path = journal;
      repl = Option.map (fun s -> wrap Probe.wrap_repl (Session.hooks s)) session;
      trace;
      metrics = Some metrics;
    }
  in
  let maint0 = Ds_relal.Table.maintenance_time () in
  let t0 = Unix.gettimeofday () in
  let stats, handle =
    match probe with
    | Some p -> Probe.run p (fun () -> Middleware.run_sharded cfg)
    | None -> Middleware.run_sharded cfg
  in
  let wall = Unix.gettimeofday () -. t0 in
  let index_time = Ds_relal.Table.maintenance_time () -. maint0 in
  Option.iter Session.finish session;
  let check_time, failures = check ?probe w ~journal ~session ~wall stats handle in
  let journal_bytes, recover_time =
    match journal with
    | Some p ->
      let t0 = Unix.gettimeofday () in
      ignore (Journal.recover p);
      ((Unix.stat p).Unix.st_size, Unix.gettimeofday () -. t0)
    | None -> (0, 0.)
  in
  let retransmits, lag_records =
    match session with
    | Some s -> (Session.retransmits s, Session.lag s)
    | None -> (0, 0)
  in
  Option.iter Session.close session;
  {
    stats;
    wall;
    setup = session_setup +. (!ready -. t0);
    reference = reference_time;
    lanes =
      Array.map
        (fun s -> (Scheduler.cumulative_times s, Scheduler.cycles_run s))
        handle.Middleware.lane_schedulers;
    metrics;
    index_time;
    journal_bytes;
    recover_time;
    retransmits;
    lag_records;
    check_time;
    failures;
  }
