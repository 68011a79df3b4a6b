(* The benchmark's three closed-loop workloads.

   Every workload runs through [Middleware.run_sharded] with the middleware's
   default [charge_scheduler_time = true]: the measured wall time of each
   scheduler cycle delays dispatch in virtual time, so clients pay for the
   scheduler. Clients think for zero time and submit their next statement
   only when the previous one returns (closed loop). Clients re-run a
   transaction the middleware aborted ([client_redo]), so an abort is
   wasted work, never a lost client operation. *)

open Ds_core
open Ds_workload

type t = {
  name : string;
  why : string;
  cfg : Middleware.config;
      (** everything but [seed], [duration], [journal_path], [repl],
          [trace] and [metrics], which each simulation sets *)
  sim_duration : float;
      (** virtual seconds per simulation; a run repeats simulations until
          its wall-clock budget is spent *)
  standby : bool;
      (** fsync'd journal streamed to a sync-mode hot standby on a clean
          link *)
}

let base =
  {
    Middleware.default_config with
    Middleware.trigger = Trigger.Hybrid (0.01, 50);
    charge_scheduler_time = true;
    client_redo = true;
  }

let listing1_uniform =
  {
    name = "listing1-uniform";
    why =
      "Paper 4.3 setting: Listing 1 in SQL (ss2pl-sql), 100k uniform \
       rows, 20 SELECT+20 UPDATE, 100 closed-loop clients, 4 workers, no \
       journal; the protocol query is ~97% of wall time";
    cfg =
      {
        base with
        Middleware.n_clients = 100;
        spec = Spec.paper_default;
        protocol = Builtin.ss2pl_sql;
        workers = 4;
        shards = 1;
      };
    sim_duration = 3.;
    standby = false;
  }

let durable_skewed =
  {
    name = "durable-skewed";
    why =
      "10k Zipf(0.5) rows, 2 SELECT+6 UPDATE, ss2pl-ocaml, 50 closed-loop \
       clients, 4 workers, journal fsync'd every cycle, checkpoint every \
       20, sync standby: move phase and replica dominate";
    cfg =
      {
        base with
        Middleware.n_clients = 50;
        spec =
          {
            Spec.paper_default with
            Spec.n_objects = 10_000;
            access = Spec.Zipf 0.5;
            selects_per_txn = 2;
            updates_per_txn = 6;
          };
        protocol = Builtin.ss2pl_ocaml;
        workers = 4;
        shards = 1;
        sync_journal = true;
        checkpoint_interval = Some 20;
      };
    sim_duration = 10.;
    standby = true;
  }

let sharded_partitioned =
  {
    name = "sharded-partitioned";
    why =
      "20k rows in 8 groups with 0.5% escapes, 20+20 stmts, \
       ss2pl-datalog, 80 closed-loop clients, 4 shard lanes of 1 worker: \
       the only run through the router, global lane and Datalog";
    cfg =
      {
        base with
        Middleware.n_clients = 80;
        spec =
          {
            Spec.paper_default with
            Spec.n_objects = 20_000;
            access = Spec.Partitioned (8, 0.005);
          };
        protocol = Builtin.ss2pl_datalog;
        workers = 1;
        shards = 4;
      };
    sim_duration = 20.;
    standby = false;
  }

let all = [ listing1_uniform; durable_skewed; sharded_partitioned ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Scheduler lanes the middleware builds: S shard lanes plus the global
   lane when sharded, one lane otherwise. *)
let lanes w = if w.cfg.Middleware.shards > 1 then w.cfg.Middleware.shards + 1 else 1

let describe w =
  let c = w.cfg in
  let sp = c.Middleware.spec in
  Printf.sprintf
    "rows=%d selects=%d updates=%d access=%s protocol=%s clients=%d (closed \
     loop, zero think time, client_redo) workers=%d shards=%d trigger=%s \
     journal=%s standby=%s sim=%gs virtual"
    sp.Spec.n_objects sp.Spec.selects_per_txn sp.Spec.updates_per_txn
    (match sp.Spec.access with
    | Spec.Uniform -> "uniform"
    | Spec.Zipf t -> Printf.sprintf "zipf(%g)" t
    | Spec.Hotspot (f, p) -> Printf.sprintf "hotspot(%g,%g)" f p
    | Spec.Partitioned (g, e) -> Printf.sprintf "partitioned(%d,%g)" g e)
    c.Middleware.protocol.Protocol.name c.Middleware.n_clients
    c.Middleware.workers c.Middleware.shards
    (Trigger.to_string c.Middleware.trigger)
    (if w.standby then
       Printf.sprintf "fsync per cycle flush, checkpoint every %d cycles"
         (Option.value ~default:0 c.Middleware.checkpoint_interval)
     else "none")
    (if w.standby then "sync, clean link" else "none")
    w.sim_duration
