(* Relaxed consistency during load spikes (paper 1: "reduced consistency
   criteria may be used during times of high load"; 2: consistency
   rationing).

     dune exec examples/relaxed_consistency.exe

   A shop in holiday rush: every client runs long mixed transactions over a
   modest object space, so locks pile up everywhere. We run the identical
   workload under:
     - full SS2PL                 (every object serializable),
     - read committed             (no read locks at all),
     - consistency rationing      (only objects < 1000 serializable: the
                                   stock/payment range; the rest relaxed).
   The declarative scheduler switches between them by swapping the protocol
   value — the adaptive consistency idea of 5. *)

open Ds_core
open Ds_workload

let holiday_rush =
  {
    Spec.paper_default with
    Spec.n_objects = 3_000;
    selects_per_txn = 20;
    updates_per_txn = 20;
  }

let run (protocol : Protocol.t) =
  let cfg =
    {
      Middleware.default_config with
      Middleware.n_clients = 60;
      duration = 8.;
      spec = holiday_rush;
      protocol;
      trigger = Trigger.Hybrid (0.01, 60);
      starvation_cycles = 40;
    }
  in
  let s, _ = Middleware.run_sharded cfg in
  Printf.printf "%-22s  committed=%-5d aborted=%-5d p95=%6.1f ms\n"
    protocol.Protocol.name s.Middleware.committed_txns s.Middleware.aborted_txns
    (1000. *. s.Middleware.p95_txn_latency);
  s.Middleware.committed_txns

let () =
  Printf.printf "holiday-rush workload: %s\n\n"
    (Format.asprintf "%a" Spec.pp holiday_rush);
  let strict = run Builtin.ss2pl_sql in
  let relaxed = run Builtin.read_committed_sql in
  let rationed = run (Builtin.rationing ~threshold:1000) in
  Printf.printf
    "\nthroughput: ss2pl %d  ->  read-committed %d  ->  rationing %d txns\n"
    strict relaxed rationed;
  Printf.printf
    "dropping read locks helps some; rationing helps most, because write\n\
     locks and write-write ordering dominate, and rationing relaxes both for\n\
     everything outside the stock/payment range (objects < 1000) - each is a\n\
     protocol *query*, not new scheduler code.\n"
