(** Executes one scenario through the {e real} middleware / scheduler /
    worker-pool / journal stack (no mocks: {!Ds_core.Middleware.run_sharded}
    with a live write-ahead journal and a lifecycle trace sink), then applies
    the complete {!Invariant} battery to what the run left behind.

    Runs are deterministic: wall-clock cycle charging is off, every
    probabilistic draw comes from the scenario seed, and the outcome carries
    no wall-clock-derived data — the same scenario always yields the same
    outcome, which is what makes swarm reports diffable and failures
    replayable bit-for-bit. *)

type outcome = {
  scenario : Scenario.t;
  stats : Ds_core.Middleware.stats;
  invariants : (string * (unit, string) result) list;
      (** complete battery, in {!Invariant.battery} order *)
}

(** @raise Invalid_argument when the scenario fails {!Scenario.validate}. *)
val run : Scenario.t -> outcome

(** The failover durability audit: which transactions were client-acked
    (committed in [trace_events]) strictly before the promotion, and which
    of those survive as ['Q'] records in the session's promoted standby
    journal, classified against the session's final replication
    watermark by {!Ds_check.Equivalence.check_failover}. *)
val failover_report :
  Ds_replica.Session.t ->
  trace_events:Ds_obs.Trace.event list ->
  Ds_check.Equivalence.failover_report

(** Failed invariants as [(name, detail)], battery order. *)
val failures : outcome -> (string * string) list

val ok : outcome -> bool
