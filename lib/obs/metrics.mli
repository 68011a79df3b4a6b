(** Tiered latency metrics and per-cycle scheduler metrics.

    A {!t} is the middleware's counter store: one row per committed
    transaction (its SLA tier and latency) and one {!cycle_row} per
    scheduler cycle (cycle time, drain size, admit ratio, query-eval time),
    in the order they happened. The middleware's end-of-run statistics are
    computed from these rows; latency quantiles come from per-tier
    {!Ds_stats.Histogram}s built over them. The [*_of_events] functions are
    the offline counterpart used by [dsched trace]: they recompute the same
    latency views from a loaded event list. *)

type cycle_row = {
  cycle : int;
  time : float;  (** seconds of the whole cycle (the sum of its phase times) *)
  drained : int;  (** requests moved from the incoming queue to [pending] *)
  pending_before : int;  (** pending size when qualification started *)
  qualified : int;  (** requests admitted this cycle *)
  admit_ratio : float;  (** [qualified / max 1 (pending_before + drained)] *)
  query_time : float;  (** seconds spent evaluating the protocol query *)
  index_time : float;
      (** seconds of table index maintenance inside the cycle (subset of the
          cycle's phase times, reported by {!Ds_relal.Table}) *)
}

(** One parallel-backend worker's totals for the run. *)
type worker_row = {
  worker : int;
  executed : int;  (** data statements executed *)
  busy : float;  (** seconds of CPU busy time (virtual) *)
  utilization : float;  (** busy / (elapsed * cores) *)
}

(** Parallel-backend summary set once at end of run by the middleware. *)
type parallel = {
  workers : int;
  batches : int;  (** batches fully drained by the pool *)
  makespan_mean : float;  (** batch dispatch-to-drain, virtual seconds *)
  makespan_p95 : float;
  makespan_max : float;
  per_worker : worker_row list;
}

type t

val create : unit -> t

val set_parallel : t -> parallel -> unit
val parallel : t -> parallel option

(** The rows recorded so far. A run that shares a store with earlier runs
    reads its own rows as those recorded since its mark. *)
type mark

val mark : t -> mark

(** [observe_latency t ~tier dt] records one committed transaction's latency
    (seconds). *)
val observe_latency : t -> tier:string -> float -> unit

(** [(tier, seconds)] per recorded commit, in recording order; with
    [~since], only those recorded after that mark. *)
val latencies : ?since:mark -> t -> (string * float) list

val record_cycle :
  t ->
  time:float ->
  drained:int ->
  pending_before:int ->
  qualified:int ->
  query_time:float ->
  ?index_time:float ->
  unit ->
  unit

(** One histogram per tier over [(tier, seconds)] samples, in SLA urgency
    order (premium, standard, free), unknown tiers last. *)
val tier_histograms :
  (string * float) list -> (string * Ds_stats.Histogram.t) list

(** [(tier, n, p50, p95, p99)] per tier with at least one sample, in the
    order of {!tier_histograms}. *)
val tier_quantiles : t -> (string * int * float * float * float) list

(** The cycle rows in recording order; with [~since], only those recorded
    after that mark. *)
val cycles : ?since:mark -> t -> cycle_row list

(** Human-readable report: the tier table, cycle aggregates, and — when
    {!set_parallel} was called — batch makespans with a per-worker
    utilization table. *)
val render : t -> string

(** Per-transaction latencies from a trace: [(tier, seconds)] for every TA
    whose span tree has a terminal event (see {!Span.latency}). *)
val latencies_of_events : Trace.event list -> (string * float) list

(** Offline version of {!tier_quantiles}. *)
val latency_rows : Trace.event list -> (string * int * float * float * float) list

val render_latency_rows : (string * int * float * float * float) list -> string

(** [lock_wait_offenders events] pairs each [Lock_wait] with the next
    [Lock_grant] for the same [(ta, seq, obj)] and aggregates per object:
    [(obj, total_wait_seconds, n_waits)], sorted by total wait descending,
    truncated to [top] (default 10). *)
val lock_wait_offenders :
  ?top:int -> Trace.event list -> (int * float * int) list
