type cycle_row = {
  cycle : int;
  time : float;
  drained : int;
  pending_before : int;
  qualified : int;
  admit_ratio : float;
  query_time : float;
  index_time : float;
}

type worker_row = {
  worker : int;
  executed : int;
  busy : float;
  utilization : float;
}

type parallel = {
  workers : int;
  batches : int;
  makespan_mean : float;
  makespan_p95 : float;
  makespan_max : float;
  per_worker : worker_row list;
}

(* Rows are kept column by column, so a run's thousands of cycles and
   commits cost a few unboxed words each instead of a record with boxed
   floats; {!latencies} and {!cycles} build the rows when asked. *)
module Vec = Ds_util.Vec

type t = {
  tiers : string Vec.t;
  latency : float Vec.t;
  times : float Vec.t;
  drained : int Vec.t;
  pending_before : int Vec.t;
  qualified : int Vec.t;
  query_times : float Vec.t;
  index_times : float Vec.t;
  mutable parallel : parallel option;
}

let create () =
  {
    tiers = Vec.create ();
    latency = Vec.create ();
    times = Vec.create ();
    drained = Vec.create ();
    pending_before = Vec.create ();
    qualified = Vec.create ();
    query_times = Vec.create ();
    index_times = Vec.create ();
    parallel = None;
  }

let set_parallel t p = t.parallel <- Some p

let parallel t = t.parallel

type mark = int * int

let mark t = (Vec.length t.times, Vec.length t.tiers)

let observe_latency t ~tier dt =
  Vec.push t.tiers tier;
  Vec.push t.latency dt

let latencies ?since t =
  let from = Option.fold ~none:0 ~some:snd since in
  List.init (Vec.length t.tiers - from) (fun k ->
      (Vec.get t.tiers (from + k), Vec.get t.latency (from + k)))

let record_cycle t ~time ~drained ~pending_before ~qualified ~query_time
    ?(index_time = 0.) () =
  Vec.push t.times time;
  Vec.push t.drained drained;
  Vec.push t.pending_before pending_before;
  Vec.push t.qualified qualified;
  Vec.push t.query_times query_time;
  Vec.push t.index_times index_time

let cycles ?since t =
  let from = Option.fold ~none:0 ~some:fst since in
  List.init (Vec.length t.times - from) (fun k ->
      let i = from + k in
      let drained = Vec.get t.drained i
      and pending_before = Vec.get t.pending_before i
      and qualified = Vec.get t.qualified i in
      {
        cycle = i;
        time = Vec.get t.times i;
        drained;
        pending_before;
        qualified;
        (* [pending_before] is sampled before the queue drain, so the work
           the protocol query actually saw is the pending backlog plus the
           drain. *)
        admit_ratio =
          float_of_int qualified /. float_of_int (max 1 (pending_before + drained));
        query_time = Vec.get t.query_times i;
        index_time = Vec.get t.index_times i;
      })

(* Premium, standard, free first (urgency order); anything else after,
   alphabetically, so custom tier labels still render deterministically. *)
let tier_rank tier =
  let known =
    List.mapi
      (fun i tr -> (Ds_model.Sla.tier_to_string tr, i))
      Ds_model.Sla.all_tiers
  in
  match List.assoc_opt tier known with Some i -> (i, "") | None -> (max_int, tier)

let tier_histograms rows =
  let tiers = Hashtbl.create 4 in
  List.iter
    (fun (tier, dt) ->
      let h =
        match Hashtbl.find_opt tiers tier with
        | Some h -> h
        | None ->
          let h = Ds_stats.Histogram.create () in
          Hashtbl.add tiers tier h;
          h
      in
      Ds_stats.Histogram.add h dt)
    rows;
  Hashtbl.fold (fun tier h acc -> (tier, h) :: acc) tiers []
  |> List.sort (fun (a, _) (b, _) -> compare (tier_rank a) (tier_rank b))

let quantiles rows =
  List.map
    (fun (tier, h) ->
      ( tier,
        Ds_stats.Histogram.count h,
        Ds_stats.Histogram.median h,
        Ds_stats.Histogram.p95 h,
        Ds_stats.Histogram.p99 h ))
    (tier_histograms rows)

let tier_quantiles t = quantiles (latencies t)

let render_latency_rows rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %8s %12s %12s %12s\n" "tier" "n" "p50(s)" "p95(s)"
       "p99(s)");
  List.iter
    (fun (tier, n, p50, p95, p99) ->
      Buffer.add_string buf
        (Printf.sprintf "%-10s %8d %12.6f %12.6f %12.6f\n" tier n p50 p95 p99))
    rows;
  if rows = [] then Buffer.add_string buf "  (no completed transactions)\n";
  Buffer.contents buf

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "latency by SLA tier:\n";
  Buffer.add_string buf (render_latency_rows (tier_quantiles t));
  let rows = cycles t in
  let n = List.length rows in
  Buffer.add_string buf (Printf.sprintf "scheduler cycles: %d\n" n);
  if n > 0 then begin
    let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
    let fn = float_of_int n in
    Buffer.add_string buf
      (Printf.sprintf
         "  mean drain=%.2f  mean pending=%.2f  mean admit ratio=%.3f  mean \
          query time=%.6fs  mean index time=%.6fs\n"
         (sum (fun r -> float_of_int r.drained) /. fn)
         (sum (fun r -> float_of_int r.pending_before) /. fn)
         (sum (fun r -> r.admit_ratio) /. fn)
         (sum (fun r -> r.query_time) /. fn)
         (sum (fun r -> r.index_time) /. fn))
  end;
  (match t.parallel with
  | None -> ()
  | Some p ->
    Buffer.add_string buf
      (Printf.sprintf
         "parallel backend: %d worker(s), %d batch(es), makespan \
          mean=%.3fms p95=%.3fms max=%.3fms\n"
         p.workers p.batches
         (1000. *. p.makespan_mean)
         (1000. *. p.makespan_p95)
         (1000. *. p.makespan_max));
    Buffer.add_string buf
      (Printf.sprintf "%-10s %10s %12s %12s\n" "" "executed" "busy(s)" "util");
    List.iter
      (fun w ->
        Buffer.add_string buf
          (Printf.sprintf "%-10s %10d %12.6f %12.3f\n"
             (Printf.sprintf "worker %d" w.worker)
             w.executed w.busy w.utilization))
      p.per_worker);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* offline analysis over a loaded trace                               *)
(* ------------------------------------------------------------------ *)

let latencies_of_events events =
  Span.build events
  |> List.filter_map (fun (tree : Span.tree) ->
         Option.map (fun l -> (tree.Span.tier, l)) (Span.latency tree))

let latency_rows events = quantiles (latencies_of_events events)

let lock_wait_offenders ?(top = 10) events =
  (* open waits keyed by (ta, seq, obj); totals keyed by obj *)
  let open_waits : (int * int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let totals : (int, float * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      let key = (e.Trace.ta, e.Trace.seq, e.Trace.obj) in
      match e.Trace.kind with
      | Trace.Lock_wait -> Hashtbl.replace open_waits key e.Trace.at
      | Trace.Lock_grant -> (
        match Hashtbl.find_opt open_waits key with
        | None -> ()
        | Some t0 ->
          Hashtbl.remove open_waits key;
          let wait = e.Trace.at -. t0 in
          let total, n =
            Option.value ~default:(0., 0) (Hashtbl.find_opt totals e.Trace.obj)
          in
          Hashtbl.replace totals e.Trace.obj (total +. wait, n + 1))
      | _ -> ())
    events;
  Hashtbl.fold (fun obj (total, n) acc -> (obj, total, n) :: acc) totals []
  |> List.sort (fun (o1, t1, _) (o2, t2, _) ->
         match compare t2 t1 with 0 -> compare o1 o2 | c -> c)
  |> List.filteri (fun i _ -> i < top)
