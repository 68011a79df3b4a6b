(* Spans recorded by the benchmark around its calls into the layers, plus
   the counters measured at the same boundaries.

   Two clocks: layer spans ("run", "protocol.call", "relal.index",
   "replica.pump") are wall-clock seconds since the run started; request
   spans ("txn", "req", "req.queue" ...) are virtual seconds rebuilt from a
   [Ds_obs.Trace] sink after the run. Spans of one request share (ta, seq);
   layer spans use (-1, -1). Spans are kept in memory and written out once
   the benchmark ends. *)

open Ds_core

type span = {
  id : int;
  name : string;
  wall : bool;  (** wall clock; false = virtual clock *)
  start : float;
  stop : float;
  parent : int;  (** -1 for a root *)
  ta : int;
  seq : int;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable open_ : int list;  (** open wall spans, innermost first *)
  mutable origin : float;
  mutable protocol_calls : int;
  mutable protocol_time : float;
  mutable rows_in : int;  (** pending + history rows at each protocol call *)
  mutable qualified : int;
  mutable pump_time : float;
}

let create () =
  {
    spans = [];
    next_id = 0;
    open_ = [];
    origin = 0.;
    protocol_calls = 0;
    protocol_time = 0.;
    rows_in = 0;
    qualified = 0;
    pump_time = 0.;
  }

let now = Unix.gettimeofday

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t ?(id = -1) ~name ~wall ~start ~stop ~parent ~ta ~seq () =
  let id = if id >= 0 then id else fresh t in
  t.spans <- { id; name; wall; start; stop; parent; ta; seq } :: t.spans;
  id

let current t = match t.open_ with id :: _ -> id | [] -> -1

(* Times [f] as a wall span named [name] under the innermost open span. *)
let within t name f =
  let parent = current t in
  let id = fresh t in
  t.open_ <- id :: t.open_;
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  t.open_ <- List.tl t.open_;
  ignore
    (add t ~id ~name ~wall:true ~start:(t0 -. t.origin) ~stop:(t1 -. t.origin)
       ~parent ~ta:(-1) ~seq:(-1) ());
  (r, t1 -. t0)

let wrap_protocol t (p : Protocol.t) =
  {
    p with
    Protocol.prepare =
      (fun rels ->
        let qualify = p.Protocol.prepare rels in
        fun () ->
          let rows = Relations.pending_count rels + Relations.history_count rels in
          let keys, dt = within t "protocol.call" qualify in
          t.protocol_calls <- t.protocol_calls + 1;
          t.protocol_time <- t.protocol_time +. dt;
          t.rows_in <- t.rows_in + rows;
          t.qualified <- t.qualified + List.length keys;
          keys);
  }

let wrap_repl t (h : Middleware.repl_hooks) =
  {
    h with
    Middleware.repl_pump =
      (fun ~now:v ->
        let (), dt = within t "replica.pump" (fun () -> h.Middleware.repl_pump ~now:v) in
        t.pump_time <- t.pump_time +. dt);
  }

(* [run t f] times [f] as the root "run" span, with index-maintenance
   sections reported by [Ds_relal.Table] recorded under whichever span was
   open when they ended. *)
let run t f =
  t.origin <- now ();
  Ds_relal.Profile.set_section_observer
    (Some
       (fun label dt ->
         if label = "index-maintenance" then begin
           let stop = now () -. t.origin in
           ignore
             (add t ~name:"relal.index" ~wall:true ~start:(stop -. dt) ~stop
                ~parent:(current t) ~ta:(-1) ~seq:(-1) ())
         end));
  Fun.protect
    ~finally:(fun () -> Ds_relal.Profile.set_section_observer None)
    (fun () -> fst (within t "run" f))

(* Request spans from a trace: per transaction a "txn" span from its start
   (router decision or first enqueue) to its terminal event; per request a
   "req" span from enqueue to execution done, split into queue, defer,
   dispatch and exec; per committed transaction a "txn.ack" span from its
   commit request's execution to the commit acknowledgement. Returns the
   interval samples (seconds) keyed by phase name, plus the client-visible
   latency of every committed transaction under "txn.latency". *)
let add_trace t (events : Ds_obs.Trace.event list) =
  let module T = Ds_obs.Trace in
  let firsts = Hashtbl.create 4096 in
  let first key kind at =
    if not (Hashtbl.mem firsts (key, kind)) then Hashtbl.add firsts (key, kind) at
  in
  let txns = Hashtbl.create 1024 in
  let reqs = Hashtbl.create 4096 in
  let commit_req = Hashtbl.create 1024 in
  List.iter
    (fun (e : T.event) ->
      if e.T.ta >= 0 then begin
        let key = (e.T.ta, e.T.seq) in
        (match e.T.kind with
        | T.Shard_route | T.Commit | T.Abort | T.Dead_letter ->
          Hashtbl.replace txns e.T.ta ()
        | T.Enqueued ->
          Hashtbl.replace txns e.T.ta ();
          Hashtbl.replace reqs key ();
          if e.T.op = 'c' then Hashtbl.replace commit_req e.T.ta e.T.seq;
          first (e.T.ta, -1) T.Enqueued e.T.at
        | _ -> ());
        first key e.T.kind e.T.at
      end)
    events;
  let get key kind = Hashtbl.find_opt firsts (key, kind) in
  let samples = Hashtbl.create 8 in
  let sample name dt =
    Hashtbl.replace samples name
      (dt :: Option.value ~default:[] (Hashtbl.find_opt samples name))
  in
  let txn_ids = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun ta () ->
      let key = (ta, -1) in
      let start =
        match (get key T.Shard_route, get key T.Enqueued) with
        | Some a, Some b -> Some (Float.min a b)
        | (Some _ as a), None -> a
        | None, b -> b
      in
      let stop =
        List.find_map (get key) [ T.Commit; T.Abort; T.Dead_letter ]
      in
      match (start, stop) with
      | Some start, Some stop ->
        if get key T.Commit = Some stop then sample "txn.latency" (stop -. start);
        Hashtbl.replace txn_ids ta
          (add t ~name:"txn" ~wall:false ~start ~stop ~parent:(-1) ~ta ~seq:(-1) ())
      | _ -> ())
    txns;
  Hashtbl.iter
    (fun (ta, seq) () ->
      let key = (ta, seq) in
      match (get key T.Enqueued, get key T.Exec_done, Hashtbl.find_opt txn_ids ta) with
      | Some enq, Some done_, Some parent -> (
        let id =
          add t ~name:"req" ~wall:false ~start:enq ~stop:done_ ~parent ~ta ~seq ()
        in
        let phases =
          [
            ("req.queue", T.Enqueued, T.Drained);
            ("req.defer", T.Drained, T.Sched_admit);
            ("req.dispatch", T.Sched_admit, T.Dispatched);
            ("req.exec", T.Dispatched, T.Exec_done);
          ]
        in
        List.iter
          (fun (name, k0, k1) ->
            match (get key k0, get key k1) with
            | Some a, Some b ->
              sample name (b -. a);
              ignore
                (add t ~name ~wall:false ~start:a ~stop:b ~parent:id ~ta ~seq ())
            | _ -> ())
          phases;
        if Hashtbl.find_opt commit_req ta = Some seq then
          match get (ta, -1) T.Commit with
          | Some c ->
            sample "req.ack" (c -. done_);
            ignore
              (add t ~name:"txn.ack" ~wall:false ~start:done_ ~stop:c ~parent ~ta
                 ~seq ())
          | None -> ())
      | _ -> ())
    reqs;
  samples

(* Self time per span name: each span's duration minus the part covered by
   its children (children of one span do not overlap), summed by name.
   [(name, wall, total self seconds, count)], sorted by self time. *)
let self_times t =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)
      in
      let sum, n, _ =
        Option.value ~default:(0., 0, s.wall) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (sum +. self, n + 1, s.wall))
    t.spans;
  Hashtbl.fold (fun name (sum, n, wall) acc -> (name, wall, sum, n) :: acc) by_name []
  |> List.sort (fun (_, w1, a, _) (_, w2, b, _) -> compare (w2, b) (w1, a))

let write t ~sim oc =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"sim\":%S,\"id\":%d,\"name\":%S,\"clock\":%S,\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d,\"ta\":%d,\"seq\":%d}\n"
        sim s.id s.name
        (if s.wall then "wall" else "virtual")
        (1000. *. s.start) (1000. *. s.stop) s.parent s.ta s.seq)
    (List.rev t.spans)
