open Ds_model

type violation =
  | Cycle of int list
  | Dirty_access of { writer : int; accessor : int; obj : int; pos : int }
  | Unrigorous of { reader : int; writer : int; obj : int; pos : int }
  | Commit_disorder of { first : int; second : int; obj : int }

type report = {
  events : int;
  txns : int;
  committed : int;
  conflict_edges : int;
  violations : violation list;
}

let terminal_lookup events =
  let term = Conflict_graph.terminal_positions events in
  fun ta -> Option.value ~default:max_int (Hashtbl.find_opt term ta)

let serializable graph =
  match Conflict_graph.find_cycle graph with
  | Some cycle -> [ Cycle cycle ]
  | None -> []

let strict_on term_of groups =
  let violations = ref [] in
  Conflict_graph.iter_objects
    (fun obj ops first stop ->
      let last_write = ref None in
      for k = first to stop - 1 do
        let e = ops.(k) in
        (match !last_write with
        | Some (w : Conflict_graph.event)
          when w.Conflict_graph.ta <> e.Conflict_graph.ta
               && term_of w.Conflict_graph.ta > e.Conflict_graph.pos ->
          violations :=
            Dirty_access
              {
                writer = w.Conflict_graph.ta;
                accessor = e.Conflict_graph.ta;
                obj;
                pos = e.Conflict_graph.pos;
              }
            :: !violations
        | _ -> ());
        if Op.equal e.Conflict_graph.op Op.Write then last_write := Some e
      done)
    groups;
  List.rev !violations

let strict events =
  strict_on (terminal_lookup events) (Conflict_graph.data_ops_by_object events)

let rigorous_on term_of groups =
  let violations = ref [] in
  (* Live read locks on the current object: reader -> first read position.
     One table, emptied per object. *)
  let readers : (int, int) Hashtbl.t = Hashtbl.create 8 in
  Conflict_graph.iter_objects
    (fun obj ops first stop ->
      Hashtbl.reset readers;
      for k = first to stop - 1 do
        let e = ops.(k) in
        match e.Conflict_graph.op with
        | Op.Read ->
          if not (Hashtbl.mem readers e.Conflict_graph.ta) then
            Hashtbl.add readers e.Conflict_graph.ta e.Conflict_graph.pos
        | Op.Write ->
          Hashtbl.iter
            (fun reader _ ->
              if reader <> e.Conflict_graph.ta && term_of reader > e.Conflict_graph.pos
              then
                violations :=
                  Unrigorous
                    { reader; writer = e.Conflict_graph.ta; obj; pos = e.Conflict_graph.pos }
                  :: !violations)
            readers
        | Op.Abort | Op.Commit -> ()
      done)
    groups;
  List.rev !violations

let rigorous events =
  rigorous_on (terminal_lookup events) (Conflict_graph.data_ops_by_object events)

let commit_positions events =
  let commits = Hashtbl.create 64 in
  List.iter
    (fun (e : Conflict_graph.event) ->
      if
        Op.equal e.Conflict_graph.op Op.Commit
        && not (Hashtbl.mem commits e.Conflict_graph.ta)
      then Hashtbl.add commits e.Conflict_graph.ta e.Conflict_graph.pos)
    events;
  commits

let commit_ordered_on graph commits =
  List.filter_map
    (fun (e : Conflict_graph.edge) ->
      match
        ( Hashtbl.find_opt commits e.Conflict_graph.src,
          Hashtbl.find_opt commits e.Conflict_graph.dst )
      with
      | Some cs, Some cd when cs > cd ->
        Some
          (Commit_disorder
             {
               first = e.Conflict_graph.src;
               second = e.Conflict_graph.dst;
               obj = e.Conflict_graph.obj;
             })
      | _ -> None)
    (Conflict_graph.edges graph)

let commit_ordered events =
  commit_ordered_on (Conflict_graph.build events) (commit_positions events)

(* The check of the events satisfying [keep], a predicate on transactions.
   The three per-object passes share one grouping of the data operations
   and one terminal lookup. Terminal and commit positions are looked up
   only for kept transactions, so they are read off all events. *)
let check_where keep events =
  let groups = Conflict_graph.data_ops_by_object ~keep events in
  let graph = Conflict_graph.build_grouped ~keep events groups in
  let term_of = terminal_lookup events in
  let commits = commit_positions events in
  let violations =
    serializable graph @ strict_on term_of groups @ rigorous_on term_of groups
    @ commit_ordered_on graph commits
  in
  {
    events = List.fold_left (fun n e -> if keep e then n + 1 else n) 0 events;
    txns = List.length (Conflict_graph.nodes graph);
    committed = Hashtbl.length commits;
    conflict_edges = Conflict_graph.edge_count graph;
    violations;
  }

let check events = check_where (fun _ -> true) events

(* The committed projection, without copying the events. *)
let check_committed events =
  let commits = commit_positions events in
  check_where (fun (e : Conflict_graph.event) -> Hashtbl.mem commits e.Conflict_graph.ta) events

let is_clean r = r.violations = []

let pp_violation ppf = function
  | Cycle tas ->
    Format.fprintf ppf "conflict cycle: %s"
      (String.concat " -> " (List.map (Printf.sprintf "T%d") tas))
  | Dirty_access { writer; accessor; obj; pos } ->
    Format.fprintf ppf
      "not strict: T%d accessed x%d at pos %d under T%d's uncommitted write"
      accessor obj pos writer
  | Unrigorous { reader; writer; obj; pos } ->
    Format.fprintf ppf
      "not rigorous: T%d overwrote x%d at pos %d under T%d's live read" writer
      obj pos reader
  | Commit_disorder { first; second; obj } ->
    Format.fprintf ppf
      "commit disorder: T%d -> T%d conflict on x%d but T%d committed first"
      first second obj second

let pp_report ppf r =
  Format.fprintf ppf
    "events=%d txns=%d committed=%d conflict_edges=%d violations=%d" r.events
    r.txns r.committed r.conflict_edges
    (List.length r.violations);
  List.iter (fun v -> Format.fprintf ppf "@.  %a" pp_violation v) r.violations
