open Ds_model

type violation =
  | Unknown_request of { ta : int; intrata : int }
  | Duplicate_delivery of { ta : int; intrata : int }
  | Missing_request of { ta : int; intrata : int }
  | Conflict_reordered of {
      obj : int;
      first : int * int;
      second : int * int;
    }
  | Cross_shard_conflict of {
      obj : int;
      first : int * int;
      second : int * int;
      shard_a : int;
      shard_b : int;
    }

type report = {
  reference_len : int;
  candidate_len : int;
  pairs_checked : int;
  violations : violation list;
}

let is_equivalent r = r.violations = []

let pp_key ppf (ta, intrata) = Format.fprintf ppf "(ta=%d,intrata=%d)" ta intrata

let pp_violation ppf = function
  | Unknown_request { ta; intrata } ->
    Format.fprintf ppf "candidate delivered %a which the reference never admitted"
      pp_key (ta, intrata)
  | Duplicate_delivery { ta; intrata } ->
    Format.fprintf ppf "candidate delivered %a more than once" pp_key
      (ta, intrata)
  | Missing_request { ta; intrata } ->
    Format.fprintf ppf "candidate is missing %a from the reference" pp_key
      (ta, intrata)
  | Conflict_reordered { obj; first; second } ->
    Format.fprintf ppf
      "conflicting pair on object %d reordered: reference runs %a before %a, \
       candidate the other way"
      obj pp_key first pp_key second
  | Cross_shard_conflict { obj; first; second; shard_a; shard_b } ->
    Format.fprintf ppf
      "conflicting pair on object %d split across shard lanes: %a on lane %d \
       vs %a on lane %d (the router must escalate such transactions to the \
       global lane)"
      obj pp_key first shard_a pp_key second shard_b

let pp_report ppf r =
  Format.fprintf ppf "reference=%d candidate=%d conflicting pairs=%d %s"
    r.reference_len r.candidate_len r.pairs_checked
    (if is_equivalent r then "equivalent"
     else
       Format.asprintf "violations=%d [%a]" (List.length r.violations)
         (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_violation)
         (List.filteri (fun i _ -> i < 3) r.violations))

(* Abort markers are bookkeeping rows, not executed operations; neither side
   of the comparison should see them. *)
let executed rs =
  if List.exists Request.is_abort_marker rs then
    List.filter (fun r -> not (Request.is_abort_marker r)) rs
  else rs

(* Ints by request key, one array per transaction indexed by INTRATA: a
   schedule's keys are dense within each transaction, so a key costs about
   a word here against seven in a hash table of (ta, intrata) tuples. *)
module Key_slots = struct
  let absent = min_int

  let create () : (int, int array) Hashtbl.t = Hashtbl.create 64

  let get t (r : Request.t) =
    match Hashtbl.find t r.Request.ta with
    | a -> if r.Request.intrata < Array.length a then a.(r.Request.intrata) else absent
    | exception Not_found -> absent

  let set t (r : Request.t) v =
    let a = match Hashtbl.find t r.Request.ta with a -> a | exception Not_found -> [||] in
    let a =
      if r.Request.intrata < Array.length a then a
      else begin
        let b = Array.make (max (r.Request.intrata + 1) (2 * Array.length a)) absent in
        Array.blit a 0 b 0 (Array.length a);
        Hashtbl.replace t r.Request.ta b;
        b
      end
    in
    a.(r.Request.intrata) <- v
end

(* [shard] is [(s_count, shard_of)] when checking a sharded run: any
   conflicting reference pair whose transactions sit on two {e distinct
   shard lanes} (neither being the global lane [s_count]) is a router
   soundness failure — per-lane SS2PL cannot order a conflict it never
   sees, so such pairs must have been escalated to the global lane. *)
let check_gen ?shard ?(complete = false) ~reference ~candidate () =
  let reference = executed reference and candidate = executed candidate in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Membership discipline: candidate keys are unique and drawn from the
     reference; with [complete] the multisets must coincide exactly. One
     table serves both sides: a reference key maps to -1 until the
     candidate delivers it, then to its last candidate position [i]; a key
     the reference lacks maps to [-2 - i]. *)
  let slot = Key_slots.create () in
  List.iter (fun r -> Key_slots.set slot r (-1)) reference;
  List.iteri
    (fun i r ->
      let ta, intrata = Request.key r in
      let p = Key_slots.get slot r in
      let known = p <> Key_slots.absent && p >= -1 in
      if p <> Key_slots.absent && p <> -1 then add (Duplicate_delivery { ta; intrata });
      if not known then add (Unknown_request { ta; intrata });
      Key_slots.set slot r (if known then i else -2 - i))
    candidate;
  if complete then
    List.iter
      (fun r ->
        if Key_slots.get slot r = -1 then
          let ta, intrata = Request.key r in
          add (Missing_request { ta; intrata }))
      reference;
  let cand_pos r =
    match Key_slots.get slot r with p when p >= 0 -> Some p | _ -> None
  in
  (* Order discipline: for every pair of conflicting requests present in
     both schedules, the candidate keeps the reference's relative order.
     Group by object (the reference's data requests, stably sorted by
     object, so each object's requests are one run in reference order);
     read-only prefixes commute so only pairs with at least one write
     conflict (delegated to {!Request.conflicts}). *)
  let by_obj =
    Array.of_list (List.filter (fun (r : Request.t) -> r.Request.obj <> None) reference)
  in
  let obj_of i = Option.get by_obj.(i).Request.obj in
  Array.stable_sort
    (fun (a : Request.t) (b : Request.t) ->
      Int.compare (Option.get a.Request.obj) (Option.get b.Request.obj))
    by_obj;
  let pairs = ref 0 in
  let first = ref 0 in
  while !first < Array.length by_obj do
    let obj = obj_of !first in
    let stop = ref (!first + 1) in
    while !stop < Array.length by_obj && obj_of !stop = obj do incr stop done;
    for i = !first to !stop - 1 do
      let a = by_obj.(i) in
      for j = i + 1 to !stop - 1 do
        let b = by_obj.(j) in
        if Request.conflicts a b then begin
          incr pairs;
          (match
             (cand_pos a, cand_pos b)
           with
          | Some pa, Some pb when pa > pb ->
            add (Conflict_reordered { obj; first = Request.key a; second = Request.key b })
          | _ -> ());
          match shard with
          | None -> ()
          | Some (s_count, shard_of) -> (
            match (shard_of a.Request.ta, shard_of b.Request.ta) with
            | Some sa, Some sb
              when sa <> sb && sa < s_count && sb < s_count && a.Request.ta <> b.Request.ta ->
              add
                (Cross_shard_conflict
                   {
                     obj;
                     first = Request.key a;
                     second = Request.key b;
                     shard_a = sa;
                     shard_b = sb;
                   })
            | _ -> ())
        end
      done
    done;
    first := !stop
  done;
  {
    reference_len = List.length reference;
    candidate_len = List.length candidate;
    pairs_checked = !pairs;
    violations = List.rev !violations;
  }

let check ?complete ~reference ~candidate () =
  check_gen ?complete ~reference ~candidate ()

let check_sharded ?complete ~shards ~shard_of ~reference ~candidate () =
  if shards < 2 then
    invalid_arg "Equivalence.check_sharded: needs at least 2 shards";
  check_gen ~shard:(shards, shard_of) ?complete ~reference ~candidate ()

(* ------------------------------------------------------------------ *)
(* failover durability                                                *)
(* ------------------------------------------------------------------ *)

type failover_report = {
  sync : bool;
  watermark : int;
  acked : int;
  survived_acked : int;
  lost_below_watermark : (int * int) list;
  lost_above_watermark : (int * int) list;
}

let check_failover ~sync ~watermark ~acked ~survived () =
  let below = ref [] and above = ref [] and kept = ref 0 in
  List.iter
    (fun (ta, lsn) ->
      if survived ta then incr kept
      else if lsn <= watermark then below := (ta, lsn) :: !below
      else above := (ta, lsn) :: !above)
    acked;
  let order = List.sort compare in
  {
    sync;
    watermark;
    acked = List.length acked;
    survived_acked = !kept;
    lost_below_watermark = order !below;
    lost_above_watermark = order !above;
  }

let failover_ok r =
  r.lost_below_watermark = [] && ((not r.sync) || r.lost_above_watermark = [])

let pp_failover_report ppf r =
  Format.fprintf ppf
    "mode=%s watermark=%d acked=%d survived=%d lost(below)=%d lost(above)=%d \
     %s"
    (if r.sync then "sync" else "async")
    r.watermark r.acked r.survived_acked
    (List.length r.lost_below_watermark)
    (List.length r.lost_above_watermark)
    (if failover_ok r then "ok"
     else if r.lost_below_watermark <> [] then
       "VIOLATION: acked transactions at or below the watermark were lost"
     else "VIOLATION: sync mode lost acked transactions")
