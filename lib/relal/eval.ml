open Ra

let truthy = function Value.Bool true -> true | _ -> false

let use_table_indexes = ref true

(* A join probes a persistent single-column index only while the index
   holds at most this many rows per key on average: the probe walks the
   whole posting for a miss, so a long posting (the [operation] column has
   four keys) costs more than hashing the right side once. *)
let max_probe_posting = 4.

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let vtrue = Value.Bool true

let vfalse = Value.Bool false

let of_bool b = if b then vtrue else vfalse

(* SQL three-valued comparison. *)
let compare_values cmp a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    let c = Value.compare a b in
    of_bool
      (match cmp with
      | Eq -> c = 0
      | Neq -> c <> 0
      | Lt -> c < 0
      | Leq -> c <= 0
      | Gt -> c > 0
      | Geq -> c >= 0)

let arith_values op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    match (a, b) with
    | Value.Int x, Value.Int y -> (
      match op with
      | Add -> Value.Int (x + y)
      | Sub -> Value.Int (x - y)
      | Mul -> Value.Int (x * y)
      | Div -> if y = 0 then Value.Null else Value.Int (x / y)
      | Mod -> if y = 0 then Value.Null else Value.Int (x mod y))
    | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
      let x = Option.get (Value.as_float a)
      and y = Option.get (Value.as_float b) in
      (match op with
      | Add -> Value.Float (x +. y)
      | Sub -> Value.Float (x -. y)
      | Mul -> Value.Float (x *. y)
      | Div -> if y = 0. then Value.Null else Value.Float (x /. y)
      | Mod -> if y = 0. then Value.Null else Value.Float (Float.rem x y))
    | _ ->
      type_error "arithmetic on non-numeric values %s and %s"
        (Value.to_string a) (Value.to_string b)

(* Kleene logic. *)
let and_values a b =
  match (a, b) with
  | Value.Bool false, _ | _, Value.Bool false -> vfalse
  | Value.Bool true, Value.Bool true -> vtrue
  | (Value.Null | Value.Bool _), (Value.Null | Value.Bool _) -> Value.Null
  | _ -> type_error "AND on non-boolean values"

let or_values a b =
  match (a, b) with
  | Value.Bool true, _ | _, Value.Bool true -> vtrue
  | Value.Bool false, Value.Bool false -> vfalse
  | (Value.Null | Value.Bool _), (Value.Null | Value.Bool _) -> Value.Null
  | _ -> type_error "OR on non-boolean values"

let not_value = function
  | Value.Bool b -> of_bool (not b)
  | Value.Null -> Value.Null
  | v -> type_error "NOT on non-boolean value %s" (Value.to_string v)

module Row_key = struct
  type t = Value.t array

  let rec equal_from a b i =
    i >= Array.length a || (Value.equal a.(i) b.(i) && equal_from a b (i + 1))

  let equal a b = Array.length a = Array.length b && equal_from a b 0

  let hash row = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 row
end

module Row_tbl = Hashtbl.Make (Row_key)

(* Filter-over-scan with a range predicate on an ordered-indexed column:
   narrow the scan with a range probe. The full predicate is still applied
   afterwards, so the probe only needs to return a superset. *)
let range_candidates pred p =
  if not !use_table_indexes then None
  else
    match p with
    | Scan (t, _) ->
      let rec conjuncts = function
        | And (a, b) -> conjuncts a @ conjuncts b
        | e -> [ e ]
      in
      let const_of = function
        | Const v -> Some v
        | Param r -> Some !r
        | _ -> None
      in
      (* (column, lo bound, hi bound) of one conjunct, if range-shaped. *)
      let bound_of = function
        | Cmp (op, Col i, rhs) when const_of rhs <> None -> (
          let v = Option.get (const_of rhs) in
          if Value.is_null v then None
          else
            match op with
            | Lt -> Some (i, None, Some (v, false))
            | Leq -> Some (i, None, Some (v, true))
            | Gt -> Some (i, Some (v, false), None)
            | Geq -> Some (i, Some (v, true), None)
            | Eq -> Some (i, Some (v, true), Some (v, true))
            | Neq -> None)
        | Cmp (op, lhs, Col i) when const_of lhs <> None -> (
          let v = Option.get (const_of lhs) in
          if Value.is_null v then None
          else
            match op with
            | Lt -> Some (i, Some (v, false), None)
            | Leq -> Some (i, Some (v, true), None)
            | Gt -> Some (i, None, Some (v, false))
            | Geq -> Some (i, None, Some (v, true))
            | Eq -> Some (i, Some (v, true), Some (v, true))
            | Neq -> None)
        | _ -> None
      in
      let tighter_lo a b =
        match (a, b) with
        | None, x | x, None -> x
        | Some (va, ia), Some (vb, ib) ->
          let c = Value.compare va vb in
          if c > 0 then Some (va, ia)
          else if c < 0 then Some (vb, ib)
          else Some (va, ia && ib)
      in
      let tighter_hi a b =
        match (a, b) with
        | None, x | x, None -> x
        | Some (va, ia), Some (vb, ib) ->
          let c = Value.compare va vb in
          if c < 0 then Some (va, ia)
          else if c > 0 then Some (vb, ib)
          else Some (va, ia && ib)
      in
      let bounds =
        List.fold_left
          (fun acc conjunct ->
            match bound_of conjunct with
            | Some (col, lo, hi) when Table.has_ordered_index t col -> (
              match acc with
              | None -> Some (col, lo, hi)
              | Some (col0, lo0, hi0) when col0 = col ->
                Some (col0, tighter_lo lo0 lo, tighter_hi hi0 hi)
              | Some _ -> acc)
            | _ -> acc)
          None (conjuncts pred)
      in
      (match bounds with
      | Some (col, lo, hi) when lo <> None || hi <> None ->
        Some (Table.range_probe t col ~lo ~hi)
      | _ -> None)
    | _ -> None

(* Rough output size of a plan, read off table and literal sizes without
   evaluating anything: an inner join hashes the side this calls smaller. *)
let rec estimate = function
  | Scan (t, _) -> Table.row_count t
  | Values (_, rows) -> List.length rows
  | Filter (_, p) | Project (_, p) | Distinct p | Sort (_, p) -> estimate p
  | Group g -> estimate g.input
  | Limit (n, p) -> min n (estimate p)
  | Join { kind = Semi | Anti; left = p; _ } | Except (p, _) -> estimate p
  | Join { left; right; _ } -> max (estimate left) (estimate right)
  | Intersect (l, r) -> min (estimate l) (estimate r)
  | Union_all (l, r) | Union (l, r) -> estimate l + estimate r
  | Cross (l, r) ->
    let a = estimate l and b = estimate r in
    if a = 0 || b <= max_int / a then a * b else max_int

(* A left row of an inner join that hashes its left side, with the right
   rows it matched so far (latest first). *)
type parked = { lrow : Value.t array; mutable matches : Value.t array list }

(* Expressions are evaluated over a split row: columns [0, |l|) read [l],
   the rest read [r]. A join tests its residual on a candidate pair this
   way without building the concatenated row; a single row is [l] with
   [r = no_row]. *)
let no_row : Value.t array = [||]

let col l r i =
  let la = Array.length l in
  if i >= 0 && i < la then Array.unsafe_get l i
  else if i >= la && i - la < Array.length r then Array.unsafe_get r (i - la)
  else type_error "column $%d out of range (arity %d)" i (la + Array.length r)

let outer_col env depth i =
  let rec nth d = function
    | row :: rest -> if d <= 1 then row else nth (d - 1) rest
    | [] -> type_error "outer reference at depth %d with no outer row" depth
  in
  let row = nth depth env in
  if i < 0 || i >= Array.length row then
    type_error "outer column $%d out of range" i
  else row.(i)

let rec mem_value v = function
  | [] -> false
  | w :: rest -> Value.equal v w || mem_value v rest

let rec eval env l r e =
  match e with
  | Col i -> col l r i
  | Outer (depth, i) -> outer_col env depth i
  | Const v -> v
  | Param p -> !p
  | Cmp (c, a, b) -> compare_values c (eval env l r a) (eval env l r b)
  | Arith (op, a, b) -> arith_values op (eval env l r a) (eval env l r b)
  | And (a, b) -> (
    (* Short-circuit: FALSE AND x = FALSE without evaluating x. *)
    match eval env l r a with
    | Value.Bool false -> vfalse
    | va -> and_values va (eval env l r b))
  | Or (a, b) -> (
    match eval env l r a with
    | Value.Bool true -> vtrue
    | va -> or_values va (eval env l r b))
  | Not e -> not_value (eval env l r e)
  | Is_null e -> of_bool (Value.is_null (eval env l r e))
  | Exists p ->
    let row = if Array.length r = 0 then l else Array.append l r in
    of_bool (exists (row :: env) p)
  | In_list (e, vs) -> (
    match eval env l r e with
    | Value.Null -> Value.Null
    | v ->
      if mem_value v vs then vtrue
      else if List.exists Value.is_null vs then Value.Null
      else vfalse)
  | Case (arms, default) ->
    let rec arm = function
      | [] -> eval env l r default
      | (c, res) :: rest ->
        if truthy (eval env l r c) then eval env l r res else arm rest
    in
    arm arms

(* EXISTS and LIMIT stop their producer by raising an exception of their
   own, so a nested LIMIT or EXISTS cannot catch it and keep streaming. *)
and exists env p =
  let exception Found in
  try
    iter env p (fun _ -> raise Found);
    false
  with Found -> true

(* [iter env plan k] streams the rows of [plan] into [k] in result order.
   Scan, Filter, Project, Union all and the probe side of a join pass rows
   straight through; hash builds, Distinct, Except/Intersect, Sort, Group
   and Cross hold what they must. *)
and iter env plan k =
  match plan with
  | Scan (t, _) -> Table.iter k t
  | Values (_, rows) -> List.iter k rows
  | Filter (pred, p) -> (
    let keep row = if truthy (eval env row no_row pred) then k row in
    match range_candidates pred p with
    | Some rows -> List.iter keep rows
    | None -> iter env p keep)
  | Project (cols, p) -> iter_project env cols p k
  | Cross (l, r) ->
    let right_rows = collect env r in
    iter env l (fun lrow ->
        List.iter (fun rrow -> k (Array.append lrow rrow)) right_rows)
  | Join j -> iter_join env j k
  | Union_all (l, r) ->
    iter env l k;
    iter env r k
  | Union (l, r) ->
    let k = first_seen k in
    iter env l k;
    iter env r k
  | Except (l, r) ->
    let right_set = row_set env r in
    let k = first_seen k in
    iter env l (fun row -> if not (Row_tbl.mem right_set row) then k row)
  | Intersect (l, r) ->
    let right_set = row_set env r in
    let k = first_seen k in
    iter env l (fun row -> if Row_tbl.mem right_set row then k row)
  | Distinct p -> iter env p (first_seen k)
  | Sort (keys, p) -> List.iter k (sort_rows env keys (collect env p))
  | Limit (n, p) ->
    if n > 0 then begin
      let exception Full in
      let left = ref n in
      try
        iter env p (fun row ->
            decr left;
            k row;
            if !left = 0 then raise Full)
      with Full -> ()
    end
  | Group { keys; aggs; input } -> List.iter k (eval_group env keys aggs input)

and collect env p =
  let out = ref [] in
  iter env p (fun row -> out := row :: !out);
  List.rev !out

(* Passes on the first occurrence of each row. *)
and first_seen k =
  let seen = Row_tbl.create 64 in
  fun row ->
    if not (Row_tbl.mem seen row) then begin
      Row_tbl.add seen row ();
      k row
    end

and row_set env p =
  let set = Row_tbl.create 16 in
  iter env p (fun row -> Row_tbl.replace set row ());
  set

and iter_project env cols p k =
  let exprs = Array.of_list (List.map fst cols) in
  let n = Array.length exprs in
  let identity =
    n = Schema.arity (schema_of p)
    &&
    let rec loop i =
      i >= n || ((match exprs.(i) with Col c -> c = i | _ -> false) && loop (i + 1))
    in
    loop 0
  in
  if identity then iter env p k
  else
    iter env p (fun row ->
        let out = Array.make n Value.Null in
        for i = 0 to n - 1 do
          Array.unsafe_set out i (eval env row no_row (Array.unsafe_get exprs i))
        done;
        k out)

and sort_rows env keys rows =
  let decorated =
    List.map
      (fun row -> (List.map (fun (e, _) -> eval env row no_row e) keys, row))
      rows
  in
  let compare_keys (ka, _) (kb, _) =
    let rec loop ks dirs =
      match (ks, dirs) with
      | [], [] -> 0
      | (a, b) :: rest, (_, dir) :: dirs -> (
        let c = Value.compare a b in
        let c = match dir with `Asc -> c | `Desc -> -c in
        match c with 0 -> loop rest dirs | c -> c)
      | _ -> assert false
    in
    loop (List.combine ka kb) keys
  in
  List.map snd (List.stable_sort compare_keys decorated)

(* The rows of one join side by key, each key's rows in input order. Rows
   with a NULL key are left out (NULL never joins). Only lists and the
   bucket array are built, so rows made by the side's own projection are not
   copied into a large array (which would force a minor collection). *)
and hash_side env keys p =
  let rev = ref [] and n = ref 0 in
  iter env p (fun row ->
      rev := row :: !rev;
      incr n);
  let heads = Row_tbl.create (max 16 !n) in
  let key = Array.make (Array.length keys) Value.Null in
  List.iter
    (fun row ->
      if fill_key env keys row key then
        match Row_tbl.find heads key with
        | rows -> rows := row :: !rows
        | exception Not_found -> Row_tbl.add heads (Array.copy key) (ref [ row ]))
    !rev;
  heads

(* Evaluates [keys] on [row] into [key]; false if one of them is NULL. *)
and fill_key env keys row key = fill_key_from env keys row key 0

and fill_key_from env keys row key i =
  i >= Array.length keys
  ||
  let v = eval env row no_row (Array.unsafe_get keys i) in
  (not (Value.is_null v))
  && begin
       Array.unsafe_set key i v;
       fill_key_from env keys row key (i + 1)
     end

(* Do [keys] evaluated on [row] equal [key] from position [i] on? *)
and keys_equal env keys row key i =
  i >= Array.length keys
  || Value.equal (eval env row no_row (Array.unsafe_get keys i)) (Array.unsafe_get key i)
     && keys_equal env keys row key (i + 1)

(* A join drives its left input row by row. For each left row with a
   non-NULL key, [probe] offers the right rows under that key, in right-side
   order, to [on_match] until it returns true; the right rows come from a
   persistent index when a short one exists, else from a hash of the
   right side. An inner join whose left side is the smaller one hashes the
   left side instead and streams the right (see [iter_inner_build_left]).
   Semi and anti joins stop at the first match and build no row. *)
and iter_join env j k =
  let lkeys = Array.of_list j.lkeys and rkeys = Array.of_list j.rkeys in
  match index_probe env j rkeys with
  | None
    when j.kind = Inner && j.lkeys <> []
         && estimate j.left < estimate j.right ->
    iter_inner_build_left env j lkeys rkeys k
  | direct ->
    let key = Array.make (Array.length lkeys) Value.Null in
    let cur = ref no_row and matched = ref false in
    let passes rrow =
      match j.residual with
      | None -> true
      | Some e -> truthy (eval env !cur rrow e)
    in
    let on_match =
      match j.kind with
      | Semi | Anti -> passes
      | Inner | Left ->
        fun rrow ->
          if passes rrow then begin
            matched := true;
            k (Array.append !cur rrow)
          end;
          false
    in
    let probe =
      match direct with
      | Some probe -> probe key on_match
      | None ->
        let heads = hash_side env rkeys j.right in
        let rec walk = function [] -> false | r :: rest -> on_match r || walk rest in
        fun () ->
          match Row_tbl.find heads key with
          | rows -> walk !rows
          | exception Not_found -> false
    in
    let pad =
      match j.kind with
      | Left -> Array.make (Schema.arity (schema_of j.right)) Value.Null
      | Inner | Semi | Anti -> no_row
    in
    iter env j.left (fun lrow ->
        matched := false;
        let hit =
          fill_key env lkeys lrow key
          && begin
               cur := lrow;
               probe ()
             end
        in
        match j.kind with
        | Semi -> if hit then k lrow
        | Anti -> if not hit then k lrow
        | Inner -> ()
        | Left -> if not !matched then k (Array.append lrow pad))

(* Right side [Scan t] or [Filter (pred, Scan t)] with a key column [c]
   carrying a single-column index of short postings: probe that index for
   each left row and check the remaining keys and [pred] on the posting's
   rows. Picks the key column with the shortest postings. *)
and index_probe env j rkeys =
  if not !use_table_indexes then None
  else
    let table_and_filter =
      match j.right with
      | Scan (t, _) -> Some (t, None)
      | Filter (pred, Scan (t, _)) -> Some (t, Some pred)
      | _ -> None
    in
    match table_and_filter with
    | None -> None
    | Some (t, pred) -> (
      let best = ref None in
      Array.iteri
        (fun pos e ->
          match e with
          | Col c -> (
            match (Table.mean_posting t c, !best) with
            | Some m, Some (_, _, m') when m >= m' -> ()
            | Some m, _ when m <= max_probe_posting -> best := Some (pos, c, m)
            | _ -> ())
          | _ -> ())
        rkeys;
      match !best with
      | None -> None
      | Some (pos, c, _) ->
        Some
          (fun key on_match ->
            let check rrow =
              keys_equal env rkeys rrow key 0
              && (match pred with
                 | None -> true
                 | Some p -> truthy (eval env rrow no_row p))
              && on_match rrow
            in
            fun () -> Table.exists_in_posting t c key.(pos) check))

(* Inner join that hashes its (smaller) left side and streams the right.
   Matches are parked on their left row and emitted left-major afterwards,
   so the output order is the one the right-hashing path produces. *)
and iter_inner_build_left env j lkeys rkeys k =
  let rev = ref [] and n = ref 0 in
  iter env j.left (fun lrow ->
      rev := { lrow; matches = [] } :: !rev;
      incr n);
  let heads = Row_tbl.create (max 16 !n) in
  let key = Array.make (Array.length lkeys) Value.Null in
  List.iter
    (fun p ->
      if fill_key env lkeys p.lrow key then
        match Row_tbl.find heads key with
        | ps -> ps := p :: !ps
        | exception Not_found -> Row_tbl.add heads (Array.copy key) (ref [ p ]))
    !rev;
  let key = Array.make (Array.length rkeys) Value.Null in
  let cur = ref no_row in
  let rec walk = function
    | [] -> ()
    | p :: rest ->
      (match j.residual with
      | Some e when not (truthy (eval env p.lrow !cur e)) -> ()
      | _ -> p.matches <- !cur :: p.matches);
      walk rest
  in
  iter env j.right (fun rrow ->
      if fill_key env rkeys rrow key then
        match Row_tbl.find heads key with
        | ps ->
          cur := rrow;
          walk !ps
        | exception Not_found -> ());
  let rec emit lrow = function
    | [] -> ()
    | rrow :: rest ->
      emit lrow rest;
      k (Array.append lrow rrow)
  in
  List.iter (fun p -> emit p.lrow p.matches) (List.rev !rev)

and eval_group env keys aggs input =
  let rows = collect env input in
  let groups = Row_tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
      let key =
        Array.of_list (List.map (fun (e, _) -> eval env row no_row e) keys)
      in
      match Row_tbl.find_opt groups key with
      | Some members -> members := row :: !members
      | None ->
        Row_tbl.add groups key (ref [ row ]);
        order := key :: !order)
    rows;
  let order = List.rev !order in
  let value row e = eval env row no_row e in
  let agg_value members = function
    | Count_star -> Value.Int (List.length members)
    | Count e ->
      Value.Int
        (List.length
           (List.filter (fun row -> not (Value.is_null (value row e))) members))
    | Sum e -> fold_sum value members e
    | Min e -> fold_minmax value members e ~better:(fun a b -> Value.compare a b < 0)
    | Max e -> fold_minmax value members e ~better:(fun a b -> Value.compare a b > 0)
    | Avg e -> (
      let vals = non_null_floats value members e in
      match vals with
      | [] -> Value.Null
      | _ ->
        Value.Float
          (List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals)))
  in
  (* Empty input with no GROUP BY keys still yields one row (SQL aggregate
     over an empty relation). *)
  if order = [] && keys = [] then
    [ Array.of_list (List.map (fun (a, _) -> agg_value [] a) aggs) ]
  else
    List.map
      (fun key ->
        let members = List.rev !(Row_tbl.find groups key) in
        Array.append key
          (Array.of_list (List.map (fun (a, _) -> agg_value members a) aggs)))
      order

and non_null_floats value members e =
  List.filter_map
    (fun row ->
      match value row e with
      | Value.Null -> None
      | v -> (
        match Value.as_float v with
        | Some f -> Some f
        | None -> type_error "aggregate over non-numeric value"))
    members

and fold_sum value members e =
  (* Ints fold in the int domain and only widen to float once a float input
     appears, so SUM over a FLOAT column stays a Float even when the total is
     integral (2.5 + 1.5 = 4.0, not 4) and pure-int sums keep exact precision
     beyond 2^53. *)
  let acc =
    List.fold_left
      (fun acc row ->
        match value row e with
        | Value.Null -> acc
        | Value.Int i -> (
          match acc with
          | `Empty -> `Int i
          | `Int s -> `Int (s + i)
          | `Float s -> `Float (s +. float_of_int i))
        | Value.Float f -> (
          match acc with
          | `Empty -> `Float f
          | `Int s -> `Float (float_of_int s +. f)
          | `Float s -> `Float (s +. f))
        | Value.Str _ | Value.Bool _ ->
          type_error "aggregate over non-numeric value")
      `Empty members
  in
  match acc with
  | `Empty -> Value.Null
  | `Int s -> Value.Int s
  | `Float s -> Value.Float s

and fold_minmax value members e ~better =
  List.fold_left
    (fun best row ->
      match value row e with
      | Value.Null -> best
      | v -> (
        match best with
        | Value.Null -> v
        | b -> if better v b then v else b))
    Value.Null members

let eval_expr ?(env = []) ~row e = eval env row no_row e

let run ?(env = []) plan = collect env plan
