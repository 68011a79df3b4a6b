open Ra

type level = [ `None | `Basic | `Full ]

(* ------------------------------------------------------------------ *)
(* Conjunction utilities                                              *)
(* ------------------------------------------------------------------ *)

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Const (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc c -> And (acc, c)) e rest

let rec expr_equal a b =
  match (a, b) with
  | Col i, Col j -> i = j
  | Outer (d, i), Outer (e, j) -> d = e && i = j
  | Const u, Const v -> Value.compare u v = 0 && Value.is_null u = Value.is_null v
  | Param r, Param r' -> r == r'
  | Cmp (c, x, y), Cmp (d, u, v) -> c = d && expr_equal x u && expr_equal y v
  | Arith (c, x, y), Arith (d, u, v) -> c = d && expr_equal x u && expr_equal y v
  | And (x, y), And (u, v) | Or (x, y), Or (u, v) ->
    expr_equal x u && expr_equal y v
  | Not x, Not u | Is_null x, Is_null u -> expr_equal x u
  | In_list (x, vs), In_list (u, ws) ->
    expr_equal x u && List.equal Value.equal vs ws
  | Case (a1, d1), Case (a2, d2) ->
    List.length a1 = List.length a2
    && List.for_all2
         (fun (c1, r1) (c2, r2) -> expr_equal c1 c2 && expr_equal r1 r2)
         a1 a2
    && expr_equal d1 d2
  | Exists _, Exists _ -> false (* conservative: never equal *)
  | _ -> false

let rec disjuncts = function Or (a, b) -> disjuncts a @ disjuncts b | e -> [ e ]

(* (A and B) or (A and C) --> A and (B or C), recursively, for conjuncts
   that appear (syntactically) in every disjunct. *)
let factor_common_disjunction e =
  match disjuncts e with
  | [] | [ _ ] -> e
  | first :: rest as all ->
    let conj_lists = List.map conjuncts all in
    let first_conjs = conjuncts first in
    ignore rest;
    let common =
      List.filter
        (fun c -> List.for_all (fun l -> List.exists (expr_equal c) l) conj_lists)
        first_conjs
    in
    if common = [] then e
    else begin
      let strip l =
        (* Remove one occurrence of each common conjunct. *)
        List.fold_left
          (fun acc c ->
            let rec remove = function
              | [] -> []
              | x :: xs -> if expr_equal x c then xs else x :: remove xs
            in
            remove acc)
          l common
      in
      let residuals = List.map strip conj_lists in
      let residual_or =
        if List.exists (fun l -> l = []) residuals then None
          (* one disjunct reduced to the common part: OR collapses to true *)
        else
          Some
            (match List.map conjoin residuals with
            | [] -> Const (Value.Bool true)
            | d :: ds -> List.fold_left (fun acc x -> Or (acc, x)) d ds)
      in
      match residual_or with
      | None -> conjoin common
      | Some r -> And (conjoin common, r)
    end

(* ------------------------------------------------------------------ *)
(* Column usage and remapping                                         *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)

(* Columns of the *current* row used by [e], including references from
   nested subqueries via Outer at the matching relative depth. *)
let cols_used e =
  let acc = ref Int_set.empty in
  let rec in_expr d = function
    | Col i -> if d = 0 then acc := Int_set.add i !acc
    | Outer (k, i) -> if k = d then acc := Int_set.add i !acc
    | Const _ | Param _ -> ()
    | Cmp (_, a, b) | Arith (_, a, b) | And (a, b) | Or (a, b) ->
      in_expr d a;
      in_expr d b
    | Not e | Is_null e | In_list (e, _) -> in_expr d e
    | Case (arms, default) ->
      List.iter
        (fun (c, r) ->
          in_expr d c;
          in_expr d r)
        arms;
      in_expr d default
    | Exists p -> in_plan (d + 1) p
  and in_plan d = function
    | Scan _ | Values _ -> ()
    | Filter (e, p) ->
      in_expr d e;
      in_plan d p
    | Project (cols, p) ->
      List.iter (fun (e, _) -> in_expr d e) cols;
      in_plan d p
    | Cross (l, r) ->
      in_plan d l;
      in_plan d r
    | Join { lkeys; rkeys; residual; left; right; _ } ->
      List.iter (in_expr d) (lkeys @ rkeys @ Option.to_list residual);
      in_plan d left;
      in_plan d right
    | Union_all (l, r) | Union (l, r) | Except (l, r) | Intersect (l, r) ->
      in_plan d l;
      in_plan d r
    | Distinct p | Limit (_, p) -> in_plan d p
    | Sort (keys, p) ->
      List.iter (fun (e, _) -> in_expr d e) keys;
      in_plan d p
    | Group { keys; aggs; input } ->
      List.iter (fun (e, _) -> in_expr d e) keys;
      List.iter
        (fun (a, _) ->
          match a with
          | Count_star -> ()
          | Count e | Sum e | Min e | Max e | Avg e -> in_expr d e)
        aggs;
      in_plan d input
  in
  in_expr 0 e;
  !acc

(* Remap the current row's columns through [f], following references into
   nested subqueries (Outer at matching depth). *)
let map_cols f e =
  let rec in_expr d = function
    | Col i -> if d = 0 then Col (f i) else Col i
    | Outer (k, i) -> if k = d then Outer (k, f i) else Outer (k, i)
    | (Const _ | Param _) as e -> e
    | Cmp (c, a, b) -> Cmp (c, in_expr d a, in_expr d b)
    | Arith (o, a, b) -> Arith (o, in_expr d a, in_expr d b)
    | And (a, b) -> And (in_expr d a, in_expr d b)
    | Or (a, b) -> Or (in_expr d a, in_expr d b)
    | Not e -> Not (in_expr d e)
    | Is_null e -> Is_null (in_expr d e)
    | In_list (e, vs) -> In_list (in_expr d e, vs)
    | Case (arms, default) ->
      Case
        ( List.map (fun (c, r) -> (in_expr d c, in_expr d r)) arms,
          in_expr d default )
    | Exists p -> Exists (in_plan (d + 1) p)
  and in_plan d = function
    | (Scan _ | Values _) as p -> p
    | Filter (e, p) -> Filter (in_expr d e, in_plan d p)
    | Project (cols, p) ->
      Project (List.map (fun (e, c) -> (in_expr d e, c)) cols, in_plan d p)
    | Cross (l, r) -> Cross (in_plan d l, in_plan d r)
    | Join j ->
      Join
        {
          j with
          lkeys = List.map (in_expr d) j.lkeys;
          rkeys = List.map (in_expr d) j.rkeys;
          residual = Option.map (in_expr d) j.residual;
          left = in_plan d j.left;
          right = in_plan d j.right;
        }
    | Union_all (l, r) -> Union_all (in_plan d l, in_plan d r)
    | Union (l, r) -> Union (in_plan d l, in_plan d r)
    | Except (l, r) -> Except (in_plan d l, in_plan d r)
    | Intersect (l, r) -> Intersect (in_plan d l, in_plan d r)
    | Distinct p -> Distinct (in_plan d p)
    | Limit (n, p) -> Limit (n, in_plan d p)
    | Sort (keys, p) ->
      Sort (List.map (fun (e, dir) -> (in_expr d e, dir)) keys, in_plan d p)
    | Group { keys; aggs; input } ->
      let map_agg = function
        | Count_star -> Count_star
        | Count e -> Count (in_expr d e)
        | Sum e -> Sum (in_expr d e)
        | Min e -> Min (in_expr d e)
        | Max e -> Max (in_expr d e)
        | Avg e -> Avg (in_expr d e)
      in
      Group
        {
          keys = List.map (fun (e, c) -> (in_expr d e, c)) keys;
          aggs = List.map (fun (a, c) -> (map_agg a, c)) aggs;
          input = in_plan d input;
        }
  in
  in_expr 0 e

(* Substitute Col i by [subst.(i)] (used to push filters through Project).
   Only valid when the expression contains no nested subqueries, because the
   substituted expressions' own columns would need depth adjustment inside
   Exists bodies. *)
let rec subst_cols subst = function
  | Col i -> subst i
  | (Outer _ | Const _ | Param _) as e -> e
  | Cmp (c, a, b) -> Cmp (c, subst_cols subst a, subst_cols subst b)
  | Arith (o, a, b) -> Arith (o, subst_cols subst a, subst_cols subst b)
  | And (a, b) -> And (subst_cols subst a, subst_cols subst b)
  | Or (a, b) -> Or (subst_cols subst a, subst_cols subst b)
  | Not e -> Not (subst_cols subst e)
  | Is_null e -> Is_null (subst_cols subst e)
  | In_list (e, vs) -> In_list (subst_cols subst e, vs)
  | Case (arms, default) ->
    Case
      ( List.map (fun (c, r) -> (subst_cols subst c, subst_cols subst r)) arms,
        subst_cols subst default )
  | Exists _ -> assert false

let rec has_exists = function
  | Exists _ -> true
  | e -> List.exists has_exists (expr_children e)

(* ------------------------------------------------------------------ *)
(* Constant folding                                                   *)
(* ------------------------------------------------------------------ *)

let rec fold_expr e =
  let e =
    match e with
    | Cmp (c, a, b) -> Cmp (c, fold_expr a, fold_expr b)
    | Arith (o, a, b) -> Arith (o, fold_expr a, fold_expr b)
    | And (a, b) -> And (fold_expr a, fold_expr b)
    | Or (a, b) -> Or (fold_expr a, fold_expr b)
    | Not e -> Not (fold_expr e)
    | Is_null e -> Is_null (fold_expr e)
    | In_list (e, vs) -> In_list (fold_expr e, vs)
    | Col _ | Outer _ | Const _ | Param _ | Exists _ | Case _ -> e
  in
  match e with
  | Cmp (_, Const _, Const _)
  | Arith (_, Const _, Const _)
  | Not (Const _)
  | Is_null (Const _)
  | In_list (Const _, _) -> Const (Eval.eval_expr ~row:[||] e)
  | And (Const (Value.Bool true), x) | And (x, Const (Value.Bool true)) -> x
  | And (Const (Value.Bool false), _) | And (_, Const (Value.Bool false)) ->
    Const (Value.Bool false)
  | Or (Const (Value.Bool false), x) | Or (x, Const (Value.Bool false)) -> x
  | Or (Const (Value.Bool true), _) | Or (_, Const (Value.Bool true)) ->
    Const (Value.Bool true)
  | e -> e

(* ------------------------------------------------------------------ *)
(* Decorrelation of (NOT) EXISTS                                      *)
(* ------------------------------------------------------------------ *)

(* Shape of a decorrelated subquery: join keys, sub-local filters and a
   residual predicate over the concatenated (outer @ sub) row. *)
type decorrelated = {
  d_lkeys : expr list;
  d_rkeys : expr list;
  d_sub_filters : expr list;
  d_residual : expr list;
}

(* Does [e] reference only Outer (1, _) of the current level (no Col, no
   deeper Outer)? Then it can serve as a left join key. *)
let only_outer1 e =
  let rec loop = function
    | Outer (1, _) -> true
    | Outer _ | Col _ -> false
    | Const _ | Param _ -> true
    | e -> (not (has_exists e)) && List.for_all loop (expr_children e)
  in
  loop e

let only_local e =
  (not (has_exists e)) && not (refers_outer ~depth:1 e)

let rewrite_outer1_to_col e =
  let rec loop = function
    | Outer (1, i) -> Col i
    | (Col _ | Const _ | Param _) as e -> e
    | Outer _ -> assert false
    | Cmp (c, a, b) -> Cmp (c, loop a, loop b)
    | Arith (o, a, b) -> Arith (o, loop a, loop b)
    | And (a, b) -> And (loop a, loop b)
    | Or (a, b) -> Or (loop a, loop b)
    | Not e -> Not (loop e)
    | Is_null e -> Is_null (loop e)
    | In_list (e, vs) -> In_list (loop e, vs)
    | Case (arms, default) ->
      Case (List.map (fun (c, r) -> (loop c, loop r)) arms, loop default)
    | Exists _ -> assert false
  in
  loop e

(* Rewrite a mixed conjunct into residual form over the concatenated row:
   Outer (1, i) -> Col i (outer part), Col j -> Col (left_arity + j). *)
let rewrite_to_residual ~left_arity e =
  let rec loop = function
    | Outer (1, i) -> Col i
    | Col j -> Col (left_arity + j)
    | (Const _ | Param _) as e -> e
    | Outer _ -> assert false
    | Cmp (c, a, b) -> Cmp (c, loop a, loop b)
    | Arith (o, a, b) -> Arith (o, loop a, loop b)
    | And (a, b) -> And (loop a, loop b)
    | Or (a, b) -> Or (loop a, loop b)
    | Not e -> Not (loop e)
    | Is_null e -> Is_null (loop e)
    | In_list (e, vs) -> In_list (loop e, vs)
    | Case (arms, default) ->
      Case (List.map (fun (c, r) -> (loop c, loop r)) arms, loop default)
    | Exists _ -> assert false
  in
  loop e

(* A conjunct may only be handled if its outer references are exactly depth 1
   and it contains no nested subquery. *)
let handleable e =
  let rec max2 = function
    | Outer (k, _) -> k <= 1
    | e -> (not (has_exists e)) && List.for_all max2 (expr_children e)
  in
  max2 e

let decorrelate_pred ~left_arity pred =
  let pred = factor_common_disjunction pred in
  let conj = conjuncts pred in
  if not (List.for_all handleable conj) then None
  else begin
    let acc = { d_lkeys = []; d_rkeys = []; d_sub_filters = []; d_residual = [] } in
    (* A conjunct without outer references filters the subquery's input,
       even an equality with a constant: keying the join on [b.op = 'w']
       would probe the four-key operation index. *)
    let step acc c =
      match c with
      | c when only_local c -> { acc with d_sub_filters = c :: acc.d_sub_filters }
      | Cmp (Eq, a, b) when only_outer1 a && only_local b ->
        { acc with d_lkeys = rewrite_outer1_to_col a :: acc.d_lkeys; d_rkeys = b :: acc.d_rkeys }
      | Cmp (Eq, a, b) when only_outer1 b && only_local a ->
        { acc with d_lkeys = rewrite_outer1_to_col b :: acc.d_lkeys; d_rkeys = a :: acc.d_rkeys }
      | c -> { acc with d_residual = rewrite_to_residual ~left_arity c :: acc.d_residual }
    in
    Some (List.fold_left step acc conj)
  end

let rec unwrap_distinct = function Distinct p -> unwrap_distinct p | p -> p

let with_sub_filters d inner =
  match d.d_sub_filters with [] -> inner | fs -> Filter (conjoin fs, inner)

(* Try to decorrelate one Exists payload. The payload must be Filter over an
   uncorrelated plan (the common SQL lowering shape); Distinct and Project-of-
   plain-columns on top are tolerated by unwrapping. *)
let decorrelate_exists ~left_arity sub =
  match unwrap_distinct sub with
  | Filter (pred, inner) when not (plan_refers_outer ~depth:1 inner) -> (
    match decorrelate_pred ~left_arity pred with
    | None -> None
    | Some d -> Some (d, with_sub_filters d inner))
  | p when not (plan_refers_outer ~depth:1 p) ->
    (* Uncorrelated EXISTS: degenerate zero-key join. *)
    Some ({ d_lkeys = []; d_rkeys = []; d_sub_filters = []; d_residual = [] }, p)
  | _ -> None

(* NOT EXISTS (sub WHERE d1 OR ... OR dn) as one anti join per disjunct.
   EXISTS keeps the subquery rows whose predicate is TRUE, and under
   three-valued logic an OR is TRUE iff one of its disjuncts is, so the
   NOT EXISTS is the conjunction of the per-disjunct NOT EXISTS. Split only
   when every disjunct decorrelates to equi-keys and subquery filters with
   no residual: then each anti join probes by key and stops at its first
   match, where the unsplit form joins on the common keys and tests the
   whole OR on every candidate pair. *)
let split_not_exists ~left_arity sub =
  match unwrap_distinct sub with
  | Filter (pred, inner) when not (plan_refers_outer ~depth:1 inner) -> (
    match disjuncts pred with
    | [] | [ _ ] -> None
    | ds ->
      let parts = List.map (decorrelate_pred ~left_arity) ds in
      if List.for_all (function Some d -> d.d_residual = [] | None -> false) parts
      then
        Some (List.map (fun d -> (d, with_sub_filters d inner)) (List.filter_map Fun.id parts))
      else None)
  | _ -> None

(* Project over Project as one Project, when that evaluates no inner
   expression more often than before: the inner columns are plain columns
   or constants, or the outer columns pick distinct inner columns. *)
let fuse_projects outer inner =
  let atomic = function Col _ | Const _ | Param _ -> true | _ -> false in
  let picks = List.filter_map (function Col i, _ -> Some i | _ -> None) outer in
  if
    List.exists (fun (e, _) -> has_exists e) outer
    || not
         (List.for_all (fun (e, _) -> atomic e) inner
         || List.length picks = List.length outer
            && List.length (List.sort_uniq Int.compare picks) = List.length picks)
  then None
  else
    let exprs = Array.of_list (List.map fst inner) in
    Some (List.map (fun (e, c) -> (subst_cols (fun i -> exprs.(i)) e, c)) outer)

let project cols p =
  match p with
  | Project (inner, q) -> (
    match fuse_projects cols inner with
    | Some cols -> Project (cols, q)
    | None -> Project (cols, p))
  | p -> Project (cols, p)

(* A plan read as a set (the sides of EXCEPT, UNION and INTERSECT, the
   input of DISTINCT, the right side of a semi or anti join) need not drop
   duplicates on the way: projection, selection, UNION ALL and joins map
   equal sets to equal sets, and the reader keeps the first occurrence of
   each row, which stays where it was. So a DISTINCT reached through those
   is dropped, with the hash table it would fill. *)
let rec drop_distinct = function
  | Distinct p -> drop_distinct p
  | Project (cols, p) -> project cols (drop_distinct p)
  | Filter (e, p) -> Filter (e, drop_distinct p)
  | Union_all (l, r) -> Union_all (drop_distinct l, drop_distinct r)
  | Join ({ kind = Inner; _ } as j) ->
    Join { j with left = drop_distinct j.left; right = drop_distinct j.right }
  | Join ({ kind = Semi | Anti; _ } as j) -> Join { j with left = drop_distinct j.left }
  | p -> p

(* ------------------------------------------------------------------ *)
(* The rewriter                                                       *)
(* ------------------------------------------------------------------ *)

let is_true = function Const (Value.Bool true) -> true | _ -> false

let rec rewrite ~level plan =
  match plan with
  | Scan _ | Values _ -> plan
  | Filter (pred, p) -> rewrite_filter ~level (fold_expr pred) (rewrite ~level p)
  | Project (cols, p) ->
    project (List.map (fun (e, c) -> (fold_expr e, c)) cols) (rewrite ~level p)
  | Cross (l, r) -> Cross (rewrite ~level l, rewrite ~level r)
  | Join j ->
    let right = rewrite ~level j.right in
    let right =
      match j.kind with Semi | Anti -> drop_distinct right | Inner | Left -> right
    in
    Join { j with left = rewrite ~level j.left; right }
  | Union_all (l, r) -> Union_all (rewrite ~level l, rewrite ~level r)
  | Union (l, r) -> Union (as_set ~level l, as_set ~level r)
  | Except (l, r) -> Except (as_set ~level l, as_set ~level r)
  | Intersect (l, r) -> Intersect (as_set ~level l, as_set ~level r)
  | Distinct p -> Distinct (as_set ~level p)
  | Sort (keys, p) -> Sort (keys, rewrite ~level p)
  | Limit (n, p) -> Limit (n, rewrite ~level p)
  | Group g -> Group { g with input = rewrite ~level g.input }

and as_set ~level p = drop_distinct (rewrite ~level p)

and rewrite_filter ~level pred p =
  if is_true pred then p
  else begin
    let conj = conjuncts pred in
    (* Decorrelate (NOT) EXISTS conjuncts first (level `Full). *)
    let plan, remaining =
      if level <> `Full then (p, conj)
      else
        let left_arity = Schema.arity (schema_of p) in
        List.fold_left
          (fun (plan, remaining) c ->
            let attempt kind sub =
              match decorrelate_exists ~left_arity sub with
              | Some (d, right) ->
                let residual =
                  match d.d_residual with [] -> None | rs -> Some (conjoin rs)
                in
                let join =
                  Join
                    {
                      kind;
                      lkeys = List.rev d.d_lkeys;
                      rkeys = List.rev d.d_rkeys;
                      residual;
                      left = plan;
                      right = rewrite ~level right;
                    }
                in
                (join, remaining)
              | None -> (plan, c :: remaining)
            in
            match c with
            | Exists sub -> attempt Semi sub
            | Not (Exists sub) -> (
              match split_not_exists ~left_arity sub with
              | Some parts ->
                let anti plan (d, right) =
                  Join
                    {
                      kind = Anti;
                      lkeys = List.rev d.d_lkeys;
                      rkeys = List.rev d.d_rkeys;
                      residual = None;
                      left = plan;
                      right = rewrite ~level right;
                    }
                in
                (List.fold_left anti plan parts, remaining)
              | None -> attempt Anti sub)
            | c -> (plan, c :: remaining))
          (p, []) conj
        |> fun (plan, rem) -> (plan, List.rev rem)
    in
    push_conjuncts ~level remaining plan
  end

(* Push each conjunct as far down as it goes, then try join detection. *)
and push_conjuncts ~level conj plan =
  match plan with
  | Cross (l, r) when level <> `None ->
    let la = Schema.arity (schema_of l) in
    let ra = Schema.arity (schema_of r) in
    let left_only, rest =
      List.partition (fun c -> Int_set.for_all (fun i -> i < la) (cols_used c)) conj
    in
    let right_only, middle =
      List.partition
        (fun c -> Int_set.for_all (fun i -> i >= la && i < la + ra) (cols_used c))
        rest
    in
    let l =
      match left_only with [] -> l | cs -> rewrite_filter ~level (conjoin cs) l
    in
    let r =
      match right_only with
      | [] -> r
      | cs ->
        let shifted = List.map (map_cols (fun i -> i - la)) cs in
        rewrite_filter ~level (conjoin shifted) r
    in
    (* Equi-conjuncts across the boundary become hash join keys. *)
    let keys, residual =
      List.partition
        (fun c ->
          match c with
          | Cmp (Eq, a, b) ->
            let ca = cols_used a and cb = cols_used b in
            (not (has_exists a)) && not (has_exists b)
            && ((Int_set.for_all (fun i -> i < la) ca
                 && Int_set.for_all (fun i -> i >= la) cb
                 && not (Int_set.is_empty cb))
               || (Int_set.for_all (fun i -> i < la) cb
                   && Int_set.for_all (fun i -> i >= la) ca
                   && not (Int_set.is_empty ca)))
          | _ -> false)
        middle
    in
    if keys = [] then
      match residual with
      | [] -> Cross (l, r)
      | cs -> Filter (conjoin cs, Cross (l, r))
    else begin
      let lkeys, rkeys =
        List.split
          (List.map
            (function
              | Cmp (Eq, a, b) ->
                let ca = cols_used a in
                if Int_set.for_all (fun i -> i < la) ca && not (Int_set.is_empty (cols_used b)) then
                  (a, map_cols (fun i -> i - la) b)
                else (b, map_cols (fun i -> i - la) a)
              | _ -> assert false)
            keys)
      in
      let residual = match residual with [] -> None | cs -> Some (conjoin cs) in
      Join { kind = Inner; lkeys; rkeys; residual; left = l; right = r }
    end
  | Project (cols, q)
    when level <> `None
         && List.for_all (fun c -> not (has_exists c)) conj
         && List.for_all (fun (e, _) -> not (has_exists e)) cols ->
    (* Push the filter through the projection by substitution. *)
    let arr = Array.of_list (List.map fst cols) in
    let substituted =
      List.map (fun c -> subst_cols (fun i -> arr.(i)) c) conj
    in
    Project (cols, rewrite_filter ~level (conjoin substituted) q)
  | Union_all (l, r) when level <> `None && not (List.exists has_exists conj) ->
    Union_all
      (rewrite_filter ~level (conjoin conj) l, rewrite_filter ~level (conjoin conj) r)
  | Distinct q when level <> `None -> Distinct (push_conjuncts ~level conj q)
  | Join ({ kind = Left; _ } as j)
    when level <> `None && not (List.exists has_exists conj) -> (
    (* Conjuncts on left columns only filter the left input: a LEFT JOIN
       keeps every left row, matched or padded, with its columns as they
       were. *)
    let la = Schema.arity (schema_of j.left) in
    let left_only, rest =
      List.partition (fun c -> Int_set.for_all (fun i -> i < la) (cols_used c)) conj
    in
    let left =
      match left_only with
      | [] -> j.left
      | cs -> rewrite_filter ~level (conjoin cs) j.left
    in
    (* [r.k IS NULL] on a right join key column keeps exactly the padded
       rows (a matched row's key equals a non-NULL left key): an anti join,
       padded with NULLs so the schema stays the same. *)
    let null_key = function
      | Is_null (Col c) ->
        c >= la && List.exists (function Col k -> k = c - la | _ -> false) j.rkeys
      | _ -> false
    in
    let wrap p = function [] -> p | cs -> Filter (conjoin cs, p) in
    match List.partition null_key rest with
    | [], rest -> wrap (Join { j with left }) rest
    | _ :: _, rest ->
      let keep = List.mapi (fun i c -> (Col i, c)) (Array.to_list (schema_of left)) in
      let pad =
        List.map (fun c -> (Const Value.Null, c)) (Array.to_list (schema_of j.right))
      in
      wrap (Project (keep @ pad, Join { j with kind = Anti; left })) rest)
  | _ -> (
    match conj with [] -> plan | cs -> Filter (conjoin cs, plan))

let split_join_on ~left_arity on =
  let conj = conjuncts (factor_common_disjunction on) in
  let left_side e =
    Int_set.for_all (fun i -> i < left_arity) (cols_used e) && not (has_exists e)
  in
  let right_side e =
    let cs = cols_used e in
    Int_set.for_all (fun i -> i >= left_arity) cs
    && (not (Int_set.is_empty cs))
    && not (has_exists e)
  in
  let keys, residual =
    List.partition
      (function
        | Cmp (Eq, a, b) ->
          (left_side a && right_side b) || (left_side b && right_side a)
        | _ -> false)
      conj
  in
  let lkeys, rkeys =
    List.split
      (List.map
         (function
           | Cmp (Eq, a, b) ->
             if left_side a then (a, map_cols (fun i -> i - left_arity) b)
             else (b, map_cols (fun i -> i - left_arity) a)
           | _ -> assert false)
         keys)
  in
  let residual = match residual with [] -> None | cs -> Some (conjoin cs) in
  (lkeys, rkeys, residual)

let optimize ?(level = `Full) plan =
  match level with
  | `None -> plan
  | `Basic | `Full ->
    (* A couple of passes reach the fixpoint for every plan the SQL
       front-end emits; the guard stops pathological ping-pong. *)
    let rec go n plan =
      if n = 0 then plan
      else
        let plan' = rewrite ~level plan in
        if plan_size plan' = plan_size plan then plan' else go (n - 1) plan'
    in
    go 4 plan
