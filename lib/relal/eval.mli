(** Plan evaluation. Rows stream through Scan, Filter, Project, UNION ALL
    and a join's probe side; hash builds, DISTINCT, EXCEPT/INTERSECT, Sort,
    Group and Cross hold rows. Semi and anti joins stop at the first match.

    Rows flow as value arrays. [env] is the stack of outer rows for
    correlated subqueries: [Ra.Outer (1, i)] reads column [i] of the head.

    Comparisons follow SQL three-valued logic: any comparison with NULL is
    NULL; [Filter] keeps rows whose predicate is exactly TRUE. *)

(** [run ?env plan] evaluates and materializes the result rows in order. *)
val run : ?env:Value.t array list -> Ra.plan -> Value.t array list

(** [eval_expr ?env ~row e] evaluates a scalar expression against [row]. *)
val eval_expr : ?env:Value.t array list -> row:Value.t array -> Ra.expr -> Value.t

(** [truthy v] is true iff [v] is [Bool true] (SQL WHERE semantics). *)
val truthy : Value.t -> bool

(** When true (the default), a join whose right side is a base-table scan,
    or a filter over one, probes a declared single-column index on one of
    the join columns instead of hashing the right side, provided the index
    holds at most a few rows per key (a miss walks the whole posting). The
    persistent index is shared by every join over the table, and across
    queries until the table changes. Toggled off by the optimizer/index
    ablation bench. *)
val use_table_indexes : bool ref
