(** Unique node-id management.

    Mutators select AST nodes by id during traversal and later rewrite
    exactly that node, so ids must be unique within a translation unit.
    Fresh nodes are built with [Ast.no_id]; [renumber] restores the
    invariant after parsing, generation, or mutation. *)

val canonicalize : Ast.tu -> Ast.tu
(** Only the literal canonicalisation of {!renumber} — negation of a
    literal is folded into the literal (matching the parser), without
    touching ids.  Identity-preserving: untouched subtrees are shared
    with the input.  {!Pretty} output of the result is byte-identical to
    that of [renumber]'s. *)

val renumber : Ast.tu -> Ast.tu
(** Reassign every expression, statement, and function a fresh sequential
    id.  Also canonicalises negation-of-literal expressions (matching the
    parser), so round trips through {!Pretty} are stable. *)

val max_id : Ast.tu -> int
(** Largest id in use (an upper bound for fresh-name generation). *)

val well_formed : Ast.tu -> bool
(** True when every expression and statement id is assigned and unique. *)

val well_formed_max : Ast.tu -> int option
(** [Some (max_id tu)] when [well_formed tu], [None] otherwise, from
    one walk.  Ids are marked in a bitmap, so the check allocates a few
    hundred bytes rather than a table entry per node. *)
