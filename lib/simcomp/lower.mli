(** AST-to-IR lowering (the "IR generation" stage of the simulated
    compiler).

    Variables become named memory slots (one per declaration, so
    shadowing and loop-local re-declaration are handled by slot renaming),
    temporaries become virtual registers, control flow becomes basic
    blocks with explicit terminators, short-circuit operators and
    conditional expressions become branches.  Declarations without an
    initializer are zero-initialised so re-entering a declaration in a
    loop observes a fresh variable, matching the reference interpreter.

    Every lowering decision reports branch coverage keyed by node kind
    and type class. *)

exception Lower_error of string
(** Raised on constructs outside the lowering subset (indirect calls). *)

val ekind_tag : Cparse.Ast.expr -> int
(** Small integer tag per expression kind (coverage context). *)

val skind_tag : Cparse.Ast.stmt -> int

val ty_tag : Cparse.Ast.ty -> int

val binop_hash_tag : Cparse.Ast.binop -> int
(** [Hashtbl.hash op land 0xff], memoized per constructor — the
    allocation- and C-call-free spelling for per-node instrumentation. *)

val unop_hash_tag : Cparse.Ast.unop -> int
(** [Hashtbl.hash op land 0xff], computed once per constructor. *)

val name_hash : string -> int
(** [Hashtbl.hash name]: the tag of coverage contexts keyed by a
    callee. *)

val lower_tu :
  ?cov:Coverage.t -> Cparse.Ast.tu -> Cparse.Typecheck.result -> Ir.program
(** Lower a type-checked unit.  Local slots are registered in the
    program's slot table alongside globals (the IR interpreter's memory
    model). *)
