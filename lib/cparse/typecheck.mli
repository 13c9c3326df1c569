(** Type checker for the C subset — the arbiter of "compilable" for every
    experiment in the reproduction.

    Produces diagnostics (errors and warnings) plus a table from
    expression ids to computed types ({!types}).  A translation unit
    compiles iff it has no errors; warnings mirror GCC's permissiveness
    (implicit integer/pointer conversions warn but compile). *)

type severity = Error | Warning

type diag = { sev : severity; msg : string; in_func : string option }

type types
(** The expression-id -> computed-type table.  Ids in [[0, Types.limit)]
    index an array (the parser and {!Ast_ids.renumber} hand out ids
    1..N, so the array is dense); every other id ([Ast.no_id], negative,
    huge) lives in a side table, so any tree, well formed or not, reads
    back what a [Hashtbl] keyed by id would.  Like [Hashtbl.replace],
    setting an id twice keeps the last type. *)

module Types : sig
  val limit : int
  (** Ids at or above this bound go to the side table. *)

  val create : int -> types
  (** An empty table whose array starts with room for ids [[0, n)]
      (clamped to [[1, limit]]); it grows on demand. *)

  val set : types -> int -> Ast.ty -> unit

  val find : types -> int -> default:Ast.ty -> Ast.ty
  (** The type bound to an id, or [default]; allocates nothing. *)

  val find_opt : types -> int -> Ast.ty option

  val clear : types -> unit
  (** Unbind every id, refilling only the prefix of the array that was
      used since the last clear. *)
end

type result = {
  r_diags : diag list;
  r_types : types;  (** expression id -> computed type *)
  r_ok : bool;      (** no errors *)
}

val builtins : (string * (Ast.ty * Ast.ty list * bool)) list
(** libc functions treated as implicitly declared: printf, sprintf, puts,
    putchar, abort, exit, strlen, strcpy, strcmp, memset, memcpy, malloc,
    free, rand, abs.  [(name, (return, params, variadic))]. *)

val decay : Ast.ty -> Ast.ty
(** Array-to-pointer decay at use sites. *)

val arith_conv : Ast.ty -> Ast.ty -> Ast.ty
(** Usual arithmetic conversions (integer promotion, float domination). *)

val check : ?types:types -> Ast.tu -> result
(** Check a whole translation unit.  [types] recycles a caller-owned
    table for the [r_types] map (it is cleared here and returned as
    [r_types]): the compile hot path passes its arena table so each
    compile skips re-growing a fresh one.  Callers that retain [r_types]
    across compiles must not pass a shared table.  Without [types], a
    fresh table is made. *)

val errors : result -> diag list
val warnings : result -> diag list
val diag_to_string : diag -> string

val compiles_src : string -> bool
(** Parse + check: does this source compile? *)
