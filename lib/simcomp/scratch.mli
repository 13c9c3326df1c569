(** The per-domain compile arena: reusable buffers, IR instruction
    vectors, live-interval arrays and pre-sized recycled hashtables
    shared by the compile hot path ({!Lower}, {!Opt}, {!Backend},
    {!Typecheck} context reuse) so a steady-state compile allocates only
    what escapes it.

    Every structure is fully cleared by its user around each use, so a
    warm arena produces byte-identical output to a cold one (pinned by
    the scratch-reuse tests via {!reset}).  Arenas are domain-local:
    parallel campaign workers never share one. *)

type t = {
  instrs : Ir.instr Engine.Vec.t;
  consts : (int, int64) Hashtbl.t;
  used : (int, unit) Hashtbl.t;
  forward : (int, int) Hashtbl.t;
  reach : (int, unit) Hashtbl.t;
  mutable ra_first : int array;
  mutable ra_last : int array;
  mutable ra_order : int array;
  mutable regmap : int array;
  asm_buf : Buffer.t;
  render : Cparse.Pretty.sink;
  types : (int, Cparse.Ast.ty) Hashtbl.t;
}

val get : unit -> t
(** This domain's arena (created on first use). *)

val reset : unit -> unit
(** Drop this domain's arena so the next {!get} builds a cold one — for
    tests that compare warm-arena output against fresh allocation. *)

val regmap_for : t -> int -> int array
(** The vreg assignment array, grown to cover [0..n] and filled with the
    unassigned sentinel (-2) over that range. *)

val intervals_for : t -> int -> unit
(** Grow the live-interval arrays ([ra_first], [ra_last], [ra_order]) to
    cover vregs [0..n] and mark every vreg in that range untouched
    ([ra_first] = -1). *)

val render_tu : Cparse.Ast.tu -> string * Cparse.Lexer.tokens
(** Render a translation unit through the recycled sink: the text is
    byte-identical to [Pretty.tu_to_string], and the token stream is the
    one {!Cparse.Pretty.render} gives, which a compile from the tree
    takes as its [~tokens].  The stream is valid until this domain's
    next [render_tu]. *)
