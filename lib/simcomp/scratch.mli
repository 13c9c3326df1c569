(** The per-domain compile arena: reusable buffers, IR instruction
    vectors, and label- and register-indexed arrays shared by the
    compile hot path ({!Lower}, {!Opt}, {!Backend}, {!Ir_interp}'s
    compile, {!Typecheck} context reuse) so a steady-state compile
    allocates only what escapes it.

    Arrays grow on demand and every structure is cleared by its user over
    the range it reads, so a warm arena produces byte-identical output
    to a cold one (pinned by the scratch-reuse tests via {!reset}).
    Arenas are domain-local: parallel campaign workers never share
    one. *)

type t = {
  instrs : Ir.instr Engine.Vec.t;
      (** {!Lower}: the current block's instructions *)
  mutable lbl_lo : int;
      (** the least block label of the function last given to
          {!index_labels} *)
  mutable lbl_span : int;
      (** its labels span [[lbl_lo, lbl_lo + lbl_span)]; every
          label-indexed array below is indexed by [label - lbl_lo] *)
  mutable lbl_first : int array;
      (** the position of the first block with the label, -1 = none *)
  mutable lbl_blocks : Ir.block array;
      (** the blocks by position, until {!release_blocks} *)
  mutable lbl_count : int;  (** the indexed function's block count *)
  mutable lbl_fwd : int array;
      (** {!Opt}'s simplify-cfg: the label's forwarding target, valid
          where [lbl_mark] says so *)
  mutable lbl_mark : Bytes.t;
      (** simplify-cfg's per-label flags (forwarding, reachable),
          cleared per function *)
  mutable lbl_hop : int array;
      (** simplify-cfg: the [hop_stamp] of the last jump resolution
          that passed through the label *)
  mutable hop_stamp : int;  (** bumped per jump resolution *)
  mutable cf_val : Bytes.t;
      (** constfold: register r's constant, unboxed at byte [8 * r],
          live while [cf_stamp] of the register equals [cf_block] *)
  mutable cf_stamp : int array;
  mutable cf_block : int;  (** bumped per block, so a block starts empty *)
  mutable cf_live : int;  (** the live constant count of the block *)
  mutable used : Bytes.t;
      (** dce: the registers the function reads, cleared per function *)
  mutable ra_first : int array;
  mutable ra_last : int array;
  mutable ra_order : int array;
  mutable regmap : int array;
      (** {!Backend}: live intervals and the vreg assignment *)
  asm_buf : Buffer.t;
  render : Cparse.Pretty.sink;
  types : Cparse.Typecheck.types;
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

val index_labels : t -> Ir.func -> int
(** Index the function's blocks by label ([lbl_lo], [lbl_span],
    [lbl_first], [lbl_blocks]), growing the label-indexed arrays to the
    span of its block labels; the first block with a label wins.
    Returns the block count.
    @raise Invalid_argument if the span does not fit an [int]. *)

val release_blocks : t -> unit
(** Drop the indexed function's block references, so that the arena,
    which lives in the major heap, promotes none of them at the next
    minor collection.  Every user of {!index_labels} calls it when done
    with the function. *)

val block_index : t -> int -> int
(** The position of the first block with this label in the function
    last indexed, or -1 when it has none (a label outside the span
    included). *)

val regs_for : t -> int -> unit
(** Grow the register-indexed arrays ([cf_val], [cf_stamp], [used]) to
    cover registers [0..n]; fills nothing. *)

val render_tu : Cparse.Ast.tu -> string * Cparse.Lexer.tokens
(** Render a translation unit through the recycled sink: the text is
    byte-identical to [Pretty.tu_to_string], and the token stream is the
    one {!Cparse.Pretty.render} gives, which a compile from the tree
    takes as its [~tokens].  The stream is valid until this domain's
    next [render_tu]. *)
