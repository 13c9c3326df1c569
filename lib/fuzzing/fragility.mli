(** Text-rewriting fragility model.

    The paper's mutators edit source {e text} through the Clang Rewriter;
    the failure modes it reports (Table 1 goal #6, §4.1 "unthorough test
    cases") are local textual slips — a missed call-site rewrite, a
    dangling token, an overlapping edit.  The reproduction's mutators are
    AST-level and type-safe by construction, so this module re-introduces
    that fragility explicitly to preserve the paper's compilable-mutant
    ratios (Table 5: ~72-75 % for μCFuzz vs ~99 % for generators). *)

val supervised_slip_probability : float
(** Slip probability for Ms mutators (manually debugged, hence lower). *)

val unsupervised_slip_probability : float

val slip_probability : Mutators.Mutator.provenance -> float

val corrupt : Cparse.Rng.t -> string -> string
(** One local textual corruption mimicking a Rewriter edit mistake
    (dropped token, duplicated range, stray delimiter, missed identifier
    rewrite, truncated replacement). *)

val render : Cparse.Rng.t -> Mutators.Mutator.t -> Cparse.Ast.tu -> string
(** Render a mutated unit to text, applying a slip with the mutator's
    provenance-dependent probability. *)

val render_slip :
  Cparse.Rng.t -> Mutators.Mutator.t -> Cparse.Ast.tu ->
  string * Cparse.Lexer.tokens option
(** {!render}, with the printer's token stream when no slip was applied
    ([None] when one was): an unslipped render is
    [Pretty.tu_to_string] of the unit, so a compile can be handed the
    unit as its [~tree] and the stream as its [~tokens] (valid until
    the next render on this domain).  Draws from [rng] exactly as
    {!render} does. *)
