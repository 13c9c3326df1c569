(** Recursive-descent parser for the C subset.

    Accepts the language described in the repository README: functions,
    prototypes, globals, typedefs, structs/unions/enums, the full
    statement set (including [goto]/labels and structured [switch]), and
    the full expression grammar with C precedence.  Preprocessor lines
    are skipped by the lexer.

    Typedef names are tracked during parsing to disambiguate declarations
    from expressions.  Negated literals are canonicalised ([- 5] parses
    as the literal [-5]) so pretty-printing round-trips.  Nodes are
    numbered as they are built (see {!parse_tokens}). *)

exception Error of string * Loc.t
(** Raised by {!parse_tu} on syntax errors. *)

val parse_tokens : Lexer.tokens -> Ast.tu
(** Parse an already-lexed translation unit; raises {!Error}.  Lets the
    compile pipeline tokenize once for both parsing and lexical
    coverage.  The parser materializes each token once, when it becomes
    current ({!Lexer.token}); an error's location is derived from the
    offending token's offset only when the error is raised.

    Node ids are given at construction: each expression and statement
    takes the next id as it is built (children first, left to right),
    and a function its [f_id] after its body, which is
    {!Ast_ids.renumber}'s order, so the result equals [renumber] of
    itself with ids 1..N.  A folded negated literal keeps its operand's
    id, and the nodes of a [typedef] declarator's initializer, which is
    parsed and dropped, give their ids back. *)

val parse_tu : string -> Ast.tu
(** Parse a full translation unit; raises {!Error} or {!Lexer.Error}.
    Ids as {!parse_tokens}. *)

val parse : string -> (Ast.tu, string) result
(** Total wrapper around {!parse_tu}: lexer errors, parse errors, and
    parser stack overflow are rendered as [Error message]. *)
