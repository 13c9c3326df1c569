(** Recursive-descent parser for the C subset.

    Accepts the language described in the repository README: functions,
    prototypes, globals, typedefs, structs/unions/enums, the full
    statement set (including [goto]/labels and structured [switch]), and
    the full expression grammar with C precedence.  Preprocessor lines
    are skipped by the lexer.

    Typedef names are tracked during parsing to disambiguate declarations
    from expressions.  Negated literals are canonicalised ([- 5] parses
    as the literal [-5]) so pretty-printing round-trips. *)

exception Error of string * Loc.t
(** Raised by {!parse_tu} on syntax errors. *)

val parse_tokens : Lexer.tokens -> Ast.tu
(** Parse an already-lexed translation unit; raises {!Error}.  Lets the
    compile pipeline tokenize once for both parsing and lexical
    coverage.  The parser materializes each token once, when it becomes
    current ({!Lexer.token}); an error's location is derived from the
    offending token's offset only when the error is raised.  The result
    has fresh unique node ids ({!Ast_ids.renumber}). *)

val parse_tu : string -> Ast.tu
(** Parse a full translation unit; raises {!Error} or {!Lexer.Error}.
    The result has fresh unique node ids ({!Ast_ids.renumber}). *)

val parse : string -> (Ast.tu, string) result
(** Total wrapper around {!parse_tu}: lexer errors, parse errors, and
    parser stack overflow are rendered as [Error message]. *)
