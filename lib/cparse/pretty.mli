(** Pretty-printer: AST back to compilable C text.

    Printing is precedence-aware, and for the trees {!parsed_form}
    vouches for, [Parser.parse (tu_to_string tu)] yields exactly
    [parsed_form tu]: [Ast_ids.renumber tu] with the parser's rewrites
    applied (see there).  It is not [tu] up to node ids in general, and
    some trees print as text that does not parse at all. *)

val decl_string : Ast.ty -> string -> string
(** [decl_string ty name] renders a C declarator — the paper's μAST
    [formatAsDecl].  [name] may be empty for abstract type names; handles
    the inside-out pointer/array declarator syntax. *)

val ty_string : Ast.ty -> string
(** Abstract type name, e.g. for casts. *)

val binop_string : Ast.binop -> string
val assign_op_string : Ast.assign_op -> string
val unop_string : Ast.unop -> string

val expr_prec : Ast.expr -> int
(** Precedence level used for parenthesisation (higher binds tighter). *)

val expr_to_buf : Buffer.t -> int -> Ast.expr -> unit
(** Print an expression in a context of the given minimum precedence. *)

val expr_to_string : Ast.expr -> string
(** Render one expression — the paper's μAST [getSourceText] for
    expressions. *)

val stmt_to_buf : Buffer.t -> int -> Ast.stmt -> unit
(** Print a statement at the given indentation level. *)

val tu_to_buf : Buffer.t -> Ast.tu -> unit
(** Render a whole translation unit into [buf] — the scratch-buffer form
    of {!tu_to_string} used by the fuzz loops' render hot path. *)

val tu_to_string : Ast.tu -> string
(** Render a whole translation unit as compilable C. *)

val print : Ast.tu -> string
(** Alias of {!tu_to_string}. *)

val parsed_form : Ast.tu -> Ast.tu option
(** [parsed_form tu] is [Some t] where [t] is exactly the tree, node ids
    included, that [Parser.parse (tu_to_string tu)] returns, computed
    without printing or parsing; [None] for any tree it cannot vouch
    for, in particular wherever that parse fails.  [t] is
    [Ast_ids.renumber tu] plus the rewrites the text forces on the
    parser:
    - a then-branch braced by the printer because of a dangling [else]
      reads back as a block;
    - a multi-declarator [Sdecl] reads back as one [Sdecl] per
      declarator, an empty one as nothing, and the extra declarators of
      a lone [if]/[while]/[for]/label body as the statements after it;
    - an empty-bodied [case] (or a label-less one) merges into its
      neighbour, and a label before a closing brace labels [Snull];
    - the later declarators of a [for] declaration take the first one's
      specifier, array parameters decay to pointers, and [char]/[short]
      literal kinds read back as [int];
    - a negated literal reads back as one literal node (which
      [Ast_ids.renumber] folds too, but after giving the operand an
      id).
    [None] covers, among others, names that are keywords, non-finite
    floats, function types, [++(long)x] (a cast under prefix [++]/[--])
    and [sizeof (long)x]. *)
