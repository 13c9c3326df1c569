(** Hand-written lexer for the C subset.

    Preprocessor lines ([#include], [#define], ...) are skipped
    wholesale: seeds and generated programs are self-contained and the
    type checker treats a small libc set as builtins.

    A lexed buffer is a packed token stream: one kind code and one start
    offset per token, in two pointer-free int arrays, next to the source
    string.  Nothing else is stored.  {!token} re-reads a token's
    identifier text or literal value from its source span when asked,
    and {!loc} derives its line and column by counting newlines, so the
    cost of a [Loc.t] is paid only by diagnostics. *)

exception Error of string * Loc.t
(** A malformed input, located at the byte where lexing stopped. *)

type tokens
(** A lexed buffer; its last token is [Eof]. *)

val tokenize : string -> tokens
(** Lex a whole buffer; raises {!Error} on malformed input. *)

val length : tokens -> int
(** Number of tokens, the final [Eof] included. *)

val token : tokens -> int -> Token.t
(** The [i]th token.  Operators, punctuators, keywords and [Eof] come
    from a shared table, and so do plain decimals below 256 (tokens are
    immutable, so sharing them is safe).  Identifiers and other literals
    are re-lexed from their span on every call. *)

val offset : tokens -> int -> int
(** Byte offset where the [i]th token starts.  Offsets strictly
    increase; [Eof]'s is where trailing trivia ends. *)

val loc : tokens -> int -> Loc.t
(** Line and column of the [i]th token, computed from its offset. *)

val kind : tokens -> int -> int
(** The [i]th token's kind code, in [\[0, kind_count)].  Every
    payload-free token (operator, punctuator, keyword, [Eof]) has a code
    of its own; identifiers, floats, chars and strings have one code
    each; integer literals have two, for values below 256 and the rest
    (compared as signed 64-bit). *)

val kind_count : int

val kind_example : int -> Token.t
(** A token of the given kind: for the two integer kinds, one whose
    value falls on that kind's side of 256. *)
