(* Tokens of the C subset.  Keywords are distinguished from identifiers by
   the lexer; typedef names are resolved by the parser. *)

type kw =
  | Kvoid | Kchar | Kshort | Kint | Klong | Kfloat | Kdouble
  | Ksigned | Kunsigned | Kbool
  | Kconst | Kvolatile | Kstatic | Kextern | Kinline | Kregister
  | Kstruct | Kunion | Kenum | Ktypedef | Ksizeof
  | Kif | Kelse | Kwhile | Kdo | Kfor | Kreturn | Kbreak | Kcontinue
  | Kswitch | Kcase | Kdefault | Kgoto

type t =
  | Ident of string
  | Int_lit of int64 * Ast.ikind * bool   (* value, kind, unsigned *)
  | Float_lit of float * bool             (* value, is_double *)
  | Char_lit of char
  | Str_lit of string
  | Kw of kw
  (* punctuation / operators *)
  | Lparen | Rparen | Lbrace | Rbrace | Lbracket | Rbracket
  | Semi | Comma | Colon | Question | Ellipsis
  | Dot | Arrow
  | Plus | Minus | Star | Slash | Percent
  | PlusPlus | MinusMinus
  | Amp | Pipe | Caret | Tilde | Bang
  | AmpAmp | PipePipe
  | Shl | Shr
  | Lt | Gt | Le | Ge | EqEq | BangEq
  | Eq | PlusEq | MinusEq | StarEq | SlashEq | PercentEq
  | ShlEq | ShrEq | AmpEq | PipeEq | CaretEq
  | Eof

(* Structural equality without the polymorphic compare's C call: the
   parser tests the current token against a constant at nearly every
   step.  Floats compare as [=] does (nan differs from itself). *)
let equal (a : t) (b : t) =
  match a, b with
  | Ident x, Ident y | Str_lit x, Str_lit y -> String.equal x y
  | Int_lit (v, k, u), Int_lit (v', k', u') -> Int64.equal v v' && k == k' && u = u'
  | Float_lit (x, d), Float_lit (y, d') -> x = y && d = d'
  | Char_lit x, Char_lit y -> Char.equal x y
  | Kw x, Kw y -> x == y
  | _ -> a == b

let keyword_of_string = function
  | "void" -> Some Kvoid
  | "char" -> Some Kchar
  | "short" -> Some Kshort
  | "int" -> Some Kint
  | "long" -> Some Klong
  | "float" -> Some Kfloat
  | "double" -> Some Kdouble
  | "signed" -> Some Ksigned
  | "unsigned" -> Some Kunsigned
  | "_Bool" -> Some Kbool
  | "const" -> Some Kconst
  | "volatile" -> Some Kvolatile
  | "static" -> Some Kstatic
  | "extern" -> Some Kextern
  | "inline" -> Some Kinline
  | "register" -> Some Kregister
  | "struct" -> Some Kstruct
  | "union" -> Some Kunion
  | "enum" -> Some Kenum
  | "typedef" -> Some Ktypedef
  | "sizeof" -> Some Ksizeof
  | "if" -> Some Kif
  | "else" -> Some Kelse
  | "while" -> Some Kwhile
  | "do" -> Some Kdo
  | "for" -> Some Kfor
  | "return" -> Some Kreturn
  | "break" -> Some Kbreak
  | "continue" -> Some Kcontinue
  | "switch" -> Some Kswitch
  | "case" -> Some Kcase
  | "default" -> Some Kdefault
  | "goto" -> Some Kgoto
  | _ -> None

let kw_to_string = function
  | Kvoid -> "void" | Kchar -> "char" | Kshort -> "short" | Kint -> "int"
  | Klong -> "long" | Kfloat -> "float" | Kdouble -> "double"
  | Ksigned -> "signed" | Kunsigned -> "unsigned" | Kbool -> "_Bool"
  | Kconst -> "const" | Kvolatile -> "volatile" | Kstatic -> "static"
  | Kextern -> "extern" | Kinline -> "inline" | Kregister -> "register"
  | Kstruct -> "struct" | Kunion -> "union" | Kenum -> "enum"
  | Ktypedef -> "typedef" | Ksizeof -> "sizeof"
  | Kif -> "if" | Kelse -> "else" | Kwhile -> "while" | Kdo -> "do"
  | Kfor -> "for" | Kreturn -> "return" | Kbreak -> "break"
  | Kcontinue -> "continue" | Kswitch -> "switch" | Kcase -> "case"
  | Kdefault -> "default" | Kgoto -> "goto"

let to_string = function
  | Ident s -> s
  | Int_lit (v, _, _) -> Int64.to_string v
  | Float_lit (v, _) -> string_of_float v
  | Char_lit c -> Fmt.str "%C" c
  | Str_lit s -> Fmt.str "%S" s
  | Kw k -> kw_to_string k
  | Lparen -> "(" | Rparen -> ")" | Lbrace -> "{" | Rbrace -> "}"
  | Lbracket -> "[" | Rbracket -> "]"
  | Semi -> ";" | Comma -> "," | Colon -> ":" | Question -> "?"
  | Ellipsis -> "..."
  | Dot -> "." | Arrow -> "->"
  | Plus -> "+" | Minus -> "-" | Star -> "*" | Slash -> "/" | Percent -> "%"
  | PlusPlus -> "++" | MinusMinus -> "--"
  | Amp -> "&" | Pipe -> "|" | Caret -> "^" | Tilde -> "~" | Bang -> "!"
  | AmpAmp -> "&&" | PipePipe -> "||"
  | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">=" | EqEq -> "==" | BangEq -> "!="
  | Eq -> "=" | PlusEq -> "+=" | MinusEq -> "-=" | StarEq -> "*=" | SlashEq -> "/="
  | PercentEq -> "%=" | ShlEq -> "<<=" | ShrEq -> ">>="
  | AmpEq -> "&=" | PipeEq -> "|=" | CaretEq -> "^="
  | Eof -> "<eof>"
