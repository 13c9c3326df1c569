(* Pretty-printer: AST back to compilable C text.

   Printing is precedence-aware, so that `parse (tu_to_string tu)` yields
   the tree [parsed_form tu] computes whenever that is [Some] (tested
   against the parser in test/test_cparse.ml, test/test_simcomp.ml and
   test/test_fuzzing.ml).

   The printer writes into a [sink]: a buffer for the text and, when the
   sink records, the [Lexer] kind code and start offset of every token it
   writes.  Every token goes through [tok] (a payload-free token, whose
   spelling and code both come from one [Token.t]) or [lit] (a name or a
   literal), so the recorded stream is what [Lexer.tokenize] reads back
   from the text wherever [parsed_form] vouches for the tree.  [render]
   hands that stream out over the sink's own arrays, so it lasts until
   the sink's next render.  Writing allocates almost nothing per token:
   indentation is a slice of one constant run of spaces, small decimals
   and integer suffixes are constant strings, larger decimals are
   written digit by digit, and declarators are written piece by
   piece. *)

open Ast

type sink = {
  buf : Buffer.t;
  record : bool;
  mutable kinds : int array;
  mutable offsets : int array;
  mutable len : int;
}

let sink () =
  { buf = Buffer.create 4096; record = true; kinds = Array.make 1024 0;
    offsets = Array.make 1024 0; len = 0 }

(* A sink that keeps the text only. *)
let text_sink buf = { buf; record = false; kinds = [||]; offsets = [||]; len = 0 }

(* Note a token of kind [k] starting at the current end of the text. *)
let push o k =
  if o.record then begin
    let i = o.len in
    if i = Array.length o.kinds then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      o.kinds <- grow o.kinds;
      o.offsets <- grow o.offsets
    end;
    Array.unsafe_set o.kinds i k;
    Array.unsafe_set o.offsets i (Buffer.length o.buf);
    o.len <- i + 1
  end

let str o s = Buffer.add_string o.buf s
let chr o c = Buffer.add_char o.buf c

let tok o (t : Token.t) =
  if o.record then push o (Lexer.code t);
  str o (Token.to_string t)

let lit o k s =
  push o k;
  str o s

(* A token, then a space or a newline. *)
let word o t =
  tok o t;
  chr o ' '

let line o t =
  tok o t;
  chr o '\n'

let comma o = word o Comma

let k_ident = Lexer.code Token.(Ident "")
let k_int_small = Lexer.code Token.(Int_lit (0L, Iint, false))
let k_int_large = Lexer.code Token.(Int_lit (256L, Iint, false))
let k_float = Lexer.code Token.(Float_lit (0., true))
let k_char = Lexer.code Token.(Char_lit ' ')
let k_str = Lexer.code Token.(Str_lit "")
let k_eof = Lexer.code Token.Eof

(* A name: one identifier token, or nothing for an empty one. *)
let name o n = if String.length n > 0 then lit o k_ident n

let spaces = String.make 128 ' '

let indent o n =
  let w = ref (2 * n) in
  while !w > 0 do
    let k = min !w (String.length spaces) in
    Buffer.add_substring o.buf spaces 0 k;
    w := !w - k
  done

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

let small_decimals = Array.init 256 string_of_int

let rec add_digits buf v =
  if v >= 10 then add_digits buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (v mod 10)))

(* A non-negative integer's digits; its token starts here. *)
let digits o (v : int64) =
  if Int64.compare v 256L < 0 then
    lit o k_int_small (Array.unsafe_get small_decimals (Int64.to_int v))
  else begin
    push o k_int_large;
    if Int64.compare v (Int64.of_int max_int) <= 0 then
      add_digits o.buf (Int64.to_int v)
    else str o (Int64.to_string v)
  end

(* [Int64.to_string v]: a negative value is a '-' token, then the
   magnitude's digits. *)
let decimal o (v : int64) =
  if Int64.compare v 0L >= 0 then digits o v
  else begin
    tok o Minus;
    if Int64.equal v Int64.min_int then
      lit o k_int_large (String.sub (Int64.to_string v) 1 19)
    else digits o (Int64.neg v)
  end

let int_suffix kind unsigned =
  match kind, unsigned with
  | (Ichar | Ishort | Iint), false -> ""
  | (Ichar | Ishort | Iint), true -> "U"
  | Ilong, false -> "L"
  | Ilong, true -> "UL"
  | Ilonglong, false -> "LL"
  | Ilonglong, true -> "ULL"

(* The C-level conversion behind [Printf]'s [%f] and [%g], without
   building a format closure per literal. *)
external format_float : string -> float -> string = "caml_format_float"

let float_lit o v is_double =
  let s =
    if Float.is_integer v && Float.abs v < 1e16 then format_float "%.1f" v
    else format_float "%.17g" v
  in
  if s.[0] = '-' then begin
    tok o Minus;
    push o k_float;
    Buffer.add_substring o.buf s 1 (String.length s - 1)
  end
  else lit o k_float s;
  if not is_double then chr o 'f'

let hex_digits = "0123456789abcdef"

(* The body of a char literal holding [c]. *)
let escaped_char o c =
  match c with
  | '\n' -> str o "\\n"
  | '\t' -> str o "\\t"
  | '\r' -> str o "\\r"
  | '\\' -> str o "\\\\"
  | '\'' -> str o "\\'"
  | '\000' -> str o "\\0"
  | c when Char.code c >= 32 && Char.code c < 127 -> chr o c
  | c ->
    str o "\\x";
    chr o hex_digits.[Char.code c lsr 4];
    chr o hex_digits.[Char.code c land 15]

(* Inside a string a digit may follow NUL, so NUL takes all three octal
   digits: "\0" then "1" would read back as "\01". *)
let escaped_string o s =
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> str o "\\\""
    | '\'' -> chr o '\''
    | '\000' -> str o "\\000"
    | c -> escaped_char o c
  done

(* ------------------------------------------------------------------ *)
(* Types and declarators                                               *)
(* ------------------------------------------------------------------ *)

let binop_token : binop -> Token.t = function
  | Add -> Plus | Sub -> Minus | Mul -> Star | Div -> Slash | Mod -> Percent
  | Shl -> Shl | Shr -> Shr
  | Lt -> Lt | Gt -> Gt | Le -> Le | Ge -> Ge | Eq -> EqEq | Ne -> BangEq
  | Band -> Amp | Bxor -> Caret | Bor -> Pipe
  | Land -> AmpAmp | Lor -> PipePipe

let assign_token : assign_op -> Token.t = function
  | A_none -> Eq | A_add -> PlusEq | A_sub -> MinusEq | A_mul -> StarEq
  | A_div -> SlashEq | A_mod -> PercentEq | A_shl -> ShlEq | A_shr -> ShrEq
  | A_band -> AmpEq | A_bxor -> CaretEq | A_bor -> PipeEq

let unop_token : unop -> Token.t = function
  | Neg -> Minus | Lognot -> Bang | Bitnot -> Tilde | Uplus -> Plus

let binop_string op = Token.to_string (binop_token op)
let assign_op_string op = Token.to_string (assign_token op)
let unop_string op = Token.to_string (unop_token op)

(* The specifier: the type at the bottom of the declarator chain. *)
let rec specifier o = function
  | Tptr t | Tarray (t, _) | Tfunc (t, _, _) -> specifier o t
  | Tvoid -> tok o (Kw Kvoid)
  | Tbool -> tok o (Kw Kbool)
  | Tint (k, signed) ->
    if not signed then word o (Kw Kunsigned);
    (match k with
    | Ichar -> tok o (Kw Kchar)
    | Ishort -> tok o (Kw Kshort)
    | Iint -> tok o (Kw Kint)
    | Ilong -> tok o (Kw Klong)
    | Ilonglong ->
      word o (Kw Klong);
      tok o (Kw Klong))
  | Tfloat -> tok o (Kw Kfloat)
  | Tdouble -> tok o (Kw Kdouble)
  | Tstruct tag ->
    word o (Kw Kstruct);
    name o tag
  | Tunion tag ->
    word o (Kw Kunion);
    name o tag
  | Tnamed n -> name o n

let wraps = function Tarray _ | Tfunc _ -> true | _ -> false

(* C declarators read inside out: the pointers of the chain are written
   innermost type first before the name, the array and function suffixes
   outermost first after it, and a pointer to an array or function is
   parenthesised. *)
let rec prefix o = function
  | Tptr t ->
    prefix o t;
    if wraps t then tok o Lparen;
    tok o Star
  | Tarray (t, _) | Tfunc (t, _, _) -> prefix o t
  | _ -> ()

let rec suffix o = function
  | Tptr t ->
    if wraps t then tok o Rparen;
    suffix o t
  | Tarray (t, n) ->
    tok o Lbracket;
    (match n with Some n -> decimal o (Int64.of_int n) | None -> ());
    tok o Rbracket;
    suffix o t
  | Tfunc (ret, params, variadic) ->
    param_list o abstract params variadic;
    suffix o ret
  | _ -> ()

(* [(p1, p2, ...)], with [...] when variadic and [(void)] when empty. *)
and param_list : 'a. sink -> (sink -> 'a -> unit) -> 'a list -> bool -> unit =
 fun o write params variadic ->
  tok o Lparen;
  let rec go first = function
    | [] -> if variadic then begin if not first then comma o; tok o Ellipsis end
    | p :: ps ->
      if not first then comma o;
      write o p;
      go false ps
  in
  (match params with
  | [] when not variadic -> tok o (Kw Kvoid)
  | _ -> go true params);
  tok o Rparen

and abstract o ty = declarator o ty ""

(* [ty] declaring [n] (nothing for an abstract type name). *)
and declarator o ty n =
  specifier o ty;
  (match ty with
  | Tptr _ | Tarray _ | Tfunc _ -> chr o ' '
  | _ -> if String.length n > 0 then chr o ' ');
  prefix o ty;
  name o n;
  suffix o ty

(* A function named [n] returning [ret]: [ret]'s declarator around the
   name and parameter list. *)
let fun_declarator o ret n write params variadic =
  specifier o ret;
  chr o ' ';
  prefix o ret;
  name o n;
  param_list o write params variadic;
  suffix o ret

(* A one-off text render of [f x]. *)
let to_string f x =
  let buf = Buffer.create 32 in
  f (text_sink buf) x;
  Buffer.contents buf

let decl_string ty n = to_string (fun o ty -> declarator o ty n) ty
let ty_string ty = to_string abstract ty

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let binop_prec = function
  | Mul | Div | Mod -> 10
  | Add | Sub -> 9
  | Shl | Shr -> 8
  | Lt | Gt | Le | Ge -> 7
  | Eq | Ne -> 6
  | Band -> 5
  | Bxor -> 4
  | Bor -> 3
  | Land -> 2
  | Lor -> 1

(* Expression precedence for parenthesisation decisions. *)
let expr_prec e =
  match e.ek with
  | Comma _ -> 0
  | Assign _ -> 1
  | Cond _ -> 2
  | Binop (op, _, _) -> 2 + binop_prec op (* 3..12 *)
  | Cast _ | Unop _ | Deref _ | Addrof _ | Sizeof_expr _ | Sizeof_ty _
  | Incdec (_, true, _) -> 13
  | Call _ | Index _ | Member _ | Arrow _ | Incdec (_, false, _) -> 14
  | Int_lit _ | Float_lit _ | Char_lit _ | Str_lit _ | Ident _ | Init_list _ ->
    15

(* Spaced between its operands. *)
let infix o t =
  chr o ' ';
  tok o t;
  chr o ' '

let rec expr o prec (e : expr) =
  let need_paren = expr_prec e < prec in
  if need_paren then tok o Lparen;
  (match e.ek with
  | Int_lit (v, k, u) ->
    (* negative literals print parenthesised to survive re-parsing *)
    let neg = Int64.compare v 0L < 0 in
    if neg then tok o Lparen;
    decimal o v;
    str o (int_suffix k u);
    if neg then tok o Rparen
  | Float_lit (v, is_double) -> float_lit o v is_double
  | Char_lit c ->
    push o k_char;
    chr o '\'';
    escaped_char o c;
    chr o '\''
  | Str_lit s ->
    push o k_str;
    chr o '"';
    escaped_string o s;
    chr o '"'
  | Ident n -> name o n
  | Binop (op, a, b) ->
    let bp = 2 + binop_prec op in
    expr o bp a;
    infix o (binop_token op);
    expr o (bp + 1) b
  | Unop (op, a) ->
    tok o (unop_token op);
    (* avoid gluing - -x into --x *)
    (match op, a.ek with
    | (Neg | Uplus), (Unop ((Neg | Uplus), _) | Int_lit _ | Float_lit _)
      when (match a.ek with
           | Int_lit (v, _, _) -> Int64.compare v 0L < 0
           | Float_lit (v, _) -> v < 0.
           | Unop _ -> true
           | _ -> false) ->
      chr o ' '
    | _ -> ());
    expr o 13 a
  | Assign (op, lhs, rhs) ->
    expr o 2 lhs;
    infix o (assign_token op);
    expr o 1 rhs
  | Incdec (inc, prefix, a) ->
    let op : Token.t = if inc then PlusPlus else MinusMinus in
    if prefix then begin
      tok o op;
      expr o 13 a
    end
    else begin
      expr o 14 a;
      tok o op
    end
  | Call (f, args) ->
    expr o 14 f;
    tok o Lparen;
    exprs o args;
    tok o Rparen
  | Index (a, i) ->
    expr o 14 a;
    tok o Lbracket;
    expr o 0 i;
    tok o Rbracket
  | Member (a, n) ->
    expr o 14 a;
    tok o Dot;
    name o n
  | Arrow (a, n) ->
    expr o 14 a;
    tok o Arrow;
    name o n
  | Deref a ->
    tok o Star;
    expr o 13 a
  | Addrof a ->
    tok o Amp;
    expr o 13 a
  | Cast (t, a) ->
    tok o Lparen;
    abstract o t;
    tok o Rparen;
    expr o 13 a
  | Cond (c, t, f) ->
    expr o 3 c;
    infix o Question;
    expr o 0 t;
    infix o Colon;
    expr o 2 f
  | Comma (a, b) ->
    expr o 1 a;
    comma o;
    expr o 0 b
  | Sizeof_expr a ->
    tok o (Kw Ksizeof);
    chr o ' ';
    expr o 13 a
  | Sizeof_ty t ->
    tok o (Kw Ksizeof);
    tok o Lparen;
    abstract o t;
    tok o Rparen
  | Init_list es ->
    tok o Lbrace;
    exprs o es;
    tok o Rbrace);
  if need_paren then tok o Rparen

(* Comma-separated assignment expressions. *)
and exprs o = function
  | [] -> ()
  | [ e ] -> expr o 1 e
  | e :: es ->
    expr o 1 e;
    comma o;
    exprs o es

let expr_to_string e = to_string (fun o e -> expr o 0 e) e

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let var_decl o (v : var_decl) =
  (match v.v_storage with
  | S_none -> ()
  | S_static -> word o (Kw Kstatic)
  | S_extern -> word o (Kw Kextern)
  | S_register -> word o (Kw Kregister));
  if v.v_quals.q_const then word o (Kw Kconst);
  if v.v_quals.q_volatile then word o (Kw Kvolatile);
  declarator o v.v_ty v.v_name;
  match v.v_init with
  | Some e ->
    infix o Eq;
    expr o 1 e
  | None -> ()

(* Does [s] print ending in an [if] with no [else]?  Trailing [else]
   branches, [while]/[for] bodies and labels are followed. *)
let rec ends_in_open_if s =
  match s.sk with
  | Sif (_, _, None) -> true
  | Sif (_, _, Some s) | Swhile (_, s) | Sfor (_, _, _, s) | Slabel (_, s) ->
    ends_in_open_if s
  | _ -> false

(* The then-branch as printed: an [else] after a branch ending in an
   [if] without one would re-parse as that inner [if]'s, so such a branch
   is braced.  [parsed_form] rebuilds the braces from this same
   decision. *)
let then_branch t f =
  if Option.is_some f && ends_in_open_if t then { t with sk = Sblock [ t ] }
  else t

(* [kw (], the header of an [if], [while], [for] or [switch]. *)
let head o lvl t =
  indent o lvl;
  word o t;
  tok o Lparen

let rec stmt o lvl (s : stmt) =
  match s.sk with
  | Sexpr e ->
    indent o lvl;
    expr o 0 e;
    line o Semi
  | Sdecl vs -> decls o lvl vs
  | Sif (c, t, f) ->
    head o lvl (Kw Kif);
    expr o 0 c;
    line o Rparen;
    block o lvl (then_branch t f);
    (match f with
    | Some f ->
      indent o lvl;
      line o (Kw Kelse);
      block o lvl f
    | None -> ())
  | Swhile (c, b) ->
    head o lvl (Kw Kwhile);
    expr o 0 c;
    line o Rparen;
    block o lvl b
  | Sdo (b, c) ->
    indent o lvl;
    line o (Kw Kdo);
    block o lvl b;
    head o lvl (Kw Kwhile);
    expr o 0 c;
    tok o Rparen;
    line o Semi
  | Sfor (init, cond, step, b) ->
    head o lvl (Kw Kfor);
    (match init with
    | Some (Fi_expr e) -> expr o 0 e
    | Some (Fi_decl (v :: vs)) ->
      var_decl o v;
      (* later declarators share the specifier *)
      List.iter
        (fun v ->
          comma o;
          name o v.v_name;
          match v.v_init with
          | Some e ->
            infix o Eq;
            expr o 1 e
          | None -> ())
        vs
    | Some (Fi_decl []) | None -> ());
    word o Semi;
    (match cond with Some c -> expr o 0 c | None -> ());
    word o Semi;
    (match step with Some s -> expr o 0 s | None -> ());
    line o Rparen;
    block o lvl b
  | Sreturn e ->
    indent o lvl;
    tok o (Kw Kreturn);
    (match e with
    | Some e ->
      chr o ' ';
      expr o 0 e
    | None -> ());
    line o Semi
  | Sbreak ->
    indent o lvl;
    tok o (Kw Kbreak);
    line o Semi
  | Scontinue ->
    indent o lvl;
    tok o (Kw Kcontinue);
    line o Semi
  | Sblock ss ->
    indent o lvl;
    line o Lbrace;
    stmts o (lvl + 1) ss;
    indent o lvl;
    line o Rbrace
  | Sswitch (e, cases) ->
    head o lvl (Kw Kswitch);
    expr o 0 e;
    tok o Rparen;
    chr o ' ';
    line o Lbrace;
    List.iter
      (fun c ->
        List.iter
          (fun l ->
            indent o lvl;
            match l with
            | L_case e ->
              word o (Kw Kcase);
              expr o 3 e;
              line o Colon
            | L_default ->
              tok o (Kw Kdefault);
              line o Colon)
          c.case_labels;
        stmts o (lvl + 1) c.case_body)
      cases;
    indent o lvl;
    line o Rbrace
  | Sgoto l ->
    indent o lvl;
    word o (Kw Kgoto);
    name o l;
    line o Semi
  | Slabel (l, inner) ->
    indent o lvl;
    name o l;
    line o Colon;
    (match inner.sk with
    | Snull ->
      indent o (lvl + 1);
      line o Semi
    | _ -> stmt o lvl inner)
  | Snull ->
    indent o lvl;
    line o Semi

(* Lists are walked by hand: [List.iter (stmt o lvl)] would allocate a
   closure per block. *)
and stmts o lvl = function
  | [] -> ()
  | s :: ss ->
    stmt o lvl s;
    stmts o lvl ss

and decls o lvl = function
  | [] -> ()
  | v :: vs ->
    indent o lvl;
    var_decl o v;
    line o Semi;
    decls o lvl vs

and block o lvl s =
  match s.sk with
  | Sblock _ -> stmt o lvl s
  | _ -> stmt o (lvl + 1) s

let stmt_to_buf buf lvl s = stmt (text_sink buf) lvl s

(* ------------------------------------------------------------------ *)
(* Translation units                                                   *)
(* ------------------------------------------------------------------ *)

let param o p = declarator o p.p_ty p.p_name

(* [struct tag { fields };] or the same with [union]. *)
let aggregate o kw tag fs =
  word o (Kw kw);
  name o tag;
  chr o ' ';
  line o Lbrace;
  List.iter
    (fun f ->
      str o "  ";
      declarator o f.fld_ty f.fld_name;
      line o Semi)
    fs;
  tok o Rbrace;
  line o Semi

let global o = function
  | Gfun fd ->
    if fd.f_static then word o (Kw Kstatic);
    if fd.f_inline then word o (Kw Kinline);
    fun_declarator o fd.f_ret fd.f_name param fd.f_params fd.f_variadic;
    chr o ' ';
    line o Lbrace;
    stmts o 1 fd.f_body;
    line o Rbrace
  | Gvar v ->
    var_decl o v;
    line o Semi
  | Gtypedef (n, ty) ->
    word o (Kw Ktypedef);
    declarator o ty n;
    line o Semi
  | Gstruct (tag, fs) -> aggregate o Kstruct tag fs
  | Gunion (tag, fs) -> aggregate o Kunion tag fs
  | Genum (tag, items) ->
    word o (Kw Kenum);
    name o tag;
    chr o ' ';
    word o Lbrace;
    List.iteri
      (fun i (n, v) ->
        if i > 0 then comma o;
        name o n;
        match v with
        | Some v ->
          infix o Eq;
          decimal o v
        | None -> ())
      items;
    chr o ' ';
    tok o Rbrace;
    line o Semi
  | Gproto p ->
    fun_declarator o p.pr_ret p.pr_name abstract p.pr_params p.pr_variadic;
    line o Semi

let tu o (tu : tu) =
  List.iteri
    (fun i g ->
      if i > 0 then chr o '\n';
      global o g)
    tu.globals

let tu_to_buf buf t = tu (text_sink buf) t
let tu_to_string t =
  let buf = Buffer.create 1024 in
  tu_to_buf buf t;
  Buffer.contents buf

let render o t =
  Buffer.clear o.buf;
  o.len <- 0;
  tu o t;
  push o k_eof;
  let src = Buffer.contents o.buf in
  (src, Lexer.of_stream src o.kinds o.offsets o.len)

(* ------------------------------------------------------------------ *)
(* The parsed form                                                     *)
(* ------------------------------------------------------------------ *)

(* [parsed_form tu] is the tree [Parser.parse (tu_to_string tu)] returns,
   built without printing or parsing, in three steps:

   - [vouch_*] walk [tu] the way the printer does and give up (raise
     [Unvouched]) at any construct whose text might not read back as
     itself: a name the lexer takes for a keyword, [++(long)x], a
     negative float before a postfix operator, a function type, ...
     The walk also notes whether the tree is already in the parser's
     shape, ids aside.
   - [reshape], only for a tree that is not, rebuilds what the parser
     builds from the printed text: the printer's braces around a dangling
     [else]'s then-branch, one [Sdecl] per printed declarator (an empty
     one prints nothing, and a lone body's extra declarators become the
     next statements), the labels of an empty case merged into the next
     case's, array parameters decayed to pointers, a negated literal
     folded into one literal node, ...
   - [Ast_ids.renumber], which the parser ends with too, gives the ids. *)

exception Unvouched

let unvouched () = raise_notrace Unvouched

type vouch = {
  mutable typedefs : string list;  (* the parser's typedef table so far *)
  mutable in_shape : bool;  (* no [reshape] needed so far *)
}

let reshape_needed v = v.in_shape <- false

(* A declared name: one identifier token. *)
let name n = if not (Lexer.is_identifier n) then unvouched ()

(* A name in an expression or a label, which a typedef name would turn
   into a declaration or a cast. *)
let plain_name v n =
  name n;
  if v.typedefs <> [] && List.mem n v.typedefs then unvouched ()

let rec vouch_ty v = function
  | Tvoid | Tbool | Tint _ | Tfloat | Tdouble -> ()
  | Tstruct tag | Tunion tag -> name tag
  | Tnamed n -> if not (List.mem n v.typedefs) then unvouched ()
  (* parenthesised declarators and function types do not parse *)
  | Tptr (Tarray _ | Tfunc _) | Tfunc _ -> unvouched ()
  | Tptr t -> vouch_ty v t
  | Tarray (t, n) ->
    (match n with Some n when n < 0 -> unvouched () | _ -> ());
    vouch_ty v t

(* Does [e], printed in a context of precedence [prec], start with '{'? *)
let rec opens_brace prec e =
  expr_prec e >= prec
  &&
  match e.ek with
  | Init_list _ -> true
  | Binop (op, a, _) -> opens_brace (2 + binop_prec op) a
  | Assign (_, a, _) -> opens_brace 2 a
  | Cond (a, _, _) -> opens_brace 3 a
  | Comma (a, _) -> opens_brace 1 a
  | Call (a, _) | Index (a, _) | Member (a, _) | Arrow (a, _)
  | Incdec (_, false, a) ->
    opens_brace 14 a
  | _ -> false

(* [e] printed in a context of precedence [prec], as [expr_to_buf]. *)
let rec vouch_expr v prec e =
  match e.ek with
  | Int_lit (n, k, _) ->
    (* the lexer cannot read min_int's magnitude *)
    if Int64.equal n Int64.min_int then unvouched ();
    (match k with Ichar | Ishort -> reshape_needed v | Iint | Ilong | Ilonglong -> ())
  | Float_lit (x, _) ->
    (* non-finite values print as names, some integers from 1e16 up
       without a '.' (reading back as integers), and a sign binds looser
       than a postfix operator *)
    if
      (not (Float.is_finite x))
      || Float.abs x >= 1e16
      || (prec >= 14 && Float.sign_bit x)
    then unvouched ()
  | Char_lit _ | Str_lit _ -> ()
  | Ident n -> plain_name v n
  | Binop (op, a, b) ->
    let bp = 2 + binop_prec op in
    vouch_expr v bp a;
    vouch_expr v (bp + 1) b
  | Unop (op, a) ->
    (match op, a.ek with
    (* "---x" and "+++x" lex as "--" "-" and "++" "+" *)
    | Neg, Incdec (false, true, _) | Uplus, Incdec (true, true, _) -> unvouched ()
    (* the parser reads a negated literal as one node, so it takes one
       id where [renumber] alone would spend two *)
    | Neg, (Int_lit _ | Float_lit _) -> reshape_needed v
    | _ -> ());
    vouch_expr v 13 a
  | Assign (_, l, r) ->
    vouch_expr v 2 l;
    vouch_expr v 1 r
  | Incdec (_, true, a) ->
    (* the operand of a prefix [++]/[--] cannot be a cast *)
    (match a.ek with Cast _ -> unvouched () | _ -> ());
    vouch_expr v 13 a
  | Incdec (_, false, a) -> vouch_expr v 14 a
  | Call (f, args) ->
    vouch_expr v 14 f;
    vouch_exprs v 1 args
  | Index (a, i) ->
    vouch_expr v 14 a;
    vouch_expr v 0 i
  | Member (a, n) ->
    (* "1.x" lexes as the float "1." *)
    (match a.ek with Int_lit _ -> unvouched () | _ -> ());
    name n;
    vouch_expr v 14 a
  | Arrow (a, n) ->
    name n;
    vouch_expr v 14 a
  | Deref a -> vouch_expr v 13 a
  | Addrof a ->
    (* "&&x" lexes as "&&" *)
    (match a.ek with Addrof _ -> unvouched () | _ -> ());
    vouch_expr v 13 a
  | Cast (t, a) ->
    vouch_ty v t;
    vouch_expr v 13 a
  | Cond (c, t, f) ->
    vouch_expr v 3 c;
    vouch_expr v 0 t;
    vouch_expr v 2 f
  | Comma (a, b) ->
    vouch_expr v 1 a;
    vouch_expr v 0 b
  | Sizeof_expr a ->
    (* "sizeof (int)x" reads as [sizeof(int)] followed by [x] *)
    (match a.ek with Cast _ -> unvouched () | _ -> ());
    vouch_expr v 13 a
  | Sizeof_ty t -> vouch_ty v t
  | Init_list es -> vouch_exprs v 1 es

(* Walks of lists and options are written out: a partial application
   such as [List.iter (vouch_expr v 1)] would allocate a closure per
   node. *)
and vouch_exprs v prec = function
  | [] -> ()
  | e :: es ->
    vouch_expr v prec e;
    vouch_exprs v prec es

let vouch_expr_opt v = function None -> () | Some e -> vouch_expr v 0 e

(* An initializer: the parser reads a leading '{' as a brace list. *)
let rec vouch_init v e =
  match e.ek with
  | Init_list es -> vouch_inits v es
  | _ ->
    if opens_brace 1 e then unvouched ();
    vouch_expr v 1 e

and vouch_inits v = function
  | [] -> ()
  | e :: es ->
    vouch_init v e;
    vouch_inits v es

(* A local declarator may be nameless ("int;"), a global one not: the
   parser drops a nameless global without an initializer. *)
let vouch_var ?(local = false) v (d : var_decl) =
  if not (local && d.v_name = "") then name d.v_name;
  vouch_ty v d.v_ty;
  match d.v_init with None -> () | Some e -> vouch_init v e

(* The type a specifier alone gives: what the parser gives the second
   and later declarators of a [for] declaration, printed by name. *)
let rec specifier_ty = function
  | Tptr t | Tarray (t, _) | Tfunc (t, _, _) -> specifier_ty t
  | t -> t

let shares_specifier (d : var_decl) (d' : var_decl) =
  ty_equal d'.v_ty (specifier_ty d.v_ty)
  && d'.v_quals = d.v_quals && d'.v_storage = d.v_storage

let rec vouch_stmt v s =
  match s.sk with
  | Sexpr e ->
    (* a statement starting with '{' is a block *)
    if opens_brace 0 e then unvouched ();
    vouch_expr v 0 e
  | Sdecl [ d ] -> vouch_var ~local:true v d
  | Sdecl ds ->
    reshape_needed v;
    List.iter (vouch_var ~local:true v) ds
  | Sif (c, t, f) ->
    vouch_expr v 0 c;
    if then_branch t f != t then reshape_needed v;
    vouch_stmt v t;
    (match f with None -> () | Some f -> vouch_stmt v f)
  | Swhile (c, b) ->
    vouch_expr v 0 c;
    vouch_stmt v b
  | Sdo (b, c) ->
    vouch_stmt v b;
    vouch_expr v 0 c
  | Sfor (init, c, step, b) ->
    (match init with
    | None -> ()
    | Some (Fi_expr e) -> vouch_expr v 0 e
    | Some (Fi_decl []) -> reshape_needed v
    | Some (Fi_decl (d :: rest)) ->
      vouch_var ~local:true v d;
      List.iter
        (fun d' ->
          if d'.v_name <> "" then name d'.v_name;
          (match d'.v_init with None -> () | Some e -> vouch_init v e);
          if not (shares_specifier d d') then reshape_needed v)
        rest);
    vouch_expr_opt v c;
    vouch_expr_opt v step;
    vouch_stmt v b
  | Sreturn e -> vouch_expr_opt v e
  | Sbreak | Scontinue | Snull -> ()
  | Sgoto l -> name l
  | Slabel (l, s) ->
    plain_name v l;
    vouch_stmt v s
  | Sblock ss -> vouch_stmts v ss
  | Sswitch (e, cases) ->
    vouch_expr v 0 e;
    let rec go = function
      | [] -> ()
      | c :: rest ->
        if c.case_labels = [] || (c.case_body = [] && rest <> []) then
          reshape_needed v;
        List.iter
          (function L_case e -> vouch_expr v 3 e | L_default -> ())
          c.case_labels;
        vouch_stmts v c.case_body;
        go rest
    in
    go cases

and vouch_stmts v = function
  | [] -> ()
  | s :: ss ->
    vouch_stmt v s;
    vouch_stmts v ss

let vouch_param_ty v ty =
  match ty with
  | Tvoid -> unvouched () (* a lone [void] reads as no parameters *)
  | Tarray _ -> reshape_needed v; vouch_ty v ty
  | _ -> vouch_ty v ty

(* A return type: an array one prints after the parameter list. *)
let vouch_ret_ty v ty =
  match ty with Tarray _ -> unvouched () | _ -> vouch_ty v ty

let vouch_global v = function
  | Gfun fd ->
    name fd.f_name;
    vouch_ret_ty v fd.f_ret;
    List.iter
      (fun p ->
        if p.p_name <> "" then name p.p_name;
        vouch_param_ty v p.p_ty)
      fd.f_params;
    vouch_stmts v fd.f_body
  | Gvar d -> vouch_var v d
  | Gtypedef (n, ty) ->
    name n;
    vouch_ty v ty;
    v.typedefs <- n :: v.typedefs
  | Gstruct (tag, fields) | Gunion (tag, fields) ->
    name tag;
    List.iter
      (fun f ->
        name f.fld_name;
        vouch_ty v f.fld_ty)
      fields
  | Genum (tag, items) ->
    name tag;
    List.iter
      (fun (n, x) ->
        name n;
        match x with
        | Some x when Int64.equal x Int64.min_int -> unvouched ()
        | _ -> ())
      items
  | Gproto p ->
    name p.pr_name;
    vouch_ret_ty v p.pr_ret;
    List.iter (vouch_param_ty v) p.pr_params

(* A statement list as the parser reads it back: each statement prints
   as a run of phrases, and the parser regroups the concatenated runs.
   Only [P] statements read back as themselves; the others take the
   statements that follow them in the text. *)
type phrase =
  | P of stmt
  | If of expr
  | Else
  | While of expr
  | For of for_init option * expr option * expr option
  | Do
  | Do_while of expr
  | Label of string
  | Case of case_label

let decay = function Tarray (t, _) -> Tptr t | t -> t

(* An empty declaration prints nothing, and the later declarators of a
   [for] declaration take the first one's specifier. *)
let parsed_for_init = function
  | Some (Fi_decl []) -> None
  | Some (Fi_decl (d :: rest)) ->
    let shared d' =
      { d' with
        v_ty = specifier_ty d.v_ty;
        v_quals = d.v_quals;
        v_storage = d.v_storage }
    in
    Some (Fi_decl (d :: List.map shared rest))
  | init -> init

(* The phrases [s] prints as, followed by [rest]. *)
let rec emit s rest =
  match s.sk with
  | Sdecl ds ->
    List.fold_right (fun d rest -> P (mk_stmt (Sdecl [ d ])) :: rest) ds rest
  | Sblock ss -> P (mk_stmt (Sblock (regroup ss))) :: rest
  | Sswitch (e, cases) -> P (mk_stmt (Sswitch (e, regroup_cases cases))) :: rest
  | Sif (c, t, f) ->
    If c
    :: emit (then_branch t f)
         (match f with None -> rest | Some f -> Else :: emit f rest)
  | Swhile (c, b) -> While c :: emit b rest
  | Sfor (init, c, step, b) -> For (parsed_for_init init, c, step) :: emit b rest
  | Sdo (b, c) -> Do :: emit b (Do_while c :: rest)
  | Slabel (l, ({ sk = Snull; _ } as n)) -> Label l :: P n :: rest
  | Slabel (l, s) -> Label l :: emit s rest
  | Sexpr _ | Sreturn _ | Sbreak | Scontinue | Sgoto _ | Snull -> P s :: rest

(* One statement off the front of [ps], as [Parser.parse_stmt] reads it:
   an [else] goes to the nearest [if], and a label right before a
   closing brace or a case label labels a null statement. *)
and parse_stmt ps =
  match ps with
  | P s :: rest -> (s, rest)
  | If c :: rest -> (
    let t, rest = parse_stmt rest in
    match rest with
    | Else :: rest ->
      let f, rest = parse_stmt rest in
      (mk_stmt (Sif (c, t, Some f)), rest)
    | _ -> (mk_stmt (Sif (c, t, None)), rest))
  | While c :: rest ->
    let b, rest = parse_stmt rest in
    (mk_stmt (Swhile (c, b)), rest)
  | For (init, c, step) :: rest ->
    let b, rest = parse_stmt rest in
    (mk_stmt (Sfor (init, c, step, b)), rest)
  | Do :: rest -> (
    match parse_stmt rest with
    | b, Do_while c :: rest -> (mk_stmt (Sdo (b, c)), rest)
    | _ -> unvouched ())
  | Label l :: (([] | Case _ :: _) as rest) ->
    (mk_stmt (Slabel (l, mk_stmt Snull)), rest)
  | Label l :: rest ->
    let s, rest = parse_stmt rest in
    (mk_stmt (Slabel (l, s)), rest)
  | [] | (Else | Do_while _ | Case _) :: _ -> unvouched ()

(* A block's statements. *)
and regroup ss =
  let rec items = function
    | [] -> []
    | ps ->
      let s, rest = parse_stmt ps in
      s :: items rest
  in
  items (List.fold_right emit ss [])

(* A switch body: a case takes every label up to its first statement,
   and its body runs to the next label. *)
and regroup_cases cases =
  let ps =
    List.fold_right
      (fun c rest ->
        List.fold_right
          (fun l rest -> Case l :: rest)
          c.case_labels
          (List.fold_right emit c.case_body rest))
      cases []
  in
  let rec labels = function
    | Case l :: rest ->
      let ls, rest = labels rest in
      (l :: ls, rest)
    | rest -> ([], rest)
  in
  let rec body = function
    | ([] | Case _ :: _) as rest -> ([], rest)
    | ps ->
      let s, rest = parse_stmt ps in
      let ss, rest = body rest in
      (s :: ss, rest)
  in
  let rec groups = function
    | [] -> []
    | Case _ :: _ as ps ->
      let case_labels, rest = labels ps in
      let case_body, rest = body rest in
      { case_labels; case_body } :: groups rest
    | _ -> unvouched () (* a statement before the first label *)
  in
  groups ps

(* An unsuffixed literal reads back as an [int] (negated literals are
   folded first). *)
let parsed_int e =
  match e.ek with
  | Int_lit (n, (Ichar | Ishort), u) -> { e with ek = Int_lit (n, Iint, u) }
  | _ -> e

let reshape (tu : tu) : tu =
  let globals =
    List.map
      (function
        | Gfun fd ->
          Gfun
            { fd with
              f_params =
                List.map (fun p -> { p with p_ty = decay p.p_ty }) fd.f_params;
              f_body = regroup fd.f_body }
        | Gproto p -> Gproto { p with pr_params = List.map decay p.pr_params }
        | g -> g)
      tu.globals
  in
  Visit.map_tu ~fe:parsed_int (Ast_ids.canonicalize { globals })

let parsed_form (tu : tu) : tu option =
  let v = { typedefs = []; in_shape = true } in
  match
    List.iter (vouch_global v) tu.globals;
    if v.in_shape then tu else reshape tu
  with
  | tu -> Some (Ast_ids.renumber tu)
  | exception Unvouched -> None
