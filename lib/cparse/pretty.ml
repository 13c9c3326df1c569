(* Pretty-printer: AST back to compilable C text.

   Printing is precedence-aware, so that `parse (print tu)` yields the
   tree [parsed_form tu] computes whenever that is [Some] (tested against
   the parser in test/test_cparse.ml, test/test_simcomp.ml and
   test/test_fuzzing.ml). *)

open Ast

let ikind_to_string signed = function
  | Ichar -> if signed then "char" else "unsigned char"
  | Ishort -> if signed then "short" else "unsigned short"
  | Iint -> if signed then "int" else "unsigned int"
  | Ilong -> if signed then "long" else "unsigned long"
  | Ilonglong -> if signed then "long long" else "unsigned long long"

(* Render a type applied to a declarator string (possibly empty for
   abstract type names).  Handles the inside-out C declarator syntax for
   pointers and arrays. *)
let rec decl_string (ty : ty) (name : string) : string =
  match ty with
  | Tvoid -> ("void" ^ pad name)
  | Tbool -> ("_Bool" ^ pad name)
  | Tint (k, signed) -> ikind_to_string signed k ^ pad name
  | Tfloat -> "float" ^ pad name
  | Tdouble -> "double" ^ pad name
  | Tstruct tag -> "struct " ^ tag ^ pad name
  | Tunion tag -> "union " ^ tag ^ pad name
  | Tnamed n -> n ^ pad name
  | Tptr inner ->
    let name' =
      match inner with
      | Tarray _ | Tfunc _ -> "(*" ^ name ^ ")"
      | _ -> "*" ^ name
    in
    decl_string inner name'
  | Tarray (inner, n) ->
    let dim = match n with Some n -> string_of_int n | None -> "" in
    decl_string inner (name ^ "[" ^ dim ^ "]")
  | Tfunc (ret, params, variadic) ->
    let ps =
      (List.map (fun t -> ty_string t) params
      @ if variadic then [ "..." ] else [])
    in
    let ps = if ps = [] then "void" else String.concat ", " ps in
    decl_string ret (name ^ "(" ^ ps ^ ")")

and pad name = if name = "" then "" else " " ^ name

and ty_string ty = decl_string ty ""

let quals_prefix q =
  (if q.q_const then "const " else "") ^ (if q.q_volatile then "volatile " else "")

let storage_prefix = function
  | S_none -> ""
  | S_static -> "static "
  | S_extern -> "extern "
  | S_register -> "register "

let binop_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Band -> "&" | Bxor -> "^" | Bor -> "|"
  | Land -> "&&" | Lor -> "||"

let assign_op_string = function
  | A_none -> "=" | A_add -> "+=" | A_sub -> "-=" | A_mul -> "*="
  | A_div -> "/=" | A_mod -> "%=" | A_shl -> "<<=" | A_shr -> ">>="
  | A_band -> "&=" | A_bxor -> "^=" | A_bor -> "|="

let unop_string = function
  | Neg -> "-" | Lognot -> "!" | Bitnot -> "~" | Uplus -> "+"

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

let escape_char c =
  match c with
  | '\n' -> "\\n" | '\t' -> "\\t" | '\r' -> "\\r" | '\\' -> "\\\\"
  | '\'' -> "\\'" | '\000' -> "\\0"
  | c when Char.code c >= 32 && Char.code c < 127 -> String.make 1 c
  | c -> Fmt.str "\\x%02x" (Char.code c)

(* Inside a string a digit may follow NUL, so NUL takes all three octal
   digits: "\0" then "1" would read back as "\01". *)
let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\'' -> Buffer.add_char buf '\''
      | '\000' -> Buffer.add_string buf "\\000"
      | c -> Buffer.add_string buf (escape_char c))
    s;
  Buffer.contents buf

let int_suffix kind unsigned =
  (if unsigned then "U" else "")
  ^ (match kind with Ilong -> "L" | Ilonglong -> "LL" | _ -> "")

let rec expr_to_buf buf prec (e : expr) =
  let p = expr_prec e in
  let need_paren = p < prec in
  if need_paren then Buffer.add_char buf '(';
  (match e.ek with
  | Int_lit (v, k, u) ->
    if Int64.compare v 0L < 0 then begin
      (* print negative literals parenthesised to survive re-parsing *)
      Buffer.add_char buf '(';
      Buffer.add_string buf (Int64.to_string v);
      Buffer.add_string buf (int_suffix k u);
      Buffer.add_char buf ')'
    end
    else begin
      Buffer.add_string buf (Int64.to_string v);
      Buffer.add_string buf (int_suffix k u)
    end
  | Float_lit (v, is_double) ->
    let s =
      if Float.is_integer v && Float.abs v < 1e16 then
        Fmt.str "%.1f" v
      else Fmt.str "%.17g" v
    in
    Buffer.add_string buf s;
    if not is_double then Buffer.add_char buf 'f'
  | Char_lit c ->
    Buffer.add_char buf '\'';
    Buffer.add_string buf (escape_char c);
    Buffer.add_char buf '\''
  | Str_lit s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape_string s);
    Buffer.add_char buf '"'
  | Ident n -> Buffer.add_string buf n
  | Binop (op, a, b) ->
    let bp = 2 + binop_prec op in
    expr_to_buf buf bp a;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (binop_string op);
    Buffer.add_char buf ' ';
    expr_to_buf buf (bp + 1) b
  | Unop (op, a) ->
    Buffer.add_string buf (unop_string op);
    (* avoid gluing - -x into --x *)
    (match op, a.ek with
    | (Neg | Uplus), (Unop ((Neg | Uplus), _) | Int_lit _ | Float_lit _)
      when (match a.ek with
           | Int_lit (v, _, _) -> Int64.compare v 0L < 0
           | Float_lit (v, _) -> v < 0.
           | Unop _ -> true
           | _ -> false) ->
      Buffer.add_char buf ' '
    | _ -> ());
    expr_to_buf buf 13 a
  | Assign (op, lhs, rhs) ->
    expr_to_buf buf 2 lhs;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (assign_op_string op);
    Buffer.add_char buf ' ';
    expr_to_buf buf 1 rhs
  | Incdec (inc, prefix, a) ->
    let op = if inc then "++" else "--" in
    if prefix then begin
      Buffer.add_string buf op;
      expr_to_buf buf 13 a
    end
    else begin
      expr_to_buf buf 14 a;
      Buffer.add_string buf op
    end
  | Call (f, args) ->
    expr_to_buf buf 14 f;
    Buffer.add_char buf '(';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        expr_to_buf buf 1 a)
      args;
    Buffer.add_char buf ')'
  | Index (a, i) ->
    expr_to_buf buf 14 a;
    Buffer.add_char buf '[';
    expr_to_buf buf 0 i;
    Buffer.add_char buf ']'
  | Member (a, n) ->
    expr_to_buf buf 14 a;
    Buffer.add_char buf '.';
    Buffer.add_string buf n
  | Arrow (a, n) ->
    expr_to_buf buf 14 a;
    Buffer.add_string buf "->";
    Buffer.add_string buf n
  | Deref a ->
    Buffer.add_char buf '*';
    expr_to_buf buf 13 a
  | Addrof a ->
    Buffer.add_char buf '&';
    expr_to_buf buf 13 a
  | Cast (t, a) ->
    Buffer.add_char buf '(';
    Buffer.add_string buf (ty_string t);
    Buffer.add_char buf ')';
    expr_to_buf buf 13 a
  | Cond (c, t, f) ->
    expr_to_buf buf 3 c;
    Buffer.add_string buf " ? ";
    expr_to_buf buf 0 t;
    Buffer.add_string buf " : ";
    expr_to_buf buf 2 f
  | Comma (a, b) ->
    expr_to_buf buf 1 a;
    Buffer.add_string buf ", ";
    expr_to_buf buf 0 b
  | Sizeof_expr a ->
    Buffer.add_string buf "sizeof ";
    expr_to_buf buf 13 a
  | Sizeof_ty t ->
    Buffer.add_string buf "sizeof(";
    Buffer.add_string buf (ty_string t);
    Buffer.add_char buf ')'
  | Init_list es ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_string buf ", ";
        expr_to_buf buf 1 e)
      es;
    Buffer.add_char buf '}');
  if need_paren then Buffer.add_char buf ')'

let expr_to_string e =
  let buf = Buffer.create 32 in
  expr_to_buf buf 0 e;
  Buffer.contents buf

let indent buf n = Buffer.add_string buf (String.make (2 * n) ' ')

let var_decl_to_buf buf (v : var_decl) =
  Buffer.add_string buf (storage_prefix v.v_storage);
  Buffer.add_string buf (quals_prefix v.v_quals);
  Buffer.add_string buf (decl_string v.v_ty v.v_name);
  (match v.v_init with
  | Some e ->
    Buffer.add_string buf " = ";
    expr_to_buf buf 1 e
  | None -> ())

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

let rec stmt_to_buf buf lvl (s : stmt) =
  match s.sk with
  | Sexpr e ->
    indent buf lvl;
    expr_to_buf buf 0 e;
    Buffer.add_string buf ";\n"
  | Sdecl vs ->
    List.iter
      (fun v ->
        indent buf lvl;
        var_decl_to_buf buf v;
        Buffer.add_string buf ";\n")
      vs
  | Sif (c, t, f) ->
    indent buf lvl;
    Buffer.add_string buf "if (";
    expr_to_buf buf 0 c;
    Buffer.add_string buf ")\n";
    stmt_as_block buf lvl (then_branch t f);
    (match f with
    | Some f ->
      indent buf lvl;
      Buffer.add_string buf "else\n";
      stmt_as_block buf lvl f
    | None -> ())
  | Swhile (c, b) ->
    indent buf lvl;
    Buffer.add_string buf "while (";
    expr_to_buf buf 0 c;
    Buffer.add_string buf ")\n";
    stmt_as_block buf lvl b
  | Sdo (b, c) ->
    indent buf lvl;
    Buffer.add_string buf "do\n";
    stmt_as_block buf lvl b;
    indent buf lvl;
    Buffer.add_string buf "while (";
    expr_to_buf buf 0 c;
    Buffer.add_string buf ");\n"
  | Sfor (init, cond, step, b) ->
    indent buf lvl;
    Buffer.add_string buf "for (";
    (match init with
    | Some (Fi_expr e) -> expr_to_buf buf 0 e
    | Some (Fi_decl vs) ->
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          if i = 0 then var_decl_to_buf buf v
          else begin
            (* subsequent declarators share the specifier *)
            Buffer.add_string buf v.v_name;
            match v.v_init with
            | Some e ->
              Buffer.add_string buf " = ";
              expr_to_buf buf 1 e
            | None -> ()
          end)
        vs
    | None -> ());
    Buffer.add_string buf "; ";
    (match cond with Some c -> expr_to_buf buf 0 c | None -> ());
    Buffer.add_string buf "; ";
    (match step with Some s -> expr_to_buf buf 0 s | None -> ());
    Buffer.add_string buf ")\n";
    stmt_as_block buf lvl b
  | Sreturn e ->
    indent buf lvl;
    Buffer.add_string buf "return";
    (match e with
    | Some e ->
      Buffer.add_char buf ' ';
      expr_to_buf buf 0 e
    | None -> ());
    Buffer.add_string buf ";\n"
  | Sbreak ->
    indent buf lvl;
    Buffer.add_string buf "break;\n"
  | Scontinue ->
    indent buf lvl;
    Buffer.add_string buf "continue;\n"
  | Sblock ss ->
    indent buf lvl;
    Buffer.add_string buf "{\n";
    List.iter (stmt_to_buf buf (lvl + 1)) ss;
    indent buf lvl;
    Buffer.add_string buf "}\n"
  | Sswitch (e, cases) ->
    indent buf lvl;
    Buffer.add_string buf "switch (";
    expr_to_buf buf 0 e;
    Buffer.add_string buf ") {\n";
    List.iter
      (fun c ->
        List.iter
          (fun l ->
            indent buf lvl;
            match l with
            | L_case e ->
              Buffer.add_string buf "case ";
              expr_to_buf buf 3 e;
              Buffer.add_string buf ":\n"
            | L_default -> Buffer.add_string buf "default:\n")
          c.case_labels;
        List.iter (stmt_to_buf buf (lvl + 1)) c.case_body)
      cases;
    indent buf lvl;
    Buffer.add_string buf "}\n"
  | Sgoto l ->
    indent buf lvl;
    Buffer.add_string buf ("goto " ^ l ^ ";\n")
  | Slabel (l, inner) ->
    indent buf lvl;
    Buffer.add_string buf (l ^ ":\n");
    (match inner.sk with
    | Snull ->
      indent buf (lvl + 1);
      Buffer.add_string buf ";\n"
    | _ -> stmt_to_buf buf lvl inner)
  | Snull ->
    indent buf lvl;
    Buffer.add_string buf ";\n"

and stmt_as_block buf lvl s =
  match s.sk with
  | Sblock _ -> stmt_to_buf buf lvl s
  | _ -> stmt_to_buf buf (lvl + 1) s

let fundef_to_buf buf (fd : fundef) =
  if fd.f_static then Buffer.add_string buf "static ";
  if fd.f_inline then Buffer.add_string buf "inline ";
  let params =
    (List.map (fun p -> decl_string p.p_ty p.p_name) fd.f_params
    @ if fd.f_variadic then [ "..." ] else [])
  in
  let params = if params = [] then "void" else String.concat ", " params in
  Buffer.add_string buf (decl_string fd.f_ret (fd.f_name ^ "(" ^ params ^ ")"));
  Buffer.add_string buf " {\n";
  List.iter (stmt_to_buf buf 1) fd.f_body;
  Buffer.add_string buf "}\n"

let global_to_buf buf = function
  | Gfun fd -> fundef_to_buf buf fd
  | Gvar v ->
    var_decl_to_buf buf v;
    Buffer.add_string buf ";\n"
  | Gtypedef (name, ty) ->
    Buffer.add_string buf "typedef ";
    Buffer.add_string buf (decl_string ty name);
    Buffer.add_string buf ";\n"
  | Gstruct (tag, fields) ->
    Buffer.add_string buf ("struct " ^ tag ^ " {\n");
    List.iter
      (fun f ->
        Buffer.add_string buf "  ";
        Buffer.add_string buf (decl_string f.fld_ty f.fld_name);
        Buffer.add_string buf ";\n")
      fields;
    Buffer.add_string buf "};\n"
  | Gunion (tag, fields) ->
    Buffer.add_string buf ("union " ^ tag ^ " {\n");
    List.iter
      (fun f ->
        Buffer.add_string buf "  ";
        Buffer.add_string buf (decl_string f.fld_ty f.fld_name);
        Buffer.add_string buf ";\n")
      fields;
    Buffer.add_string buf "};\n"
  | Genum (tag, items) ->
    Buffer.add_string buf ("enum " ^ tag ^ " { ");
    List.iteri
      (fun i (n, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf n;
        match v with
        | Some v -> Buffer.add_string buf (" = " ^ Int64.to_string v)
        | None -> ())
      items;
    Buffer.add_string buf " };\n"
  | Gproto p ->
    let params =
      (List.map ty_string p.pr_params
      @ if p.pr_variadic then [ "..." ] else [])
    in
    let params = if params = [] then "void" else String.concat ", " params in
    Buffer.add_string buf (decl_string p.pr_ret (p.pr_name ^ "(" ^ params ^ ")"));
    Buffer.add_string buf ";\n"

let tu_to_buf buf (tu : tu) : unit =
  List.iteri
    (fun i g ->
      if i > 0 then Buffer.add_char buf '\n';
      global_to_buf buf g)
    tu.globals

let tu_to_string (tu : tu) : string =
  let buf = Buffer.create 1024 in
  tu_to_buf buf tu;
  Buffer.contents buf

let print = tu_to_string

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
