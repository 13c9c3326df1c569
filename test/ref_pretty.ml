(* The pretty-printer as it was before it recorded token streams and
   stopped allocating per token, kept verbatim as the byte-identity
   reference for [Pretty.tu_to_string] (test_cparse, test_fuzzing). *)

open Cparse
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
