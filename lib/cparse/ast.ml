(* Abstract syntax for the C subset used throughout the reproduction.

   Every expression, statement, and function definition carries a unique
   integer id (within a translation unit) so that mutators can select a
   node during traversal and later rewrite exactly that node.  The parser
   numbers nodes as it builds them; other fresh nodes are created with
   [no_id], and {!Ast_ids.renumber} reassigns ids after a mutation. *)

type ikind = Ichar | Ishort | Iint | Ilong | Ilonglong

type ty =
  | Tvoid
  | Tbool
  | Tint of ikind * bool          (* kind, signed *)
  | Tfloat
  | Tdouble
  | Tptr of ty
  | Tarray of ty * int option
  | Tstruct of string
  | Tunion of string
  | Tnamed of string              (* typedef name *)
  | Tfunc of ty * ty list * bool  (* return, params, variadic *)

type quals = { q_const : bool; q_volatile : bool }

let no_quals = { q_const = false; q_volatile = false }

type storage = S_none | S_static | S_extern | S_register

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | Lt | Gt | Le | Ge | Eq | Ne
  | Band | Bxor | Bor
  | Land | Lor

type assign_op =
  | A_none
  | A_add | A_sub | A_mul | A_div | A_mod
  | A_shl | A_shr | A_band | A_bxor | A_bor

type unop = Neg | Lognot | Bitnot | Uplus

let no_id = -1

type expr = { eid : int; ek : ekind }

and ekind =
  | Int_lit of int64 * ikind * bool     (* value, kind, unsigned *)
  | Float_lit of float * bool           (* value, is_double *)
  | Char_lit of char
  | Str_lit of string
  | Ident of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Assign of assign_op * expr * expr
  | Incdec of bool * bool * expr        (* is_increment, is_prefix, operand *)
  | Call of expr * expr list
  | Index of expr * expr
  | Member of expr * string
  | Arrow of expr * string
  | Deref of expr
  | Addrof of expr
  | Cast of ty * expr
  | Cond of expr * expr * expr
  | Comma of expr * expr
  | Sizeof_expr of expr
  | Sizeof_ty of ty
  | Init_list of expr list              (* only valid as an initializer *)

type var_decl = {
  v_name : string;
  v_ty : ty;
  v_quals : quals;
  v_storage : storage;
  v_init : expr option;
}

type stmt = { sid : int; sk : skind }

and skind =
  | Sexpr of expr
  | Sdecl of var_decl list
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdo of stmt * expr
  | Sfor of for_init option * expr option * expr option * stmt
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sblock of stmt list
  | Sswitch of expr * switch_case list
  | Sgoto of string
  | Slabel of string * stmt
  | Snull

and for_init = Fi_expr of expr | Fi_decl of var_decl list

(* A switch is kept structured: each case group is a list of labels followed
   by a body.  Fall-through happens when the body does not end in a break. *)
and switch_case = { case_labels : case_label list; case_body : stmt list }

and case_label = L_case of expr | L_default

type param = { p_name : string; p_ty : ty }

type fundef = {
  f_id : int;
  f_name : string;
  f_ret : ty;
  f_params : param list;
  f_variadic : bool;
  f_body : stmt list;
  f_static : bool;
  f_inline : bool;
}

type field = { fld_name : string; fld_ty : ty }

type global =
  | Gfun of fundef
  | Gvar of var_decl
  | Gtypedef of string * ty
  | Gstruct of string * field list
  | Gunion of string * field list
  | Genum of string * (string * int64 option) list
  | Gproto of { pr_name : string; pr_ret : ty; pr_params : ty list; pr_variadic : bool }

type tu = { globals : global list }

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let mk_expr ek = { eid = no_id; ek }
let mk_stmt sk = { sid = no_id; sk }

let int_lit ?(kind = Iint) ?(unsigned = false) v =
  mk_expr (Int_lit (Int64.of_int v, kind, unsigned))

let int64_lit ?(kind = Iint) ?(unsigned = false) v = mk_expr (Int_lit (v, kind, unsigned))
let float_lit ?(double = true) v = mk_expr (Float_lit (v, double))
let ident n = mk_expr (Ident n)
let binop op a b = mk_expr (Binop (op, a, b))
let unop op a = mk_expr (Unop (op, a))
let assign ?(op = A_none) lhs rhs = mk_expr (Assign (op, lhs, rhs))
let call f args = mk_expr (Call (f, args))
let sexpr e = mk_stmt (Sexpr e)
let sblock ss = mk_stmt (Sblock ss)
let sreturn e = mk_stmt (Sreturn e)

let zero_of_ty ty =
  match ty with
  | Tfloat -> mk_expr (Float_lit (0.0, false))
  | Tdouble -> mk_expr (Float_lit (0.0, true))
  | Tptr _ -> mk_expr (Cast (ty, int_lit 0))
  | _ -> int_lit 0

(* ------------------------------------------------------------------ *)
(* Type helpers                                                        *)
(* ------------------------------------------------------------------ *)

let rec ty_equal a b =
  match a, b with
  | Tvoid, Tvoid | Tbool, Tbool | Tfloat, Tfloat | Tdouble, Tdouble -> true
  | Tint (k1, s1), Tint (k2, s2) -> k1 = k2 && s1 = s2
  | Tptr t1, Tptr t2 -> ty_equal t1 t2
  | Tarray (t1, n1), Tarray (t2, n2) -> ty_equal t1 t2 && n1 = n2
  | Tstruct a, Tstruct b | Tunion a, Tunion b | Tnamed a, Tnamed b -> String.equal a b
  | Tfunc (r1, p1, v1), Tfunc (r2, p2, v2) ->
    v1 = v2 && ty_equal r1 r2
    && List.length p1 = List.length p2
    && List.for_all2 ty_equal p1 p2
  | (Tvoid | Tbool | Tint _ | Tfloat | Tdouble | Tptr _ | Tarray _
    | Tstruct _ | Tunion _ | Tnamed _ | Tfunc _), _ -> false

let is_integer_ty = function Tbool | Tint _ -> true | _ -> false
let is_float_ty = function Tfloat | Tdouble -> true | _ -> false
let is_arith_ty t = is_integer_ty t || is_float_ty t
let is_pointer_ty = function Tptr _ | Tarray _ -> true | _ -> false
let is_scalar_ty t = is_arith_ty t || is_pointer_ty t
let is_void_ty = function Tvoid -> true | _ -> false
let is_aggregate_ty = function Tstruct _ | Tunion _ | Tarray _ -> true | _ -> false

let ikind_rank = function
  | Ichar -> 1 | Ishort -> 2 | Iint -> 4 | Ilong -> 8 | Ilonglong -> 8

(* Size in bytes under an LP64-like model. *)
let rec sizeof_ty = function
  | Tvoid -> 1
  | Tbool -> 1
  | Tint (k, _) -> ikind_rank k
  | Tfloat -> 4
  | Tdouble -> 8
  | Tptr _ -> 8
  | Tarray (t, Some n) -> n * sizeof_ty t
  | Tarray (t, None) -> sizeof_ty t
  | Tstruct _ | Tunion _ -> 16 (* resolved properly by the type checker *)
  | Tnamed _ -> 8
  | Tfunc _ -> 8

(* ------------------------------------------------------------------ *)
(* Expression/statement utilities                                      *)
(* ------------------------------------------------------------------ *)

let is_lvalue_expr e =
  match e.ek with
  | Ident _ | Index _ | Member _ | Arrow _ | Deref _ -> true
  | _ -> false

let binop_is_comparison = function
  | Lt | Gt | Le | Ge | Eq | Ne -> true
  | _ -> false

let binop_is_logical = function Land | Lor -> true | _ -> false

let binop_is_arith = function
  | Add | Sub | Mul | Div | Mod -> true
  | _ -> false

let binop_is_bitwise = function
  | Band | Bxor | Bor | Shl | Shr -> true
  | _ -> false

let binop_is_commutative = function
  | Add | Mul | Eq | Ne | Band | Bxor | Bor | Land | Lor -> true
  | _ -> false

(* Whether an expression is free of side effects (conservative). *)
let rec is_pure e =
  match e.ek with
  | Int_lit _ | Float_lit _ | Char_lit _ | Str_lit _ | Ident _
  | Sizeof_expr _ | Sizeof_ty _ -> true
  | Binop (_, a, b) | Index (a, b) | Comma (a, b) -> is_pure a && is_pure b
  | Unop (_, a) | Member (a, _) | Arrow (a, _) | Deref a | Addrof a
  | Cast (_, a) -> is_pure a
  | Cond (c, t, f) -> is_pure c && is_pure t && is_pure f
  | Init_list es -> List.for_all is_pure es
  | Assign _ | Incdec _ | Call _ -> false
