(* Type checker for the C subset.

   Produces a list of diagnostics (errors and warnings) plus a map from
   expression ids to computed types.  A translation unit "compiles" iff it
   has no errors; warnings mirror GCC's permissiveness (e.g. implicit
   int/pointer conversions warn but compile). *)

open Ast

type severity = Error | Warning

type diag = { sev : severity; msg : string; in_func : string option }

(* ------------------------------------------------------------------ *)
(* The expression-type table                                           *)
(* ------------------------------------------------------------------ *)

(* The parser and [Ast_ids.renumber] number a unit's nodes 1..N, so the
   table is an array indexed by expression id, grown by doubling up to
   [Types.limit] cells.  Every other id ([no_id], negative, huge) goes
   to a side table, so any tree, well formed or not, gets the answers a
   [Hashtbl] would give.  An empty cell holds [absent], a value built
   here once that no caller can store. *)
type types = {
  mutable cells : ty array;
  mutable used : int;  (* every cell from [used] on is [absent] *)
  side : (int, ty) Hashtbl.t;
}

module Types = struct
  let limit = 1 lsl 18

  let absent : ty = Tnamed (String.make 1 '\000')

  let create n =
    {
      cells = Array.make (max 1 (min n limit)) absent;
      used = 0;
      side = Hashtbl.create 1;
    }

  let grow t id =
    let len = ref (2 * Array.length t.cells) in
    while !len <= id do len := 2 * !len done;
    let cells = Array.make (min !len limit) absent in
    Array.blit t.cells 0 cells 0 t.used;
    t.cells <- cells

  let set t id ty =
    if id >= 0 && id < limit then begin
      if id >= Array.length t.cells then grow t id;
      Array.unsafe_set t.cells id ty;
      if id >= t.used then t.used <- id + 1
    end
    else Hashtbl.replace t.side id ty

  let find t id ~default =
    if id >= 0 && id < Array.length t.cells then begin
      let ty = Array.unsafe_get t.cells id in
      if ty == absent then default else ty
    end
    else if Hashtbl.length t.side = 0 then default
    else match Hashtbl.find t.side id with ty -> ty | exception Not_found -> default

  let find_opt t id =
    let ty = find t id ~default:absent in
    if ty == absent then None else Some ty

  let clear t =
    Array.fill t.cells 0 t.used absent;
    t.used <- 0;
    Hashtbl.clear t.side
end

type env = {
  structs : field list Names.t;
  unions : field list Names.t;
  typedefs : ty Names.t;
  enum_consts : int64 Names.t;
  funcs : (ty * ty list * bool) Names.t; (* ret, params, variadic *)
  globals : (ty * quals) Names.t;
  vars : (int * ty * quals) Names.Scoped.t;
      (* block-scoped locals, each tagged with the depth it was declared
         at: same-depth redeclaration is the redefinition error *)
  types : types; (* eid -> type *)
  mutable diags : diag list;
  mutable cur_func : fundef option;
  mutable loop_depth : int;
  mutable switch_depth : int;
  mutable labels : unit Names.t;
  mutable gotos : string list;
}

type result = {
  r_diags : diag list;
  r_types : types;
  r_ok : bool;
}

(* Functions from libc treated as implicitly declared builtins. *)
let builtins : (string * (ty * ty list * bool)) list =
  let i = Tint (Iint, true) in
  let l = Tint (Ilong, true) in
  let charp = Tptr (Tint (Ichar, true)) in
  let voidp = Tptr Tvoid in
  [
    ("printf", (i, [ charp ], true));
    ("sprintf", (i, [ charp; charp ], true));
    ("snprintf", (i, [ charp; l; charp ], true));
    ("puts", (i, [ charp ], false));
    ("putchar", (i, [ i ], false));
    ("abort", (Tvoid, [], false));
    ("exit", (Tvoid, [ i ], false));
    ("strlen", (l, [ charp ], false));
    ("strcpy", (charp, [ charp; charp ], false));
    ("strcmp", (i, [ charp; charp ], false));
    ("memset", (voidp, [ voidp; i; l ], false));
    ("memcpy", (voidp, [ voidp; voidp; l ], false));
    ("malloc", (voidp, [ l ], false));
    ("free", (Tvoid, [ voidp ], false));
    ("rand", (i, [], false));
    ("abs", (i, [ i ], false));
  ]

let error env msg =
  env.diags <-
    { sev = Error; msg; in_func = Option.map (fun f -> f.f_name) env.cur_func }
    :: env.diags

let warn env msg =
  env.diags <-
    { sev = Warning; msg; in_func = Option.map (fun f -> f.f_name) env.cur_func }
    :: env.diags

(* Resolve typedef names to their underlying type. *)
let rec resolve env ty =
  match ty with
  | Tnamed n -> (
    match Names.find_opt env.typedefs n with
    | Some t -> resolve env t
    | None ->
      error env (Fmt.str "unknown type name '%s'" n);
      Tint (Iint, true))
  | t -> t

let fields_of env ty =
  match resolve env ty with
  | Tstruct tag -> Names.find_opt env.structs tag
  | Tunion tag -> Names.find_opt env.unions tag
  | _ -> None

(* Usual arithmetic conversions. *)
let arith_conv a b =
  match a, b with
  | Tdouble, _ | _, Tdouble -> Tdouble
  | Tfloat, _ | _, Tfloat -> Tfloat
  | Tint (k1, s1), Tint (k2, s2) ->
    let r1 = ikind_rank k1 and r2 = ikind_rank k2 in
    if r1 < 4 && r2 < 4 then Tint (Iint, true) (* integer promotion *)
    else if r1 > r2 then Tint (k1, s1)
    else if r2 > r1 then Tint (k2, s2)
    else Tint (k1, s1 && s2)
  | Tbool, t | t, Tbool -> t
  | t, _ -> t

(* Decay arrays to pointers at use sites. *)
let decay ty = match ty with Tarray (t, _) -> Tptr t | t -> t

let lookup_var env name =
  match Names.Scoped.find_opt env.vars name with
  | Some (_, ty, quals) -> Some (ty, quals)
  | None -> Names.find_opt env.globals name

let push_scope env = Names.Scoped.push env.vars
let pop_scope env = Names.Scoped.pop env.vars

(* A no-op at file scope, where globals are declared instead. *)
let declare_local env name ty quals =
  let depth = Names.Scoped.depth env.vars in
  if depth > 0 then begin
    (match Names.Scoped.find_opt env.vars name with
    | Some (d, _, _) when d = depth -> error env (Fmt.str "redefinition of '%s'" name)
    | _ -> ());
    Names.Scoped.add env.vars name (depth, ty, quals)
  end

(* Is an expression a modifiable lvalue?  Returns an error reason if not. *)
let rec lvalue_status env (e : expr) : (unit, string) Stdlib.result =
  match e.ek with
  | Ident n -> (
    match lookup_var env n with
    | Some (ty, quals) ->
      if quals.q_const then Stdlib.Error (Fmt.str "assignment of read-only variable '%s'" n)
      else begin
        match resolve env ty with
        | Tarray _ -> Stdlib.Error (Fmt.str "assignment to array '%s'" n)
        | Tfunc _ -> Stdlib.Error (Fmt.str "assignment to function '%s'" n)
        | _ -> Ok ()
      end
    | None ->
      (* enum constants are rvalues *)
      if Names.mem env.enum_consts n then
        Stdlib.Error (Fmt.str "assignment to enum constant '%s'" n)
      else Ok () (* undeclared: reported elsewhere *))
  | Index _ | Deref _ | Member _ | Arrow _ -> Ok ()
  | Cast (_, inner) ->
    (* cast-as-lvalue is a GNU extension we reject, but see through
       compound-literal-like casts *)
    (match inner.ek with
    | Init_list _ -> Ok () (* compound literal is an lvalue *)
    | _ -> Stdlib.Error "assignment to cast expression")
  | Comma (_, b) -> lvalue_status env b
  | _ -> Stdlib.Error "lvalue required as left operand of assignment"

(* Can a value of type [src] initialise / be assigned to [dst]? *)
let assign_compat env ~dst ~src : [ `Ok | `Warn of string | `Err of string ] =
  let dst = resolve env dst and src = resolve env (decay src) in
  match dst, src with
  | t1, t2 when is_arith_ty t1 && is_arith_ty t2 -> `Ok
  | (Tbool | Tint _), Tptr _ -> `Warn "implicit pointer-to-integer conversion"
  | Tptr _, (Tbool | Tint _) -> `Warn "implicit integer-to-pointer conversion"
  | Tptr Tvoid, Tptr _ | Tptr _, Tptr Tvoid -> `Ok
  | Tptr a, Tptr b ->
    if ty_equal a b then `Ok else `Warn "incompatible pointer types"
  | Tstruct a, Tstruct b | Tunion a, Tunion b ->
    if String.equal a b then `Ok
    else `Err "incompatible struct/union assignment"
  | (Tstruct _ | Tunion _), _ | _, (Tstruct _ | Tunion _) ->
    `Err "invalid conversion involving aggregate type"
  | Tvoid, _ | _, Tvoid -> `Err "void value not ignored as it ought to be"
  | _ -> `Err "incompatible types in assignment"

(* ------------------------------------------------------------------ *)
(* Expression typing                                                   *)
(* ------------------------------------------------------------------ *)

let rec type_expr env (e : expr) : ty =
  let ty = type_expr_kind env e in
  Types.set env.types e.eid ty;
  ty

and type_expr_kind env (e : expr) : ty =
  match e.ek with
  | Int_lit (_, k, u) -> Tint (k, not u)
  | Float_lit (_, d) -> if d then Tdouble else Tfloat
  | Char_lit _ -> Tint (Ichar, true)
  | Str_lit _ -> Tptr (Tint (Ichar, true))
  | Ident n -> (
    match lookup_var env n with
    | Some (ty, _) -> resolve env ty
    | None ->
      if Names.mem env.enum_consts n then Tint (Iint, true)
      else if Names.mem env.funcs n then begin
        let r, ps, v = Names.find env.funcs n in
        Tfunc (r, ps, v)
      end
      else begin
        error env (Fmt.str "'%s' undeclared" n);
        Tint (Iint, true)
      end)
  | Binop (op, a, b) -> (
    let ta = decay (type_expr env a) and tb = decay (type_expr env b) in
    match op with
    | Add | Sub -> (
      match ta, tb with
      | t1, t2 when is_arith_ty t1 && is_arith_ty t2 -> arith_conv t1 t2
      | Tptr t, i when is_integer_ty i -> Tptr t
      | i, Tptr t when is_integer_ty i && op = Add -> Tptr t
      | Tptr _, Tptr _ when op = Sub -> Tint (Ilong, true)
      | _ ->
        error env
          (Fmt.str "invalid operands to binary %s" (Pretty.binop_string op));
        Tint (Iint, true))
    | Mul | Div ->
      if is_arith_ty ta && is_arith_ty tb then arith_conv ta tb
      else begin
        error env
          (Fmt.str "invalid operands to binary %s" (Pretty.binop_string op));
        Tint (Iint, true)
      end
    | Mod | Shl | Shr | Band | Bxor | Bor ->
      if is_integer_ty ta && is_integer_ty tb then arith_conv ta tb
      else begin
        error env
          (Fmt.str "invalid operands to binary %s (need integer types)"
             (Pretty.binop_string op));
        Tint (Iint, true)
      end
    | Lt | Gt | Le | Ge | Eq | Ne ->
      (match ta, tb with
      | t1, t2 when is_arith_ty t1 && is_arith_ty t2 -> ()
      | Tptr _, Tptr _ -> ()
      | Tptr _, i when is_integer_ty i -> warn env "comparison between pointer and integer"
      | i, Tptr _ when is_integer_ty i -> warn env "comparison between pointer and integer"
      | _ -> error env "invalid operands to comparison");
      Tint (Iint, true)
    | Land | Lor ->
      if not (is_scalar_ty ta) || not (is_scalar_ty tb) then
        error env "invalid operands to logical operator";
      Tint (Iint, true))
  | Unop (op, a) -> (
    let ta = decay (type_expr env a) in
    match op with
    | Neg | Uplus ->
      if is_arith_ty ta then
        (match ta with Tint (k, s) when ikind_rank k < 4 -> ignore (k, s); Tint (Iint, true) | t -> t)
      else begin
        error env "wrong type argument to unary minus/plus";
        Tint (Iint, true)
      end
    | Bitnot ->
      if is_integer_ty ta then arith_conv ta (Tint (Iint, true))
      else begin
        error env "wrong type argument to bit-complement";
        Tint (Iint, true)
      end
    | Lognot ->
      if not (is_scalar_ty ta) then
        error env "wrong type argument to unary exclamation mark";
      Tint (Iint, true))
  | Assign (op, lhs, rhs) -> (
    let tl = type_expr env lhs in
    let tr = type_expr env rhs in
    (match lvalue_status env lhs with
    | Ok () -> ()
    | Stdlib.Error msg -> error env msg);
    (match op with
    | A_none -> (
      match assign_compat env ~dst:tl ~src:tr with
      | `Ok -> ()
      | `Warn m -> warn env m
      | `Err m -> error env m)
    | A_mod | A_shl | A_shr | A_band | A_bxor | A_bor ->
      if not (is_integer_ty (decay tl)) || not (is_integer_ty (decay tr)) then
        error env "invalid operands to compound assignment (need integer types)"
    | A_add | A_sub ->
      (match decay tl, decay tr with
      | t1, t2 when is_arith_ty t1 && is_arith_ty t2 -> ()
      | Tptr _, t2 when is_integer_ty t2 -> ()
      | _ -> error env "invalid operands to compound assignment")
    | A_mul | A_div ->
      if not (is_arith_ty (decay tl)) || not (is_arith_ty (decay tr)) then
        error env "invalid operands to compound assignment");
    tl)
  | Incdec (_, _, a) ->
    let ta = type_expr env a in
    (match lvalue_status env a with
    | Ok () -> ()
    | Stdlib.Error msg -> error env msg);
    if not (is_scalar_ty (decay ta)) then
      error env "wrong type argument to increment/decrement";
    ta
  | Call (f, args) -> (
    let targs = List.map (fun a -> decay (type_expr env a)) args in
    match f.ek with
    | Ident name -> (
      let sigs =
        match Names.find_opt env.funcs name with
        | Some s -> Some s
        | None -> List.assoc_opt name builtins
      in
      match sigs with
      | Some (ret, params, variadic) ->
        Types.set env.types f.eid (Tfunc (ret, params, variadic));
        let np = List.length params and na = List.length targs in
        if na < np then
          error env (Fmt.str "too few arguments to function '%s'" name)
        else if na > np && not variadic then
          error env (Fmt.str "too many arguments to function '%s'" name)
        else
          List.iteri
            (fun i p ->
              match List.nth_opt targs i with
              | Some a -> (
                match assign_compat env ~dst:p ~src:a with
                | `Ok -> ()
                | `Warn m ->
                  warn env (Fmt.str "%s in argument %d of '%s'" m (i + 1) name)
                | `Err m ->
                  error env (Fmt.str "%s in argument %d of '%s'" m (i + 1) name))
              | None -> ())
            params;
        resolve env ret
      | None -> (
        (* calling a variable of function pointer type is unsupported *)
        match lookup_var env name with
        | Some _ ->
          error env (Fmt.str "called object '%s' is not a function" name);
          Tint (Iint, true)
        | None ->
          error env (Fmt.str "implicit declaration of function '%s'" name);
          Tint (Iint, true)))
    | _ ->
      ignore (type_expr env f);
      error env "called object is not a function";
      Tint (Iint, true))
  | Index (a, i) -> (
    let ta = decay (type_expr env a) and ti = decay (type_expr env i) in
    match ta, ti with
    | Tptr t, i' when is_integer_ty i' -> resolve env t
    | i', Tptr t when is_integer_ty i' -> resolve env t
    | _ ->
      error env "subscripted value is neither array nor pointer";
      Tint (Iint, true))
  | Member (a, fld) -> (
    let ta = type_expr env a in
    match fields_of env ta with
    | Some fields -> (
      match List.find_opt (fun f -> String.equal f.fld_name fld) fields with
      | Some f -> resolve env f.fld_ty
      | None ->
        error env (Fmt.str "no member named '%s'" fld);
        Tint (Iint, true))
    | None ->
      error env "request for member in something not a structure or union";
      Tint (Iint, true))
  | Arrow (a, fld) -> (
    let ta = decay (type_expr env a) in
    match ta with
    | Tptr inner -> (
      match fields_of env inner with
      | Some fields -> (
        match List.find_opt (fun f -> String.equal f.fld_name fld) fields with
        | Some f -> resolve env f.fld_ty
        | None ->
          error env (Fmt.str "no member named '%s'" fld);
          Tint (Iint, true))
      | None ->
        error env "arrow applied to non-struct pointer";
        Tint (Iint, true))
    | _ ->
      error env "invalid type argument of '->'";
      Tint (Iint, true))
  | Deref a -> (
    let ta = decay (type_expr env a) in
    match ta with
    | Tptr Tvoid ->
      error env "dereferencing 'void *' pointer";
      Tint (Iint, true)
    | Tptr t -> resolve env t
    | _ ->
      error env "invalid type argument of unary '*'";
      Tint (Iint, true))
  | Addrof a -> (
    let ta = type_expr env a in
    match a.ek with
    | Ident _ | Index _ | Member _ | Arrow _ | Deref _ -> Tptr ta
    | _ ->
      error env "lvalue required as unary '&' operand";
      Tptr ta)
  | Cast (ty, a) -> (
    let ty = resolve env ty in
    match a.ek with
    | Init_list items ->
      (* compound literal *)
      check_init_list env ty items;
      ty
    | _ -> (
      let ta = decay (type_expr env a) in
      match ty, ta with
      | t1, t2 when is_scalar_ty t1 && is_scalar_ty t2 -> ty
      | Tvoid, _ -> Tvoid
      | (Tstruct _ | Tunion _), _ ->
        error env "conversion to non-scalar type requested";
        ty
      | _, (Tstruct _ | Tunion _) ->
        error env "aggregate value used where a scalar was expected";
        ty
      | _ -> ty))
  | Cond (c, t, f) ->
    let tc = decay (type_expr env c) in
    if not (is_scalar_ty tc) then
      error env "used aggregate type value where scalar is required";
    let tt = decay (type_expr env t) and tf = decay (type_expr env f) in
    if is_arith_ty tt && is_arith_ty tf then arith_conv tt tf
    else if ty_equal tt tf then tt
    else begin
      (match tt, tf with
      | Tptr _, Tptr _ -> warn env "pointer type mismatch in conditional expression"
      | Tptr _, i when is_integer_ty i ->
        warn env "pointer/integer type mismatch in conditional expression"
      | i, Tptr _ when is_integer_ty i ->
        warn env "pointer/integer type mismatch in conditional expression"
      | _ -> error env "type mismatch in conditional expression");
      tt
    end
  | Comma (a, b) ->
    ignore (type_expr env a);
    type_expr env b
  | Sizeof_expr a ->
    ignore (type_expr env a);
    Tint (Ilong, false)
  | Sizeof_ty t ->
    ignore (resolve env t);
    Tint (Ilong, false)
  | Init_list items ->
    (* bare initializer list outside an initializer *)
    List.iter (fun e -> ignore (type_expr env e)) items;
    error env "braced initializer used outside initialization";
    Tint (Iint, true)

and check_init_list env ty items =
  let ty = resolve env ty in
  match ty with
  | Tarray (elt, n) ->
    (match n with
    | Some n when List.length items > n ->
      warn env "excess elements in array initializer"
    | _ -> ());
    List.iter
      (fun item ->
        match item.ek with
        | Init_list inner -> check_init_list env elt inner
        | _ -> check_scalar_init env elt item)
      items
  | Tstruct tag -> (
    match Names.find_opt env.structs tag with
    | Some fields ->
      if List.length items > List.length fields then
        warn env "excess elements in struct initializer";
      List.iteri
        (fun i item ->
          match List.nth_opt fields i with
          | Some f -> (
            match item.ek with
            | Init_list inner -> check_init_list env f.fld_ty inner
            | _ -> check_scalar_init env f.fld_ty item)
          | None -> ignore (type_expr env item))
        items
    | None -> error env (Fmt.str "initializer for incomplete type 'struct %s'" tag))
  | Tunion tag -> (
    match Names.find_opt env.unions tag with
    | Some (f :: _) -> (
      match items with
      | [ item ] -> check_scalar_init env f.fld_ty item
      | _ -> warn env "union initializer should have a single element")
    | Some [] -> ()
    | None -> error env (Fmt.str "initializer for incomplete type 'union %s'" tag))
  | scalar -> (
    (* brace-enclosed scalar initializer *)
    match items with
    | [ item ] -> check_scalar_init env scalar item
    | [] -> error env "empty scalar initializer"
    | _ -> error env "excess elements in scalar initializer")

and check_scalar_init env ty item =
  match item.ek with
  | Init_list inner ->
    if is_scalar_ty (resolve env ty) then begin
      match inner with
      | [] -> error env "empty scalar initializer"
      | [ single ] -> check_scalar_init env ty single
      | _ -> error env "excess elements in scalar initializer"
    end
    else check_init_list env ty inner
  | _ -> (
    let ti = type_expr env item in
    match assign_compat env ~dst:ty ~src:ti with
    | `Ok -> ()
    | `Warn m -> warn env (m ^ " in initialization")
    | `Err m -> error env (m ^ " in initialization"))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let check_var_decl env (v : var_decl) =
  let ty = resolve env v.v_ty in
  (match ty with
  | Tvoid -> error env (Fmt.str "variable '%s' declared void" v.v_name)
  | Tarray (_, Some n) when n <= 0 ->
    error env (Fmt.str "array '%s' has non-positive size" v.v_name)
  | Tstruct tag when not (Names.mem env.structs tag) ->
    error env (Fmt.str "storage of unknown struct '%s'" tag)
  | Tunion tag when not (Names.mem env.unions tag) ->
    error env (Fmt.str "storage of unknown union '%s'" tag)
  | _ -> ());
  (match v.v_init with
  | Some init -> (
    match init.ek with
    | Init_list items ->
      Types.set env.types init.eid ty;
      check_init_list env ty items
    | _ -> check_scalar_init env ty init)
  | None -> ());
  declare_local env v.v_name v.v_ty v.v_quals

let rec check_stmt env (s : stmt) =
  match s.sk with
  | Sexpr e -> ignore (type_expr env e)
  | Sdecl vs -> List.iter (check_var_decl env) vs
  | Sif (c, t, f) ->
    let tc = decay (type_expr env c) in
    if not (is_scalar_ty tc) then
      error env "used aggregate type where scalar is required in if condition";
    check_stmt env t;
    Option.iter (check_stmt env) f
  | Swhile (c, b) ->
    let tc = decay (type_expr env c) in
    if not (is_scalar_ty tc) then
      error env "used aggregate type where scalar is required in loop condition";
    env.loop_depth <- env.loop_depth + 1;
    check_stmt env b;
    env.loop_depth <- env.loop_depth - 1
  | Sdo (b, c) ->
    env.loop_depth <- env.loop_depth + 1;
    check_stmt env b;
    env.loop_depth <- env.loop_depth - 1;
    let tc = decay (type_expr env c) in
    if not (is_scalar_ty tc) then
      error env "used aggregate type where scalar is required in loop condition"
  | Sfor (init, cond, step, b) ->
    push_scope env;
    (match init with
    | Some (Fi_expr e) -> ignore (type_expr env e)
    | Some (Fi_decl vs) -> List.iter (check_var_decl env) vs
    | None -> ());
    Option.iter (fun c -> ignore (type_expr env c)) cond;
    Option.iter (fun st -> ignore (type_expr env st)) step;
    env.loop_depth <- env.loop_depth + 1;
    check_stmt env b;
    env.loop_depth <- env.loop_depth - 1;
    pop_scope env
  | Sreturn e -> (
    match env.cur_func with
    | Some fd -> (
      match e, resolve env fd.f_ret with
      | None, Tvoid -> ()
      | None, _ ->
        warn env
          (Fmt.str "'return' with no value, in function '%s' returning non-void"
             fd.f_name)
      | Some e, Tvoid ->
        ignore (type_expr env e);
        error env
          (Fmt.str "'return' with a value, in function '%s' returning void"
             fd.f_name)
      | Some e, ret -> (
        let te = type_expr env e in
        match assign_compat env ~dst:ret ~src:te with
        | `Ok -> ()
        | `Warn m -> warn env (m ^ " in return")
        | `Err m -> error env (m ^ " in return")))
    | None -> ())
  | Sbreak ->
    if env.loop_depth = 0 && env.switch_depth = 0 then
      error env "break statement not within loop or switch"
  | Scontinue ->
    if env.loop_depth = 0 then
      error env "continue statement not within a loop"
  | Sblock ss ->
    push_scope env;
    List.iter (check_stmt env) ss;
    pop_scope env
  | Sswitch (e, cases) ->
    let te = decay (type_expr env e) in
    if not (is_integer_ty te) then
      error env "switch quantity not an integer";
    env.switch_depth <- env.switch_depth + 1;
    let defaults = ref 0 in
    let seen_values = Hashtbl.create 8 in
    List.iter
      (fun c ->
        List.iter
          (function
            | L_case ce -> (
              let tc = decay (type_expr env ce) in
              if not (is_integer_ty tc) then
                error env "case label does not reduce to an integer constant";
              match Const_eval.eval_int ce with
              | Some v ->
                if Hashtbl.mem seen_values v then
                  error env (Fmt.str "duplicate case value %Ld" v)
                else Hashtbl.replace seen_values v ()
              | None ->
                if not (Const_eval.is_constant_expr ce) then
                  error env "case label does not reduce to an integer constant")
            | L_default ->
              incr defaults;
              if !defaults > 1 then
                error env "multiple default labels in one switch")
          c.case_labels;
        push_scope env;
        List.iter (check_stmt env) c.case_body;
        pop_scope env)
      cases;
    env.switch_depth <- env.switch_depth - 1
  | Sgoto l -> env.gotos <- l :: env.gotos
  | Slabel (l, inner) ->
    if Names.mem env.labels l then
      error env (Fmt.str "duplicate label '%s'" l)
    else Names.replace env.labels l ();
    check_stmt env inner
  | Snull -> ()

let check_function env (fd : fundef) =
  env.cur_func <- Some fd;
  env.labels <- Names.create 8;
  env.gotos <- [];
  env.loop_depth <- 0;
  env.switch_depth <- 0;
  push_scope env;
  List.iter
    (fun p ->
      if p.p_name = "" then warn env "unnamed function parameter"
      else declare_local env p.p_name p.p_ty no_quals)
    fd.f_params;
  List.iter (check_stmt env) fd.f_body;
  List.iter
    (fun l ->
      if not (Names.mem env.labels l) then
        error env (Fmt.str "label '%s' used but not defined" l))
    env.gotos;
  pop_scope env;
  env.cur_func <- None

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let check ?types (tu : tu) : result =
  (* [types] lets the compile hot path recycle one grown table across
     compiles (the caller must be done with the previous result's
     [r_types] — it is cleared here, not copied). *)
  let types =
    match types with
    | Some t ->
      Types.clear t;
      t
    | None -> Types.create 256
  in
  let env =
    {
      structs = Names.create 8;
      unions = Names.create 8;
      typedefs = Names.create 8;
      enum_consts = Names.create 8;
      funcs = Names.create 16;
      globals = Names.create 16;
      vars = Names.Scoped.create 64;
      types;
      diags = [];
      cur_func = None;
      loop_depth = 0;
      switch_depth = 0;
      labels = Names.create 8;
      gotos = [];
    }
  in
  List.iter (fun (n, s) -> Names.replace env.funcs n s) builtins;
  (* first pass: collect type and function declarations *)
  List.iter
    (function
      | Gstruct (tag, fields) -> Names.replace env.structs tag fields
      | Gunion (tag, fields) -> Names.replace env.unions tag fields
      | Gtypedef (name, ty) -> Names.replace env.typedefs name ty
      | Genum (_, items) ->
        let next = ref 0L in
        List.iter
          (fun (n, v) ->
            let v = match v with Some v -> v | None -> !next in
            Names.replace env.enum_consts n v;
            next := Int64.add v 1L)
          items
      | Gproto p ->
        Names.replace env.funcs p.pr_name (p.pr_ret, p.pr_params, p.pr_variadic)
      | Gfun fd ->
        Names.replace env.funcs fd.f_name
          (fd.f_ret, List.map (fun p -> p.p_ty) fd.f_params, fd.f_variadic)
      | Gvar v -> Names.replace env.globals v.v_name (v.v_ty, v.v_quals))
    tu.globals;
  (* detect duplicate function bodies *)
  let bodies = Names.create 16 in
  List.iter
    (function
      | Gfun fd ->
        if Names.mem bodies fd.f_name then
          error env (Fmt.str "redefinition of function '%s'" fd.f_name)
        else Names.replace bodies fd.f_name ()
      | _ -> ())
    tu.globals;
  (* second pass: check global initializers and function bodies *)
  List.iter
    (function
      | Gvar v ->
        (match resolve env v.v_ty with
        | Tvoid -> error env (Fmt.str "variable '%s' declared void" v.v_name)
        | _ -> ());
        (match v.v_init with
        | Some init -> (
          push_scope env;
          (match init.ek with
          | Init_list items ->
            Types.set env.types init.eid (resolve env v.v_ty);
            check_init_list env (resolve env v.v_ty) items
          | _ ->
            check_scalar_init env (resolve env v.v_ty) init;
            if not (Const_eval.is_constant_expr init) then
              error env
                (Fmt.str "initializer element for '%s' is not constant" v.v_name));
          pop_scope env)
        | None -> ())
      | Gfun fd -> check_function env fd
      | Gstruct (_, fields) | Gunion (_, fields) ->
        List.iter
          (fun f ->
            match resolve env f.fld_ty with
            | Tvoid -> error env (Fmt.str "field '%s' declared void" f.fld_name)
            | _ -> ())
          fields
      | Gtypedef _ | Genum _ | Gproto _ -> ())
    tu.globals;
  let diags = List.rev env.diags in
  {
    r_diags = diags;
    r_types = env.types;
    r_ok = not (List.exists (fun d -> d.sev = Error) diags);
  }

let errors r = List.filter (fun d -> d.sev = Error) r.r_diags
let warnings r = List.filter (fun d -> d.sev = Warning) r.r_diags

let diag_to_string d =
  Fmt.str "%s: %s%s"
    (match d.sev with Error -> "error" | Warning -> "warning")
    d.msg
    (match d.in_func with Some f -> Fmt.str " [in '%s']" f | None -> "")

(* Convenience: does this source compile? *)
let compiles_src (src : string) : bool =
  match Parser.parse src with
  | Ok tu -> (check tu).r_ok
  | Error _ -> false
