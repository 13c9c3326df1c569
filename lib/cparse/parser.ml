(* Recursive-descent parser for the C subset.

   Typedef names are tracked in parser state so that `T x;` is recognised
   as a declaration once `typedef ... T;` has been seen.  Enum constants
   are parsed but their resolution to integer values is the type checker's
   job. *)

open Ast

exception Error of string * Loc.t

(* [tok] is token [idx] of [toks], materialized once per [advance]: the
   grammar inspects the current token many times.  [last] is the index
   of the final [Eof].  [next_id] is the last node id handed out: every
   node takes the next one as it is built, children before parents, left
   to right, which is the order [Ast_ids.renumber] numbers in. *)
type state = {
  toks : Lexer.tokens;
  last : int;
  mutable idx : int;
  mutable tok : Token.t;
  typedefs : unit Names.t;
  mutable next_id : int;
}

let fresh_id st =
  st.next_id <- st.next_id + 1;
  st.next_id

let mk_expr st ek = { eid = fresh_id st; ek }
let mk_stmt st sk = { sid = fresh_id st; sk }

let cur st = st.tok
let cur_loc st = Lexer.loc st.toks st.idx

let peek_ahead st n =
  let i = st.idx + n in
  if i <= st.last then Lexer.token st.toks i else Token.Eof

let advance st =
  if st.idx < st.last then begin
    st.idx <- st.idx + 1;
    st.tok <- Lexer.token st.toks st.idx
  end

let error st msg = raise (Error (msg, cur_loc st))

(* Is the current token [tok]?  [Token.equal], not the polymorphic [=]:
   the grammar asks this at nearly every step. *)
let is st tok = Token.equal st.tok tok

let expect st tok =
  if is st tok then advance st
  else
    error st
      (Fmt.str "expected %s but found %s" (Token.to_string tok)
         (Token.to_string (cur st)))

let accept st tok = if is st tok then (advance st; true) else false

let expect_ident st =
  match cur st with
  | Token.Ident s -> advance st; s
  | t -> error st (Fmt.str "expected identifier, found %s" (Token.to_string t))

(* ------------------------------------------------------------------ *)
(* Declaration specifiers                                              *)
(* ------------------------------------------------------------------ *)

let is_typedef_name st s = Names.mem st.typedefs s

(* Does the current token start a declaration? *)
let starts_decl st =
  match cur st with
  | Token.Kw
      ( Kvoid | Kchar | Kshort | Kint | Klong | Kfloat | Kdouble | Ksigned
      | Kunsigned | Kbool | Kconst | Kvolatile | Kstatic | Kextern | Kinline
      | Kregister | Kstruct | Kunion | Kenum | Ktypedef ) ->
    true
  | Token.Ident s -> is_typedef_name st s
  | _ -> false

type specs = {
  sp_ty : ty;
  sp_quals : quals;
  sp_storage : storage;
  sp_typedef : bool;
  sp_inline : bool;
  sp_newtags : global list; (* inline struct/union/enum definitions *)
}

(* Parse declaration specifiers: type keywords in any order, plus
   qualifiers and storage classes. *)
let rec parse_specs st : specs =
  let base = ref None in
  let signedness = ref None in
  let longs = ref 0 in
  let short = ref false in
  let quals = ref no_quals in
  let storage = ref S_none in
  let is_typedef = ref false in
  let inline = ref false in
  let newtags = ref [] in
  let parse_tag_body_fields () =
    (* struct/union member list *)
    let fields = ref [] in
    expect st Token.Lbrace;
    while not (is st Token.Rbrace) do
      let fspecs = parse_specs_aux st in
      let rec members () =
        let fld_ty, fld_name = parse_declarator st fspecs.sp_ty in
        fields := { fld_name; fld_ty } :: !fields;
        if accept st Token.Comma then members ()
      in
      members ();
      expect st Token.Semi
    done;
    expect st Token.Rbrace;
    List.rev !fields
  in
  let fresh_tag =
    let n = ref 0 in
    fun () -> incr n; Fmt.str "__anon_tag_%d_%d" st.idx !n
  in
  let rec go () =
    match cur st with
    | Token.Kw Kvoid -> advance st; base := Some Tvoid; go ()
    | Token.Kw Kchar -> advance st; base := Some (Tint (Ichar, true)); go ()
    | Token.Kw Kshort -> advance st; short := true; go ()
    | Token.Kw Kint -> advance st;
      if !base = None then base := Some (Tint (Iint, true));
      go ()
    | Token.Kw Klong -> advance st; incr longs; go ()
    | Token.Kw Kfloat -> advance st; base := Some Tfloat; go ()
    | Token.Kw Kdouble -> advance st; base := Some Tdouble; go ()
    | Token.Kw Kbool -> advance st; base := Some Tbool; go ()
    | Token.Kw Ksigned -> advance st; signedness := Some true; go ()
    | Token.Kw Kunsigned -> advance st; signedness := Some false; go ()
    | Token.Kw Kconst -> advance st; quals := { !quals with q_const = true }; go ()
    | Token.Kw Kvolatile ->
      advance st; quals := { !quals with q_volatile = true }; go ()
    | Token.Kw Kstatic -> advance st; storage := S_static; go ()
    | Token.Kw Kextern -> advance st; storage := S_extern; go ()
    | Token.Kw Kregister -> advance st; storage := S_register; go ()
    | Token.Kw Kinline -> advance st; inline := true; go ()
    | Token.Kw Ktypedef -> advance st; is_typedef := true; go ()
    | Token.Kw Kstruct | Token.Kw Kunion ->
      let is_struct = is st (Token.Kw Kstruct) in
      advance st;
      let tag =
        match cur st with
        | Token.Ident s -> advance st; s
        | _ -> fresh_tag ()
      in
      if is st Token.Lbrace then begin
        let fields = parse_tag_body_fields () in
        newtags :=
          (if is_struct then Gstruct (tag, fields) else Gunion (tag, fields))
          :: !newtags
      end;
      base := Some (if is_struct then Tstruct tag else Tunion tag);
      go ()
    | Token.Kw Kenum ->
      advance st;
      let tag =
        match cur st with
        | Token.Ident s -> advance st; s
        | _ -> fresh_tag ()
      in
      if is st Token.Lbrace then begin
        advance st;
        let items = ref [] in
        let rec enum_items () =
          match cur st with
          | Token.Rbrace -> ()
          | _ ->
            let name = expect_ident st in
            let value =
              if accept st Token.Eq then
                match cur st with
                | Token.Int_lit (v, _, _) -> advance st; Some v
                | Token.Minus ->
                  advance st;
                  (match cur st with
                  | Token.Int_lit (v, _, _) -> advance st; Some (Int64.neg v)
                  | _ -> error st "expected integer in enum")
                | _ -> error st "expected integer in enum"
              else None
            in
            items := (name, value) :: !items;
            if accept st Token.Comma then enum_items ()
        in
        enum_items ();
        expect st Token.Rbrace;
        newtags := Genum (tag, List.rev !items) :: !newtags
      end;
      (* enums are just ints in this subset *)
      base := Some (Tint (Iint, true));
      go ()
    | Token.Ident s when is_typedef_name st s && !base = None && !longs = 0
                         && not !short && !signedness = None ->
      advance st;
      base := Some (Tnamed s);
      go ()
    | _ -> ()
  in
  go ();
  let ty =
    let signed = match !signedness with Some s -> s | None -> true in
    match !base, !longs, !short with
    | Some Tvoid, _, _ -> Tvoid
    | Some Tfloat, _, _ -> Tfloat
    | Some Tdouble, 0, _ -> Tdouble
    | Some Tdouble, _, _ -> Tdouble (* long double ~ double *)
    | Some Tbool, _, _ -> Tbool
    | Some (Tint (Ichar, _)), _, _ -> Tint (Ichar, signed)
    | (Some (Tint (Iint, _)) | None), 0, true -> Tint (Ishort, signed)
    | (Some (Tint (Iint, _)) | None), 0, false ->
      if !signedness = None && !base = None then
        (* bare qualifiers without type default to int (K&R style) *)
        Tint (Iint, true)
      else Tint (Iint, signed)
    | (Some (Tint (Iint, _)) | None), 1, _ -> Tint (Ilong, signed)
    | (Some (Tint (Iint, _)) | None), _, _ -> Tint (Ilonglong, signed)
    | Some t, _, _ -> t
  in
  {
    sp_ty = ty;
    sp_quals = !quals;
    sp_storage = !storage;
    sp_typedef = !is_typedef;
    sp_inline = !inline;
    sp_newtags = List.rev !newtags;
  }

and parse_specs_aux st = parse_specs st

(* ------------------------------------------------------------------ *)
(* Declarators                                                         *)
(* ------------------------------------------------------------------ *)

(* Parse a declarator given the base type; returns (type, name).
   Supported: pointers, arrays, and (for top-level) function declarators
   handled by the caller.  Abstract declarators (no name) are allowed for
   casts and parameters. *)
and parse_declarator st base : ty * string =
  let rec pointers ty =
    if accept st Token.Star then begin
      (* qualifiers after * are parsed and dropped (e.g. int *const p) *)
      while
        (match cur st with
        | Token.Kw Kconst | Token.Kw Kvolatile -> advance st; true
        | _ -> false)
      do
        ()
      done;
      pointers (Tptr ty)
    end
    else ty
  in
  let ty = pointers base in
  let name = match cur st with Token.Ident s -> advance st; s | _ -> "" in
  (* array suffixes; inner-most dimension is parsed first syntactically *)
  let rec arrays () =
    if accept st Token.Lbracket then begin
      let n =
        match cur st with
        | Token.Int_lit (v, _, _) -> advance st; Some (Int64.to_int v)
        | Token.Rbracket -> None
        | _ ->
          (* non-constant dimensions degrade to unsized arrays *)
          let depth = ref 0 in
          while
            (match cur st with
            | Token.Rbracket when !depth = 0 -> false
            | Token.Eof -> false
            | Token.Lbracket -> incr depth; advance st; true
            | Token.Rbracket -> decr depth; advance st; true
            | _ -> advance st; true)
          do
            ()
          done;
          None
      in
      expect st Token.Rbracket;
      let rest = arrays () in
      fun t -> Tarray (rest t, n)
    end
    else fun t -> t
  in
  let arr = arrays () in
  (arr ty, name)

(* ------------------------------------------------------------------ *)
(* Type names (for casts and sizeof)                                   *)
(* ------------------------------------------------------------------ *)

and parse_type_name st : ty =
  let specs = parse_specs st in
  let ty, _name = parse_declarator st specs.sp_ty in
  ty

(* Is the parenthesised thing at the current `(` a type name?  Assumes the
   current token is Lparen. *)
and paren_is_type st =
  match peek_ahead st 1 with
  | Token.Kw
      ( Kvoid | Kchar | Kshort | Kint | Klong | Kfloat | Kdouble | Ksigned
      | Kunsigned | Kbool | Kconst | Kvolatile | Kstruct | Kunion | Kenum ) ->
    true
  | Token.Ident s -> is_typedef_name st s
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                   *)
(* ------------------------------------------------------------------ *)

and parse_primary st : expr =
  match cur st with
  | Token.Int_lit (v, k, u) -> advance st; mk_expr st (Int_lit (v, k, u))
  | Token.Float_lit (v, d) -> advance st; mk_expr st (Float_lit (v, d))
  | Token.Char_lit c -> advance st; mk_expr st (Char_lit c)
  | Token.Str_lit s ->
    advance st;
    (* adjacent string literals concatenate *)
    let buf = Buffer.create (String.length s) in
    Buffer.add_string buf s;
    let rec more () =
      match cur st with
      | Token.Str_lit s2 -> advance st; Buffer.add_string buf s2; more ()
      | _ -> ()
    in
    more ();
    mk_expr st (Str_lit (Buffer.contents buf))
  | Token.Ident s -> advance st; mk_expr st (Ident s)
  | Token.Lparen ->
    advance st;
    let e = parse_expr st in
    expect st Token.Rparen;
    e
  | Token.Lbrace ->
    (* initializer list in expression position: compound literal body *)
    advance st;
    let items = ref [] in
    let rec go () =
      if not (is st Token.Rbrace) then begin
        items := parse_assignment st :: !items;
        if accept st Token.Comma then go ()
      end
    in
    go ();
    expect st Token.Rbrace;
    mk_expr st (Init_list (List.rev !items))
  | t -> error st (Fmt.str "unexpected token %s in expression" (Token.to_string t))

and parse_postfix st : expr =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match cur st with
    | Token.Lparen ->
      advance st;
      let args = ref [] in
      if not (is st Token.Rparen) then begin
        let rec go () =
          args := parse_assignment st :: !args;
          if accept st Token.Comma then go ()
        in
        go ()
      end;
      expect st Token.Rparen;
      e := mk_expr st (Call (!e, List.rev !args))
    | Token.Lbracket ->
      advance st;
      let i = parse_expr st in
      expect st Token.Rbracket;
      e := mk_expr st (Index (!e, i))
    | Token.Dot ->
      advance st;
      let n = expect_ident st in
      e := mk_expr st (Member (!e, n))
    | Token.Arrow ->
      advance st;
      let n = expect_ident st in
      e := mk_expr st (Arrow (!e, n))
    | Token.PlusPlus -> advance st; e := mk_expr st (Incdec (true, false, !e))
    | Token.MinusMinus -> advance st; e := mk_expr st (Incdec (false, false, !e))
    | _ -> continue_ := false
  done;
  !e

and parse_unary st : expr =
  match cur st with
  | Token.PlusPlus ->
    advance st;
    mk_expr st (Incdec (true, true, parse_unary st))
  | Token.MinusMinus ->
    advance st;
    mk_expr st (Incdec (false, true, parse_unary st))
  | Token.Plus -> advance st; mk_expr st (Unop (Uplus, parse_cast st))
  | Token.Minus -> (
    advance st;
    (* canonicalise negated literals so printing round-trips; the folded
       literal is one node, so it keeps its operand's id *)
    match parse_cast st with
    | { ek = Int_lit (v, k, u); eid } -> { eid; ek = Int_lit (Int64.neg v, k, u) }
    | { ek = Float_lit (v, d); eid } -> { eid; ek = Float_lit (-.v, d) }
    | e -> mk_expr st (Unop (Neg, e)))
  | Token.Bang -> advance st; mk_expr st (Unop (Lognot, parse_cast st))
  | Token.Tilde -> advance st; mk_expr st (Unop (Bitnot, parse_cast st))
  | Token.Star -> advance st; mk_expr st (Deref (parse_cast st))
  | Token.Amp -> advance st; mk_expr st (Addrof (parse_cast st))
  | Token.Kw Ksizeof ->
    advance st;
    if is st Token.Lparen && paren_is_type st then begin
      advance st;
      let ty = parse_type_name st in
      expect st Token.Rparen;
      mk_expr st (Sizeof_ty ty)
    end
    else mk_expr st (Sizeof_expr (parse_unary st))
  | _ -> parse_postfix st

and parse_cast st : expr =
  if is st Token.Lparen && paren_is_type st then begin
    advance st;
    let ty = parse_type_name st in
    expect st Token.Rparen;
    (* compound literal: (T){...} is treated as a cast of an init list *)
    mk_expr st (Cast (ty, parse_cast st))
  end
  else parse_unary st

and binop_of_token = function
  | Token.Star -> Some (Mul, 10)
  | Token.Slash -> Some (Div, 10)
  | Token.Percent -> Some (Mod, 10)
  | Token.Plus -> Some (Add, 9)
  | Token.Minus -> Some (Sub, 9)
  | Token.Shl -> Some (Shl, 8)
  | Token.Shr -> Some (Shr, 8)
  | Token.Lt -> Some (Lt, 7)
  | Token.Gt -> Some (Gt, 7)
  | Token.Le -> Some (Le, 7)
  | Token.Ge -> Some (Ge, 7)
  | Token.EqEq -> Some (Eq, 6)
  | Token.BangEq -> Some (Ne, 6)
  | Token.Amp -> Some (Band, 5)
  | Token.Caret -> Some (Bxor, 4)
  | Token.Pipe -> Some (Bor, 3)
  | Token.AmpAmp -> Some (Land, 2)
  | Token.PipePipe -> Some (Lor, 1)
  | _ -> None

and parse_binary st min_prec : expr =
  let lhs = ref (parse_cast st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (cur st) with
    | Some (op, prec) when prec >= min_prec ->
      advance st;
      let rhs = parse_binary st (prec + 1) in
      lhs := mk_expr st (Binop (op, !lhs, rhs))
    | _ -> continue_ := false
  done;
  !lhs

and parse_conditional st : expr =
  let c = parse_binary st 1 in
  if accept st Token.Question then begin
    let t = parse_expr st in
    expect st Token.Colon;
    let f = parse_conditional st in
    mk_expr st (Cond (c, t, f))
  end
  else c

and assign_op_of_token = function
  | Token.Eq -> Some A_none
  | Token.PlusEq -> Some A_add
  | Token.MinusEq -> Some A_sub
  | Token.StarEq -> Some A_mul
  | Token.SlashEq -> Some A_div
  | Token.PercentEq -> Some A_mod
  | Token.ShlEq -> Some A_shl
  | Token.ShrEq -> Some A_shr
  | Token.AmpEq -> Some A_band
  | Token.CaretEq -> Some A_bxor
  | Token.PipeEq -> Some A_bor
  | _ -> None

and parse_assignment st : expr =
  let lhs = parse_conditional st in
  match assign_op_of_token (cur st) with
  | Some op ->
    advance st;
    let rhs = parse_assignment st in
    mk_expr st (Assign (op, lhs, rhs))
  | None -> lhs

and parse_expr st : expr =
  let e = parse_assignment st in
  if accept st Token.Comma then begin
    let rest = parse_expr st in
    mk_expr st (Comma (e, rest))
  end
  else e

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and parse_initializer st : expr =
  if is st Token.Lbrace then begin
    advance st;
    let items = ref [] in
    let rec go () =
      if not (is st Token.Rbrace) then begin
        items := parse_initializer st :: !items;
        if accept st Token.Comma then go ()
      end
    in
    go ();
    expect st Token.Rbrace;
    mk_expr st (Init_list (List.rev !items))
  end
  else parse_assignment st

(* The [= initializer] of a declarator, if any.  A typedef's initializer
   is parsed and dropped, and its nodes give their ids back, so the ids
   stay 1..N. *)
and parse_decl_init st specs : expr option =
  if not (accept st Token.Eq) then None
  else if specs.sp_typedef then begin
    let id = st.next_id in
    ignore (parse_initializer st : expr);
    st.next_id <- id;
    None
  end
  else Some (parse_initializer st)

and parse_local_decls st : var_decl list =
  let specs = parse_specs st in
  if specs.sp_newtags <> [] then
    (* local struct definitions are not supported; keep the base type *)
    ();
  let decls = ref [] in
  let rec go () =
    let ty, name = parse_declarator st specs.sp_ty in
    let init = parse_decl_init st specs in
    decls :=
      {
        v_name = name;
        v_ty = ty;
        v_quals = specs.sp_quals;
        v_storage = specs.sp_storage;
        v_init = init;
      }
      :: !decls;
    if accept st Token.Comma then go ()
  in
  go ();
  expect st Token.Semi;
  if specs.sp_typedef then begin
    List.iter (fun v -> Names.replace st.typedefs v.v_name ()) !decls;
    []
  end
  else List.rev !decls

and parse_stmt st : stmt =
  match cur st with
  | Token.Semi -> advance st; mk_stmt st Snull
  | Token.Lbrace ->
    advance st;
    let ss = ref [] in
    while not (is st Token.Rbrace) do
      ss := parse_stmt st :: !ss
    done;
    expect st Token.Rbrace;
    mk_stmt st (Sblock (List.rev !ss))
  | Token.Kw Kif ->
    advance st;
    expect st Token.Lparen;
    let c = parse_expr st in
    expect st Token.Rparen;
    let t = parse_stmt st in
    let f = if accept st (Token.Kw Kelse) then Some (parse_stmt st) else None in
    mk_stmt st (Sif (c, t, f))
  | Token.Kw Kwhile ->
    advance st;
    expect st Token.Lparen;
    let c = parse_expr st in
    expect st Token.Rparen;
    mk_stmt st (Swhile (c, parse_stmt st))
  | Token.Kw Kdo ->
    advance st;
    let b = parse_stmt st in
    expect st (Token.Kw Kwhile);
    expect st Token.Lparen;
    let c = parse_expr st in
    expect st Token.Rparen;
    expect st Token.Semi;
    mk_stmt st (Sdo (b, c))
  | Token.Kw Kfor ->
    advance st;
    expect st Token.Lparen;
    let init =
      if is st Token.Semi then (advance st; None)
      else if starts_decl st then Some (Fi_decl (parse_local_decls st))
      else begin
        let e = parse_expr st in
        expect st Token.Semi;
        Some (Fi_expr e)
      end
    in
    let cond =
      if is st Token.Semi then None else Some (parse_expr st)
    in
    expect st Token.Semi;
    let step = if is st Token.Rparen then None else Some (parse_expr st) in
    expect st Token.Rparen;
    mk_stmt st (Sfor (init, cond, step, parse_stmt st))
  | Token.Kw Kreturn ->
    advance st;
    let e = if is st Token.Semi then None else Some (parse_expr st) in
    expect st Token.Semi;
    mk_stmt st (Sreturn e)
  | Token.Kw Kbreak -> advance st; expect st Token.Semi; mk_stmt st Sbreak
  | Token.Kw Kcontinue -> advance st; expect st Token.Semi; mk_stmt st Scontinue
  | Token.Kw Kgoto ->
    advance st;
    let l = expect_ident st in
    expect st Token.Semi;
    mk_stmt st (Sgoto l)
  | Token.Kw Kswitch ->
    advance st;
    expect st Token.Lparen;
    let e = parse_expr st in
    expect st Token.Rparen;
    expect st Token.Lbrace;
    let cases = ref [] in
    while not (is st Token.Rbrace) do
      (* one or more labels *)
      let labels = ref [] in
      let rec parse_labels () =
        match cur st with
        | Token.Kw Kcase ->
          advance st;
          let e = parse_conditional st in
          expect st Token.Colon;
          labels := L_case e :: !labels;
          parse_labels ()
        | Token.Kw Kdefault ->
          advance st;
          expect st Token.Colon;
          labels := L_default :: !labels;
          parse_labels ()
        | _ -> ()
      in
      parse_labels ();
      if !labels = [] then error st "expected case or default label in switch";
      let body = ref [] in
      let rec parse_body () =
        match cur st with
        | Token.Kw Kcase | Token.Kw Kdefault | Token.Rbrace -> ()
        | _ ->
          body := parse_stmt st :: !body;
          parse_body ()
      in
      parse_body ();
      cases :=
        { case_labels = List.rev !labels; case_body = List.rev !body }
        :: !cases
    done;
    expect st Token.Rbrace;
    mk_stmt st (Sswitch (e, List.rev !cases))
  | Token.Ident name when Token.equal (peek_ahead st 1) Token.Colon && not (is_typedef_name st name) ->
    advance st;
    advance st;
    (* label *)
    let inner =
      match cur st with
      | Token.Rbrace | Token.Kw Kcase | Token.Kw Kdefault -> mk_stmt st Snull
      | _ -> parse_stmt st
    in
    mk_stmt st (Slabel (name, inner))
  | _ when starts_decl st ->
    let ds = parse_local_decls st in
    mk_stmt st (Sdecl ds)
  | _ ->
    let e = parse_expr st in
    expect st Token.Semi;
    mk_stmt st (Sexpr e)

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

and parse_params st : param list * bool =
  (* after the opening paren *)
  if accept st Token.Rparen then ([], false)
  else if is st (Token.Kw Kvoid) && Token.equal (peek_ahead st 1) Token.Rparen then begin
    advance st;
    advance st;
    ([], false)
  end
  else begin
    let params = ref [] in
    let variadic = ref false in
    let rec go () =
      if accept st Token.Ellipsis then variadic := true
      else begin
        let specs = parse_specs st in
        let ty, name = parse_declarator st specs.sp_ty in
        (* array parameters decay to pointers *)
        let ty = match ty with Tarray (t, _) -> Tptr t | t -> t in
        params := { p_name = name; p_ty = ty } :: !params;
        if accept st Token.Comma then go ()
      end
    in
    go ();
    expect st Token.Rparen;
    (List.rev !params, !variadic)
  end

let parse_global st : global list =
  let specs = parse_specs st in
  if accept st Token.Semi then
    (* bare struct/union/enum definition *)
    specs.sp_newtags
  else begin
    let ty, name = parse_declarator st specs.sp_ty in
    if is st Token.Lparen then begin
      (* function definition or prototype *)
      advance st;
      let params, variadic = parse_params st in
      if accept st Token.Semi then
        specs.sp_newtags
        @ [
            Gproto
              {
                pr_name = name;
                pr_ret = ty;
                pr_params = List.map (fun p -> p.p_ty) params;
                pr_variadic = variadic;
              };
          ]
      else begin
        expect st Token.Lbrace;
        let body = ref [] in
        while not (is st Token.Rbrace) do
          body := parse_stmt st :: !body
        done;
        expect st Token.Rbrace;
        specs.sp_newtags
        @ [
            Gfun
              {
                f_id = fresh_id st;
                f_name = name;
                f_ret = ty;
                f_params = params;
                f_variadic = variadic;
                f_body = List.rev !body;
                f_static = specs.sp_storage = S_static;
                f_inline = specs.sp_inline;
              };
          ]
      end
    end
    else begin
      (* global variable(s) or typedef *)
      let decls = ref [] in
      let rec go ty name =
        let init = parse_decl_init st specs in
        decls :=
          {
            v_name = name;
            v_ty = ty;
            v_quals = specs.sp_quals;
            v_storage = specs.sp_storage;
            v_init = init;
          }
          :: !decls;
        if accept st Token.Comma then begin
          let ty, name = parse_declarator st specs.sp_ty in
          go ty name
        end
      in
      go ty name;
      expect st Token.Semi;
      if specs.sp_typedef then begin
        List.iter (fun v -> Names.replace st.typedefs v.v_name ()) !decls;
        specs.sp_newtags
        @ List.rev_map (fun v -> Gtypedef (v.v_name, v.v_ty)) !decls
      end
      else specs.sp_newtags @ List.rev_map (fun v -> Gvar v) !decls
    end
  end

(* Parse from an already-lexed buffer: the compile pipeline tokenizes
   once and feeds the same stream to the parser and to lexical coverage.
   The ids given during the parse are final. *)
let parse_tokens (toks : Lexer.tokens) : tu =
  let st =
    {
      toks;
      last = Lexer.length toks - 1;
      idx = 0;
      tok = Lexer.token toks 0;
      typedefs = Names.create 16;
      next_id = 0;
    }
  in
  let globals = ref [] in
  while not (is st Token.Eof) do
    globals := List.rev_append (parse_global st) !globals
  done;
  { globals = List.rev !globals }

let parse_tu (src : string) : tu = parse_tokens (Lexer.tokenize src)

(* Parse, mapping both lexer and parser errors into a result. *)
let parse (src : string) : (tu, string) result =
  match parse_tu src with
  | tu -> Ok tu
  | exception Error (msg, loc) ->
    Result.Error (Fmt.str "parse error at %a: %s" Loc.pp loc msg)
  | exception Lexer.Error (msg, loc) ->
    Result.Error (Fmt.str "lex error at %a: %s" Loc.pp loc msg)
  | exception Stack_overflow -> Result.Error "parser stack overflow"
