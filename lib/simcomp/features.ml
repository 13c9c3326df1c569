(* Program feature extraction.

   The injected-bug database (bugdb.ml) keys latent compiler bugs on
   conjunctions of these features, so that reaching a bug requires the
   kind of program shape the corresponding real-world bug required.
   Text-level features exist even for programs that do not parse
   (front-end error-path bugs, reachable by byte-level fuzzers).

   Every compile extracts both kinds, so both are single passes: the
   text scan is one loop over a byte-class table, and the AST features
   come from one preorder walk that fills a mutable accumulator (the
   per-function shapes — labels, zero-initialised locals, uninitialised
   reads — are tracked in the same walk, reset at each function). *)

open Cparse
open Ast

type text = {
  tx_len : int;
  tx_max_ident_len : int;
  tx_paren_depth : int;
  tx_brace_depth : int;
  tx_has_control_chars : bool;
  tx_has_high_bytes : bool;
  tx_digit_run : int;          (* longest run of digits *)
  tx_semi_count : int;
  tx_hash_count : int;
  tx_quote_imbalance : bool;
}

(* [byte_class.[b]] is the class of byte [b], named by a representative
   byte: ['a'] an identifier letter, ['0'] a digit, the byte itself for
   the delimiters [text_features] counts, ['\001'] a control byte other
   than \n \t \r, ['\127'] a byte of 127 or above, [' '] anything else. *)
let byte_class =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> 'a'
      | '0' .. '9' -> '0'
      | ('(' | ')' | '{' | '}' | ';' | '#' | '"') as c -> c
      | '\n' | '\t' | '\r' -> ' '
      | _ when i < 32 -> '\001'
      | _ when i >= 127 -> '\127'
      | _ -> ' ')

let text_features (src : string) : text =
  let n = String.length src in
  let max_ident = ref 0 and cur_ident = ref 0 in
  let depth = ref 0 and max_depth = ref 0 in
  let bdepth = ref 0 and max_bdepth = ref 0 in
  let ctrl = ref false and high = ref false in
  let digit_run = ref 0 and cur_digits = ref 0 in
  let semis = ref 0 and hashes = ref 0 and quotes = ref 0 in
  for i = 0 to n - 1 do
    match String.unsafe_get byte_class (Char.code (String.unsafe_get src i)) with
    | 'a' ->
      incr cur_ident;
      if !cur_ident > !max_ident then max_ident := !cur_ident;
      cur_digits := 0
    | '0' ->
      incr cur_ident;
      if !cur_ident > !max_ident then max_ident := !cur_ident;
      incr cur_digits;
      if !cur_digits > !digit_run then digit_run := !cur_digits
    | c -> (
      cur_ident := 0;
      cur_digits := 0;
      match c with
      | '(' ->
        incr depth;
        if !depth > !max_depth then max_depth := !depth
      | ')' -> decr depth
      | '{' ->
        incr bdepth;
        if !bdepth > !max_bdepth then max_bdepth := !bdepth
      | '}' -> decr bdepth
      | ';' -> incr semis
      | '#' -> incr hashes
      | '"' -> incr quotes
      | '\001' -> ctrl := true
      | '\127' -> high := true
      | _ -> ())
  done;
  {
    tx_len = n;
    tx_max_ident_len = !max_ident;
    tx_paren_depth = !max_depth;
    tx_brace_depth = !max_bdepth;
    tx_has_control_chars = !ctrl;
    tx_has_high_bytes = !high;
    tx_digit_run = !digit_run;
    tx_semi_count = !semis;
    tx_hash_count = !hashes;
    tx_quote_imbalance = !quotes mod 2 = 1;
  }

type ast = {
  n_functions : int;
  n_globals : int;
  n_structs : int;
  n_ifs : int;
  n_loops : int;
  n_switches : int;
  n_gotos : int;
  n_labels : int;
  n_calls : int;
  n_casts : int;
  n_commas : int;
  n_conds : int;                     (* ternary operators *)
  n_ptr_ops : int;                   (* deref + addrof *)
  n_incdec : int;
  n_compound_assigns : int;
  max_loop_depth : int;
  max_cast_chain : int;
  max_switch_cases : int;
  max_call_args : int;
  has_const_qual : bool;
  has_volatile_qual : bool;
  has_const_write_warning : bool;    (* const var subject to sprintf-style write *)
  has_void_fn_with_labels : bool;    (* Clang #63762 shape *)
  has_labels_no_return : bool;
  has_decreasing_loop : bool;        (* while (--n) style *)
  has_zero_init_decreasing_loop : bool; (* GCC #111820 shape *)
  has_scalar_accum_chain : bool;     (* r += r; r += r; ... *)
  has_sprintf_self : bool;           (* sprintf(buf, "%s", buf) *)
  has_struct_cast : bool;            (* (T){...} or struct cast involved *)
  has_compound_literal : bool;
  has_ptr_arith_cast_chain : bool;   (* GCC #111819 shape *)
  has_fallthrough : bool;
  has_empty_loop_body : bool;
  has_shift_overflow : bool;         (* shift amount >= width *)
  has_div_by_literal_zero : bool;
  has_uninit_use : bool;             (* scalar local read before any write *)
  has_array_param : bool;
  has_variadic_call : bool;
  has_recursion : bool;
  n_returns : int;
  n_void_returns : int;
  n_exprs : int;
  n_stmts : int;
}

(* The running state of [ast_features]' walk.  The fields below [fn]
   belong to the function whose body is being walked. *)
type acc = {
  mutable ifs : int;
  mutable loops : int;
  mutable switches : int;
  mutable gotos : int;
  mutable labels : int;
  mutable calls : int;
  mutable casts : int;
  mutable commas : int;
  mutable conds : int;
  mutable ptr_ops : int;
  mutable incdecs : int;
  mutable compound : int;
  mutable loop_depth : int;
  mutable cast_chain : int;
  mutable switch_cases : int;
  mutable call_args : int;
  mutable returns : int;
  mutable void_returns : int;
  mutable exprs : int;
  mutable stmts : int;
  mutable const_qual : bool;
  mutable volatile_qual : bool;
  mutable const_names : string list;
  mutable write_dsts : string list;
      (* first arguments of sprintf/memset/strcpy/memcpy, checked
         against the final [const_names] *)
  mutable void_fn_labels : bool;
  mutable labels_no_return : bool;
  mutable decreasing : bool;
  mutable zero_init_decreasing : bool;
  mutable accum_chain : bool;
  mutable sprintf_self : bool;
  mutable struct_cast : bool;
  mutable compound_lit : bool;
  mutable ptr_chain : bool;
  mutable fallthrough : bool;
  mutable empty_loop : bool;
  mutable shift_over : bool;
  mutable div0 : bool;
  mutable uninit_use : bool;
  mutable variadic : bool;
  mutable recursion : bool;
  mutable fn : string option;  (* [None] outside function bodies *)
  mutable zero_init : string list;  (* locals initialised to literal 0 so far *)
  mutable uninit : string list;
      (* scalar locals declared without an initialiser by a top-level
         statement and not yet assigned by one *)
  mutable uninit_live : bool;
      (* the walk is inside a top-level expression statement or return,
         where reading an [uninit] local counts *)
}

let rec mem_str n = function
  | [] -> false
  | m :: tl -> String.equal m n || mem_str n tl

(* chained casts starting at [e] *)
let rec cast_chain n (e : expr) =
  match e.ek with Cast (_, inner) -> cast_chain (n + 1) inner | _ -> n

let rec count_adds n (ss : stmt list) =
  match ss with
  | [] -> n
  | { sk = Sexpr { ek = Assign (A_add, _, _); _ }; _ } :: tl -> count_adds (n + 1) tl
  | _ :: tl -> count_adds n tl

(* a case body that is not empty and does not end in [break] *)
let rec falls_through (body : stmt list) =
  match body with
  | [] | [ { sk = Sbreak; _ } ] -> false
  | [ _ ] -> true
  | _ :: tl -> falls_through tl

let is_empty_body (b : stmt) =
  match b.sk with Snull | Sblock [] -> true | _ -> false

let is_predec (e : expr) =
  match e.ek with Incdec (false, true, _) -> true | _ -> false

let scan_decl a (v : var_decl) =
  if v.v_quals.q_const then begin
    a.const_qual <- true;
    a.const_names <- v.v_name :: a.const_names
  end;
  if v.v_quals.q_volatile then a.volatile_qual <- true

let rec walk_expr a (e : expr) =
  a.exprs <- a.exprs + 1;
  (match e.ek with
  | Call (g, args) ->
    a.calls <- a.calls + 1;
    let n = List.length args in
    if n > a.call_args then a.call_args <- n;
    (match g.ek with
    | Ident f ->
      (match f with
      | "printf" | "snprintf" -> a.variadic <- true
      | "sprintf" ->
        a.variadic <- true;
        (match args with
        | { ek = Ident dst; _ } :: _ :: rest ->
          if
            List.exists
              (fun (x : expr) ->
                match x.ek with Ident y -> String.equal dst y | _ -> false)
              rest
          then a.sprintf_self <- true
        | _ -> ())
      | _ -> ());
      (match f, args with
      | ("sprintf" | "memset" | "strcpy" | "memcpy"), { ek = Ident dst; _ } :: _ ->
        a.write_dsts <- dst :: a.write_dsts
      | _ -> ());
      (match a.fn with
      | Some name when String.equal f name -> a.recursion <- true
      | _ -> ())
    | _ -> ())
  | Cast (ty, inner) ->
    a.casts <- a.casts + 1;
    (match inner.ek with
    | Init_list _ ->
      a.compound_lit <- true;
      (match ty with
      | Tstruct _ | Tunion _ | Tint _ -> a.struct_cast <- true
      | _ -> ())
    | _ -> ());
    (* cast of pointer arithmetic over a casted address: #111819 shape *)
    (match ty, inner.ek with
    | Tptr _, Binop ((Add | Sub), { ek = Cast (Tptr _, { ek = Addrof _; _ }); _ }, _) ->
      a.ptr_chain <- true
    | _ -> ());
    if Option.is_some a.fn then begin
      let c = cast_chain 0 e in
      if c > a.cast_chain then a.cast_chain <- c
    end
  | Comma _ -> a.commas <- a.commas + 1
  | Cond _ -> a.conds <- a.conds + 1
  | Deref _ | Addrof _ -> a.ptr_ops <- a.ptr_ops + 1
  | Incdec _ -> a.incdecs <- a.incdecs + 1
  | Assign (op, _, _) when op <> A_none -> a.compound <- a.compound + 1
  | Binop ((Shl | Shr), _, { ek = Int_lit (v, _, _); _ }) ->
    if v >= 32L || v < 0L then a.shift_over <- true
  | Binop ((Div | Mod), _, { ek = Int_lit (0L, _, _); _ }) -> a.div0 <- true
  | Ident n -> if a.uninit_live && mem_str n a.uninit then a.uninit_use <- true
  | _ -> ());
  match e.ek with
  | Int_lit _ | Float_lit _ | Char_lit _ | Str_lit _ | Ident _ | Sizeof_ty _ -> ()
  | Binop (_, x, y) | Assign (_, x, y) | Index (x, y) | Comma (x, y) ->
    walk_expr a x;
    walk_expr a y
  | Unop (_, x) | Incdec (_, _, x) | Member (x, _) | Arrow (x, _) | Deref x
  | Addrof x | Cast (_, x) | Sizeof_expr x ->
    walk_expr a x
  | Call (g, args) ->
    walk_expr a g;
    walk_exprs a args
  | Cond (c, t, f) ->
    walk_expr a c;
    walk_expr a t;
    walk_expr a f
  | Init_list es -> walk_exprs a es

and walk_exprs a = function
  | [] -> ()
  | e :: tl ->
    walk_expr a e;
    walk_exprs a tl

let walk_opt a = function Some e -> walk_expr a e | None -> ()

let rec walk_decls a (vs : var_decl list) =
  match vs with
  | [] -> ()
  | v :: tl ->
    walk_opt a v.v_init;
    walk_decls a tl

(* [depth] is the number of loops around [s] *)
let rec walk_stmt a depth (s : stmt) =
  a.stmts <- a.stmts + 1;
  if depth > a.loop_depth then a.loop_depth <- depth;
  match s.sk with
  | Sexpr e -> walk_expr a e
  | Sdecl vs ->
    List.iter
      (fun v ->
        scan_decl a v;
        match v.v_init with
        | Some { ek = Int_lit (0L, _, _); _ } -> a.zero_init <- v.v_name :: a.zero_init
        | _ -> ())
      vs;
    walk_decls a vs
  | Sif (c, t, f) ->
    a.ifs <- a.ifs + 1;
    walk_expr a c;
    walk_stmt a depth t;
    (match f with Some f -> walk_stmt a depth f | None -> ())
  | Swhile (c, b) ->
    a.loops <- a.loops + 1;
    if is_empty_body b then a.empty_loop <- true;
    (match c.ek with
    | Incdec (false, true, x) -> (
      a.decreasing <- true;
      (* a zero-initialised local driven below zero: the #111820 trigger *)
      match x.ek with
      | Ident n when mem_str n a.zero_init -> a.zero_init_decreasing <- true
      | _ -> ())
    | _ -> ());
    walk_expr a c;
    walk_stmt a (depth + 1) b
  | Sdo (b, c) ->
    a.loops <- a.loops + 1;
    if is_empty_body b then a.empty_loop <- true;
    if is_predec c then a.decreasing <- true;
    walk_stmt a (depth + 1) b;
    walk_expr a c
  | Sfor (init, cond, step, b) ->
    a.loops <- a.loops + 1;
    if is_empty_body b then a.empty_loop <- true;
    (match init with
    | Some (Fi_expr e) -> walk_expr a e
    | Some (Fi_decl vs) -> walk_decls a vs
    | None -> ());
    walk_opt a cond;
    walk_opt a step;
    walk_stmt a (depth + 1) b
  | Sreturn e ->
    a.returns <- a.returns + 1;
    (match e with
    | Some e -> walk_expr a e
    | None -> a.void_returns <- a.void_returns + 1)
  | Sbreak | Scontinue | Snull -> ()
  | Sgoto _ -> a.gotos <- a.gotos + 1
  | Sblock ss ->
    if count_adds 0 ss >= 3 then a.accum_chain <- true;
    walk_stmts a depth ss
  | Sswitch (e, cases) ->
    a.switches <- a.switches + 1;
    let n = List.length cases in
    if n > a.switch_cases then a.switch_cases <- n;
    (match cases with
    | [ { case_body; _ } ] when count_adds 0 case_body >= 3 -> a.accum_chain <- true
    | _ -> ());
    walk_expr a e;
    List.iter
      (fun c ->
        if falls_through c.case_body then a.fallthrough <- true;
        List.iter
          (function L_case e -> walk_expr a e | L_default -> ())
          c.case_labels;
        walk_stmts a depth c.case_body)
      cases
  | Slabel (_, inner) ->
    a.labels <- a.labels + 1;
    walk_stmt a depth inner

and walk_stmts a depth = function
  | [] -> ()
  | s :: tl ->
    walk_stmt a depth s;
    walk_stmts a depth tl

(* A statement of a function's top-level body: the uninitialised-read
   check looks at these only. *)
let walk_top a (s : stmt) =
  (match s.sk with
  | Sdecl vs ->
    List.iter
      (fun v ->
        if v.v_init = None && is_arith_ty v.v_ty then a.uninit <- v.v_name :: a.uninit)
      vs
  | Sexpr { ek = Assign (A_none, { ek = Ident n; _ }, _); _ } ->
    if mem_str n a.uninit then
      a.uninit <- List.filter (fun m -> not (String.equal m n)) a.uninit
  | Sexpr _ | Sreturn (Some _) -> a.uninit_live <- a.uninit <> []
  | _ -> ());
  walk_stmt a 0 s;
  a.uninit_live <- false

let walk_fundef a (fd : fundef) =
  let labels0 = a.labels and returns0 = a.returns in
  a.fn <- Some fd.f_name;
  a.zero_init <- [];
  a.uninit <- [];
  List.iter (walk_top a) fd.f_body;
  if count_adds 0 fd.f_body >= 3 then a.accum_chain <- true;
  if is_void_ty fd.f_ret then begin
    let labels = a.labels - labels0 in
    if labels >= 2 then a.void_fn_labels <- true;
    if labels >= 1 && a.returns = returns0 then a.labels_no_return <- true
  end;
  a.fn <- None

let ast_features (tu : tu) : ast =
  let a =
    {
      ifs = 0; loops = 0; switches = 0; gotos = 0; labels = 0; calls = 0;
      casts = 0; commas = 0; conds = 0; ptr_ops = 0; incdecs = 0;
      compound = 0; loop_depth = 0; cast_chain = 0; switch_cases = 0;
      call_args = 0; returns = 0; void_returns = 0; exprs = 0; stmts = 0;
      const_qual = false; volatile_qual = false; const_names = [];
      write_dsts = []; void_fn_labels = false; labels_no_return = false;
      decreasing = false; zero_init_decreasing = false; accum_chain = false;
      sprintf_self = false; struct_cast = false; compound_lit = false;
      ptr_chain = false; fallthrough = false; empty_loop = false;
      shift_over = false; div0 = false; uninit_use = false;
      variadic = false; recursion = false; fn = None; zero_init = [];
      uninit = []; uninit_live = false;
    }
  in
  let n_functions = ref 0 and n_globals = ref 0 and n_structs = ref 0 in
  let array_param = ref false in
  List.iter
    (function
      | Gfun fd ->
        incr n_functions;
        if List.exists (fun p -> match p.p_ty with Tptr _ -> true | _ -> false) fd.f_params
        then array_param := true;
        walk_fundef a fd
      | Gvar v ->
        incr n_globals;
        scan_decl a v;
        walk_opt a v.v_init
      | Gstruct _ | Gunion _ -> incr n_structs
      | Gtypedef _ | Genum _ | Gproto _ -> ())
    tu.globals;
  {
    n_functions = !n_functions;
    n_globals = !n_globals;
    n_structs = !n_structs;
    n_ifs = a.ifs;
    n_loops = a.loops;
    n_switches = a.switches;
    n_gotos = a.gotos;
    n_labels = a.labels;
    n_calls = a.calls;
    n_casts = a.casts;
    n_commas = a.commas;
    n_conds = a.conds;
    n_ptr_ops = a.ptr_ops;
    n_incdec = a.incdecs;
    n_compound_assigns = a.compound;
    max_loop_depth = a.loop_depth;
    max_cast_chain = a.cast_chain;
    max_switch_cases = a.switch_cases;
    max_call_args = a.call_args;
    has_const_qual = a.const_qual;
    has_volatile_qual = a.volatile_qual;
    has_const_write_warning =
      List.exists (fun d -> mem_str d a.const_names) a.write_dsts;
    has_void_fn_with_labels = a.void_fn_labels;
    has_labels_no_return = a.labels_no_return;
    has_decreasing_loop = a.decreasing;
    has_zero_init_decreasing_loop = a.zero_init_decreasing;
    has_scalar_accum_chain = a.accum_chain;
    has_sprintf_self = a.sprintf_self;
    has_struct_cast = a.struct_cast;
    has_compound_literal = a.compound_lit;
    has_ptr_arith_cast_chain = a.ptr_chain;
    has_fallthrough = a.fallthrough;
    has_empty_loop_body = a.empty_loop;
    has_shift_overflow = a.shift_over;
    has_div_by_literal_zero = a.div0;
    has_uninit_use = a.uninit_use;
    has_array_param = !array_param;
    has_variadic_call = a.variadic;
    has_recursion = a.recursion;
    n_returns = a.returns;
    n_void_returns = a.void_returns;
    n_exprs = a.exprs;
    n_stmts = a.stmts;
  }
