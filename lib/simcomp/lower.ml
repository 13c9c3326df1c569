(* AST to IR lowering ("IR generation" stage of the simulated compiler).

   Every lowering decision reports branch coverage keyed by node kind and
   type class, so coverage rewards structurally diverse inputs the way an
   instrumented gimplifier would. *)

open Cparse
open Ast
open Ir

exception Lower_error of string

type env = {
  cov : Coverage.t option;
  types : Typecheck.types;
  mutable nregs : int;
  mutable nlabels : int;
  mutable blocks : block list;               (* reverse order *)
  mutable cur : block;
  pending : Ir.instr Engine.Vec.t;
      (* instructions of [cur], staged in the arena vector: blocks are
         built strictly sequentially (emit only ever targets [cur]), so
         one scratch vector serves the whole function and each block's
         instruction list is materialised once, when the block is sealed
         — the per-instruction [l @ [i]] append was O(n²) per block *)
  mutable scopes : (string * string) list list; (* name -> slot *)
  mutable slot_count : int;
  mutable loop_stack : (label * label) list; (* break, continue *)
  mutable named_labels : (string * label) list;
  mutable locals : global_slot list;         (* local slots for interp *)
  struct_fields : (string, field list) Hashtbl.t;
}

let ekind_tag (e : expr) =
  match e.ek with
  | Int_lit _ -> 1 | Float_lit _ -> 2 | Char_lit _ -> 3 | Str_lit _ -> 4
  | Ident _ -> 5 | Binop _ -> 6 | Unop _ -> 7 | Assign _ -> 8
  | Incdec _ -> 9 | Call _ -> 10 | Index _ -> 11 | Member _ -> 12
  | Arrow _ -> 13 | Deref _ -> 14 | Addrof _ -> 15 | Cast _ -> 16
  | Cond _ -> 17 | Comma _ -> 18 | Sizeof_expr _ -> 19 | Sizeof_ty _ -> 20
  | Init_list _ -> 21

let ty_tag = function
  | Tvoid -> 0 | Tbool -> 1
  | Tint (Ichar, _) -> 2 | Tint (Ishort, _) -> 3 | Tint (Iint, _) -> 4
  | Tint (Ilong, _) -> 5 | Tint (Ilonglong, _) -> 6
  | Tfloat -> 7 | Tdouble -> 8 | Tptr _ -> 9 | Tarray _ -> 10
  | Tstruct _ -> 11 | Tunion _ -> 12 | Tnamed _ -> 13 | Tfunc _ -> 14

let cov_event env site a b =
  match env.cov with
  | Some cov -> Coverage.branch3 cov site a b
  | None -> ()

(* [Hashtbl.hash op land 0xff], memoized by constant-constructor index:
   the polymorphic hash is a C call that instrumentation sites pay per
   binop otherwise.  Cross-domain init races write identical values. *)
let binop_hash_tags = Array.make 32 (-1)

let binop_hash_tag (op : Cparse.Ast.binop) =
  let i : int = Obj.magic op in
  let v = Array.unsafe_get binop_hash_tags i in
  if v >= 0 then v
  else begin
    let v = Hashtbl.hash op land 0xff in
    binop_hash_tags.(i) <- v;
    v
  end

let type_of env (e : expr) : ty =
  Typecheck.Types.find env.types e.eid ~default:(Tint (Iint, true))

let fresh_reg env =
  env.nregs <- env.nregs + 1;
  env.nregs

let fresh_label env =
  env.nlabels <- env.nlabels + 1;
  env.nlabels

let emit env i = Engine.Vec.push env.pending i

(* Materialise [cur]'s staged instructions; nothing emits into a block
   after it is sealed. *)
let seal env =
  env.cur.b_instrs <- Engine.Vec.to_list env.pending;
  Engine.Vec.clear env.pending

let start_block env label =
  seal env;
  let b = { b_label = label; b_instrs = []; b_term = Tunreachable } in
  env.blocks <- b :: env.blocks;
  env.cur <- b

let terminate env term =
  if env.cur.b_term = Tunreachable then env.cur.b_term <- term

let push_scope env = env.scopes <- [] :: env.scopes
let pop_scope env =
  match env.scopes with _ :: rest -> env.scopes <- rest | [] -> ()

let declare_slot env name ~size ~is_float ~init =
  env.slot_count <- env.slot_count + 1;
  let slot = name ^ "." ^ string_of_int env.slot_count in
  (match env.scopes with
  | scope :: rest -> env.scopes <- ((name, slot) :: scope) :: rest
  | [] -> env.scopes <- [ [ (name, slot) ] ]);
  env.locals <- { g_name = slot; g_size = size; g_init = init; g_finit = None; g_float = is_float } :: env.locals;
  slot

let lookup_slot env name =
  let rec find = function
    | [] -> name (* global or unknown: use the bare name *)
    | scope :: rest -> (
      match List.assoc_opt name scope with
      | Some slot -> slot
      | None -> find rest)
  in
  find env.scopes

let named_label env name =
  match List.assoc_opt name env.named_labels with
  | Some l -> l
  | None ->
    let l = fresh_label env in
    env.named_labels <- (name, l) :: env.named_labels;
    l

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

let elem_size_of env (base_ty : ty) =
  match base_ty with
  | Tarray (t, _) | Tptr t -> sizeof_ty t
  | _ -> ignore env; 8

(* Lower an expression to an operand. *)
let rec lower_expr env (e : expr) : operand =
  cov_event env 0x1000 (ekind_tag e) (ty_tag (type_of env e));
  match e.ek with
  | Int_lit (v, _, _) -> Imm v
  | Char_lit c -> Imm (Int64.of_int (Char.code c))
  | Float_lit (v, _) -> Fimm v
  | Str_lit s -> Sym ("str$" ^ string_of_int (Hashtbl.hash s land 0xffffff))
  | Ident n ->
    let r = fresh_reg env in
    emit env (Iload (r, Avar (lookup_slot env n)));
    Reg r
  | Binop ((Land | Lor) as op, _, _) -> lower_short_circuit env op e
  | Binop (op, a, b) ->
    let oa = lower_expr env a in
    let ob = lower_expr env b in
    let r = fresh_reg env in
    cov_event env 0x1100 (binop_hash_tag op) (ty_tag (type_of env a));
    emit env (Ibin (op, r, oa, ob));
    Reg r
  | Unop (op, a) ->
    let oa = lower_expr env a in
    let r = fresh_reg env in
    emit env (Iun (op, r, oa));
    Reg r
  | Assign (aop, lhs, rhs) ->
    let rv = lower_expr env rhs in
    let value =
      match aop with
      | A_none -> rv
      | _ ->
        let cur = lower_lvalue_load env lhs in
        let op =
          match aop with
          | A_add -> Add | A_sub -> Sub | A_mul -> Mul | A_div -> Div
          | A_mod -> Mod | A_shl -> Shl | A_shr -> Shr
          | A_band -> Band | A_bxor -> Bxor | A_bor -> Bor | A_none -> Add
        in
        let r = fresh_reg env in
        emit env (Ibin (op, r, cur, rv));
        Reg r
    in
    lower_store env lhs value;
    value
  | Incdec (inc, prefix, a) ->
    let old = lower_lvalue_load env a in
    let r = fresh_reg env in
    emit env (Ibin ((if inc then Add else Sub), r, old, Imm 1L));
    lower_store env a (Reg r);
    if prefix then Reg r else old
  | Call (f, args) ->
    let fname =
      match f.ek with
      | Ident n -> n
      | _ -> raise (Lower_error "indirect calls are not supported")
    in
    let oargs = List.map (lower_expr env) args in
    let callee_tag =
      if List.exists (fun (n, _) -> String.equal n fname) Typecheck.builtins
      then 32 + (Hashtbl.hash fname land 0x1f)
      else 1
    in
    cov_event env 0x1200 callee_tag (List.length args);
    let ret_ty = type_of env e in
    if is_void_ty ret_ty then begin
      emit env (Icall (None, fname, oargs));
      Imm 0L
    end
    else begin
      let r = fresh_reg env in
      emit env (Icall (Some r, fname, oargs));
      Reg r
    end
  | Index (a, i) -> (
    let oi = lower_expr env i in
    match base_slot env a with
    | Some (slot, esz) ->
      let r = fresh_reg env in
      emit env (Iload (r, Aindex (slot, oi, esz)));
      Reg r
    | None ->
      let oa = lower_expr env a in
      let scaled = fresh_reg env in
      emit env (Ibin (Mul, scaled, oi, Imm (Int64.of_int (elem_size_of env (type_of env a)))));
      let addr = fresh_reg env in
      emit env (Ibin (Add, addr, oa, Reg scaled));
      let r = fresh_reg env in
      emit env (Iload (r, Areg (Reg addr)));
      Reg r)
  | Member (a, fld) -> (
    match member_slot env a fld with
    | Some slot ->
      let r = fresh_reg env in
      emit env (Iload (r, Avar slot));
      Reg r
    | None ->
      let _ = lower_expr env a in
      Imm 0L)
  | Arrow (a, _fld) ->
    let oa = lower_expr env a in
    let r = fresh_reg env in
    cov_event env 0x1300 1 0;
    emit env (Iload (r, Areg oa));
    Reg r
  | Deref a ->
    let oa = lower_expr env a in
    let r = fresh_reg env in
    emit env (Iload (r, Areg oa));
    Reg r
  | Addrof a -> (
    match a.ek with
    | Ident n ->
      let r = fresh_reg env in
      emit env (Iaddr (r, Avar (lookup_slot env n)));
      Reg r
    | Index (b, i) -> (
      let oi = lower_expr env i in
      match base_slot env b with
      | Some (slot, esz) ->
        let r = fresh_reg env in
        emit env (Iaddr (r, Aindex (slot, oi, esz)));
        Reg r
      | None ->
        let ob = lower_expr env b in
        let r = fresh_reg env in
        emit env (Ibin (Add, r, ob, oi));
        Reg r)
    | Member (b, fld) -> (
      match member_slot env b fld with
      | Some slot ->
        let r = fresh_reg env in
        emit env (Iaddr (r, Avar slot));
        Reg r
      | None -> lower_expr env b)
    | Deref inner -> lower_expr env inner
    | _ ->
      let _ = lower_expr env a in
      Imm 0L)
  | Cast (ty, a) ->
    (match a.ek with
    | Init_list items ->
      (* compound literal: materialise into a fresh slot *)
      let slot =
        declare_slot env "cpd" ~size:(max 1 (List.length items))
          ~is_float:(is_float_ty ty) ~init:None
      in
      List.iteri
        (fun idx item ->
          match item.ek with
          | Init_list _ -> () (* nested braces of aggregates: ignored *)
          | _ ->
            let ov = lower_expr env item in
            emit env (Istore (Aindex (slot, Imm (Int64.of_int idx), 8), ov)))
        items;
      let r = fresh_reg env in
      emit env (Iload (r, Avar slot));
      Reg r
    | _ ->
      let oa = lower_expr env a in
      let r = fresh_reg env in
      cov_event env 0x1400 (ty_tag ty) (ty_tag (type_of env a));
      emit env (Icast (r, ty, oa));
      Reg r)
  | Cond (c, t, f) ->
    let slot = declare_slot env "cond" ~size:1 ~is_float:false ~init:None in
    let lt = fresh_label env and lf = fresh_label env and lj = fresh_label env in
    let oc = lower_expr env c in
    terminate env (Tbr (oc, lt, lf));
    start_block env lt;
    let ot = lower_expr env t in
    emit env (Istore (Avar slot, ot));
    terminate env (Tjmp lj);
    start_block env lf;
    let of_ = lower_expr env f in
    emit env (Istore (Avar slot, of_));
    terminate env (Tjmp lj);
    start_block env lj;
    let r = fresh_reg env in
    emit env (Iload (r, Avar slot));
    Reg r
  | Comma (a, b) ->
    let _ = lower_expr env a in
    lower_expr env b
  | Sizeof_expr a -> Imm (Int64.of_int (sizeof_ty (type_of env a)))
  | Sizeof_ty t -> Imm (Int64.of_int (sizeof_ty t))
  | Init_list _ -> Imm 0L

(* Short-circuit lowering of && and || in value position. *)
and lower_short_circuit env op (e : expr) : operand =
  match e.ek with
  | Binop (bop, a, b) ->
    let slot = declare_slot env "sc" ~size:1 ~is_float:false ~init:None in
    let lrhs = fresh_label env and lend = fresh_label env in
    let oa = lower_expr env a in
    let ra = fresh_reg env in
    emit env (Ibin (Ne, ra, oa, Imm 0L));
    emit env (Istore (Avar slot, Reg ra));
    (match bop with
    | Land -> terminate env (Tbr (Reg ra, lrhs, lend))
    | _ -> terminate env (Tbr (Reg ra, lend, lrhs)));
    start_block env lrhs;
    let ob = lower_expr env b in
    let rb = fresh_reg env in
    emit env (Ibin (Ne, rb, ob, Imm 0L));
    emit env (Istore (Avar slot, Reg rb));
    terminate env (Tjmp lend);
    start_block env lend;
    let r = fresh_reg env in
    emit env (Iload (r, Avar slot));
    ignore op;
    Reg r
  | _ -> Imm 0L

(* Resolve an expression denoting an array/pointer base to a named slot
   (element size included) when statically known. *)
and base_slot env (e : expr) : (string * int) option =
  match e.ek with
  | Ident n -> (
    match type_of env e with
    | Tarray (t, _) -> Some (lookup_slot env n, sizeof_ty t)
    | Tptr t -> ignore t; None
    | _ -> Some (lookup_slot env n, 8))
  | _ -> None

and member_slot env (e : expr) fld : string option =
  match e.ek with
  | Ident n -> Some (lookup_slot env n ^ "." ^ fld)
  | Member (inner, f2) ->
    Option.map (fun s -> s ^ "." ^ fld) (member_slot env inner f2)
  | _ -> None

and lower_lvalue_load env (e : expr) : operand = lower_expr env e

(* Store [value] into the lvalue [e]. *)
and lower_store env (e : expr) (value : operand) : unit =
  match e.ek with
  | Ident n -> emit env (Istore (Avar (lookup_slot env n), value))
  | Index (a, i) -> (
    let oi = lower_expr env i in
    match base_slot env a with
    | Some (slot, esz) -> emit env (Istore (Aindex (slot, oi, esz), value))
    | None ->
      let oa = lower_expr env a in
      let scaled = fresh_reg env in
      emit env
        (Ibin (Mul, scaled, oi, Imm (Int64.of_int (elem_size_of env (type_of env a)))));
      let addr = fresh_reg env in
      emit env (Ibin (Add, addr, oa, Reg scaled));
      emit env (Istore (Areg (Reg addr), value)))
  | Member (a, fld) -> (
    match member_slot env a fld with
    | Some slot -> emit env (Istore (Avar slot, value))
    | None -> ())
  | Arrow (a, _) | Deref a ->
    let oa = lower_expr env a in
    emit env (Istore (Areg oa, value))
  | Cast (_, inner) -> lower_store env inner value
  | Comma (_, b) -> lower_store env b value
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)
(* ------------------------------------------------------------------ *)

let skind_tag (s : stmt) =
  match s.sk with
  | Sexpr _ -> 1 | Sdecl _ -> 2 | Sif _ -> 3 | Swhile _ -> 4 | Sdo _ -> 5
  | Sfor _ -> 6 | Sreturn _ -> 7 | Sbreak -> 8 | Scontinue -> 9
  | Sblock _ -> 10 | Sswitch _ -> 11 | Sgoto _ -> 12 | Slabel _ -> 13
  | Snull -> 14

let lower_decl env (v : var_decl) =
  let size, is_float =
    match v.v_ty with
    | Tarray (t, Some n) -> (n, is_float_ty t)
    | Tarray (t, None) -> (8, is_float_ty t)
    | Tstruct tag | Tunion tag -> (
      match Hashtbl.find_opt env.struct_fields tag with
      | Some fields ->
        (* declare per-field slots *)
        (List.length fields, false)
      | None -> (1, false))
    | t -> (1, is_float_ty t)
  in
  let slot = declare_slot env v.v_name ~size ~is_float ~init:None in
  (* struct fields get their own slots *)
  (match v.v_ty with
  | Tstruct tag | Tunion tag -> (
    match Hashtbl.find_opt env.struct_fields tag with
    | Some fields ->
      List.iter
        (fun f ->
          env.locals <-
            {
              g_name = slot ^ "." ^ f.fld_name;
              g_size = 1;
              g_init = None;
              g_finit = None;
              g_float = is_float_ty f.fld_ty;
            }
            :: env.locals)
        fields
    | None -> ())
  | _ -> ());
  match v.v_init with
  | Some { ek = Init_list items; _ } ->
    List.iteri
      (fun idx item ->
        match item.ek with
        | Init_list _ -> ()
        | _ ->
          let ov = lower_expr env item in
          emit env (Istore (Aindex (slot, Imm (Int64.of_int idx), 8), ov)))
      items
  | Some init ->
    let ov = lower_expr env init in
    emit env (Istore (Avar slot, ov))
  | None ->
    (* zero-initialise so re-entering a declaration (e.g. in a loop body)
       observes a fresh variable, matching the reference interpreter *)
    let zero = if is_float then Fimm 0. else Imm 0L in
    if size = 1 then emit env (Istore (Avar slot, zero))
    else if size <= 64 then
      for i = 0 to size - 1 do
        emit env (Istore (Aindex (slot, Imm (Int64.of_int i), 8), zero))
      done

let rec lower_stmt env (s : stmt) : unit =
  cov_event env 0x2000 (skind_tag s) 0;
  match s.sk with
  | Sexpr e -> ignore (lower_expr env e)
  | Sdecl vs -> List.iter (lower_decl env) vs
  | Snull -> ()
  | Sblock ss ->
    push_scope env;
    List.iter (lower_stmt env) ss;
    pop_scope env
  | Sif (c, t, f) ->
    let lt = fresh_label env and lj = fresh_label env in
    let lf = match f with Some _ -> fresh_label env | None -> lj in
    let oc = lower_expr env c in
    terminate env (Tbr (oc, lt, lf));
    start_block env lt;
    lower_stmt env t;
    terminate env (Tjmp lj);
    (match f with
    | Some f ->
      start_block env lf;
      lower_stmt env f;
      terminate env (Tjmp lj)
    | None -> ());
    start_block env lj
  | Swhile (c, b) ->
    let lhead = fresh_label env and lbody = fresh_label env and lend = fresh_label env in
    terminate env (Tjmp lhead);
    start_block env lhead;
    let oc = lower_expr env c in
    terminate env (Tbr (oc, lbody, lend));
    start_block env lbody;
    env.loop_stack <- (lend, lhead) :: env.loop_stack;
    lower_stmt env b;
    env.loop_stack <- List.tl env.loop_stack;
    terminate env (Tjmp lhead);
    start_block env lend
  | Sdo (b, c) ->
    let lbody = fresh_label env and lcond = fresh_label env and lend = fresh_label env in
    terminate env (Tjmp lbody);
    start_block env lbody;
    env.loop_stack <- (lend, lcond) :: env.loop_stack;
    lower_stmt env b;
    env.loop_stack <- List.tl env.loop_stack;
    terminate env (Tjmp lcond);
    start_block env lcond;
    let oc = lower_expr env c in
    terminate env (Tbr (oc, lbody, lend));
    start_block env lend
  | Sfor (init, cond, step, b) ->
    push_scope env;
    (match init with
    | Some (Fi_expr e) -> ignore (lower_expr env e)
    | Some (Fi_decl vs) -> List.iter (lower_decl env) vs
    | None -> ());
    let lhead = fresh_label env and lbody = fresh_label env in
    let lstep = fresh_label env and lend = fresh_label env in
    terminate env (Tjmp lhead);
    start_block env lhead;
    (match cond with
    | Some c ->
      let oc = lower_expr env c in
      terminate env (Tbr (oc, lbody, lend))
    | None -> terminate env (Tjmp lbody));
    start_block env lbody;
    env.loop_stack <- (lend, lstep) :: env.loop_stack;
    lower_stmt env b;
    env.loop_stack <- List.tl env.loop_stack;
    terminate env (Tjmp lstep);
    start_block env lstep;
    (match step with Some e -> ignore (lower_expr env e) | None -> ());
    terminate env (Tjmp lhead);
    start_block env lend;
    pop_scope env
  | Sreturn e ->
    let op = Option.map (lower_expr env) e in
    terminate env (Tret op);
    start_block env (fresh_label env)
  | Sbreak -> (
    match env.loop_stack with
    | (lend, _) :: _ ->
      terminate env (Tjmp lend);
      start_block env (fresh_label env)
    | [] -> ())
  | Scontinue -> (
    match env.loop_stack with
    | (_, lcont) :: _ ->
      terminate env (Tjmp lcont);
      start_block env (fresh_label env)
    | [] -> ())
  | Sswitch (e, cases) ->
    let oe = lower_expr env e in
    let lend = fresh_label env in
    let case_labels =
      List.map (fun _ -> fresh_label env) cases
    in
    let jumps = ref [] and default = ref lend in
    List.iteri
      (fun i c ->
        List.iter
          (function
            | L_case ce -> (
              match Const_eval.eval_int ce with
              | Some v -> jumps := (v, List.nth case_labels i) :: !jumps
              | None -> ())
            | L_default -> default := List.nth case_labels i)
          c.case_labels)
      cases;
    cov_event env 0x2100 (List.length cases) 0;
    terminate env (Tswitch (oe, List.rev !jumps, !default));
    (* a switch introduces a break target but keeps the enclosing loop's
       continue target *)
    let cont =
      match env.loop_stack with (_, c) :: _ -> c | [] -> lend
    in
    env.loop_stack <- (lend, cont) :: env.loop_stack;
    List.iteri
      (fun i c ->
        start_block env (List.nth case_labels i);
        push_scope env;
        List.iter (lower_stmt env) c.case_body;
        pop_scope env;
        (* fall through to the next case *)
        let next =
          if i + 1 < List.length cases then List.nth case_labels (i + 1)
          else lend
        in
        terminate env (Tjmp next))
      cases;
    env.loop_stack <- List.tl env.loop_stack;
    start_block env lend
  | Sgoto name ->
    terminate env (Tjmp (named_label env name));
    start_block env (fresh_label env)
  | Slabel (name, inner) ->
    let l = named_label env name in
    terminate env (Tjmp l);
    start_block env l;
    lower_stmt env inner

(* ------------------------------------------------------------------ *)
(* Function / program lowering                                         *)
(* ------------------------------------------------------------------ *)

let lower_function ?cov ~types ~struct_fields (fd : fundef) : func * global_slot list =
  let entry = { b_label = 0; b_instrs = []; b_term = Tunreachable } in
  let pending = (Scratch.get ()).Scratch.instrs in
  Engine.Vec.clear pending;
  let env =
    {
      cov;
      types;
      nregs = 0;
      nlabels = 0;
      blocks = [ entry ];
      cur = entry;
      pending;
      scopes = [ [] ];
      slot_count = 0;
      loop_stack = [];
      named_labels = [];
      locals = [];
      struct_fields;
    }
  in
  (* parameters become named slots *)
  let param_slots =
    List.map
      (fun p ->
        declare_slot env p.p_name ~size:1
          ~is_float:(is_float_ty p.p_ty)
          ~init:None)
      fd.f_params
  in
  List.iter (lower_stmt env) fd.f_body;
  terminate env (Tret (if is_void_ty fd.f_ret then None else Some (Imm 0L)));
  seal env;
  let blocks = List.rev env.blocks in
  ( {
      fn_name = fd.f_name;
      fn_params = param_slots;
      fn_ret_void = is_void_ty fd.f_ret;
      fn_blocks = blocks;
      fn_nregs = env.nregs;
    },
    env.locals )

let lower_tu ?cov (tu : tu) (tc : Typecheck.result) : program =
  let struct_fields = Hashtbl.create 8 in
  List.iter
    (function
      | Gstruct (tag, fields) | Gunion (tag, fields) ->
        Hashtbl.replace struct_fields tag fields
      | _ -> ())
    tu.globals;
  let globals = ref [] in
  List.iter
    (function
      | Gvar v ->
        let size =
          match v.v_ty with
          | Tarray (_, Some n) -> n
          | Tarray (_, None) -> 8
          | _ -> 1
        in
        let init =
          match v.v_init with
          | Some e -> Const_eval.eval_int e
          | None -> Some 0L
        in
        let finit =
          match v.v_init with
          | Some { ek = Float_lit (f, _); _ } -> Some f
          | Some e -> Option.map Int64.to_float (Const_eval.eval_int e)
          | None -> Some 0.
        in
        globals :=
          {
            g_name = v.v_name;
            g_size = size;
            g_init = init;
            g_finit = finit;
            g_float = is_float_ty v.v_ty;
          }
          :: !globals;
        (* struct globals also get field slots *)
        (match v.v_ty with
        | Tstruct tag | Tunion tag -> (
          match Hashtbl.find_opt struct_fields tag with
          | Some fields ->
            List.iter
              (fun f ->
                globals :=
                  {
                    g_name = v.v_name ^ "." ^ f.fld_name;
                    g_size = 1;
                    g_init = Some 0L;
                    g_finit = Some 0.;
                    g_float = is_float_ty f.fld_ty;
                  }
                  :: !globals)
              fields
          | None -> ())
        | _ -> ())
      | _ -> ())
    tu.globals;
  let funcs = ref [] in
  List.iter
    (function
      | Gfun fd ->
        let f, locals =
          lower_function ?cov ~types:tc.Typecheck.r_types ~struct_fields fd
        in
        funcs := f :: !funcs;
        globals := locals @ !globals
      | _ -> ())
    tu.globals;
  { p_funcs = List.rev !funcs; p_globals = List.rev !globals }
