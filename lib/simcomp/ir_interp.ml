(* IR interpreter.

   Executes the register-machine IR produced by Lower, before or after
   optimization passes.  Together with the AST-level Interp this enables
   differential testing: for a deterministic program, the AST semantics,
   the freshly lowered IR, and the optimized IR must all agree — the
   soundness property of the optimizer exercised by the test suite.

   Scope: the integer/float scalar subset plus named slots and arrays
   (what Lower produces for generator output).  Calls reach user
   functions and a few numeric builtins; string-manipulating builtins are
   out of scope and reported as [Unsupported].

   A run has two steps.  [resolve] walks the program once and replaces
   every name with an index: slot names become slot ids, jump targets
   become block indices, callees become function indices (or builtins),
   and constant operands are boxed once.  Execution then never hashes a
   string or scans a list.  Anything malformed that the IR can express —
   a register outside the function's register file, a jump to a missing
   label, a function without blocks — resolves to a form that raises
   [Unsupported] at the point where the name-based reading would have
   failed, so fuel accounting and failure precedence do not depend on
   the resolved form. *)

open Ir

exception Trap            (* division by zero, out-of-bounds, null deref *)
exception Out_of_fuel
exception Unsupported of string

(* [VAddr (slot, i)]: element [i] of slot [slot]. *)
type value = VI of int64 | VF of float | VAddr of int * int

type outcome = {
  o_exit : int;
  o_trapped : bool;
  o_hang : bool;
  o_unsupported : string option;
}

(* ------------------------------------------------------------------ *)
(* Resolved form                                                       *)
(* ------------------------------------------------------------------ *)

type roperand =
  | Oreg of int           (* in range for the function's register file *)
  | Oconst of value
  | Obad_reg              (* a register the function does not have *)

type raddress =
  | Rvar of int
  | Rindex of int * roperand
  | Rptr of roperand

type callee = Func of int | Builtin of string

type rinstr =
  | Rbin of Cparse.Ast.binop * int * roperand * roperand
  | Run of Cparse.Ast.unop * int * roperand
  | Rmov of int * roperand
  | Rcast of int * Cparse.Ast.ty * roperand
  | Rload of int * raddress
  | Rstore of raddress * roperand
  | Rindex_addr of int * int * roperand        (* destination, slot, index *)
  | Rcall of int * callee * roperand array     (* destination -1: none *)
  | Rbad_dest of rinstr
      (* the instruction writes the scratch register past the function's
         own, then the out-of-range destination is reported *)

type rterm =
  | Rret of roperand option
  | Rjmp of int
  | Rbr of roperand * int * int
  | Rswitch of roperand * (int64 * int) array * int   (* first match wins *)
  | Runreachable
  | Rmissing of label     (* the block a jump to an absent label enters *)

type rblock = { instrs : rinstr array; term : rterm }

type rfunc = {
  name : string;
  params : int array;     (* slot ids, bound in order *)
  nregs : int;            (* register file size *)
  blocks : rblock array;  (* entry first; empty when the function has none *)
}

type state = {
  funcs : rfunc array;
  slots : value array array;
  mutable fuel : int;
  mutable depth : int;
}

let zero = VI 0L

(* First-match index over a list, as [List.find_opt] would pick. *)
let first_index key items =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i x -> if not (Hashtbl.mem tbl (key x)) then Hashtbl.add tbl (key x) i) items;
  tbl

let resolve_func ~slot_id ~callee (f : func) : rfunc =
  let n = f.fn_nregs + 1 in
  let bad_dest = ref false in
  let with_dest r mk =
    if r >= 0 && r < n then mk r
    else begin
      bad_dest := true;
      Rbad_dest (mk (max 0 n))
    end
  in
  let operand = function
    | Reg r -> if r >= 0 && r < n then Oreg r else Obad_reg
    | Imm v -> Oconst (VI v)
    | Fimm x -> Oconst (VF x)
    | Sym s -> Oconst (VAddr (slot_id s, 0))
  in
  let address = function
    | Avar name -> Rvar (slot_id name)
    | Aindex (name, idx, _) -> Rindex (slot_id name, operand idx)
    | Areg op -> Rptr (operand op)
  in
  let instr = function
    | Ibin (op, r, a, b) -> with_dest r (fun r -> Rbin (op, r, operand a, operand b))
    | Iun (op, r, a) -> with_dest r (fun r -> Run (op, r, operand a))
    | Imov (r, a) -> with_dest r (fun r -> Rmov (r, operand a))
    | Icast (r, ty, a) -> with_dest r (fun r -> Rcast (r, ty, operand a))
    | Iload (r, addr) -> with_dest r (fun r -> Rload (r, address addr))
    | Istore (addr, v) -> Rstore (address addr, operand v)
    | Iaddr (r, Avar name) -> with_dest r (fun r -> Rmov (r, Oconst (VAddr (slot_id name, 0))))
    | Iaddr (r, Aindex (name, idx, _)) ->
      with_dest r (fun r -> Rindex_addr (r, slot_id name, operand idx))
    | Iaddr (r, Areg op) -> with_dest r (fun r -> Rmov (r, operand op))
    | Icall (r, fname, args) -> (
      let args = Array.of_list (List.map operand args) in
      match r with
      | None -> Rcall (-1, callee fname, args)
      | Some r -> with_dest r (fun r -> Rcall (r, callee fname, args)))
  in
  let labels = first_index (fun b -> b.b_label) f.fn_blocks in
  let nblocks = List.length f.fn_blocks in
  let missing = ref [] in
  let target l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None -> (
      match List.assoc_opt l !missing with
      | Some i -> i
      | None ->
        let i = nblocks + List.length !missing in
        missing := (l, i) :: !missing;
        i)
  in
  let term = function
    | Tret op -> Rret (Option.map operand op)
    | Tjmp l -> Rjmp (target l)
    | Tbr (c, lt, lf) -> Rbr (operand c, target lt, target lf)
    | Tswitch (c, cases, d) ->
      Rswitch (operand c, Array.of_list (List.map (fun (v, l) -> (v, target l)) cases), target d)
    | Tunreachable -> Runreachable
  in
  let blocks =
    Array.of_list
      (List.map (fun b -> { instrs = Array.of_list (List.map instr b.b_instrs); term = term b.b_term })
         f.fn_blocks)
  in
  let missing_blocks =
    Array.of_list (List.rev_map (fun (l, _) -> { instrs = [||]; term = Rmissing l }) !missing)
  in
  {
    name = f.fn_name;
    params = Array.of_list (List.map slot_id f.fn_params);
    nregs = max 0 n + (if !bad_dest then 1 else 0);
    blocks = Array.append blocks missing_blocks;
  }

(* The state a run starts from, and [main]'s index.  Every non-global
   name gets one fresh zero cell; a global is sized and initialized by
   its last declaration. *)
let resolve (p : program) : state * int option =
  let ids = Hashtbl.create 64 in
  let slot_id name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids name i;
      i
  in
  let func_index = first_index (fun f -> f.fn_name) p.p_funcs in
  let callee name =
    match Hashtbl.find_opt func_index name with Some i -> Func i | None -> Builtin name
  in
  let funcs = Array.of_list (List.map (resolve_func ~slot_id ~callee) p.p_funcs) in
  List.iter (fun g -> ignore (slot_id g.g_name)) p.p_globals;
  let slots = Array.init (Hashtbl.length ids) (fun _ -> [| zero |]) in
  List.iter
    (fun g ->
      let init =
        if g.g_float then VF (Option.value ~default:0. g.g_finit)
        else VI (Option.value ~default:0L g.g_init)
      in
      slots.(Hashtbl.find ids g.g_name) <- Array.make (max 1 g.g_size) init)
    p.p_globals;
  ({ funcs; slots; fuel = 0; depth = 0 }, Hashtbl.find_opt func_index "main")

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let as_int = function
  | VI v -> v
  | VF f -> Int64.of_float f
  | VAddr _ -> 1L

let as_float = function
  | VI v -> Int64.to_float v
  | VF f -> f
  | VAddr _ -> 1.

let int_binop op a b =
  let open Int64 in
  let bool_ x = if x then 1L else 0L in
  match (op : Cparse.Ast.binop) with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if equal b 0L then raise Trap else div a b
  | Mod -> if equal b 0L then raise Trap else rem a b
  | Shl -> shift_left a (to_int (logand b 63L))
  | Shr -> shift_right a (to_int (logand b 63L))
  | Lt -> bool_ (compare a b < 0)
  | Gt -> bool_ (compare a b > 0)
  | Le -> bool_ (compare a b <= 0)
  | Ge -> bool_ (compare a b >= 0)
  | Eq -> bool_ (equal a b)
  | Ne -> bool_ (not (equal a b))
  | Band -> logand a b
  | Bxor -> logxor a b
  | Bor -> logor a b
  | Land -> bool_ ((not (equal a 0L)) && not (equal b 0L))
  | Lor -> bool_ ((not (equal a 0L)) || not (equal b 0L))

let float_binop op a b : value =
  let bool_ x = VI (if x then 1L else 0L) in
  match (op : Cparse.Ast.binop) with
  | Add -> VF (a +. b)
  | Sub -> VF (a -. b)
  | Mul -> VF (a *. b)
  | Div -> VF (a /. b)
  | Mod -> VF (Float.rem a b)
  | Lt -> bool_ (a < b)
  | Gt -> bool_ (a > b)
  | Le -> bool_ (a <= b)
  | Ge -> bool_ (a >= b)
  | Eq -> bool_ (a = b)
  | Ne -> bool_ (a <> b)
  | Land -> bool_ (a <> 0. && b <> 0.)
  | Lor -> bool_ (a <> 0. || b <> 0.)
  | (Shl | Shr | Band | Bxor | Bor) as op ->
    VI (int_binop op (Int64.of_float a) (Int64.of_float b))

(* Pointer arithmetic: address +/- byte offset scaled by the element size
   recorded in the addressing mode is approximated by element-count
   arithmetic (lowering multiplies indices by sizeof, so divide back at
   8-byte granularity like the lowered code uses). *)
let addr_arith op slot i k =
  match (op : Cparse.Ast.binop) with
  | Add -> VAddr (slot, i + Int64.to_int k)
  | Sub -> VAddr (slot, i - Int64.to_int k)
  | _ -> raise (Unsupported "pointer arithmetic")

let eval_binop op (a : value) (b : value) : value =
  match a, b with
  | VF _, _ | _, VF _ -> float_binop op (as_float a) (as_float b)
  | VAddr (s, i), VI k | VI k, VAddr (s, i) -> addr_arith op s i k
  | VAddr (s1, i1), VAddr (s2, i2) -> (
    match op with
    | Sub when s1 = s2 -> VI (Int64.of_int (i1 - i2))
    | Eq -> VI (if s1 = s2 && i1 = i2 then 1L else 0L)
    | Ne -> VI (if s1 = s2 && i1 = i2 then 0L else 1L)
    | _ -> raise (Unsupported "address-address arithmetic"))
  | VI x, VI y -> VI (int_binop op x y)

let eval_unop op (v : value) : value =
  match (op : Cparse.Ast.unop), v with
  | Neg, VF f -> VF (-.f)
  | Neg, v -> VI (Int64.neg (as_int v))
  | Uplus, v -> v
  | Bitnot, v -> VI (Int64.lognot (as_int v))
  | Lognot, VF f -> VI (if f = 0. then 1L else 0L)
  | Lognot, VAddr _ -> VI 0L
  | Lognot, v -> VI (if Int64.equal (as_int v) 0L then 1L else 0L)

let eval_cast (ty : Cparse.Ast.ty) (v : value) : value =
  match ty with
  | Cparse.Ast.Tfloat | Cparse.Ast.Tdouble -> VF (as_float v)
  | Cparse.Ast.Tbool -> VI (if Int64.equal (as_int v) 0L then 0L else 1L)
  | Cparse.Ast.Tint (Ichar, true) ->
    let x = Int64.to_int (as_int v) land 0xff in
    VI (Int64.of_int (if x land 0x80 <> 0 then x - 0x100 else x))
  | Cparse.Ast.Tint (Ichar, false) ->
    VI (Int64.of_int (Int64.to_int (as_int v) land 0xff))
  | Cparse.Ast.Tint (Ishort, true) ->
    let x = Int64.to_int (as_int v) land 0xffff in
    VI (Int64.of_int (if x land 0x8000 <> 0 then x - 0x10000 else x))
  | Cparse.Ast.Tint (Ishort, false) ->
    VI (Int64.of_int (Int64.to_int (as_int v) land 0xffff))
  | Cparse.Ast.Tint _ -> VI (as_int v)
  | Cparse.Ast.Tptr _ -> v
  | _ -> v

let call_builtin name (args : value array) : value =
  match name, args with
  | "abs", [| v |] -> VI (Int64.abs (as_int v))
  | "rand", [||] -> VI 42L
  | "abort", _ -> raise Trap
  | _ -> raise (Unsupported ("builtin " ^ name))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let tick st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

(* [Oreg r] was checked against the register file when resolved. *)
let operand (regs : value array) = function
  | Oreg r -> Array.unsafe_get regs r
  | Oconst v -> v
  | Obad_reg -> raise (Unsupported "register out of range")

(* Slot [s]'s cells, once element [i] is known to exist. *)
let cells st s i =
  let cells = st.slots.(s) in
  if i < 0 || i >= Array.length cells then raise Trap;
  cells

let load st regs = function
  | Rvar s -> st.slots.(s).(0)
  | Rindex (s, idx) ->
    let i = Int64.to_int (as_int (operand regs idx)) in
    (cells st s i).(i)
  | Rptr op -> (
    match operand regs op with
    | VAddr (s, i) -> (cells st s i).(i)
    | VI 0L -> raise Trap
    | _ -> raise (Unsupported "load through a non-address value"))

let store st regs addr v =
  match addr with
  | Rvar s -> st.slots.(s).(0) <- v
  | Rindex (s, idx) ->
    let i = Int64.to_int (as_int (operand regs idx)) in
    (cells st s i).(i) <- v
  | Rptr op -> (
    match operand regs op with
    | VAddr (s, i) -> (cells st s i).(i) <- v
    | VI 0L -> raise Trap
    | _ -> raise (Unsupported "store through a non-address value"))

let rec call st (f : rfunc) (args : value array) : value =
  tick st;
  st.depth <- st.depth + 1;
  if st.depth > 100 then raise Out_of_fuel;
  for i = 0 to Array.length f.params - 1 do
    st.slots.(f.params.(i)).(0) <- (if i < Array.length args then args.(i) else zero)
  done;
  if Array.length f.blocks = 0 then raise (Unsupported (Fmt.str "function %s has no blocks" f.name));
  let result = run_block st f (Array.make f.nregs zero) 0 in
  st.depth <- st.depth - 1;
  result

and exec st (regs : value array) = function
  | Rbin (op, r, a, b) ->
    let a = operand regs a in
    regs.(r) <- eval_binop op a (operand regs b)
  | Run (op, r, a) -> regs.(r) <- eval_unop op (operand regs a)
  | Rmov (r, a) -> regs.(r) <- operand regs a
  | Rcast (r, ty, a) -> regs.(r) <- eval_cast ty (operand regs a)
  | Rload (r, addr) -> regs.(r) <- load st regs addr
  | Rstore (addr, v) -> store st regs addr (operand regs v)
  | Rindex_addr (r, s, idx) -> regs.(r) <- VAddr (s, Int64.to_int (as_int (operand regs idx)))
  | Rcall (r, c, args) ->
    let vargs = Array.map (operand regs) args in
    let v =
      match c with
      | Func i -> call st st.funcs.(i) vargs
      | Builtin name -> call_builtin name vargs
    in
    if r >= 0 then regs.(r) <- v
  | Rbad_dest i ->
    exec st regs i;
    raise (Unsupported "destination register out of range")

and run_block st f regs bi =
  tick st;
  let b = f.blocks.(bi) in
  for k = 0 to Array.length b.instrs - 1 do
    tick st;
    exec st regs b.instrs.(k)
  done;
  match b.term with
  | Rret None -> zero
  | Rret (Some op) -> operand regs op
  | Rjmp l -> run_block st f regs l
  | Rbr (c, lt, lf) ->
    let truthy =
      match operand regs c with
      | VI x -> not (Int64.equal x 0L)
      | VF x -> x <> 0.
      | VAddr _ -> true
    in
    run_block st f regs (if truthy then lt else lf)
  | Rswitch (c, cases, d) ->
    let v = as_int (operand regs c) in
    let rec find k =
      if k = Array.length cases then d
      else
        let key, l = cases.(k) in
        if Int64.equal key v then l else find (k + 1)
    in
    run_block st f regs (find 0)
  | Runreachable -> raise Trap
  | Rmissing l -> raise (Unsupported (Fmt.str "missing block L%d" l))

let run ?(fuel = 500_000) (p : program) : outcome =
  let st, main = resolve p in
  st.fuel <- fuel;
  let finish exit trapped hang unsupported =
    { o_exit = exit; o_trapped = trapped; o_hang = hang; o_unsupported = unsupported }
  in
  match main with
  | None -> finish 0 false false None
  | Some main -> (
    match call st st.funcs.(main) [||] with
    | v -> finish (Int64.to_int (as_int v) land 0xff) false false None
    | exception Trap -> finish 134 true false None
    | exception Out_of_fuel -> finish 124 false true None
    | exception Unsupported what -> finish 0 false false (Some what))

let observable ?fuel (p : program) : (int * bool) option =
  let o = run ?fuel p in
  if o.o_hang || Option.is_some o.o_unsupported then None
  else Some (o.o_exit, o.o_trapped)
