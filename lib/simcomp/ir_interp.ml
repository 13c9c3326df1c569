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

   A run has two steps.  [compile] walks the program once and lays out
   one cell space for the run: every name's slot cells and every
   constant operand get cells, and the registers of the active calls
   live on a stack above them.  A cell is a kind in an [int array] (int,
   float, or the address of a slot) and a 64-bit payload in a [Bytes],
   so writing one allocates nothing.  Instructions are compiled to
   cell offsets: an operand is a register of the current frame or the
   cell of a constant.  Execution then never hashes a string, scans a
   list or boxes a number on its int paths.

   Anything malformed that the IR can express — a register outside the
   function's register file, a jump to a missing label, a function
   without blocks — compiles to a form that raises [Unsupported] at the
   point where the name-based reading would have failed, so fuel
   accounting and failure precedence do not depend on the compiled
   form. *)

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
(* Values: the semantics, defined once for every path                  *)
(* ------------------------------------------------------------------ *)

let as_int = function
  | VI v -> v
  | VF f -> Int64.of_float f
  | VAddr _ -> 1L

let as_float = function
  | VI v -> Int64.to_float v
  | VF f -> f
  | VAddr _ -> 1.

(* Inlined, so that the int path computes on unboxed payloads. *)
let[@inline] int_binop op a b =
  let open Int64 in
  match (op : Cparse.Ast.binop) with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if equal b 0L then raise Trap else div a b
  | Mod -> if equal b 0L then raise Trap else rem a b
  | Shl -> shift_left a (to_int (logand b 63L))
  | Shr -> shift_right a (to_int (logand b 63L))
  | Lt -> if compare a b < 0 then 1L else 0L
  | Gt -> if compare a b > 0 then 1L else 0L
  | Le -> if compare a b <= 0 then 1L else 0L
  | Ge -> if compare a b >= 0 then 1L else 0L
  | Eq -> if equal a b then 1L else 0L
  | Ne -> if equal a b then 0L else 1L
  | Band -> logand a b
  | Bxor -> logxor a b
  | Bor -> logor a b
  | Land -> if (not (equal a 0L)) && not (equal b 0L) then 1L else 0L
  | Lor -> if (not (equal a 0L)) || not (equal b 0L) then 1L else 0L

(* Inlined, so that the float path computes on unboxed payloads. *)
let[@inline] float_arith op a b =
  match (op : Cparse.Ast.binop) with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | _ -> a /. b

let float_binop op a b : value =
  let bool_ x = VI (if x then 1L else 0L) in
  match (op : Cparse.Ast.binop) with
  | Add | Sub | Mul | Div -> VF (float_arith op a b)
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

let[@inline] int_unop op x =
  match (op : Cparse.Ast.unop) with
  | Neg -> Int64.neg x
  | Uplus -> x
  | Bitnot -> Int64.lognot x
  | Lognot -> if Int64.equal x 0L then 1L else 0L

let eval_unop op (v : value) : value =
  match (op : Cparse.Ast.unop), v with
  | Neg, VF f -> VF (-.f)
  | Uplus, v -> v
  | Lognot, VF f -> VI (if f = 0. then 1L else 0L)
  | Lognot, VAddr _ -> VI 0L
  | op, v -> VI (int_unop op (as_int v))

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

let truthy = function
  | VI x -> not (Int64.equal x 0L)
  | VF x -> x <> 0.
  | VAddr _ -> true

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

(* A cell's kind: an int, a float (its payload holds the bits), the
   address of slot [k - 2] (its payload holds the element index), or
   poison, the cell a register outside the function's file reads as. *)
let k_int = 0
let k_float = 1
let k_poison = -1

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The run's cells, in order: poison, the constant int 0, the return
   cell, then slot cells and constants in order of first use, then the
   register stack. *)
let poison = 0
let zero = 1
let ret = 2

(* An operand is register [o] of the current frame when [o >= 0], and
   cell [lnot o] otherwise. *)
let[@inline] cell fp o = if o >= 0 then fp + o else lnot o

type ins =
  | Bin of Cparse.Ast.binop * int * int * int   (* destination, operands *)
  | Un of Cparse.Ast.unop * int * int
  | Mov of int * int
  | Cast of Cparse.Ast.ty * int * int
  | Load of int * int                           (* destination, slot cell *)
  | Store of int * int                          (* slot cell, operand *)
  | Load_idx of int * int * int * int           (* destination, slot base, length, index *)
  | Store_idx of int * int * int * int          (* slot base, length, index, operand *)
  | Index_addr of int * int * int               (* destination, slot, index *)
  | Load_ptr of int * int
  | Store_ptr of int * int                      (* pointer, operand *)
  | Call of int * int * int array               (* destination -1: none *)
  | Builtin of int * string * int array
  | Bad_dest of ins
      (* the instruction writes the scratch register past the function's
         own, then the out-of-range destination is reported *)

type term =
  | Ret of int
  | Jmp of int
  | Br of int * int * int
  | Switch of int * (int64 * int) array * int   (* first match wins *)
  | Unreachable
  | Missing of label     (* the block a jump to an absent label enters *)

(* [prepaid]: no instruction calls a user function, so the block may pay
   for all of its instructions on entry. *)
type block = { code : ins array; term : term; prepaid : bool }

type fn = {
  name : string;
  params : int array;     (* slot cells, bound in order *)
  nregs : int;            (* register window size *)
  blocks : block array;   (* entry first; empty when the function has none *)
}

(* [Bytes.length pay = 8 * Array.length kind]; every access reads or
   writes [kind] (bounds-checked) before the payload at the same cell. *)
type state = {
  mutable kind : int array;
  mutable pay : Bytes.t;
  mutable fuel : int;
  mutable depth : int;
  mutable funcs : fn array;
  mutable sbase : int array;   (* slot id -> first cell *)
  mutable slen : int array;    (* slot id -> cell count *)
}

(* Grow the space, doubling, until cells [0, n) exist. *)
let reserve st n =
  let cap = Array.length st.kind in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let kind = Array.make cap' k_int and pay = Bytes.create (cap' lsl 3) in
    Array.blit st.kind 0 kind 0 cap;
    Bytes.blit st.pay 0 pay 0 (cap lsl 3);
    st.kind <- kind;
    st.pay <- pay
  end

let[@inline] int_at st c = get64 st.pay (c lsl 3)

let[@inline] set_int st c x =
  st.kind.(c) <- k_int;
  set64 st.pay (c lsl 3) x

let[@inline] float_at st c = Int64.float_of_bits (int_at st c)

let[@inline] set_float st c x =
  st.kind.(c) <- k_float;
  set64 st.pay (c lsl 3) (Int64.bits_of_float x)

let value st c =
  let k = st.kind.(c) in
  let x = get64 st.pay (c lsl 3) in
  if k = k_int then VI x
  else if k = k_float then VF (Int64.float_of_bits x)
  else if k = k_poison then raise (Unsupported "register out of range")
  else VAddr (k - 2, Int64.to_int x)

let[@inline] set_addr st c s i =
  st.kind.(c) <- s + 2;
  set64 st.pay (c lsl 3) (Int64.of_int i)

let put st c = function
  | VI x -> set_int st c x
  | VF x -> set_float st c x
  | VAddr (s, i) -> set_addr st c s i

let[@inline] readable st c = if st.kind.(c) = k_poison then raise (Unsupported "register out of range")

let[@inline] copy st ~src ~dst =
  let k = st.kind.(src) in
  if k = k_poison then raise (Unsupported "register out of range");
  st.kind.(dst) <- k;
  set64 st.pay (dst lsl 3) (get64 st.pay (src lsl 3))

(* An index operand's value, as an address element. *)
let index st c = Int64.to_int (if st.kind.(c) = k_int then int_at st c else as_int (value st c))

(* The cell of element [i] of slot [s], once it is known to exist. *)
let[@inline] slot_cell st s i =
  if i < 0 || i >= st.slen.(s) then raise Trap;
  st.sbase.(s) + i

(* The cell a pointer operand designates. *)
let deref st c what =
  let k = st.kind.(c) in
  if k >= 2 then slot_cell st (k - 2) (Int64.to_int (int_at st c))
  else match value st c with VI 0L -> raise Trap | _ -> raise (Unsupported what)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

module Names = Cparse.Names

let rec calls_user = function Call _ -> true | Bad_dest i -> calls_user i | _ -> false

(* The state a run starts from, [main]'s index, and the first register
   cell.  Every non-global name gets one zero cell; a global is sized and
   initialized by its last declaration. *)
let compile (p : program) : state * int option * int =
  let st =
    { kind = Array.make 256 k_int; pay = Bytes.make 2048 '\000'; fuel = 0; depth = 0;
      funcs = [||]; sbase = [||]; slen = [||] }
  in
  st.kind.(poison) <- k_poison;
  let used = ref (ret + 1) in
  let alloc v n =
    let c = !used in
    reserve st (c + n);
    used := c + n;
    for i = c to c + n - 1 do put st i v done;
    c
  in
  let globals = Names.create 16 in
  List.iter (fun g -> Names.replace globals g.g_name g) p.p_globals;
  (* name -> slot id, first cell, cell count *)
  let slots = Names.create 64 in
  let slot name =
    match Names.find_opt slots name with
    | Some s -> s
    | None ->
      let len, init =
        match Names.find_opt globals name with
        | Some g when g.g_float -> (max 1 g.g_size, VF (Option.value ~default:0. g.g_finit))
        | Some g -> (max 1 g.g_size, VI (Option.value ~default:0L g.g_init))
        | None -> (1, VI 0L)
      in
      let s = (Names.length slots, alloc init len, len) in
      Names.add slots name s;
      s
  in
  let base name = let _, b, _ = slot name in b in
  (* first match, as [List.find_opt] would pick *)
  let func_index = Names.create 16 in
  List.iteri (fun i f -> if not (Names.mem func_index f.fn_name) then Names.add func_index f.fn_name i) p.p_funcs;
  let func (f : func) : fn =
    let n = f.fn_nregs + 1 in
    let scratch = max 0 n in
    let bad_dest = ref false in
    let valid r = r >= 0 && r < n in
    let dst r = if valid r then r else (bad_dest := true; scratch) in
    let wrap r i = if valid r then i else Bad_dest i in
    let operand = function
      | Reg r -> if valid r then r else lnot poison
      | Imm v -> lnot (alloc (VI v) 1)
      | Fimm x -> lnot (alloc (VF x) 1)
      | Sym s -> let id, _, _ = slot s in lnot (alloc (VAddr (id, 0)) 1)
    in
    let instr = function
      | Ibin (op, r, a, b) -> wrap r (Bin (op, dst r, operand a, operand b))
      | Iun (op, r, a) -> wrap r (Un (op, dst r, operand a))
      | Imov (r, a) | Iaddr (r, Areg a) -> wrap r (Mov (dst r, operand a))
      | Icast (r, ty, a) -> wrap r (Cast (ty, dst r, operand a))
      | Iload (r, Avar x) -> wrap r (Load (dst r, base x))
      | Iload (r, Aindex (x, i, _)) ->
        let _, b, len = slot x in
        wrap r (Load_idx (dst r, b, len, operand i))
      | Iload (r, Areg a) -> wrap r (Load_ptr (dst r, operand a))
      | Istore (Avar x, v) -> Store (base x, operand v)
      | Istore (Aindex (x, i, _), v) ->
        let _, b, len = slot x in
        Store_idx (b, len, operand i, operand v)
      | Istore (Areg a, v) -> Store_ptr (operand a, operand v)
      | Iaddr (r, Avar x) -> wrap r (Mov (dst r, operand (Sym x)))
      | Iaddr (r, Aindex (x, i, _)) ->
        let id, _, _ = slot x in
        wrap r (Index_addr (dst r, id, operand i))
      | Icall (r, name, args) -> (
        let args = Array.of_list (List.map operand args) in
        let call d =
          match Names.find_opt func_index name with
          | Some i -> Call (d, i, args)
          | None -> Builtin (d, name, args)
        in
        match r with None -> call (-1) | Some r -> wrap r (call (dst r)))
    in
    (* the arena's label index: the first block with a label wins;
       targets need positions only, not the blocks *)
    let arena = Scratch.get () in
    let nblocks = Scratch.index_labels arena f in
    Scratch.release_blocks arena;
    let missing = ref [] in
    let target l =
      let i = Scratch.block_index arena l in
      if i >= 0 then i
      else
        match List.assoc_opt l !missing with
        | Some i -> i
        | None ->
          let i = nblocks + List.length !missing in
          missing := (l, i) :: !missing;
          i
    in
    let term = function
      | Tret None -> Ret (lnot zero)
      | Tret (Some op) -> Ret (operand op)
      | Tjmp l -> Jmp (target l)
      | Tbr (c, lt, lf) -> Br (operand c, target lt, target lf)
      | Tswitch (c, cases, d) ->
        Switch (operand c, Array.of_list (List.map (fun (v, l) -> (v, target l)) cases), target d)
      | Tunreachable -> Unreachable
    in
    let block b =
      let code = Array.map instr b.b_instrs in
      { code; term = term b.b_term; prepaid = not (Array.exists calls_user code) }
    in
    let blocks = Array.of_list (List.map block f.fn_blocks) in
    let missing_blocks =
      Array.of_list
        (List.rev_map (fun (l, _) -> { code = [||]; term = Missing l; prepaid = true }) !missing)
    in
    let params = Array.of_list (List.map base f.fn_params) in
    {
      name = f.fn_name;
      params;
      nregs = scratch + (if !bad_dest then 1 else 0);
      blocks = Array.append blocks missing_blocks;
    }
  in
  st.funcs <- Array.of_list (List.map func p.p_funcs);
  let nslots = Names.length slots in
  st.sbase <- Array.make nslots 0;
  st.slen <- Array.make nslots 0;
  Names.iter
    (fun _ (s, b, len) ->
      st.sbase.(s) <- b;
      st.slen.(s) <- len)
    slots;
  (st, Names.find_opt func_index "main", !used)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let[@inline] tick st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

(* Call [f] with its register window at [fp]; the arguments are operands
   of the caller's frame at [afp], already known to be readable.  The
   result is left in the return cell. *)
let rec call st (f : fn) fp (args : int array) afp =
  tick st;
  st.depth <- st.depth + 1;
  if st.depth > 100 then raise Out_of_fuel;
  for i = 0 to Array.length f.params - 1 do
    if i < Array.length args then copy st ~src:(cell afp args.(i)) ~dst:f.params.(i)
    else set_int st f.params.(i) 0L
  done;
  if Array.length f.blocks = 0 then raise (Unsupported (Fmt.str "function %s has no blocks" f.name));
  (* an unwritten register reads as int 0 *)
  reserve st (fp + f.nregs);
  Array.fill st.kind fp f.nregs k_int;
  Bytes.fill st.pay (fp lsl 3) (f.nregs lsl 3) '\000';
  run_block st f fp 0;
  st.depth <- st.depth - 1

(* The int paths: no call is made here but the tail call to
   [exec_slow], which runs every other case. *)
and exec st (f : fn) fp ins =
  match ins with
  | Bin (op, d, a, b) ->
    let a = cell fp a and b = cell fp b in
    if st.kind.(a) = k_int && st.kind.(b) = k_int then
      set_int st (fp + d) (int_binop op (int_at st a) (int_at st b))
    else float_bin st f fp ins op d a b
  | Un (op, d, a) ->
    let a = cell fp a in
    if st.kind.(a) = k_int then set_int st (fp + d) (int_unop op (int_at st a))
    else exec_slow st f fp ins
  | Mov (d, a) -> copy st ~src:(cell fp a) ~dst:(fp + d)
  | Load (d, c) -> copy st ~src:c ~dst:(fp + d)
  | Store (c, a) -> copy st ~src:(cell fp a) ~dst:c
  | Load_idx (d, b, len, i) ->
    let i = cell fp i in
    if st.kind.(i) <> k_int then exec_slow st f fp ins
    else begin
      let i = Int64.to_int (int_at st i) in
      if i < 0 || i >= len then raise Trap;
      copy st ~src:(b + i) ~dst:(fp + d)
    end
  | Store_idx (b, len, i, a) ->
    (* the stored value is read before the address *)
    let a = cell fp a and i = cell fp i in
    readable st a;
    if st.kind.(i) <> k_int then exec_slow st f fp ins
    else begin
      let i = Int64.to_int (int_at st i) in
      if i < 0 || i >= len then raise Trap;
      copy st ~src:a ~dst:(b + i)
    end
  | _ -> exec_slow st f fp ins

(* Float arithmetic on two floats; its bit casts are C calls, so it is
   kept out of [exec]. *)
and float_bin st f fp ins op d a b =
  match op with
  | (Add | Sub | Mul | Div) when st.kind.(a) = k_float && st.kind.(b) = k_float ->
    set_float st (fp + d) (float_arith op (float_at st a) (float_at st b))
  | _ -> exec_slow st f fp ins

(* Every operand decoded to a [value], through the same semantics. *)
and exec_slow st f fp = function
  | Bin (op, d, a, b) ->
    let a = value st (cell fp a) in
    put st (fp + d) (eval_binop op a (value st (cell fp b)))
  | Un (op, d, a) -> put st (fp + d) (eval_unop op (value st (cell fp a)))
  | (Mov _ | Load _ | Store _) as i -> exec st f fp i
  | Cast (ty, d, a) -> put st (fp + d) (eval_cast ty (value st (cell fp a)))
  | Load_idx (d, b, len, i) ->
    let i = index st (cell fp i) in
    if i < 0 || i >= len then raise Trap;
    copy st ~src:(b + i) ~dst:(fp + d)
  | Store_idx (b, len, i, a) ->
    let a = cell fp a in
    readable st a;
    let i = index st (cell fp i) in
    if i < 0 || i >= len then raise Trap;
    copy st ~src:a ~dst:(b + i)
  | Index_addr (d, s, i) -> set_addr st (fp + d) s (index st (cell fp i))
  | Load_ptr (d, p) ->
    copy st ~src:(deref st (cell fp p) "load through a non-address value") ~dst:(fp + d)
  | Store_ptr (p, a) ->
    let a = cell fp a in
    readable st a;
    copy st ~src:a ~dst:(deref st (cell fp p) "store through a non-address value")
  | Call (d, i, args) ->
    for k = 0 to Array.length args - 1 do readable st (cell fp args.(k)) done;
    call st st.funcs.(i) (fp + f.nregs) args fp;
    if d >= 0 then copy st ~src:ret ~dst:(fp + d)
  | Builtin (d, name, args) ->
    let v = call_builtin name (Array.map (fun o -> value st (cell fp o)) args) in
    if d >= 0 then put st (fp + d) v
  | Bad_dest i ->
    exec st f fp i;
    raise (Unsupported "destination register out of range")

and run_block st f fp bi =
  tick st;
  let b = f.blocks.(bi) in
  let code = b.code in
  let n = Array.length code in
  (* no tick in a prepaid block can reach zero, and leftover fuel is
     never observed, so paying on entry is exact *)
  if b.prepaid && st.fuel > n then begin
    st.fuel <- st.fuel - n;
    for k = 0 to n - 1 do exec st f fp code.(k) done
  end
  else
    for k = 0 to n - 1 do
      tick st;
      exec st f fp code.(k)
    done;
  match b.term with
  | Ret o -> copy st ~src:(cell fp o) ~dst:ret
  | Jmp l -> run_block st f fp l
  | Br (c, lt, lf) ->
    let c = cell fp c in
    let t = if st.kind.(c) = k_int then not (Int64.equal (int_at st c) 0L) else truthy (value st c) in
    run_block st f fp (if t then lt else lf)
  | Switch (c, cases, d) ->
    let c = cell fp c in
    let v = if st.kind.(c) = k_int then int_at st c else as_int (value st c) in
    let k = ref 0 in
    while !k < Array.length cases && not (Int64.equal (fst cases.(!k)) v) do incr k done;
    run_block st f fp (if !k < Array.length cases then snd cases.(!k) else d)
  | Unreachable -> raise Trap
  | Missing l -> raise (Unsupported (Fmt.str "missing block L%d" l))

let run ?(fuel = 500_000) (p : program) : outcome =
  let st, main, stack = compile p in
  st.fuel <- fuel;
  let finish exit trapped hang unsupported =
    { o_exit = exit; o_trapped = trapped; o_hang = hang; o_unsupported = unsupported }
  in
  match main with
  | None -> finish 0 false false None
  | Some main -> (
    match call st st.funcs.(main) stack [||] 0 with
    | () -> finish (Int64.to_int (as_int (value st ret)) land 0xff) false false None
    | exception Trap -> finish 134 true false None
    | exception Out_of_fuel -> finish 124 false true None
    | exception Unsupported what -> finish 0 false false (Some what))

let observable ?fuel (p : program) : (int * bool) option =
  let o = run ?fuel p in
  if o.o_hang || Option.is_some o.o_unsupported then None
  else Some (o.o_exit, o.o_trapped)
