(* Three-address intermediate representation for the simulated compiler.

   Deliberately GCC-GIMPLE-flavoured: named memory slots for variables,
   virtual registers for temporaries, basic blocks with explicit
   terminators.  The optimizer passes (opt.ml) and back-end (backend.ml)
   operate on this form.

   Ownership.  A block owns its instruction array: no other block or
   program shares it, so a pass may write [b_instrs] in place, and
   [copy] copies every array.  A pass that changes nothing in a block
   leaves its array as it found it, without allocating; one that drops
   instructions installs a fresh exact-size array.

   Leaves are immutable and shared.  Operands, addresses, instructions
   and terminators are never mutated, so one value may appear any number
   of times, in one program or in several: lowering makes one [Avar] per
   declared slot, and [reg] and [imm] hand out preallocated [Reg] and
   small [Imm] operands (sized below).  Nothing may rely on two equal
   leaves being physically distinct. *)

type reg = int
type label = int

type operand =
  | Reg of reg
  | Imm of int64
  | Fimm of float
  | Sym of string          (* address of a named slot / function / string *)

(* Memory addressing. *)
type address =
  | Avar of string                     (* named scalar slot *)
  | Aindex of string * operand * int   (* base slot, index, element size *)
  | Areg of operand                    (* computed pointer *)

type instr =
  | Ibin of Cparse.Ast.binop * reg * operand * operand
  | Iun of Cparse.Ast.unop * reg * operand
  | Imov of reg * operand
  | Icast of reg * Cparse.Ast.ty * operand
  | Iload of reg * address
  | Istore of address * operand
  | Iaddr of reg * address             (* address-of *)
  | Icall of reg option * string * operand list

type terminator =
  | Tret of operand option
  | Tjmp of label
  | Tbr of operand * label * label     (* cond, then, else *)
  | Tswitch of operand * (int64 * label) list * label
  | Tunreachable

type block = {
  b_label : label;
  mutable b_instrs : instr array;      (* owned by the block *)
  mutable b_term : terminator;
}

type func = {
  fn_name : string;
  fn_params : string list;
  fn_ret_void : bool;
  mutable fn_blocks : block list;      (* entry first *)
  mutable fn_nregs : int;
}

type global_slot = {
  g_name : string;
  g_size : int;                        (* element count: 1 for scalars *)
  g_init : int64 option;
  g_finit : float option;             (* initializer for float slots *)
  g_float : bool;
}

type program = {
  p_funcs : func list;
  p_globals : global_slot list;
}

(* ------------------------------------------------------------------ *)
(* Shared leaves                                                       *)
(* ------------------------------------------------------------------ *)

(* [Reg r] for r < 1024 and [Imm v] for -16 <= v <= 255, built once
   (about 3.1k and 1.6k words).  Sized on a counting probe of the
   benchmark's replay (-O3), fuzz (-O2) and wrong-code workloads: r < 1024
   covers every register operand lowering made on replay and fuzz and 97%
   on wrong-code, where r < 256 covers 59-64%.  Lowering's constants all
   fall in 0..15; of constfold's folded values, -16..255 covers 87-88%,
   and -256..1023 would add 3 points for a table five times the size.
   Per operation the register table saves 0.9-1.1k allocated words and
   the constant table 0.6-0.8k: replay allocates 45.0k words with
   neither, 43.9k with the first and 43.2k with both. *)
let shared_regs = 1024
let reg_leaves = Array.init shared_regs (fun r -> Reg r)

let[@inline] reg r = if r >= 0 && r < shared_regs then Array.unsafe_get reg_leaves r else Reg r

let imm_lo = -16
let imm_hi = 255
let imm_leaves = Array.init (imm_hi - imm_lo + 1) (fun i -> Imm (Int64.of_int (i + imm_lo)))

let[@inline] imm_int n =
  if n >= imm_lo && n <= imm_hi then Array.unsafe_get imm_leaves (n - imm_lo)
  else Imm (Int64.of_int n)

let[@inline] imm (v : int64) =
  if Int64.compare v (Int64.of_int imm_lo) >= 0 && Int64.compare v (Int64.of_int imm_hi) <= 0
  then Array.unsafe_get imm_leaves (Int64.to_int v - imm_lo)
  else Imm v

(* ------------------------------------------------------------------ *)
(* Utilities                                                           *)
(* ------------------------------------------------------------------ *)

let successors term =
  match term with
  | Tret _ | Tunreachable -> []
  | Tjmp l -> [ l ]
  | Tbr (_, a, b) -> [ a; b ]
  | Tswitch (_, cases, d) -> d :: List.map snd cases

let instr_count func =
  List.fold_left (fun acc b -> acc + Array.length b.b_instrs + 1) 0 func.fn_blocks

let program_size p = List.fold_left (fun acc f -> acc + instr_count f) 0 p.p_funcs

(* A copy that the optimizer can rewrite without touching [p]: fresh
   function and block records and a copy of every instruction array;
   the leaves they hold, terminators and globals are shared. *)
let copy p =
  {
    p with
    p_funcs =
      List.map
        (fun f ->
          { f with
            fn_blocks = List.map (fun b -> { b with b_instrs = Array.copy b.b_instrs }) f.fn_blocks })
        p.p_funcs;
  }

(* Allocation-free visit of an instruction's register operands: the
   destination first, then the operands read, left to right. *)
let iter_op f = function Reg r -> f r | Imm _ | Fimm _ | Sym _ -> ()

let iter_addr f = function
  | Avar _ -> ()
  | Aindex (_, op, _) | Areg op -> iter_op f op

(* [List.iter (iter_op f)] without the partial application per call. *)
let rec iter_args f = function
  | [] -> ()
  | op :: tl ->
    iter_op f op;
    iter_args f tl

let iter_regs f = function
  | Ibin (_, r, a, b) ->
    f r;
    iter_op f a;
    iter_op f b
  | Iun (_, r, a) | Imov (r, a) | Icast (r, _, a) ->
    f r;
    iter_op f a
  | Iload (r, addr) | Iaddr (r, addr) ->
    f r;
    iter_addr f addr
  | Istore (addr, v) ->
    iter_addr f addr;
    iter_op f v
  | Icall (r, _, args) ->
    (match r with Some r -> f r | None -> ());
    iter_args f args

let iter_term_regs f = function
  | Tret (Some op) | Tbr (op, _, _) | Tswitch (op, _, _) -> iter_op f op
  | Tret None | Tjmp _ | Tunreachable -> ()

let iter_uses f = function
  | Ibin (_, _, a, b) ->
    iter_op f a;
    iter_op f b
  | Iun (_, _, a) | Imov (_, a) | Icast (_, _, a) -> iter_op f a
  | Iload (_, addr) | Iaddr (_, addr) -> iter_addr f addr
  | Istore (addr, v) ->
    iter_addr f addr;
    iter_op f v
  | Icall (_, _, args) -> iter_args f args

(* The destination register, -1 when the instruction has none. *)
let dest_reg = function
  | Ibin (_, r, _, _) | Iun (_, r, _) | Imov (r, _) | Icast (r, _, _)
  | Iload (r, _) | Iaddr (r, _) -> r
  | Icall (Some r, _, _) -> r
  | Icall (None, _, _) | Istore _ -> -1

(* Side-effect-free instructions are candidates for dead-code elimination. *)
let is_pure_instr = function
  | Ibin _ | Iun _ | Imov _ | Icast _ | Iload _ | Iaddr _ -> true
  | Istore _ | Icall _ -> false

(* ------------------------------------------------------------------ *)
(* Printing (for -emit-ir debugging and tests)                         *)
(* ------------------------------------------------------------------ *)

(* The printers append to the one buffer [program_to_string] makes
   rather than formatting a string per operand and per instruction:
   per-pass dumps print the whole program around every pass. *)
let add_int buf n = Buffer.add_string buf (Int.to_string n)
let add_reg buf r = Buffer.add_string buf "%r"; add_int buf r
let add_label buf l = Buffer.add_char buf 'L'; add_int buf l

let add_list buf sep add l =
  List.iteri (fun i x -> if i > 0 then Buffer.add_string buf sep; add buf x) l

let add_operand buf = function
  | Reg r -> add_reg buf r
  | Imm v -> Buffer.add_string buf (Int64.to_string v)
  | Fimm f -> Printf.bprintf buf "%g" f
  | Sym s -> Buffer.add_char buf '@'; Buffer.add_string buf s

let add_address buf a =
  Buffer.add_char buf '[';
  (match a with
  | Avar s -> Buffer.add_string buf s
  | Aindex (b, i, sz) ->
    Buffer.add_string buf b; Buffer.add_string buf " + "; add_operand buf i;
    Buffer.add_char buf '*'; add_int buf sz
  | Areg op -> add_operand buf op);
  Buffer.add_char buf ']'

let add_instr buf i =
  let str = Buffer.add_string buf in
  let def r text = add_reg buf r; str " = "; str text in
  match i with
  | Ibin (op, r, a, b) ->
    def r (Cparse.Pretty.binop_string op); str " "; add_operand buf a; str ", "; add_operand buf b
  | Iun (op, r, a) -> def r (Cparse.Pretty.unop_string op); str " "; add_operand buf a
  | Imov (r, a) -> def r ""; add_operand buf a
  | Icast (r, ty, a) -> def r "cast<"; str (Cparse.Pretty.ty_string ty); str "> "; add_operand buf a
  | Iload (r, addr) -> def r "load "; add_address buf addr
  | Istore (addr, v) -> str "store "; add_address buf addr; str ", "; add_operand buf v
  | Iaddr (r, addr) -> def r "addr "; add_address buf addr
  | Icall (r, f, args) ->
    Option.iter (fun r -> def r "") r;
    str "call "; str f; str "("; add_list buf ", " add_operand args; str ")"

let add_term buf t =
  let str = Buffer.add_string buf in
  match t with
  | Tret None -> str "ret"
  | Tret (Some op) -> str "ret "; add_operand buf op
  | Tjmp l -> str "jmp "; add_label buf l
  | Tbr (c, a, b) ->
    str "br "; add_operand buf c; str ", "; add_label buf a; str ", "; add_label buf b
  | Tswitch (op, cases, d) ->
    str "switch "; add_operand buf op; str " [";
    add_list buf "; " (fun buf (v, l) -> str (Int64.to_string v); str "->"; add_label buf l) cases;
    str "] default "; add_label buf d
  | Tunreachable -> str "unreachable"

let add_func buf f =
  let str = Buffer.add_string buf in
  str "func "; str f.fn_name; str "("; add_list buf ", " Buffer.add_string f.fn_params; str "):\n";
  List.iter
    (fun b ->
      add_label buf b.b_label; str ":\n";
      Array.iter (fun i -> str "  "; add_instr buf i; str "\n") b.b_instrs;
      str "  "; add_term buf b.b_term; str "\n")
    f.fn_blocks

let program_to_string p =
  let buf = Buffer.create 4096 in
  add_list buf "\n" add_func p.p_funcs;
  Buffer.contents buf
