(* Back-end of the simulated compiler: instruction selection to a small
   RISC-flavoured target, linear-scan register allocation over 8 physical
   registers, and assembly emission.

   Selection and emission are fused: operands are written straight into
   the arena's assembly buffer instead of materialising per-instruction
   [asm_instr] records with per-operand strings that were immediately
   re-parsed by the renaming step.  The emitted bytes (and every coverage
   event) are identical to the old two-phase pipeline — the scratch-reuse
   byte-identity test pins this.

   [allocate_program] is the same back-end stopped before emission: it
   allocates registers and reports the selection events from the same
   [instr_event]/[term_event] functions, but writes no buffer. *)

open Ir

let phys_regs = 8

(* ------------------------------------------------------------------ *)
(* Mnemonics                                                           *)
(* ------------------------------------------------------------------ *)

let mnemonic_of_binop (op : Cparse.Ast.binop) =
  match op with
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "rem"
  | Shl -> "sll" | Shr -> "srl"
  | Lt -> "slt" | Gt -> "sgt" | Le -> "sle" | Ge -> "sge"
  | Eq -> "seq" | Ne -> "sne"
  | Band -> "and" | Bxor -> "xor" | Bor -> "or"
  | Land -> "andl" | Lor -> "orl"

(* Immediate forms, pre-concatenated so the hot path never builds the
   mnemonic string ([m ^ "i"] per instruction). *)
let mnemonic_of_binop_imm (op : Cparse.Ast.binop) =
  match op with
  | Add -> "addi" | Sub -> "subi" | Mul -> "muli" | Div -> "divi"
  | Mod -> "remi"
  | Shl -> "slli" | Shr -> "srli"
  | Lt -> "slti" | Gt -> "sgti" | Le -> "slei" | Ge -> "sgei"
  | Eq -> "seqi" | Ne -> "snei"
  | Band -> "andi" | Bxor -> "xori" | Bor -> "ori"
  | Land -> "andli" | Lor -> "orli"

let phys_name = [| "r0"; "r1"; "r2"; "r3"; "r4"; "r5"; "r6"; "r7" |]

(* ------------------------------------------------------------------ *)
(* Linear-scan register allocation                                     *)
(* ------------------------------------------------------------------ *)

(* Compute live intervals of virtual registers over the linear instruction
   order, then allocate [phys_regs] registers; the rest spill.  Fills the
   arena's [regmap] (vreg → phys; -1 = spilled, -2 = untouched) and
   returns it with the spill count.

   Intervals are allocated in order of first touch.  Vregs first touched
   by the same instruction are ordered as the original allocator's
   [Hashtbl.fold] over a [Hashtbl.create 256] table of first positions
   left them (then [List.sort], which is stable): that table ends with
   [l] buckets, [l] the least of 256, 512, ... with [count <= 2l]; the
   fold walks buckets upwards, newest entry first, prepending, so ties
   come out by bucket [Hashtbl.hash r land (l - 1)] descending, then in
   first-touch order.  The order drives register choice, spills, the asm
   bytes and the 0x4200/0x4210 coverage events, so it is kept exactly
   (pinned by the differential test against the table version). *)
let regalloc_into ?cov (s : Scratch.t) (f : func) : int array * int =
  let n = f.fn_nregs in
  Scratch.intervals_for s n;
  let first = s.Scratch.ra_first
  and last = s.Scratch.ra_last
  and order = s.Scratch.ra_order in
  let count = ref 0 and pos = ref 0 in
  let touch r =
    if r < 0 || r > n then invalid_arg "Backend.regalloc: vreg out of range";
    if first.(r) < 0 then begin
      first.(r) <- !pos;
      order.(!count) <- r;
      incr count
    end;
    last.(r) <- !pos
  in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          incr pos;
          (* dest-then-uses visit order matches the list-building
             [dest]/[uses] spellings exactly *)
          iter_regs touch i)
        b.b_instrs;
      incr pos;
      iter_term_regs touch b.b_term)
    f.fn_blocks;
  let count = !count in
  (* ties on the first position: a stable insertion sort of each run by
     bucket, descending *)
  let buckets = ref 256 in
  while count > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let mask = !buckets - 1 in
  let bucket r = Hashtbl.hash r land mask in
  let i = ref 0 in
  while !i < count do
    let p = first.(order.(!i)) in
    let j = ref (!i + 1) in
    while !j < count && first.(order.(!j)) = p do
      incr j
    done;
    for k = !i + 1 to !j - 1 do
      let r = order.(k) in
      let br = bucket r in
      let m = ref k in
      while !m > !i && bucket order.(!m - 1) < br do
        order.(!m) <- order.(!m - 1);
        decr m
      done;
      order.(!m) <- r
    done;
    i := !j
  done;
  let regmap = Scratch.regmap_for s n in
  let active = Array.make phys_regs (-1) (* expiry position *) in
  let spills = ref 0 in
  for k = 0 to count - 1 do
    let r = order.(k) in
    (* the first free or expired physical register *)
    let start = first.(r) in
    let p = ref 0 in
    while !p < phys_regs && active.(!p) >= start do
      incr p
    done;
    if !p < phys_regs then begin
      active.(!p) <- last.(r);
      regmap.(r) <- !p
    end
    else begin
      incr spills;
      regmap.(r) <- -1
    end
  done;
  (match cov with
  | Some cov ->
    Coverage.branch3 cov 0x4200 (min 31 !spills) (count land 0xf);
    (* live-interval shape: length buckets per allocation order position *)
    for k = 0 to min count 64 - 1 do
      let r = order.(k) in
      let len = last.(r) - first.(r) in
      let bucket =
        if len <= 2 then 0 else if len <= 8 then 1
        else if len <= 32 then 2 else if len <= 128 then 3 else 4
      in
      Coverage.branch3 cov 0x4210 k bucket
    done
  | None -> ());
  (regmap, !spills)

let regalloc ?cov (f : func) : (int * int) list * int =
  let regmap, spills = regalloc_into ?cov (Scratch.get ()) f in
  let acc = ref [] in
  for r = f.fn_nregs downto 0 do
    if regmap.(r) <> -2 then acc := (r, regmap.(r)) :: !acc
  done;
  (!acc, spills)

(* ------------------------------------------------------------------ *)
(* Assembly text                                                       *)
(* ------------------------------------------------------------------ *)

(* Non-negative decimal straight into the buffer (no [string_of_int]
   intermediate; register/label/size numbers are never negative). *)
let rec add_pos_int buf n =
  if n >= 10 then add_pos_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_pos_int buf (-n)
  end
  else add_pos_int buf n

let add_sep buf = Buffer.add_string buf ", "

(* "  %-6s " — the line prefix of one assembly instruction. *)
let start_instr buf m =
  Buffer.add_string buf "  ";
  Buffer.add_string buf m;
  for _ = String.length m to 5 do
    Buffer.add_char buf ' '
  done;
  Buffer.add_char buf ' '

let end_instr buf = Buffer.add_char buf '\n'

let add_label buf l =
  Buffer.add_char buf 'L';
  add_pos_int buf l

(* A vreg operand after renaming: physical name, spill slot, or (when the
   allocator never saw it) the virtual name itself. *)
let add_vreg buf regmap nregs r =
  let a =
    if r >= 0 && r <= nregs then regmap.(r) else -2
  in
  if a >= 0 then Buffer.add_string buf phys_name.(a)
  else if a = -1 then begin
    Buffer.add_string buf "[sp+";
    add_pos_int buf (r * 8);
    Buffer.add_char buf ']'
  end
  else begin
    Buffer.add_char buf 'v';
    add_pos_int buf r
  end

let add_operand buf regmap nregs (op : operand) =
  match op with
  | Reg r -> add_vreg buf regmap nregs r
  | Imm v ->
    Buffer.add_char buf '#';
    Buffer.add_string buf (Int64.to_string v)
  | Fimm f -> Buffer.add_string buf (Printf.sprintf "#%g" f)
  | Sym s ->
    Buffer.add_char buf '@';
    Buffer.add_string buf s

(* Address operands; [lead] prefixes a separator before the first one
   (they follow a destination register for ld/lea but open the operand
   list for st). *)
let add_addr buf regmap nregs ~lead (addr : address) =
  if lead then add_sep buf;
  match addr with
  | Avar s ->
    Buffer.add_char buf '@';
    Buffer.add_string buf s
  | Aindex (s, op, sz) ->
    Buffer.add_char buf '@';
    Buffer.add_string buf s;
    add_sep buf;
    add_operand buf regmap nregs op;
    add_sep buf;
    add_pos_int buf sz
  | Areg op -> add_operand buf regmap nregs op

(* The old pipeline renamed every operand *string*, so a call target that
   happens to parse as "v<int>" was renamed like a register; the emitted
   bytes replicate that quirk. *)
let add_maybe_vreg_string buf regmap nregs s =
  if String.length s > 1 && s.[0] = 'v' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some vr ->
      let a = if vr >= 0 && vr <= nregs then regmap.(vr) else -2 in
      if a >= 0 then Buffer.add_string buf phys_name.(a)
      else if a = -1 then begin
        Buffer.add_string buf "[sp+";
        add_pos_int buf (vr * 8);
        Buffer.add_char buf ']'
      end
      else Buffer.add_string buf s
    | None -> Buffer.add_string buf s
  else Buffer.add_string buf s

(* ------------------------------------------------------------------ *)
(* Selection coverage                                                  *)
(* ------------------------------------------------------------------ *)

(* The selection pattern of each instruction and terminator reports one
   coverage event.  Both the emitting and the stop-before-emit paths
   take their events from these two functions, so the two cannot
   drift. *)

let operand_kind = function Reg _ -> 0 | Imm _ -> 1 | Fimm _ -> 2 | Sym _ -> 3
let address_kind = function Avar _ -> 0 | Aindex _ -> 1 | Areg _ -> 2

let instr_event cov (i : instr) =
  let site = 0x4000 in
  match i with
  | Ibin (op, _, x, y) ->
    Coverage.branch3 cov site (Hashtbl.hash op land 0xff)
      ((4 * operand_kind x) + operand_kind y)
  | Iun (op, _, _) -> Coverage.branch3 cov site 200 (Hashtbl.hash op land 0xff)
  | Imov _ -> Coverage.branch3 cov site 201 0
  | Icast (_, ty, _) -> Coverage.branch3 cov site 202 (Lower.ty_tag ty)
  | Iload (_, addr) -> Coverage.branch3 cov site 203 (address_kind addr)
  | Istore (addr, _) -> Coverage.branch3 cov site 204 (address_kind addr)
  | Iaddr _ -> Coverage.branch3 cov site 205 0
  | Icall (_, _, args) -> Coverage.branch3 cov site 206 (List.length args)

(* Dense case sets use a jump table, sparse ones a compare chain. *)
let dense_switch cases =
  match cases with
  | [] -> false
  | (v0, _) :: _ ->
    let lo = List.fold_left (fun m (v, _) -> min m v) v0 cases in
    let hi = List.fold_left (fun m (v, _) -> max m v) v0 cases in
    Int64.to_int (Int64.sub hi lo) < 2 * List.length cases + 8

let term_event cov (t : terminator) =
  let a =
    match t with
    | Tret None -> 0
    | Tret (Some _) -> 1
    | Tjmp _ -> 2
    | Tbr _ -> 3
    | Tswitch (_, cases, _) -> if dense_switch cases then 4 else 5
    | Tunreachable -> 6
  in
  Coverage.branch3 cov 0x4100 a 0

(* ------------------------------------------------------------------ *)
(* Fused selection + emission                                          *)
(* ------------------------------------------------------------------ *)

(* Select and emit one IR instruction. *)
let emit_instr buf regmap nregs (i : instr) : unit =
  match i with
  | Ibin (op, r, a, b) ->
    (* immediate forms when the second operand is a small constant *)
    let imm_form = match b with Imm v when Int64.abs v < 2048L -> true | _ -> false in
    let m = if imm_form then mnemonic_of_binop_imm op else mnemonic_of_binop op in
    start_instr buf m;
    add_vreg buf regmap nregs r;
    add_sep buf;
    add_operand buf regmap nregs a;
    add_sep buf;
    add_operand buf regmap nregs b;
    end_instr buf
  | Iun (op, r, a) ->
    let m =
      match op with
      | Neg -> "neg" | Lognot -> "not" | Bitnot -> "inv" | Uplus -> "mov"
    in
    start_instr buf m;
    add_vreg buf regmap nregs r;
    add_sep buf;
    add_operand buf regmap nregs a;
    end_instr buf
  | Imov (r, a) ->
    start_instr buf "mov";
    add_vreg buf regmap nregs r;
    add_sep buf;
    add_operand buf regmap nregs a;
    end_instr buf
  | Icast (r, ty, a) ->
    let m =
      match ty with
      | Cparse.Ast.Tfloat | Cparse.Ast.Tdouble -> "cvtf"
      | Cparse.Ast.Tint (Ichar, _) -> "sext8"
      | Cparse.Ast.Tint (Ishort, _) -> "sext16"
      | _ -> "mov"
    in
    start_instr buf m;
    add_vreg buf regmap nregs r;
    add_sep buf;
    add_operand buf regmap nregs a;
    end_instr buf
  | Iload (r, addr) ->
    start_instr buf "ld";
    add_vreg buf regmap nregs r;
    add_addr buf regmap nregs ~lead:true addr;
    end_instr buf
  | Istore (addr, v) ->
    start_instr buf "st";
    add_addr buf regmap nregs ~lead:false addr;
    add_sep buf;
    add_operand buf regmap nregs v;
    end_instr buf
  | Iaddr (r, addr) ->
    start_instr buf "lea";
    add_vreg buf regmap nregs r;
    add_addr buf regmap nregs ~lead:true addr;
    end_instr buf
  | Icall (r, fn, args) ->
    List.iteri
      (fun i a ->
        start_instr buf "arg";
        add_pos_int buf i;
        add_sep buf;
        add_operand buf regmap nregs a;
        end_instr buf)
      args;
    start_instr buf "call";
    add_maybe_vreg_string buf regmap nregs fn;
    end_instr buf;
    (match r with
    | Some r ->
      start_instr buf "mov";
      add_vreg buf regmap nregs r;
      add_sep buf;
      Buffer.add_string buf "rv";
      end_instr buf
    | None -> ())

let emit_term buf regmap nregs (t : terminator) : unit =
  match t with
  | Tret None ->
    start_instr buf "ret";
    end_instr buf
  | Tret (Some op) ->
    start_instr buf "mov";
    Buffer.add_string buf "rv";
    add_sep buf;
    add_operand buf regmap nregs op;
    end_instr buf;
    start_instr buf "ret";
    end_instr buf
  | Tjmp l ->
    start_instr buf "jmp";
    add_label buf l;
    end_instr buf
  | Tbr (c, a, b) ->
    start_instr buf "bnez";
    add_operand buf regmap nregs c;
    add_sep buf;
    add_label buf a;
    end_instr buf;
    start_instr buf "jmp";
    add_label buf b;
    end_instr buf
  | Tswitch (c, cases, d) ->
    if dense_switch cases then begin
      start_instr buf "jtab";
      add_operand buf regmap nregs c;
      List.iter
        (fun (v, l) ->
          add_sep buf;
          Buffer.add_string buf (Int64.to_string v);
          Buffer.add_char buf ':';
          add_label buf l)
        cases;
      add_sep buf;
      add_label buf d;
      end_instr buf
    end
    else begin
      List.iter
        (fun (v, l) ->
          start_instr buf "beq";
          add_operand buf regmap nregs c;
          add_sep buf;
          Buffer.add_char buf '#';
          Buffer.add_string buf (Int64.to_string v);
          add_sep buf;
          add_label buf l;
          end_instr buf)
        cases;
      start_instr buf "jmp";
      add_label buf d;
      end_instr buf
    end
  | Tunreachable ->
    start_instr buf "trap";
    end_instr buf

(* ------------------------------------------------------------------ *)
(* Function / program back-end                                         *)
(* ------------------------------------------------------------------ *)

let emit_function_into ?cov (s : Scratch.t) buf (f : func) : int =
  let regmap, spills = regalloc_into ?cov s f in
  let nregs = f.fn_nregs in
  Buffer.add_string buf f.fn_name;
  Buffer.add_string buf ":\n";
  List.iter
    (fun b ->
      Buffer.add_string buf ".L";
      add_pos_int buf b.b_label;
      Buffer.add_string buf ":\n";
      List.iter
        (fun i ->
          (match cov with Some cov -> instr_event cov i | None -> ());
          emit_instr buf regmap nregs i)
        b.b_instrs;
      (match cov with Some cov -> term_event cov b.b_term | None -> ());
      emit_term buf regmap nregs b.b_term)
    f.fn_blocks;
  spills

let emit_program ?cov (p : program) : string * int =
  let s = Scratch.get () in
  let buf = s.Scratch.asm_buf in
  Buffer.clear buf;
  List.iter
    (fun g ->
      Buffer.add_string buf ".data ";
      Buffer.add_string buf g.g_name;
      Buffer.add_string buf " size=";
      add_int buf g.g_size;
      Buffer.add_string buf " init=";
      Buffer.add_string buf
        (match g.g_init with Some v -> Int64.to_string v | None -> "0");
      Buffer.add_char buf '\n')
    p.p_globals;
  let total_spills = ref 0 in
  List.iter
    (fun f -> total_spills := !total_spills + emit_function_into ?cov s buf f)
    p.p_funcs;
  (Buffer.contents buf, !total_spills)

(* [List.iter (instr_event cov)] without a partial application per block *)
let rec instr_events cov = function
  | [] -> ()
  | i :: rest ->
    instr_event cov i;
    instr_events cov rest

(* The stop-before-emit back-end: allocation and selection coverage of
   [emit_program], without rendering a byte. *)
let allocate_program ?cov (p : program) : int =
  let s = Scratch.get () in
  List.fold_left
    (fun total f ->
      let _, spills = regalloc_into ?cov s f in
      (match cov with
      | Some cov ->
        List.iter
          (fun b ->
            instr_events cov b.b_instrs;
            term_event cov b.b_term)
          f.fn_blocks
      | None -> ());
      total + spills)
    0 p.p_funcs
