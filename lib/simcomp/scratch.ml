(* The per-domain compile arena.

   The compile pipeline used to allocate its working state afresh on
   every compile: an instruction list rebuilt per block in [Lower], a
   constant table per block in [Opt.constfold], liveness/assignment
   tables per function in [Backend.regalloc], and a [Buffer] per
   function/program/render.  None of that state survives a compile, so
   fuzz loops — hundreds of thousands of compiles per campaign — paid
   steady GC tax for structurally identical garbage.

   This module centralises those scratch structures in one record held
   in domain-local storage.  Arrays grow on demand and are refilled over
   the range a use covers, and buffers are recycled with [Buffer.clear],
   so after warm-up the hot path allocates only what escapes the compile
   (the outcome itself).

   Determinism: every structure is fully cleared by its user before (or
   after) each use, so a warm arena and a cold one produce byte-identical
   output — [reset] exists so tests can pin that.  Each domain owns its
   arena; parallel campaign workers never share one. *)

type t = {
  (* Lower: per-block instruction staging (blocks are built strictly
     sequentially, so one vector serves the whole function; each block
     gets an exact-size copy when it is sealed). *)
  instrs : Ir.instr Engine.Vec.t;
  (* Opt (and Ir_interp's compile): the current function's label index,
     filled by [index_labels].  Block labels span [lbl_lo, lbl_lo +
     lbl_span); [lbl_first] maps [label - lbl_lo] to the position of the
     first block with that label (-1 = none), and [lbl_blocks] maps a
     position to its block for the first [lbl_count] positions, until
     [release_blocks]. *)
  mutable lbl_lo : int;
  mutable lbl_span : int;
  mutable lbl_first : int array;
  mutable lbl_blocks : Ir.block array;
  mutable lbl_count : int;
  (* simplify-cfg, indexed like [lbl_first]: each label's forwarding
     target, valid where [lbl_mark] has [fwd_bit]; [reach_bit] marks the
     reachable labels; [lbl_hop] holds the [hop_stamp] of the last jump
     resolution that passed through the label. *)
  mutable lbl_fwd : int array;
  mutable lbl_mark : Bytes.t;
  mutable lbl_hop : int array;
  mutable hop_stamp : int;
  (* Opt, indexed by register [0..fn_nregs]: constfold's per-block
     constants (register r's, at byte [8 * r] of [cf_val], is live while
     [cf_stamp.(r)] = [cf_block], which each block bumps; [cf_live]
     counts the live entries) and dce's used-register byte map.  The
     constants are stored unboxed: an arena array is in the major heap,
     so a young box it pointed to would be promoted at the next minor
     collection. *)
  mutable cf_val : Bytes.t;
  mutable cf_stamp : int array;
  mutable cf_block : int;
  mutable cf_live : int;
  mutable used : Bytes.t;
  (* Backend: per-function live-interval endpoints indexed by vreg
     ([ra_first] -1 = untouched), the touched vregs in allocation order,
     and the vreg → phys assignment (-2 = unassigned, -1 = spilled). *)
  mutable ra_first : int array;
  mutable ra_last : int array;
  mutable ra_order : int array;
  mutable regmap : int array;
  (* Backend: whole-program assembly buffer. *)
  asm_buf : Buffer.t;
  (* Mutant rendering (Pretty/Fragility): the text buffer and token
     stream arrays, one set per domain. *)
  render : Cparse.Pretty.sink;
  (* Typecheck context reuse: the expression-id → type table threaded
     into [Typecheck.check ~types] by the compile hot path. *)
  types : Cparse.Typecheck.types;
}

(* The filler of [lbl_blocks] cells past the current function's. *)
let no_block = { Ir.b_label = 0; b_instrs = [||]; b_term = Ir.Tunreachable }

let create () =
  {
    instrs = Engine.Vec.create ();
    lbl_lo = 0;
    lbl_span = 0;
    lbl_first = Array.make 256 (-1);
    lbl_blocks = Array.make 256 no_block;
    lbl_count = 0;
    lbl_fwd = Array.make 256 0;
    lbl_mark = Bytes.make 256 '\000';
    lbl_hop = Array.make 256 0;
    hop_stamp = 0;
    cf_val = Bytes.make (8 * 256) '\000';
    cf_stamp = Array.make 256 0;
    cf_block = 0;
    cf_live = 0;
    used = Bytes.make 256 '\000';
    ra_first = Array.make 256 (-1);
    ra_last = Array.make 256 0;
    ra_order = Array.make 256 0;
    regmap = Array.make 256 (-2);
    asm_buf = Buffer.create 4096;
    render = Cparse.Pretty.sink ();
    types = Cparse.Typecheck.Types.create 1024;
  }

let key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let get () : t =
  let slot = Domain.DLS.get key in
  match !slot with
  | Some s -> s
  | None ->
    let s = create () in
    slot := Some s;
    s

(* Drop this domain's arena; the next [get] builds a cold one.  Lets the
   byte-identity tests compare warm-arena output against a fresh arena. *)
let reset () = Domain.DLS.get key := None

(* Ensure [regmap] covers vregs [1..n] and is filled with the unassigned
   sentinel over that range. *)
let regmap_for (s : t) (n : int) : int array =
  if Array.length s.regmap <= n then
    s.regmap <- Array.make (max (n + 1) (2 * Array.length s.regmap)) (-2)
  else Array.fill s.regmap 0 (n + 1) (-2);
  s.regmap

(* Ensure the interval arrays cover vregs [0..n], with every [ra_first]
   cell over that range reset to untouched. *)
let intervals_for (s : t) (n : int) : unit =
  if Array.length s.ra_first <= n then begin
    let len = max (n + 1) (2 * Array.length s.ra_first) in
    s.ra_first <- Array.make len (-1);
    s.ra_last <- Array.make len 0;
    s.ra_order <- Array.make len 0
  end
  else Array.fill s.ra_first 0 (n + 1) (-1)

(* Index [f]'s blocks by label: fill [lbl_first] over the span of its
   block labels (the first block with a label wins, as a front-to-back
   search finds it) and [lbl_blocks] by position.  Returns the block
   count. *)
let rec min_label m = function
  | [] -> m
  | (b : Ir.block) :: tl -> min_label (if b.b_label < m then b.b_label else m) tl

let rec max_label m = function
  | [] -> m
  | (b : Ir.block) :: tl -> max_label (if b.b_label > m then b.b_label else m) tl

let rec fill_index first blocks lo i = function
  | [] -> ()
  | (b : Ir.block) :: rest ->
    blocks.(i) <- b;
    let k = b.b_label - lo in
    if first.(k) < 0 then first.(k) <- i;
    fill_index first blocks lo (i + 1) rest

let index_labels (s : t) (f : Ir.func) : int =
  let n = List.length f.fn_blocks in
  let lo = min_label max_int f.fn_blocks in
  let span = if n = 0 then 0 else max_label min_int f.fn_blocks - lo + 1 in
  if span < 0 then invalid_arg "Scratch.index_labels: label range too wide";
  if Array.length s.lbl_first < span then begin
    let len = max span (2 * Array.length s.lbl_first) in
    s.lbl_first <- Array.make len (-1);
    s.lbl_fwd <- Array.make len 0;
    s.lbl_mark <- Bytes.make len '\000';
    s.lbl_hop <- Array.make len 0
  end
  else Array.fill s.lbl_first 0 span (-1);
  if Array.length s.lbl_blocks < n then
    s.lbl_blocks <- Array.make (max n (2 * Array.length s.lbl_blocks)) no_block;
  s.lbl_lo <- lo;
  s.lbl_span <- span;
  s.lbl_count <- n;
  fill_index s.lbl_first s.lbl_blocks lo 0 f.fn_blocks;
  n

(* Drop the block references [index_labels] stored.  The arena is in
   the major heap, so a young block it still held at a minor collection
   would be promoted with all the IR it reaches. *)
let release_blocks (s : t) : unit =
  Array.fill s.lbl_blocks 0 s.lbl_count no_block;
  s.lbl_count <- 0

(* The position of the first block labelled [l] in the last indexed
   function, or -1 when it has none.  [l - lbl_lo] wraps only to values
   outside the span, so no label is mistaken for another. *)
let block_index (s : t) (l : int) : int =
  let k = l - s.lbl_lo in
  if k < 0 || k >= s.lbl_span then -1 else Array.unsafe_get s.lbl_first k

(* Ensure the register-indexed arrays cover [0..n]. *)
let regs_for (s : t) (n : int) : unit =
  if Array.length s.cf_stamp <= n then begin
    let len = max (n + 1) (2 * Array.length s.cf_stamp) in
    s.cf_val <- Bytes.make (8 * len) '\000';
    s.cf_stamp <- Array.make len 0;
    s.used <- Bytes.make len '\000'
  end

(* Render a translation unit through the recycled sink: same bytes as
   [Pretty.tu_to_string], with the printer's token stream, and without
   per-render buffer growth garbage. *)
let render_tu (tu : Cparse.Ast.tu) : string * Cparse.Lexer.tokens =
  Cparse.Pretty.render (get ()).render tu
