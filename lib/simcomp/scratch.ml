(* The per-domain compile arena.

   The compile pipeline used to allocate its working state afresh on
   every compile: an instruction list rebuilt per block in [Lower], a
   constant table per block in [Opt.constfold], liveness/assignment
   tables per function in [Backend.regalloc], and a [Buffer] per
   function/program/render.  None of that state survives a compile, so
   fuzz loops — hundreds of thousands of compiles per campaign — paid
   steady GC tax for structurally identical garbage.

   This module centralises those scratch structures in one record held
   in domain-local storage.  Tables are recycled with [Hashtbl.clear]
   (which keeps the grown bucket array, unlike [Hashtbl.reset]) and
   buffers with [Buffer.clear], so after warm-up the hot path allocates
   only what escapes the compile (the outcome itself).

   Determinism: every structure is fully cleared by its user before (or
   after) each use, so a warm arena and a cold one produce byte-identical
   output — [reset] exists so tests can pin that.  Each domain owns its
   arena; parallel campaign workers never share one. *)

type t = {
  (* Lower: per-block instruction staging (blocks are built strictly
     sequentially, so one vector serves the whole function). *)
  instrs : Ir.instr Engine.Vec.t;
  (* Opt: per-block constant table (constfold), per-function used-reg
     set (dce) and jump-threading/reachability tables (simplify-cfg). *)
  consts : (int, int64) Hashtbl.t;
  used : (int, unit) Hashtbl.t;
  forward : (int, int) Hashtbl.t;
  reach : (int, unit) Hashtbl.t;
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
  types : (int, Cparse.Ast.ty) Hashtbl.t;
}

let create () =
  {
    instrs = Engine.Vec.create ();
    consts = Hashtbl.create 64;
    used = Hashtbl.create 256;
    forward = Hashtbl.create 64;
    reach = Hashtbl.create 64;
    ra_first = Array.make 256 (-1);
    ra_last = Array.make 256 0;
    ra_order = Array.make 256 0;
    regmap = Array.make 256 (-2);
    asm_buf = Buffer.create 4096;
    render = Cparse.Pretty.sink ();
    types = Hashtbl.create 1024;
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

(* Render a translation unit through the recycled sink: same bytes as
   [Pretty.tu_to_string], with the printer's token stream, and without
   per-render buffer growth garbage. *)
let render_tu (tu : Cparse.Ast.tu) : string * Cparse.Lexer.tokens =
  Cparse.Pretty.render (get ()).render tu
