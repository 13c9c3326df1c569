(* Text-rewriting fragility model.

   The paper's mutators edit source *text* through the Clang Rewriter;
   the classic failure modes it reports (§4.1 "unthorough test cases",
   Table 1 goal #6 "creates compile-error mutants") are local textual
   slips: a missed call-site rewrite, a dangling token, an overlapping
   edit.  Our mutators are AST-level and therefore type-safe by
   construction, so to preserve the paper's compilable-mutant ratios
   (Table 5: ~72-75 % for μCFuzz vs ~99 % for generators) we re-introduce
   this fragility explicitly: with a per-provenance probability, the
   rendered mutant suffers one Rewriter-style slip.

   Supervised mutators were manually debugged by the authors, hence the
   lower slip probability. *)

open Cparse

let supervised_slip_probability = 0.20
let unsupervised_slip_probability = 0.25

let slip_probability (p : Mutators.Mutator.provenance) =
  match p with
  | Mutators.Mutator.Supervised -> supervised_slip_probability
  | Mutators.Mutator.Unsupervised -> unsupervised_slip_probability

(* [src] with [drop] bytes at [at] replaced by [ins.[ins_at, ins_at +
   len)], built in one allocation. *)
let splice src ~at ~drop ins ins_at len =
  let n = String.length src in
  let b = Bytes.create (n - drop + len) in
  Bytes.blit_string src 0 b 0 at;
  Bytes.blit_string ins ins_at b at len;
  Bytes.blit_string src (at + drop) b (at + len) (n - at - drop);
  Bytes.unsafe_to_string b

let insert src at s = splice src ~at ~drop:0 s 0 (String.length s)

(* One local textual corruption, mimicking Rewriter edit mistakes. *)
let corrupt (rng : Rng.t) (src : string) : string =
  let n = String.length src in
  if n < 8 then src
  else begin
    let pos = Rng.int rng (n - 4) in
    match Rng.int rng 5 with
    | 0 ->
      (* dropped token: delete a few characters *)
      let len = 1 + Rng.int rng 3 in
      splice src ~at:pos ~drop:len "" 0 0
    | 1 ->
      (* duplicated range: an edit applied twice *)
      let len = 2 + Rng.int rng 8 in
      let len = min len (n - pos) in
      splice src ~at:(pos + len) ~drop:0 src pos len
    | 2 ->
      (* dangling semicolon / stray delimiter insertion *)
      insert src pos (Rng.choose rng [ ";"; ")"; "}"; "("; "{"; "," ])
    | 3 ->
      (* missed identifier rewrite: mangle one identifier occurrence *)
      insert src pos "__missed_rewrite"
    | _ ->
      (* truncated replacement *)
      let cut = pos + Rng.int rng (n - pos) in
      String.sub src 0 cut
  end

(* Render a mutated unit to text, applying the fragility model; an
   unslipped render comes with the printer's token stream.  The
   pretty-printing goes through the compile arena's render sink — the
   bytes are identical to [Pretty.tu_to_string]'s, without growing a
   fresh buffer per mutant. *)
let render_slip (rng : Rng.t) (m : Mutators.Mutator.t) (tu : Cparse.Ast.tu) :
    string * Lexer.tokens option =
  let src, tokens = Simcomp.Scratch.render_tu tu in
  if Rng.flip rng (slip_probability m.Mutators.Mutator.provenance) then
    (corrupt rng src, None)
  else (src, Some tokens)

let render rng m tu = fst (render_slip rng m tu)
