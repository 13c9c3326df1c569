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
      String.sub src 0 pos ^ String.sub src (pos + len) (n - pos - len)
    | 1 ->
      (* duplicated range: an edit applied twice *)
      let len = 2 + Rng.int rng 8 in
      let len = min len (n - pos) in
      String.sub src 0 (pos + len)
      ^ String.sub src pos len
      ^ String.sub src (pos + len) (n - pos - len)
    | 2 ->
      (* dangling semicolon / stray delimiter insertion *)
      let c = Rng.choose rng [ ";"; ")"; "}"; "("; "{"; "," ] in
      String.sub src 0 pos ^ c ^ String.sub src pos (n - pos)
    | 3 ->
      (* missed identifier rewrite: mangle one identifier occurrence *)
      String.sub src 0 pos ^ "__missed_rewrite" ^ String.sub src pos (n - pos)
    | _ ->
      (* truncated replacement *)
      let cut = pos + Rng.int rng (n - pos) in
      String.sub src 0 cut
  end

(* Render a mutated unit to text, applying the fragility model, and say
   whether it slipped.  The pretty-printing goes through the compile
   arena's render buffer — the bytes are identical to
   [Pretty.tu_to_string]'s, without growing a fresh buffer per mutant. *)
let render_slip (rng : Rng.t) (m : Mutators.Mutator.t) (tu : Cparse.Ast.tu) :
    string * bool =
  let src = Simcomp.Scratch.render_tu tu in
  if Rng.flip rng (slip_probability m.Mutators.Mutator.provenance) then
    (corrupt rng src, true)
  else (src, false)

let render rng m tu = fst (render_slip rng m tu)
