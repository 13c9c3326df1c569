(* EMI-style wrong-code detection (extension beyond the paper's
   crash-oriented campaign).

   The paper's related work (Orion/EMI, Athena, Hermes) finds
   miscompilations by comparing semantics across equivalent programs or
   configurations.  This module implements the configuration-differential
   variant: run the same program at -O0 and at the target level in the
   IR interpreter, and flag any observable difference.  μCFuzz's
   mutators supply the program diversity.

   The front-end and lowering read no options, so a check runs them
   once ([Compiler.lower]).  The -O0 pipeline plans no pass, so the
   lowered IR is the reference; the target level then optimizes that
   same program in place ([Compiler.optimize]) and runs it again.  A
   program with no reference (it does not compile, hangs or leaves the
   interpreter's subset) is never optimized. *)

open Cparse

type mismatch = {
  mm_source : string;
  mm_options : Simcomp.Compiler.options;
  mm_reference : int * bool;  (* exit code, trapped — at -O0 *)
  mm_observed : int * bool;   (* at the target level *)
}

let run_ir p = Simcomp.Ir_interp.observable ~fuel:1_000_000 p

let observe compiler options ((prog, _) as lowered) =
  ignore (Simcomp.Compiler.optimize compiler options lowered);
  run_ir prog

(* Check one program at one optimization level against the -O0 baseline. *)
let check_program ?tree (compiler : Simcomp.Compiler.compiler)
    (options : Simcomp.Compiler.options) (src : string) : mismatch option =
  match Simcomp.Compiler.lower ?tree compiler src with
  | Error _ -> None
  | Ok ((prog, _) as lowered) -> (
    (* an unknown pass in [pass_list] raises even when there is no
       reference to difference against *)
    ignore (Simcomp.Compiler.pipeline_of options);
    (* -O0 plans no pass, so the lowered IR is the reference as it
       stands; the target then optimizes that same program *)
    match run_ir prog with
    | None -> None
    | Some reference -> (
      match observe compiler options lowered with
      | Some observed when observed <> reference ->
        Some
          { mm_source = src; mm_options = options; mm_reference = reference;
            mm_observed = observed }
      | _ -> None))

type report = {
  r_mismatches : mismatch list;
  r_checked : int;
}

(* Hunt: mutate seeds with the corpus and difference every mutant. *)
let hunt ?(mutators = Mutators.Registry.core) ~(rng : Rng.t)
    ~(compiler : Simcomp.Compiler.compiler) ~(seeds : string list)
    ~(iterations : int) () : report =
  let pool =
    List.filter_map
      (fun src ->
        match Parser.parse src with Ok tu -> Some tu | Error _ -> None)
      seeds
    |> Array.of_list
  in
  let mismatches = ref [] in
  let checked = ref 0 in
  let seen = Hashtbl.create 8 in
  for _ = 1 to iterations do
    if Array.length pool > 0 then begin
      let tu = pool.(Rng.int rng (Array.length pool)) in
      (* stack a few mutators (havoc style): wrong-code gates require
         feature conjunctions a single mutation rarely produces *)
      let rounds = 1 + Rng.int rng 4 in
      let mutated = ref tu and changed = ref false in
      for _ = 1 to rounds do
        let m = Rng.choose rng mutators in
        match Mutators.Mutator.apply m ~rng !mutated with
        | Some tu' ->
          mutated := tu';
          changed := true
        | None -> ()
      done;
      match if !changed then Some !mutated else None with
      | None -> ()
      | Some tu' ->
        let src, _ = Simcomp.Scratch.render_tu tu' in
        incr checked;
        let options =
          {
            Simcomp.Compiler.default_options with
            opt_level = 2 + Rng.int rng 2;
          }
        in
        (match check_program ~tree:tu' compiler options src with
        | Some mm ->
          (* deduplicate by the observable difference signature *)
          let key = (mm.mm_reference, mm.mm_observed, String.length src / 64) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            mismatches := mm :: !mismatches
          end
        | None -> ())
    end
  done;
  { r_mismatches = List.rev !mismatches; r_checked = !checked }
