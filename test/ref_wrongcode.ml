(* [Wrongcode.check_program] as it was when it compiled each program
   twice through [Compiler.compile_ir], once at -O0 and once at the
   target level, kept verbatim as the reference for the check that
   lowers once (test_fuzzing's "wrongcode" group). *)

type mismatch = Fuzzing.Wrongcode.mismatch = {
  mm_source : string;
  mm_options : Simcomp.Compiler.options;
  mm_reference : int * bool;  (* exit code, trapped — at -O0 *)
  mm_observed : int * bool;   (* at the target level *)
}

let run_ir p = Simcomp.Ir_interp.observable ~fuel:1_000_000 p

(* Check one program at one optimization level against the -O0 baseline. *)
let check_program ?tree (compiler : Simcomp.Compiler.compiler)
    (options : Simcomp.Compiler.options) (src : string) : mismatch option =
  let observe opts =
    match Simcomp.Compiler.compile_ir ?tree compiler opts src with
    | Ok p -> run_ir p
    | Error _ -> None
  in
  (* the reference must be truly unoptimized: clear any explicit
     pipeline override along with the level *)
  let reference_opts =
    {
      options with
      Simcomp.Compiler.opt_level = 0;
      disabled_passes = [];
      pass_list = None;
    }
  in
  match observe reference_opts, observe options with
  | Some reference, Some observed when reference <> observed ->
    Some
      { mm_source = src; mm_options = options; mm_reference = reference; mm_observed = observed }
  | _ -> None
