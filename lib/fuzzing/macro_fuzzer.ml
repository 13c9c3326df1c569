(* The macro fuzzer (§3.4): μCFuzz plus the engineering used for the
   eight-month bug hunt —

   1. random sampling of compiler command-line options,
   2. the Havoc strategy: several mutation rounds per mutant,
   3. a shared coverage map across parallel instances,
   4. resource limits (program-size caps standing in for OOM guards). *)

open Cparse

type config = {
  mutators : Mutators.Mutator.t list;
  havoc_rounds_max : int;
  instances : int;           (* simulated parallel fuzzing processes *)
  max_program_bytes : int;   (* resource limit *)
  sample_every : int;
  fragility : bool;
}

let default_config =
  {
    mutators = Mutators.Registry.core;
    havoc_rounds_max = 6;
    instances = 4;
    max_program_bytes = 65536;
    sample_every = 50;
  fragility = true;
  }

type instance = {
  i_rng : Rng.t;
  i_pool : (string * Ast.tu) Engine.Vec.t;
}

let run ?(cfg = default_config) ~rng ~compiler ~seeds ~iterations () :
    Fuzz_result.t =
  let shared = Fuzz_result.make ~fuzzer_name:"MacroFuzzer" ~compiler in
  let parse_pool seeds =
    List.filter_map
      (fun src ->
        match Parser.parse src with
        | Ok tu -> Some (src, tu)
        | Error _ -> None)
      seeds
  in
  let instances =
    List.init cfg.instances (fun _ ->
        { i_rng = Rng.split rng; i_pool = Engine.Vec.of_list (parse_pool seeds) })
  in
  let result = ref shared in
  let trend = ref [] in
  (* one scratch map for the whole run: merge_consume zeroes it after
     every compile, it is never realloc'd *)
  let scratch = Simcomp.Coverage.create () in
  (* seed coverage once *)
  List.iteri
    (fun idx src ->
      if idx < 50 then begin
        ignore
          (Simcomp.Compiler.compile ~cov:scratch ~emit:false compiler
             Simcomp.Compiler.default_options src);
        ignore
          (Simcomp.Coverage.merge_consume ~into:!result.Fuzz_result.coverage
             scratch)
      end)
    seeds;
  for i = 1 to iterations do
    (* round-robin over simulated parallel instances *)
    let inst = List.nth instances (i mod cfg.instances) in
    if Engine.Vec.length inst.i_pool > 0 then begin
      let _, base_tu =
        Engine.Vec.get inst.i_pool
          (Rng.int inst.i_rng (Engine.Vec.length inst.i_pool))
      in
      (* Havoc: stack several mutators *)
      let rounds = 1 + Rng.int inst.i_rng cfg.havoc_rounds_max in
      let mutated = ref base_tu in
      let last_mutator = ref None in
      for _ = 1 to rounds do
        let m = Rng.choose inst.i_rng cfg.mutators in
        match Mutators.Mutator.apply m ~rng:inst.i_rng !mutated with
        | Some tu' ->
          mutated := tu';
          last_mutator := Some m
        | None -> ()
      done;
      match !last_mutator with
      | None -> ()
      | Some m ->
        let src' =
          if cfg.fragility then Fragility.render inst.i_rng m !mutated
          else Simcomp.Scratch.render_tu !mutated
        in
        (* resource limit: discard over-sized mutants *)
        if String.length src' <= cfg.max_program_bytes then begin
          (* random command-line sampling *)
          let options = Simcomp.Compiler.random_options inst.i_rng in
          result :=
            {
              !result with
              total_mutants = !result.total_mutants + 1;
              throughput_mutants = !result.throughput_mutants + 1;
            };
          let outcome, parsed =
            Simcomp.Compiler.compile_tu ~cov:scratch ~emit:false compiler options
              src'
          in
          (match outcome with
          | Simcomp.Compiler.Compiled _ ->
            result :=
              { !result with compilable_mutants = !result.compilable_mutants + 1 }
          | Simcomp.Compiler.Crashed c ->
            Fuzz_result.record_crash !result ~iteration:i ~input:src' c
          | Simcomp.Compiler.Compile_error _ -> ());
          (* shared coverage across instances; the merged fresh count is
             the accept signal (one call, not a has_new + merge pair) *)
          let fresh =
            Simcomp.Coverage.merge_consume
              ~into:!result.Fuzz_result.coverage scratch
          in
          if fresh > 0 then
            match parsed with
            | Some tu'' -> Engine.Vec.push inst.i_pool (src', tu'')
            | None -> ()
        end
    end;
    if i mod cfg.sample_every = 0 then
      trend := (i, Simcomp.Coverage.covered !result.Fuzz_result.coverage) :: !trend
  done;
  { !result with iterations; coverage_trend = List.rev !trend }
