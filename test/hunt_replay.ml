(* The mutants of the hunts pinned in test_fuzzing ([Wrongcode.hunt],
   RNG 77, 60 seeds from RNG 21): the hunt's mutant loop, replayed draw
   for draw.  Each mutant comes with its tree, its printing and the
   level the hunt drew for it.  The loop draws nothing per compiler, so
   one replay serves GCC-sim and Clang-sim. *)

open Cparse

let mutants ~iterations =
  let rng = Rng.create 77 in
  let pool =
    Array.of_list
      (List.filter_map
         (fun src -> Result.to_option (Parser.parse src))
         (Fuzzing.Seeds.corpus ~n:60 (Rng.create 21)))
  in
  let found = ref [] in
  for _ = 1 to iterations do
    let tu = pool.(Rng.int rng (Array.length pool)) in
    let rounds = 1 + Rng.int rng 4 in
    let mutated = ref tu and changed = ref false in
    for _ = 1 to rounds do
      let m = Rng.choose rng Mutators.Registry.core in
      match Mutators.Mutator.apply m ~rng !mutated with
      | Some tu' ->
        mutated := tu';
        changed := true
      | None -> ()
    done;
    if !changed then begin
      let src, _ = Simcomp.Scratch.render_tu !mutated in
      found := (!mutated, src, 2 + Rng.int rng 2) :: !found
    end
  done;
  List.rev !found
