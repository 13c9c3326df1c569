(* Shared result types for all fuzzers in the RQ1/RQ2 experiments. *)

type crash_record = {
  cr_crash : Simcomp.Crash.t;
  cr_first_iteration : int;
  cr_input : string; (* the triggering source *)
}

type t = {
  fuzzer_name : string;
  compiler : Simcomp.Compiler.compiler;
  iterations : int;
  total_mutants : int;
  compilable_mutants : int;
  coverage : Simcomp.Coverage.t;      (* cumulative over the run *)
  coverage_trend : (int * int) list;  (* (iteration, covered branches) *)
  crashes : (string, crash_record) Hashtbl.t; (* key = top-2 frames *)
}

let make ~fuzzer_name ~compiler =
  {
    fuzzer_name;
    compiler;
    iterations = 0;
    total_mutants = 0;
    compilable_mutants = 0;
    coverage = Simcomp.Coverage.create ();
    coverage_trend = [];
    crashes = Hashtbl.create 16;
  }

let unique_crashes (r : t) = Hashtbl.length r.crashes

let crash_keys (r : t) =
  Hashtbl.fold (fun k _ acc -> k :: acc) r.crashes []

let record_crash (r : t) ~iteration ~input (c : Simcomp.Crash.t) =
  let key = Simcomp.Crash.unique_key c in
  if not (Hashtbl.mem r.crashes key) then
    Hashtbl.replace r.crashes key
      { cr_crash = c; cr_first_iteration = iteration; cr_input = input }

let compilable_ratio (r : t) =
  if r.total_mutants = 0 then 0.
  else 100. *. float_of_int r.compilable_mutants /. float_of_int r.total_mutants

let at_rest (r : t) = { r with coverage = Simcomp.Coverage.at_rest r.coverage }

(* Exact equality over everything a fuzz run reports, for the
   checkpoint/resume identity check: crash tables compare as sorted
   bindings (insertion order is not part of the result). *)
let equal (a : t) (b : t) =
  let bindings h =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare
  in
  a.fuzzer_name = b.fuzzer_name
  && a.compiler = b.compiler
  && a.iterations = b.iterations
  && a.total_mutants = b.total_mutants
  && a.compilable_mutants = b.compilable_mutants
  && a.coverage_trend = b.coverage_trend
  && Simcomp.Coverage.equal a.coverage b.coverage
  && bindings a.crashes = bindings b.crashes

let crashes_by_stage (r : t) : (Simcomp.Crash.stage * int) list =
  let count stage =
    Hashtbl.fold
      (fun _ rec_ acc ->
        if rec_.cr_crash.Simcomp.Crash.stage = stage then acc + 1 else acc)
      r.crashes 0
  in
  List.map
    (fun s -> (s, count s))
    Simcomp.Crash.[ Front_end; Ir_gen; Optimization; Back_end ]
