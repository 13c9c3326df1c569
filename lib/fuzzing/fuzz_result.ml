(* Shared result types for all fuzzers in the RQ1/RQ2 experiments, and
   the one observation step every fuzz loop calls: mutant accounting,
   crash recording and the coverage trend. *)

type crash_record = {
  cr_crash : Simcomp.Crash.t;
  cr_first_iteration : int;
  cr_input : string; (* the triggering source *)
}

type t = {
  fuzzer_name : string;
  compiler : Simcomp.Compiler.compiler;
  mutable iterations : int;
  mutable total_mutants : int;
  mutable compilable_mutants : int;
  coverage : Simcomp.Coverage.t;      (* cumulative over the run *)
  mutable coverage_trend : (int * int) list;
      (* (iteration, covered branches); newest first until [finish] *)
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

let emit engine ev = Option.iter (fun ctx -> Engine.Ctx.emit ctx ev) engine

(* Every crash is an event, repeats included; the table keeps the first. *)
let record_crash ?engine (r : t) ~iteration ~input (c : Simcomp.Crash.t) =
  let key = Simcomp.Crash.unique_key c in
  if not (Hashtbl.mem r.crashes key) then
    Hashtbl.replace r.crashes key
      { cr_crash = c; cr_first_iteration = iteration; cr_input = input };
  emit engine
    (Engine.Event.Crash_found
       {
         key;
         stage = Simcomp.Compiler.engine_stage c.Simcomp.Crash.stage;
         iteration;
       })

let record ?engine (r : t) ~iteration ~input
    (outcome : Simcomp.Compiler.outcome) =
  r.total_mutants <- r.total_mutants + 1;
  match outcome with
  | Simcomp.Compiler.Compiled _ ->
    r.compilable_mutants <- r.compilable_mutants + 1
  | Simcomp.Compiler.Crashed c -> record_crash ?engine r ~iteration ~input c
  | Simcomp.Compiler.Compile_error _ -> ()

let sample ?engine (r : t) ~iteration =
  let covered = Simcomp.Coverage.covered r.coverage in
  r.coverage_trend <- (iteration, covered) :: r.coverage_trend;
  emit engine (Engine.Event.Coverage_sampled { iteration; covered })

(* The trend always ends at the final iteration, so plots and reports
   never lose the tail.  A run whose cadence already landed there (or
   one resumed from a snapshot of its last iteration) gets no
   duplicate. *)
let finish ?engine (r : t) ~iterations =
  (match r.coverage_trend with
  | (last, _) :: _ when last = iterations -> ()
  | _ -> sample ?engine r ~iteration:iterations);
  r.iterations <- iterations;
  r.coverage_trend <- List.rev r.coverage_trend

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
