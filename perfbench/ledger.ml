(* The repository's benchmark.  One run measures one workload:

     ledger.exe --workload NAME --seed N --seconds S --trace 0|1
     ledger.exe --record            regenerate perfbench/corpus

   With --trace 0 it repeats the workload's rounds for S seconds and
   reports the end-to-end metrics; with --trace 1 it reports the
   per-layer ledger instead.  Every metric is printed with its unit,
   median, quartiles and sample count; the last line of stdout is one
   JSON object {correct, attempted, failed, metrics}.  A failed output
   check still prints that line, then exits 1.  perfbench/run.py builds
   this executable and forwards its arguments. *)

let () = Engine.Runtime.tune ()

(* A single-process round whose process got less than this share of a
   core was descheduled by something else on the machine. *)
let contended_util = 0.9
let max_reruns = 2
let min_rounds = 3

type sample = { setup : float; work : float; ops : int; words : float }

(* The host-speed kernel where the workload runs: on its one core, or on
   both when it keeps both busy. *)
let kernel_samples (w : Workloads.t) =
  if w.single_process then Stat.kernel_on_one_core () else Stat.kernel_on_two_cores ()

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit ~correct ~attempted ~failed (metrics : (string * string * float list) list) =
  Fmt.pr "%-34s %-6s %14s %14s %14s %4s@." "metric" "unit" "median" "q1" "q3" "n";
  List.iter
    (fun (name, unit, xs) ->
      let q1, med, q3 = Stat.quartiles xs in
      Fmt.pr "%-34s %-6s %14.4f %14.4f %14.4f %4d@." name unit med q1 q3 (List.length xs))
    metrics;
  let body =
    List.map
      (fun (name, unit, xs) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (Stat.median xs)) unit)
      metrics
  in
  Fmt.pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}@."
    correct attempted failed (String.concat ", " body);
  if not correct then exit 1

(* Times are rescaled by one factor per run, from the median of all the
   kernel timings taken before and after its rounds: a host slowdown
   lasts longer than a run, and the many timings keep the kernel's own
   jitter out of the result. *)
let measure (w : Workloads.t) ~seed ~seconds =
  let deadline = Stat.now () +. seconds in
  let setup = w.prepare ~seed in
  let samples = ref [] and kernel = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let reruns = ref 0 and reference = ref None in
  while List.length !samples < min_rounds || Stat.now () < deadline do
    Gc.full_major ();
    kernel := kernel_samples w @ !kernel;
    let t0 = Stat.now () in
    let run = setup () in
    let t1 = Stat.now () in
    let w0 = Stat.alloc_words () and c0 = Stat.cpu_s () in
    let round = run () in
    let t2 = Stat.now () in
    let words = Stat.alloc_words () -. w0 in
    let util = (Stat.cpu_s () -. c0) /. (t2 -. t1) in
    kernel := kernel_samples w @ !kernel;
    let bad, fingerprint = round.Workloads.check () in
    let bad =
      match !reference with
      | None ->
        reference := Some fingerprint;
        bad
      | Some fp -> if fp = fingerprint then bad else round.ops
    in
    attempted := !attempted + round.ops;
    failed := !failed + bad;
    let contended = w.single_process && util < contended_util && !reruns < max_reruns in
    Fmt.pr "round %d: setup %.4f s, work %.4f s, %d ops, cpu %.2f%s@."
      (List.length !samples + 1) (t1 -. t0) (t2 -. t1) round.ops util
      (if contended then " (contended, re-run)" else "");
    if contended then incr reruns
    else
      samples := { setup = t1 -. t0; work = t2 -. t1; ops = round.ops; words } :: !samples
  done;
  let per f = List.map f !samples in
  let kernel = Stat.median !kernel in
  Fmt.pr "raw (not rescaled): ops_per_s %.4f, setup_s %.4f; kernel %.5f s@."
    (Stat.median (per (fun s -> float_of_int s.ops /. s.work)))
    (Stat.median (per (fun s -> s.setup)))
    kernel;
  emit ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
    [
      ("ops_per_s", "1/s", per (fun s -> float_of_int s.ops /. Stat.rescale ~kernel s.work));
      ("setup_s", "s", per (fun s -> Stat.rescale ~kernel s.setup));
      ("alloc_words_per_op", "words", per (fun s -> s.words /. float_of_int (max 1 s.ops)));
      ("peak_rss_mb", "MB", [ Stat.peak_rss_mb () ]);
    ]

(* Per-layer times are rescaled by the host-speed kernel like the
   end-to-end ones; shares, counts and sizes are left as measured. *)
let trace (w : Workloads.t) ~seed ~seconds =
  let k0 = kernel_samples w in
  let t0 = Stat.now () and c0 = Stat.cpu_s () in
  let t = Layers.create () in
  let r = w.trace ~seed ~deadline:(t0 +. seconds) t in
  Layers.set t "proc.cpu_util" ((Stat.cpu_s () -. c0) /. (Stat.now () -. t0));
  let kernel = Stat.median (k0 @ kernel_samples w) in
  let units = Layers.metrics () in
  emit ~correct:(r.Workloads.t_failed = 0) ~attempted:r.t_ops ~failed:r.t_failed
    (List.map
       (fun (name, v) ->
         let unit = List.assoc name units in
         let v = if List.mem unit [ "s"; "us"; "ns" ] then Stat.rescale ~kernel v else v in
         (name, unit, [ v ]))
       (Layers.report t ~wall:r.t_wall))

(* The replay corpus: the fuzz workload's final pool at a fixed seed, plus
   one fragility-rendered mutation of every entry (which adds the error
   and crash outcomes a pool of compiled programs lacks). *)
let record ~iterations =
  let st = Workloads.fuzz_init ~seeds:(Workloads.fuzz_seeds ()) Workloads.fuzz_lanes.(0) in
  for i = 1 to iterations do
    Fuzzing.Mucfuzz.step st ~iteration:i
  done;
  let rng = Cparse.Rng.create 2024 in
  let pool = Engine.Vec.to_list st.Fuzzing.Mucfuzz.pool in
  let mutate (e : Fuzzing.Mucfuzz.pool_entry) =
    Cparse.Rng.shuffle rng Mutators.Registry.core
    |> List.find_map (fun m ->
           Mutators.Mutator.apply m ~rng e.Fuzzing.Mucfuzz.tu
           |> Option.map (Fuzzing.Fragility.render rng m))
  in
  let programs =
    Array.of_list
      (List.map (fun (e : Fuzzing.Mucfuzz.pool_entry) -> e.src) pool
      @ List.filter_map mutate pool)
  in
  let golden =
    Array.map
      (fun src -> Corpus.golden_of (Simcomp.Compiler.compile Simcomp.Compiler.Gcc Workloads.o3 src))
      programs
  in
  Corpus.save Workloads.corpus_dir programs golden

let usage () =
  prerr_endline
    "usage: ledger.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       ledger.exe --record [--iterations N]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let int_opt name default =
    match opt name args with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  if List.mem "--record" args then record ~iterations:(int_opt "--iterations" 200)
  else
    match opt "--workload" args with
    | None -> usage ()
    | Some name -> (
      match List.find_opt (fun (w : Workloads.t) -> w.name = name) Workloads.all with
      | None ->
        prerr_endline ("unknown workload: " ^ name);
        usage ()
      | Some w ->
        let seed = int_opt "--seed" 1 in
        let seconds = float_of_int (int_opt "--seconds" 10) in
        Fmt.pr "# %s, seed %d, %.0f s: %s@." w.name seed seconds w.what;
        if int_opt "--trace" 0 = 1 then trace w ~seed ~seconds
        else measure w ~seed ~seconds)
