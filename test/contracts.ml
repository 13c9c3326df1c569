(* The campaign-level determinism contracts, shared by the test
   binaries.  Each binary prints the rows of the groups it has always
   printed them under: [Contracts.tests "determinism"] in test_engine,
   ["campaign"] in test_fuzzing, ["telemetry"] in test_telemetry and
   ["coordinator"] in test_shard. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let faults_of_spec ?(seed = 11) spec =
  match Engine.Faults.parse_spec spec with
  | Ok cfg -> Engine.Faults.create ~seed cfg
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* The determinism contracts                                           *)
(* ------------------------------------------------------------------ *)

(* The campaign-level contracts as one table.  A row names its contract
   and a reference and a variant run of [Coordinator.run].  Both runs
   must leave one fingerprint: every unit's result by [Fuzz_result.equal]
   in canonical order, the quarantined units, the crash set, the
   aggregate coverage, the campaign report and the deterministic
   metrics snapshot, less the families the row says its variant's
   intervention moves.  Then the row's own checks run.  Runs are lazy,
   so a run two rows share is made once.  Rows keep the test binary,
   suite group and name they have always been printed under. *)

let small_cfg =
  {
    Fuzzing.Campaign.default_config with
    iterations = 60;
    seeds = 12;
    sample_every = 15;
    jobs = 1;
  }

let some_fuzzers = Fuzzing.Campaign.[ MuCFuzz_s; AFLpp ]

(* the smaller matrices of the rows over every fuzzer *)
let cfg ?(schedule = false) iterations seeds =
  {
    Fuzzing.Campaign.default_config with
    iterations;
    seeds;
    sample_every = 4;
    max_attempts = 4;
    schedule;
  }

let result_testable =
  Alcotest.testable
    (fun ppf (r : Fuzzing.Fuzz_result.t) ->
      Fmt.pf ppf "%s: %d mutants, %d covered, %d crashes" r.fuzzer_name
        r.total_mutants
        (Simcomp.Coverage.covered r.coverage)
        (Fuzzing.Fuzz_result.unique_crashes r))
    Fuzzing.Fuzz_result.equal

let snapshot_testable =
  let pp ppf (name, (v : Engine.Metrics.value)) =
    match v with
    | Counter n -> Fmt.pf ppf "%s=%d" name n
    | Gauge g -> Fmt.pf ppf "%s=%g" name g
    | Histogram h -> Fmt.pf ppf "%s=%d@%g" name h.total h.sum
  in
  Alcotest.testable Fmt.(list ~sep:sp pp) ( = )

type outcome = {
  t : Fuzzing.Coordinator.t;
  snapshot : (string * Engine.Metrics.value) list;
}

(* One campaign, observed as --telemetry observes one (trace and GC
   probe on). *)
let campaign ?(cfg = small_cfg) ?(fuzzers = some_fuzzers) ?opt_levels ?faults
    ?checkpoint ?resume shards =
  let engine = Engine.Ctx.create () in
  ignore (Engine.Ctx.enable_trace engine);
  ignore (Engine.Ctx.enable_probe engine);
  let t =
    Fuzzing.Coordinator.run ~cfg ~fuzzers ?opt_levels ?faults ?checkpoint
      ?resume ~engine ~shards ()
  in
  {
    t;
    snapshot =
      Engine.Telemetry.deterministic_snapshot engine.Engine.Ctx.metrics;
  }

let in_scratch_dir f =
  let dir = Filename.temp_dir "metamut-contract" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

type row = {
  group : string;
  name : string;
  contract : string;
  reference : outcome Lazy.t;
  variant : outcome Lazy.t;
  moved : string list;
  also : outcome -> outcome -> unit;
}

let row ?(moved = []) ?(also = fun _ _ -> ()) group name contract reference
    variant =
  { group; name; contract; reference; variant; moved; also }

let same_fingerprint ~contract ~moved a b =
  let open Fuzzing.Coordinator in
  let say what = contract ^ ": " ^ what in
  let names units = List.map unit_name units in
  check
    Alcotest.(list string)
    (say "unit order")
    (names (List.map fst a.t.results))
    (names (List.map fst b.t.results));
  List.iter2
    (fun (u, r) (_, r') -> check result_testable (say (unit_name u)) r r')
    a.t.results b.t.results;
  let quarantined o = names (List.map (fun q -> q.qu_unit) o.t.quarantined) in
  check Alcotest.(list string) (say "quarantined") (quarantined a)
    (quarantined b);
  check Alcotest.(list string) (say "crash set") (all_crashes a.t)
    (all_crashes b.t);
  check Alcotest.bool (say "aggregate coverage") true
    (Simcomp.Coverage.equal (aggregate_coverage a.t) (aggregate_coverage b.t));
  (* without an engine: the report's span table is wall-clock *)
  check Alcotest.string (say "campaign-report.md") (report a.t) (report b.t);
  let kept =
    List.filter (fun (name, _) ->
        not (List.exists (fun prefix -> String.starts_with ~prefix name) moved))
  in
  check snapshot_testable (say "metrics") (kept a.snapshot) (kept b.snapshot)

let no_failures o =
  check Alcotest.int "no failures" 0
    (List.length o.t.Fuzzing.Coordinator.failures)

let shard_stats o = o.t.Fuzzing.Coordinator.shard_stats

(* the faults CI's fault job injects through METAMUT_FAULTS, else a
   default mix: the invariance must hold at whatever is injected *)
let env_faults () =
  Engine.Faults.create ~seed:(Engine.Faults.seed_from_env ())
    (match Engine.Faults.config_from_env () with
    | Some c -> c
    | None ->
      { Engine.Faults.no_faults with compile_hang = 0.05; worker_oom = 0.3 })

(* A process's state and parent from /proc/<pid>/stat, which reads
   "pid (comm) state ppid ...", where comm may hold spaces. *)
let proc_stat pid =
  match
    In_channel.with_open_bin (Fmt.str "/proc/%d/stat" pid) In_channel.input_all
  with
  | exception Sys_error _ -> None
  | stat -> (
    let rest = String.rindex stat ')' + 2 in
    match
      String.split_on_char ' ' (String.sub stat rest (String.length stat - rest))
    with
    | state :: ppid :: _ -> Some (state, int_of_string ppid)
    | _ -> None)

(* A zombie has exited already; it waits only for its parent to reap it. *)
let running state = state <> "Z" && state <> "X"

let alive pid =
  match proc_stat pid with Some (state, _) -> running state | None -> false

(* The running processes whose parent is [ppid]. *)
let children_of ppid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map int_of_string_opt
  |> List.filter (fun pid ->
         match proc_stat pid with
         | Some (state, parent) -> parent = ppid && running state
         | None -> false)

(* what a resumed run books for restoring units *)
let resume_families = [ "checkpoint."; "mucfuzz.resume" ]

let contracts =
  let fork_1 = lazy (campaign 1) and fork_4 = lazy (campaign 4) in
  let fork_killed =
    lazy
      (Unix.putenv "METAMUT_SHARD_KILL" "uCFuzz.s-GCC";
       Fun.protect
         ~finally:(fun () -> Unix.putenv "METAMUT_SHARD_KILL" "")
         (fun () -> campaign 2))
  in
  let om ?checkpoint ?resume shards =
    campaign ~opt_levels:[ 0; 2 ] ?checkpoint ?resume shards
  in
  let om_1 = lazy (om 1) and om_2 = lazy (om 2) in
  let om_killed_resumed =
    lazy
      (in_scratch_dir (fun dir ->
           (* a real coordinator crash: fork one and SIGKILL it once it
              has workers and has journaled a unit; none of its workers
              may outlive it by 5 s *)
           flush stdout;
           flush stderr;
           (match Unix.fork () with
           | 0 ->
             (try ignore (om ~checkpoint:dir 2) with _ -> ());
             Unix._exit 0
           | pid ->
             let journaled () =
               Array.exists
                 (String.starts_with ~prefix:"journal-")
                 (Sys.readdir dir)
             in
             let give_up = Unix.gettimeofday () +. 5. in
             let rec mid_run () =
               let workers = children_of pid in
               if
                 (workers <> [] && journaled ())
                 || Unix.gettimeofday () > give_up
               then workers
               else begin
                 Unix.sleepf 0.005;
                 mid_run ()
               end
             in
             let workers = mid_run () in
             (try Unix.kill pid Sys.sigkill with _ -> ());
             ignore (Unix.waitpid [] pid);
             check Alcotest.bool "the coordinator had workers" true
               (workers <> []);
             let deadline = Unix.gettimeofday () +. 5. in
             while
               List.exists alive workers && Unix.gettimeofday () < deadline
             do
               Unix.sleepf 0.05
             done;
             (* a failing run must not leave its orphans behind *)
             let survivors = List.filter alive workers in
             List.iter
               (fun p -> try Unix.kill p Sys.sigkill with _ -> ())
               survivors;
             check
               Alcotest.(list int)
               "workers outliving the coordinator by 5 s" [] survivors);
           om ~checkpoint:dir ~resume:true 2))
  in
  let chaos shards =
    lazy
      (campaign
         ~faults:(faults_of_spec ~seed:7 "frame=0.3,oom=0.3,coord=0.5")
         shards)
  in
  let matrix ?(fuzzers = Fuzzing.Campaign.all_fuzzers) ?faults ?checkpoint
      ?resume cfg jobs =
    campaign ~cfg ~fuzzers ?faults ?checkpoint ?resume jobs
  in
  let wide jobs = lazy (matrix (cfg 12 10) jobs) in
  let merged jobs =
    lazy (matrix ~fuzzers:Fuzzing.Campaign.[ MuCFuzz_u ] (cfg 8 6) jobs)
  in
  let faulted jobs =
    lazy (matrix ~faults:(env_faults ()) (cfg 10 8) jobs)
  in
  let scheduled jobs =
    lazy
      (matrix
         ~fuzzers:Fuzzing.Campaign.[ MuCFuzz_s; MuCFuzz_u ]
         (cfg ~schedule:true 10 8) jobs)
  in
  let resumable ?checkpoint ?resume () =
    matrix
      ~fuzzers:Fuzzing.Campaign.[ MuCFuzz_u; Csmith ]
      ?checkpoint ?resume (cfg 10 8) 2
  in
  let lost_resumed =
    lazy
      (in_scratch_dir (fun dir ->
           let first = resumable ~checkpoint:dir () in
           check Alcotest.int "first run computes everything" 0
             first.t.resumed_units;
           (* a crash that lost one completed cell's result *)
           Sys.remove (Filename.concat dir "journal-uCFuzz.u-GCC.ckpt");
           resumable ~checkpoint:dir ~resume:true ()))
  in
  let telemetry jobs = lazy (matrix (cfg 10 8) jobs) in
  [
    row "coordinator"
      "shards:1 ≡ shards:4: results, coverage, crashes, report" "shards 1 ≡ 4"
      fork_1 fork_4 ~also:(fun _ b ->
        no_failures b;
        check Alcotest.int "no interventions" 0 (shard_stats b).st_died);
    row "coordinator"
      "worker death mid-lease: same final result, requeue counted"
      "worker death ≡ clean" fork_1 fork_killed ~moved:[ "shard." ]
      ~also:(fun _ b ->
        check Alcotest.bool "a worker died" true ((shard_stats b).st_died >= 1);
        check Alcotest.bool "the lease was requeued" true
          ((shard_stats b).st_requeued >= 1));
    row "coordinator"
      "opt-matrix: deterministic across shard counts, levels differ"
      "opt-matrix shards 1 ≡ 2" om_1 om_2 ~also:(fun a _ ->
        check Alcotest.int "levels x cells" 8 (List.length a.t.results);
        (* -O0 and -O2 run different pass pipelines: coverage differs *)
        let cov l =
          List.assoc_opt
            {
              Fuzzing.Coordinator.u_fuzzer = Fuzzing.Campaign.MuCFuzz_s;
              u_compiler = Simcomp.Compiler.Gcc;
              u_opt = Some l;
            }
            a.t.results
          |> Option.map (fun (r : Fuzzing.Fuzz_result.t) ->
                 Simcomp.Coverage.covered r.coverage)
        in
        check Alcotest.bool "distinct coverage across -O levels" true
          (cov 0 <> cov 2));
    row "coordinator"
      "chaos-armed campaign: shards:1 ≡ shards:2, report identical"
      "chaos-armed shards 1 ≡ 2" (chaos 1) (chaos 2)
      ~moved:[ "faults."; "shard." ] ~also:(fun _ b -> no_failures b);
    row "coordinator"
      "coordinator SIGKILL mid-campaign + resume ≡ uninterrupted \
       (opt-matrix)"
      "coordinator SIGKILL + resume ≡ uninterrupted" om_1 om_killed_resumed
      ~moved:resume_families;
    row "determinism" "campaign jobs:1 and jobs:4 produce identical results"
      "jobs 1 ≡ 4" (wide 1) (wide 4);
    row "determinism" "parallel metrics merge equals the sequential registry"
      "jobs 1 ≡ 2" (merged 1) (merged 2);
    row "determinism" "faulted campaign is identical at any job count"
      "faulted jobs 1 ≡ 4" (faulted 1) (faulted 4)
      (* the inline run draws worker_oom on the coordinator's context,
         a forked worker on none, so only the inline run counts it *)
      ~moved:[ "shard."; "faults.injected.worker_oom" ];
    row "campaign" "scheduled campaigns are identical across job counts"
      "scheduled jobs 1 ≡ 4" (scheduled 1) (scheduled 4);
    row "campaign" "campaign resume reproduces the uninterrupted result"
      "resume ≡ uninterrupted" (lazy (resumable ())) lost_resumed
      ~moved:resume_families ~also:(fun _ b ->
        check Alcotest.int "three cells restored" 3 b.t.resumed_units;
        no_failures b);
    row "telemetry" "merged telemetry is identical at jobs:1 and jobs:4"
      "telemetry jobs 1 ≡ 4" (telemetry 1) (telemetry 4);
  ]

(* The table's rows printed under [group], in table order. *)
let tests group =
  List.filter_map
    (fun r ->
      if r.group <> group then None
      else
        Some
          (tc r.name (fun () ->
               let a = Lazy.force r.reference and b = Lazy.force r.variant in
               same_fingerprint ~contract:r.contract ~moved:r.moved a b;
               r.also a b)))
    contracts
