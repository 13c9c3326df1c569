(* Tests for the execution engine: metrics registry (histogram bucket
   boundaries, snapshots, merge), event bus sinks (ring overflow,
   metrics sink), spans, the Domain scheduler, and the campaign
   determinism guarantee (jobs:1 ≡ jobs:4). *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let metrics_tests =
  [
    tc "counter increments and snapshots" (fun () ->
        let reg = Engine.Metrics.create () in
        let c = Engine.Metrics.counter reg "a" in
        Engine.Metrics.incr c;
        Engine.Metrics.incr ~by:4 c;
        check Alcotest.int "value" 5 (Engine.Metrics.counter_value c);
        (* find-or-create returns the same instrument *)
        Engine.Metrics.incr (Engine.Metrics.counter reg "a");
        match Engine.Metrics.snapshot reg with
        | [ ("a", Engine.Metrics.Counter 6) ] -> ()
        | _ -> Alcotest.fail "unexpected snapshot");
    tc "histogram bucket boundaries" (fun () ->
        let reg = Engine.Metrics.create () in
        let h =
          Engine.Metrics.histogram ~edges:[| 1.; 2.; 5. |] reg "h"
        in
        (* v <= edge lands in that bucket; above the last edge overflows *)
        check Alcotest.int "below first" 0 (Engine.Metrics.bucket_index h 0.5);
        check Alcotest.int "on first edge" 0 (Engine.Metrics.bucket_index h 1.);
        check Alcotest.int "between" 1 (Engine.Metrics.bucket_index h 1.5);
        check Alcotest.int "on last edge" 2 (Engine.Metrics.bucket_index h 5.);
        check Alcotest.int "overflow" 3 (Engine.Metrics.bucket_index h 7.);
        List.iter (Engine.Metrics.observe h) [ 0.5; 1.; 1.5; 5.; 7. ];
        (match Engine.Metrics.snapshot reg with
        | [ ("h", Engine.Metrics.Histogram { counts; total; sum; _ }) ] ->
          check (Alcotest.array Alcotest.int) "counts" [| 2; 1; 1; 1 |] counts;
          check Alcotest.int "total" 5 total;
          check (Alcotest.float 1e-9) "sum" 15. sum
        | _ -> Alcotest.fail "unexpected snapshot");
        check (Alcotest.float 1e-9) "mean" 3. (Engine.Metrics.histogram_mean h));
    tc "histogram rejects bad edges" (fun () ->
        let reg = Engine.Metrics.create () in
        Alcotest.check_raises "empty" (Invalid_argument
          "Metrics.histogram: empty bucket edges") (fun () ->
            ignore (Engine.Metrics.histogram ~edges:[||] reg "e"));
        Alcotest.check_raises "non-increasing" (Invalid_argument
          "Metrics.histogram: bucket edges must strictly increase") (fun () ->
            ignore (Engine.Metrics.histogram ~edges:[| 2.; 1. |] reg "d")));
    tc "merge adds counters and histogram buckets" (fun () ->
        let a = Engine.Metrics.create () and b = Engine.Metrics.create () in
        Engine.Metrics.incr ~by:2 (Engine.Metrics.counter a "c");
        Engine.Metrics.incr ~by:3 (Engine.Metrics.counter b "c");
        Engine.Metrics.incr (Engine.Metrics.counter b "only-b");
        let edges = [| 1.; 10. |] in
        Engine.Metrics.observe (Engine.Metrics.histogram ~edges a "h") 0.5;
        Engine.Metrics.observe (Engine.Metrics.histogram ~edges b "h") 5.;
        Engine.Metrics.merge ~into:a b;
        check Alcotest.int "counter summed" 5
          (Engine.Metrics.counter_value (Engine.Metrics.counter a "c"));
        check Alcotest.int "new counter copied" 1
          (Engine.Metrics.counter_value (Engine.Metrics.counter a "only-b"));
        match List.assoc "h" (Engine.Metrics.snapshot a) with
        | Engine.Metrics.Histogram { counts; total; _ } ->
          check (Alcotest.array Alcotest.int) "buckets" [| 1; 1; 0 |] counts;
          check Alcotest.int "total" 2 total
        | _ -> Alcotest.fail "histogram missing");
    tc "histogram_quantile interpolates, clamps, and handles empties" (fun () ->
        let reg = Engine.Metrics.create () in
        let h = Engine.Metrics.histogram ~edges:[| 1.; 10. |] reg "q" in
        check (Alcotest.float 1e-9) "empty histogram reads 0" 0.
          (Engine.Metrics.histogram_quantile h 0.5);
        (* one observation per bucket: (0,1], (1,10], overflow *)
        List.iter (Engine.Metrics.observe h) [ 0.5; 5.; 20. ];
        (* p50: rank 1.5 falls in the second bucket, halfway in *)
        check (Alcotest.float 1e-9) "p50 interpolated" 5.5
          (Engine.Metrics.histogram_quantile h 0.5);
        (* p95: rank 2.85 falls in the overflow bucket -> top edge *)
        check (Alcotest.float 1e-9) "overflow clamps to top edge" 10.
          (Engine.Metrics.histogram_quantile h 0.95);
        (* out-of-range q is clamped *)
        check (Alcotest.float 1e-9) "q > 1 clamps" 10.
          (Engine.Metrics.histogram_quantile h 2.);
        (* quantile_of works straight off snapshot data *)
        match List.assoc "q" (Engine.Metrics.snapshot reg) with
        | Engine.Metrics.Histogram { edges; counts; total; _ } ->
          check (Alcotest.float 1e-9) "quantile_of agrees" 5.5
            (Engine.Metrics.quantile_of ~edges ~counts ~total 0.5)
        | _ -> Alcotest.fail "histogram missing");
    tc "counters_with_prefix strips and sorts" (fun () ->
        let reg = Engine.Metrics.create () in
        Engine.Metrics.incr ~by:7 (Engine.Metrics.counter reg "p.zeta");
        Engine.Metrics.incr ~by:2 (Engine.Metrics.counter reg "p.alpha");
        Engine.Metrics.incr (Engine.Metrics.counter reg "other");
        check
          Alcotest.(list (pair string int))
          "family"
          [ ("alpha", 2); ("zeta", 7) ]
          (Engine.Metrics.counters_with_prefix reg ~prefix:"p."));
  ]

let event_tests =
  [
    tc "text sink renders one line per event" (fun () ->
        let lines = ref [] in
        let bus = Engine.Event.bus () in
        Engine.Event.add_sink bus
          (Engine.Event.text_sink ~out:(fun l -> lines := l :: !lines));
        Engine.Event.emit bus
          (Engine.Event.Coverage_sampled { iteration = 25; covered = 600 });
        Engine.Event.emit bus (Engine.Event.Pipeline_goal (2, false));
        check
          Alcotest.(list string)
          "lines"
          [ "coverage-sampled 600 @25"; "pipeline-goal #2 unfixed" ]
          (List.rev !lines));
    tc "remove_sink detaches exactly that sink" (fun () ->
        let seen = ref 0 in
        let sink =
          { Engine.Event.sink_name = "count"; emit = (fun _ -> incr seen) }
        in
        let bus = Engine.Event.bus () in
        Engine.Event.add_sink bus sink;
        Engine.Event.emit bus (Engine.Event.Custom "a");
        Engine.Event.remove_sink bus sink;
        Engine.Event.emit bus (Engine.Event.Custom "b");
        check Alcotest.int "only first seen" 1 !seen);
  ]

let span_tests =
  [
    tc "spans record count and duration into the registry" (fun () ->
        (* a fake clock makes durations deterministic *)
        let t = ref 0L in
        let clock () =
          t := Int64.add !t 1500L;
          !t
        in
        let ctx = Engine.Ctx.create ~clock () in
        let v = Engine.Span.with_ ctx ~name:"stage" (fun () -> 42) in
        check Alcotest.int "value" 42 v;
        (match
           List.assoc "span.stage"
             (Engine.Metrics.snapshot ctx.Engine.Ctx.metrics)
         with
        | Engine.Metrics.Histogram { total; sum; _ } ->
          check Alcotest.int "one span" 1 total;
          check (Alcotest.float 1e-9) "1500ns" 1500. sum
        | _ -> Alcotest.fail "span histogram missing"));
    tc "spans record when the computation raises" (fun () ->
        let ctx = Engine.Ctx.create () in
        (try
           Engine.Span.with_ ctx ~name:"boom" (fun () -> failwith "x")
         with Failure _ -> ());
        match
          List.assoc "span.boom"
            (Engine.Metrics.snapshot ctx.Engine.Ctx.metrics)
        with
        | Engine.Metrics.Histogram { total; _ } ->
          check Alcotest.int "recorded" 1 total
        | _ -> Alcotest.fail "span histogram missing");
  ]

let vec_tests =
  [
    tc "push/get/length across growth" (fun () ->
        let v = Engine.Vec.create () in
        for i = 0 to 99 do
          Engine.Vec.push v (i * i)
        done;
        check Alcotest.int "length" 100 (Engine.Vec.length v);
        for i = 0 to 99 do
          check Alcotest.int "element" (i * i) (Engine.Vec.get v i)
        done;
        Alcotest.check_raises "out of bounds"
          (Invalid_argument "Vec.get: index out of bounds") (fun () ->
            ignore (Engine.Vec.get v 100)));
    tc "of_list/to_list round-trip and iter order" (fun () ->
        let v = Engine.Vec.of_list [ "a"; "b"; "c" ] in
        Engine.Vec.push v "d";
        check Alcotest.(list string) "to_list" [ "a"; "b"; "c"; "d" ]
          (Engine.Vec.to_list v);
        let seen = ref [] in
        Engine.Vec.iter (fun x -> seen := x :: !seen) v;
        check Alcotest.(list string) "iter order" [ "a"; "b"; "c"; "d" ]
          (List.rev !seen));
    tc "empty vector" (fun () ->
        let v : int Engine.Vec.t = Engine.Vec.create () in
        check Alcotest.int "length" 0 (Engine.Vec.length v);
        check Alcotest.(list int) "to_list" [] (Engine.Vec.to_list v));
    tc "to_array/of_array round-trip without aliasing" (fun () ->
        let v = Engine.Vec.of_list [ 1; 2; 3 ] in
        Engine.Vec.push v 4;
        let a = Engine.Vec.to_array v in
        check (Alcotest.array Alcotest.int) "live elements" [| 1; 2; 3; 4 |] a;
        (* the snapshot is a copy: later pushes don't show in it *)
        Engine.Vec.push v 5;
        check Alcotest.int "snapshot unchanged" 4 (Array.length a);
        let v' = Engine.Vec.of_array a in
        a.(0) <- 99;
        check Alcotest.int "of_array copied" 1 (Engine.Vec.get v' 0);
        check Alcotest.(list int) "round-trip" [ 1; 2; 3; 4 ]
          (Engine.Vec.to_list v'));
    tc "clear keeps capacity and resets length" (fun () ->
        let v = Engine.Vec.of_list [ 1; 2; 3 ] in
        Engine.Vec.clear v;
        check Alcotest.int "length" 0 (Engine.Vec.length v);
        check Alcotest.(list int) "empty" [] (Engine.Vec.to_list v);
        Engine.Vec.push v 7;
        check Alcotest.int "reusable" 7 (Engine.Vec.get v 0));
  ]

let counter_value ctx name =
  Engine.Metrics.counter_value
    (Engine.Metrics.counter ctx.Engine.Ctx.metrics name)

let faults_tests =
  let cfg =
    {
      Engine.Faults.no_faults with
      Engine.Faults.llm_throttle = 0.5;
      io_failure = 0.5;
    }
  in
  let stream t site n = List.init n (fun _ -> Engine.Faults.fire t site) in
  [
    tc "per-site streams are independent of interleaving" (fun () ->
        let a = Engine.Faults.create ~seed:7 cfg in
        let b = Engine.Faults.create ~seed:7 cfg in
        (* draining io draws on [b] must not shift its llm stream *)
        let da = stream a Engine.Faults.Llm_throttle 50 in
        let db =
          List.init 50 (fun _ ->
              ignore (Engine.Faults.fire b Engine.Faults.Io_failure);
              Engine.Faults.fire b Engine.Faults.Llm_throttle)
        in
        check Alcotest.(list bool) "same llm decisions" da db;
        check Alcotest.bool "stream is non-trivial" true
          (List.mem true da && List.mem false da));
    tc "derive is stable per tag and consumes no parent state" (fun () ->
        let p = Engine.Faults.create ~seed:1 cfg in
        let c1 = Engine.Faults.derive p ~tag:5 in
        let c2 = Engine.Faults.derive p ~tag:5 in
        let s1 = stream c1 Engine.Faults.Llm_throttle 50 in
        check Alcotest.(list bool) "equal tags reproduce" s1
          (stream c2 Engine.Faults.Llm_throttle 50);
        check Alcotest.bool "distinct tags diverge" false
          (s1
          = stream (Engine.Faults.derive p ~tag:6) Engine.Faults.Llm_throttle 50);
        check
          Alcotest.(list bool)
          "parent stream untouched by derivation"
          (stream (Engine.Faults.create ~seed:1 cfg) Engine.Faults.Llm_throttle
             50)
          (stream p Engine.Faults.Llm_throttle 50));
    tc "zero-rate sites never fire" (fun () ->
        let t = Engine.Faults.create ~seed:3 Engine.Faults.no_faults in
        check Alcotest.bool "silent" false
          (List.mem true (stream t Engine.Faults.Io_failure 100)));
    tc "fired faults bump the injected counter" (fun () ->
        let ctx = Engine.Ctx.create () in
        let t =
          Engine.Faults.create
            { Engine.Faults.no_faults with Engine.Faults.compile_hang = 1.0 }
        in
        for _ = 1 to 5 do
          ignore (Engine.Faults.fire ~ctx t Engine.Faults.Compile_hang)
        done;
        check Alcotest.int "counted" 5
          (counter_value ctx "faults.injected.compile_hang"));
    tc "spec parses, round-trips, and rejects junk" (fun () ->
        (match Engine.Faults.parse_spec "llm=0.25,hang=0.5,io=1" with
        | Ok c ->
          check (Alcotest.float 1e-9) "llm" 0.25 c.Engine.Faults.llm_throttle;
          check (Alcotest.float 1e-9) "io" 1.0 c.Engine.Faults.io_failure;
          check Alcotest.bool "round-trip" true
            (Engine.Faults.parse_spec (Engine.Faults.spec_to_string c) = Ok c)
        | Error e -> Alcotest.failf "spec rejected: %s" e);
        check Alcotest.bool "off" true
          (Engine.Faults.parse_spec "off" = Ok Engine.Faults.no_faults);
        check Alcotest.string "off renders" "off"
          (Engine.Faults.spec_to_string Engine.Faults.no_faults);
        check Alcotest.bool "rate out of range" true
          (Result.is_error (Engine.Faults.parse_spec "llm=2"));
        check Alcotest.bool "unknown site" true
          (Result.is_error (Engine.Faults.parse_spec "bogus=0.1")));
    tc "shard-layer sites parse and round-trip canonically" (fun () ->
        (match
           Engine.Faults.parse_spec "frame=0.1,stall=0.05,oom=0.01,coord=0.02"
         with
        | Ok c ->
          check (Alcotest.float 1e-9) "frame" 0.1 c.Engine.Faults.frame_garble;
          check (Alcotest.float 1e-9) "stall" 0.05 c.Engine.Faults.frame_stall;
          check (Alcotest.float 1e-9) "oom" 0.01 c.Engine.Faults.worker_oom;
          check (Alcotest.float 1e-9) "coord" 0.02
            c.Engine.Faults.coordinator_crash;
          (* single-process sites stay silent *)
          check (Alcotest.float 1e-9) "llm untouched" 0.
            c.Engine.Faults.llm_throttle;
          check Alcotest.bool "round-trip" true
            (Engine.Faults.parse_spec (Engine.Faults.spec_to_string c) = Ok c)
        | Error e -> Alcotest.failf "shard spec rejected: %s" e);
        (* long names are accepted and canonicalize to the short keys *)
        check Alcotest.bool "long names accepted" true
          (Engine.Faults.parse_spec "frame_garble=0.1,worker_oom=0.01"
          = Engine.Faults.parse_spec "frame=0.1,oom=0.01");
        check Alcotest.int "seven sites" 7
          (List.length Engine.Faults.all_sites));
    tc "legacy four-site specs parse exactly as before" (fun () ->
        (* the fourth legacy site, crash (a worker domain dying), went
           with the domain pool: a spec naming it is refused, not run
           fault-free at that site *)
        check Alcotest.bool "crash is an unknown site" true
          (Result.is_error
             (Engine.Faults.parse_spec "llm=0.2,hang=0.01,crash=0.05,io=0.02"));
        match Engine.Faults.parse_spec "llm=0.2,hang=0.01,io=0.02" with
        | Ok c ->
          check (Alcotest.float 1e-9) "llm" 0.2 c.Engine.Faults.llm_throttle;
          check (Alcotest.float 1e-9) "hang" 0.01 c.Engine.Faults.compile_hang;
          check (Alcotest.float 1e-9) "io" 0.02 c.Engine.Faults.io_failure;
          List.iter
            (fun site ->
              check (Alcotest.float 1e-9)
                (Engine.Faults.site_to_string site ^ " defaults to zero")
                0. (Engine.Faults.rate c site))
            Engine.Faults.
              [ Frame_garble; Frame_stall; Worker_oom; Coordinator_crash ];
          (* the canonical string — and with it every fingerprint baked
             into existing checkpoints — is unchanged by the new sites *)
          check Alcotest.string "canonical spec unchanged"
            "llm=0.2,hang=0.01,io=0.02"
            (Engine.Faults.spec_to_string c)
        | Error e -> Alcotest.failf "legacy spec rejected: %s" e);
  ]

let retry_tests =
  let p = Engine.Retry.default_policy in
  [
    tc "backoff doubles from the base and respects the cap" (fun () ->
        (* jitter01 = 0.5 is the centre of the 1±jitter window: factor 1 *)
        let d n = Engine.Retry.delay_for p ~attempt:n ~jitter01:0.5 in
        check (Alcotest.float 1e-9) "first" 1. (d 1);
        check (Alcotest.float 1e-9) "second" 2. (d 2);
        check (Alcotest.float 1e-9) "third" 4. (d 3);
        check (Alcotest.float 1e-9) "capped" 30. (d 10);
        check (Alcotest.float 1e-9) "jitter floor" 0.5
          (Engine.Retry.delay_for p ~attempt:1 ~jitter01:0.));
    tc "recovery stops retrying and reports waits" (fun () ->
        let ctx = Engine.Ctx.create () in
        let out =
          Engine.Retry.run ~ctx ~name:"t" p
            ~retryable:(fun v -> v < 3)
            ~jitter:(fun () -> 0.5)
            (fun ~attempt -> attempt)
        in
        check Alcotest.int "value" 3 out.Engine.Retry.value;
        check Alcotest.int "attempts" 3 out.Engine.Retry.attempts;
        check (Alcotest.float 1e-9) "waited 1+2" 3. out.Engine.Retry.waited_s;
        check Alcotest.bool "recovered" true out.Engine.Retry.recovered;
        check Alcotest.int "t.attempts" 3 (counter_value ctx "t.attempts");
        check Alcotest.int "t.retried" 2 (counter_value ctx "t.retried");
        check Alcotest.int "t.recovered" 1 (counter_value ctx "t.recovered");
        check Alcotest.int "t.wait_ms" 3000 (counter_value ctx "t.wait_ms"));
    tc "exhaustion keeps the last value and is not a recovery" (fun () ->
        let ctx = Engine.Ctx.create () in
        let out =
          Engine.Retry.run ~ctx ~name:"t" p
            ~retryable:(fun _ -> true)
            ~jitter:(fun () -> 0.5)
            (fun ~attempt -> attempt)
        in
        check Alcotest.int "all attempts" 4 out.Engine.Retry.attempts;
        check (Alcotest.float 1e-9) "waited 1+2+4" 7. out.Engine.Retry.waited_s;
        check Alcotest.bool "not recovered" false out.Engine.Retry.recovered;
        check Alcotest.int "t.exhausted" 1 (counter_value ctx "t.exhausted"));
  ]

let checkpoint_tests =
  let temp_dir () = Filename.temp_dir "metamut-ckpt" "" in
  [
    tc "save/load round-trips a payload atomically" (fun () ->
        let path = Filename.concat (temp_dir ()) "a.ckpt" in
        (match Engine.Checkpoint.save ~path ~fingerprint:"fp" (42, "x") with
        | Ok () -> ()
        | Error e -> Alcotest.failf "save: %s" e);
        check Alcotest.bool "no stray temp file" false
          (Sys.file_exists (path ^ ".tmp"));
        match Engine.Checkpoint.load ~path ~fingerprint:"fp" with
        | Ok v -> check (Alcotest.pair Alcotest.int Alcotest.string) "value"
                    (42, "x") v
        | Error e -> Alcotest.failf "load: %s" e);
    tc "mismatched fingerprints refuse to load" (fun () ->
        let path = Filename.concat (temp_dir ()) "b.ckpt" in
        (match Engine.Checkpoint.save ~path ~fingerprint:"old" () with
        | Ok () -> ()
        | Error e -> Alcotest.failf "save: %s" e);
        check Alcotest.bool "refused" true
          (Result.is_error
             (Engine.Checkpoint.load ~path ~fingerprint:"new" : (unit, _) result)));
    tc "corrupt files are errors, not exceptions" (fun () ->
        let path = Filename.concat (temp_dir ()) "c.ckpt" in
        let oc = open_out_bin path in
        output_string oc "not a checkpoint";
        close_out oc;
        check Alcotest.bool "rejected" true
          (Result.is_error
             (Engine.Checkpoint.load ~path ~fingerprint:"fp" : (unit, _) result)));
    tc "injected i/o failures exhaust the retry budget" (fun () ->
        let ctx = Engine.Ctx.create () in
        let faults =
          Engine.Faults.create
            { Engine.Faults.no_faults with Engine.Faults.io_failure = 1.0 }
        in
        let path = Filename.concat (temp_dir ()) "d.ckpt" in
        check Alcotest.bool "save fails" true
          (Result.is_error
             (Engine.Checkpoint.save ~faults ~ctx ~path ~fingerprint:"fp" ()));
        check Alcotest.bool "nothing written" false (Sys.file_exists path);
        check Alcotest.int "failure counted" 1
          (counter_value ctx "checkpoint.save_failed"));
  ]

(* Supervision on the worker pool of the one campaign driver: the
   coordinator keeps every verdict, forked workers only run [f]. *)
let supervision_tests =
  let run ?limits ?ctx ?on_event ~f leases =
    Engine.Shard.run_pool ~shards:4 ?limits ?ctx ?on_event
      ~f:(fun ~heartbeat:_ ~seq:_ ~attempt body -> f ~attempt body)
      leases
  in
  let dones verdicts =
    Array.to_list verdicts
    |> List.filter_map (function Engine.Shard.Done b -> Some b | _ -> None)
  in
  [
    tc "flaky items recover behind the per-item barrier" (fun () ->
        let retries = ref 0 in
        let ctx = Engine.Ctx.create () in
        let out, _ =
          run ~ctx
            ~on_event:(fun ~seq:_ -> function
              | Engine.Shard.Lease_retry _ -> incr retries
              | _ -> ())
            ~f:(fun ~attempt body ->
              if attempt = 0 then failwith "flake" else body)
            (Array.init 5 string_of_int)
        in
        check
          Alcotest.(list string)
          "all recovered" [ "0"; "1"; "2"; "3"; "4" ] (dones out);
        check Alcotest.int "retried" 5 !retries);
    tc "persistent failures surface without killing siblings" (fun () ->
        let attempts = ref 1 in
        let out, _ =
          run
            ~limits:{ Engine.Shard.default_limits with max_attempts = 3 }
            ~on_event:(fun ~seq:_ -> function
              | Engine.Shard.Lease_retry _ -> incr attempts
              | _ -> ())
            ~f:(fun ~attempt:_ body ->
              if body = "1" then failwith "dead" else body ^ "0")
            [| "0"; "1"; "2" |]
        in
        (match out.(1) with
        | Engine.Shard.Failed msg ->
          check Alcotest.string "last exception" "Failure(\"dead\")" msg;
          check Alcotest.int "attempts" 3 !attempts
        | Done _ | Quarantined _ -> Alcotest.fail "expected a 3-attempt failure");
        check Alcotest.(list string) "siblings fine" [ "00"; "20" ] (dones out));
    tc "healthy runs leave the registry untouched" (fun () ->
        let ctx = Engine.Ctx.create () in
        ignore
          (run ~ctx ~f:(fun ~attempt:_ body -> body) (Array.init 8 string_of_int));
        check Alcotest.bool "metrics-silent" true
          (Engine.Metrics.snapshot ctx.Engine.Ctx.metrics = []));
  ]

let mucfuzz_engine_tests =
  [
    tc "trend starts with the seed baseline sample" (fun () ->
        let seeds = Fuzzing.Seeds.corpus ~n:8 (Cparse.Rng.create 3) in
        let r =
          Fuzzing.Mucfuzz.run
            ~cfg:
              {
                (Fuzzing.Mucfuzz.default_config ()) with
                Fuzzing.Mucfuzz.max_attempts_per_iteration = 4;
                sample_every = 5;
              }
            ~rng:(Cparse.Rng.create 11) ~compiler:Simcomp.Compiler.Gcc ~seeds
            ~iterations:10 ~name:"t" ()
        in
        match r.Fuzzing.Fuzz_result.coverage_trend with
        | (0, covered) :: rest ->
          check Alcotest.bool "baseline covered" true (covered > 0);
          check Alcotest.bool "later samples follow" true
            (List.for_all (fun (i, _) -> i > 0) rest)
        | _ -> Alcotest.fail "trend must start at iteration 0");
    tc "per-mutator counters balance: attempts = outcomes" (fun () ->
        let seeds = Fuzzing.Seeds.corpus ~n:8 (Cparse.Rng.create 3) in
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
          }
        in
        let fuzz ~engine ~iterations =
          ignore
            (Fuzzing.Mucfuzz.run ~cfg ~engine ~rng:(Cparse.Rng.create 5)
               ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations ~name:"t" ())
        in
        (* a zero-iteration run compiles only the (parseable) seeds *)
        let seed_engine = Engine.Ctx.create () in
        fuzz ~engine:seed_engine ~iterations:0;
        let seed_compiles =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter seed_engine.Engine.Ctx.metrics
               "compile.total")
        in
        check Alcotest.bool "seeds compiled" true (seed_compiles > 0);
        let engine = Engine.Ctx.create () in
        fuzz ~engine ~iterations:15;
        let reg = engine.Engine.Ctx.metrics in
        let sum prefix =
          List.fold_left
            (fun acc (_, n) -> acc + n)
            0
            (Engine.Metrics.counters_with_prefix reg ~prefix)
        in
        let attempts = sum "mucfuzz.attempt." in
        check Alcotest.bool "some attempts" true (attempts > 0);
        check Alcotest.int "attempt = accept + reject + inapplicable"
          attempts
          (sum "mucfuzz.accept." + sum "mucfuzz.reject."
          + sum "mucfuzz.inapplicable.");
        (* compile events were emitted for every produced mutant + seed *)
        let compiles =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter reg "compile.total")
        in
        check Alcotest.int "compiles = seeds + produced mutants" compiles
          (seed_compiles + sum "mucfuzz.accept." + sum "mucfuzz.reject."));
  ]

let () =
  Alcotest.run "engine"
    [
      ("metrics", metrics_tests);
      ("events", event_tests);
      ("spans", span_tests);
      ("vec", vec_tests);
      ("faults", faults_tests);
      ("retry", retry_tests);
      ("checkpoint", checkpoint_tests);
      ("supervision", supervision_tests);
      ("determinism", Contracts.tests "determinism");
      ("mucfuzz-engine", mucfuzz_engine_tests);
    ]
