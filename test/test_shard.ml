(* Tests for the worker pool and the campaign driver: the frame protocol
   (round-trips, garbled/short/oversized frames rejected without
   hanging, timeouts), the worker pool (shards:1 ≡ shards:K,
   death-mid-lease requeue, deterministic failures, chaos verdicts), the campaign coordinator (shards:1 ≡ shards:4
   byte-identical report, opt-matrix determinism, coordinator-crash
   resume), and Status TTY ownership. *)

open Contracts

let frame_eq (a : Engine.Shard.frame) (b : Engine.Shard.frame) = a = b

let frame_testable =
  Alcotest.testable
    (fun ppf (f : Engine.Shard.frame) ->
      Fmt.pf ppf "%s"
        (match f with
        | Hello { shard } -> Fmt.str "Hello %d" shard
        | Request -> "Request"
        | Lease { seq; attempt; body } ->
          Fmt.str "Lease %d/%d %S" seq attempt body
        | Result { seq; body } -> Fmt.str "Result %d %S" seq body
        | Heartbeat { execs; covered; crashes } ->
          Fmt.str "Heartbeat %d %d %d" execs covered crashes
        | Shutdown -> "Shutdown"))
    frame_eq

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f (Engine.Shard.of_fd a) (Engine.Shard.of_fd b))

let recv_ok ?timeout_s c =
  match Engine.Shard.recv ?timeout_s c with
  | Ok f -> f
  | Error e -> Alcotest.fail ("recv: " ^ Engine.Shard.recv_error_to_string e)

(* ------------------------------------------------------------------ *)
(* Frame protocol                                                      *)
(* ------------------------------------------------------------------ *)

let protocol_tests =
  [
    tc "every frame round-trips over a socketpair" (fun () ->
        with_socketpair (fun a b ->
            let frames : Engine.Shard.frame list =
              [
                Hello { shard = 3 };
                Request;
                Lease { seq = 7; attempt = 1; body = "the lease body" };
                Result { seq = 7; body = String.make 5000 'x' };
                Heartbeat { execs = 123456; covered = 42; crashes = 7 };
                Lease { seq = 0; attempt = 0; body = "" };
                Shutdown;
              ]
            in
            List.iter (fun f -> Engine.Shard.send a f) frames;
            List.iter
              (fun f ->
                check frame_testable "frame" f (recv_ok ~timeout_s:5. b))
              frames));
    tc "garbled magic is rejected without hanging" (fun () ->
        with_socketpair (fun a b ->
            let junk = Bytes.of_string "NOTaframe-at-all" in
            ignore (Unix.write (Engine.Shard.fd a) junk 0 (Bytes.length junk));
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error (Garbled _) -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Garbled"));
    tc "cross-version magic is garbled, not misparsed" (fun () ->
        with_socketpair (fun a b ->
            (* same "MSF" stem, different version byte *)
            let h = Bytes.of_string "MSF\xff\x01\x00\x00\x00\x00" in
            ignore (Unix.write (Engine.Shard.fd a) h 0 (Bytes.length h));
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error (Garbled msg) ->
              check Alcotest.bool "mentions protocol"
                true
                (Astring.String.is_infix ~affix:"protocol" msg
                 || String.length msg > 0)
            | Ok _ | Error _ -> Alcotest.fail "expected Garbled"));
    tc "a frame from the previous protocol version is an Error" (fun () ->
        with_socketpair (fun a b ->
            (* a well-formed Request frame under the previous magic *)
            let h = Bytes.create 9 in
            Bytes.blit_string "MSF" 0 h 0 3;
            Bytes.set_uint8 h 3 (Engine.Shard.protocol_version - 1);
            Bytes.set_uint8 h 4 1 (* Request *);
            Bytes.set_int32_be h 5 0l;
            ignore (Unix.write (Engine.Shard.fd a) h 0 9);
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error (Garbled _) -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Garbled"
            | exception e ->
              Alcotest.failf "raised %s" (Printexc.to_string e)));
    tc "oversized length is garbled" (fun () ->
        with_socketpair (fun a b ->
            let h = Bytes.create 9 in
            Bytes.blit_string Engine.Shard.magic 0 h 0 4;
            Bytes.set_uint8 h 4 1 (* Request *);
            Bytes.set_int32_be h 5 0x7fffffffl;
            ignore (Unix.write (Engine.Shard.fd a) h 0 9);
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error (Garbled _) -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Garbled"));
    tc "short frame (EOF mid-payload) is garbled, not a hang" (fun () ->
        with_socketpair (fun a b ->
            let h = Bytes.create 11 in
            Bytes.blit_string Engine.Shard.magic 0 h 0 4;
            Bytes.set_uint8 h 4 3 (* Result *);
            Bytes.set_int32_be h 5 100l (* promises 100 payload bytes *);
            (* ...delivers 2 *)
            ignore (Unix.write (Engine.Shard.fd a) h 0 11);
            Unix.close (Engine.Shard.fd a);
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error (Garbled _) -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Garbled"));
    tc "stalled mid-frame peer times out" (fun () ->
        with_socketpair (fun a b ->
            let h = Bytes.create 9 in
            Bytes.blit_string Engine.Shard.magic 0 h 0 4;
            Bytes.set_uint8 h 4 3;
            Bytes.set_int32_be h 5 100l;
            ignore (Unix.write (Engine.Shard.fd a) h 0 9);
            (* peer stays connected but never sends the payload *)
            let t0 = Unix.gettimeofday () in
            (match Engine.Shard.recv ~timeout_s:0.3 b with
            | Error Timeout -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Timeout");
            check Alcotest.bool "returned promptly" true
              (Unix.gettimeofday () -. t0 < 2.)));
    tc "EOF at a frame boundary is an orderly Closed" (fun () ->
        with_socketpair (fun a b ->
            Unix.close (Engine.Shard.fd a);
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error Closed -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Closed"));
    tc "encode/decode round-trips; truncated payload is an Error" (fun () ->
        let v = (42, "hello", [ 1.5; 2.5 ]) in
        let s = Engine.Shard.encode v in
        (match Engine.Shard.decode s with
        | Ok v' ->
          check
            Alcotest.(triple int string (list (float 1e-9)))
            "round-trip" v v'
        | Error msg -> Alcotest.fail msg);
        (match Engine.Shard.decode (String.sub s 0 (String.length s - 1)) with
        | Error _ -> ()
        | Ok (_ : int * string * float list) ->
          Alcotest.fail "truncated payload decoded");
        match Engine.Shard.decode "xx" with
        | Error _ -> ()
        | Ok (_ : int) -> Alcotest.fail "2-byte string decoded");
  ]

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

(* a pure work function: the pooled result must match the inline one *)
let upper_f ~heartbeat ~seq ~attempt:_ body =
  heartbeat ~execs:(seq + 1) ~covered:0 ~crashes:0;
  String.uppercase_ascii body ^ Fmt.str "#%d" seq

let verdict_testable =
  Alcotest.testable
    (fun ppf (v : Engine.Shard.verdict) ->
      match v with
      | Done b -> Fmt.pf ppf "Done %S" b
      | Failed m -> Fmt.pf ppf "Failed %S" m
      | Quarantined { q_reason; q_attempts } ->
        Fmt.pf ppf "Quarantined{%S after %d}" q_reason q_attempts)
    (fun (a : Engine.Shard.verdict) b -> a = b)

let verdicts_testable = Alcotest.array verdict_testable

let pool_tests =
  [
    tc "run_pool shards:1 ≡ shards:3 (fork)" (fun () ->
        let leases = Array.init 7 (fun i -> Fmt.str "lease-%d" i) in
        let seq_r, seq_stats =
          Engine.Shard.run_pool ~shards:1 ~f:upper_f leases
        in
        let par_r, _ =
          Engine.Shard.run_pool ~shards:3 ~f:upper_f leases
        in
        check verdicts_testable "results equal" seq_r par_r;
        check Alcotest.int "no deaths inline" 0 seq_stats.Engine.Shard.st_died;
        Array.iteri
          (fun i r ->
            check verdict_testable "computed"
              (Engine.Shard.Done (Fmt.str "LEASE-%d#%d" i i))
              r)
          seq_r);
    tc "heartbeats reach the coordinator" (fun () ->
        let beats = ref 0 in
        let leases = Array.init 3 (fun i -> string_of_int i) in
        let _, _ =
          Engine.Shard.run_pool ~shards:2
            ~on_heartbeat:(fun ~shard:_ ~execs:_ ~covered:_ ~crashes:_ ->
              incr beats)
            ~f:upper_f leases
        in
        check Alcotest.bool "got heartbeats" true (!beats >= 1));
    tc "worker death mid-lease: lease requeued, pool recovers" (fun () ->
        (* kill once: the lease carries its own poison, first attempt only *)
        let f ~heartbeat:_ ~seq:_ ~attempt body =
          if body = "die" && attempt = 0 && Engine.Shard.in_worker () then
            Unix._exit 42;
          "ok:" ^ body
        in
        let ctx = Engine.Ctx.create () in
        let leases = [| "a"; "die"; "b"; "c" |] in
        let r, stats =
          Engine.Shard.run_pool ~shards:2 ~ctx ~f
            leases
        in
        check verdicts_testable "all recovered"
          [|
            Engine.Shard.Done "ok:a"; Done "ok:die"; Done "ok:b"; Done "ok:c";
          |]
          r;
        check Alcotest.bool "death counted" true
          (stats.Engine.Shard.st_died >= 1);
        check Alcotest.bool "requeue counted" true
          (stats.Engine.Shard.st_requeued >= 1);
        (* interventions land in the metrics registry *)
        check Alcotest.bool "shard.worker_died bumped" true
          (Engine.Metrics.counter_value
             (Engine.Metrics.counter ctx.Engine.Ctx.metrics
                "shard.worker_died")
           >= 1));
    tc "deterministic failure burns attempts then lands in Error" (fun () ->
        let f ~heartbeat:_ ~seq:_ ~attempt:_ body =
          if body = "bad" then failwith "always broken";
          "ok:" ^ body
        in
        let r, stats =
          Engine.Shard.run_pool ~shards:2
            ~limits:{ Engine.Shard.default_limits with max_attempts = 2 }
            ~f [| "x"; "bad"; "y" |]
        in
        (match r.(1) with
        | Engine.Shard.Failed msg ->
          check Alcotest.bool "carries the exception" true
            (Astring.String.is_infix ~affix:"always broken" msg)
        | Done _ | Quarantined _ ->
          Alcotest.fail "deterministic failure did not land in Failed");
        check verdict_testable "siblings unaffected"
          (Engine.Shard.Done "ok:x") r.(0);
        check verdict_testable "siblings unaffected"
          (Engine.Shard.Done "ok:y") r.(2);
        (* healthy-worker failures are not deaths *)
        check Alcotest.int "no deaths" 0 stats.Engine.Shard.st_died);
  ]

(* ------------------------------------------------------------------ *)
(* Shard-layer chaos and the resource governor                         *)
(* ------------------------------------------------------------------ *)

(* Chaos verdicts are shard-count-invariant: every fault decision comes
   off a stream derived per (lease, attempt) from the root seed, so the
   inline degenerate mode and a real worker pool agree on which attempt
   of which lease gets hit — and therefore on every final verdict. *)
let chaos_tests =
  let quick_limits =
    { Engine.Shard.default_limits with hang_timeout_s = 1.0 }
  in
  let run ~shards ?limits ?faults ?ctx ?journal leases =
    Engine.Shard.run_pool ~shards
      ~limits:(Option.value ~default:quick_limits limits)
      ?faults ?ctx ?journal ~f:upper_f leases
  in
  [
    tc "injected oom/garble/stall: shards:1 ≡ shards:3 verdicts" (fun () ->
        let leases = Array.init 8 (fun i -> Fmt.str "lease-%d" i) in
        let spec = "oom=0.35,frame=0.25,stall=0.2" in
        let seq_r, seq_stats =
          run ~shards:1 ~faults:(faults_of_spec spec) leases
        in
        let ctx = Engine.Ctx.create () in
        let par_r, stats =
          run ~shards:3 ~faults:(faults_of_spec spec) ~ctx leases
        in
        check verdicts_testable "verdicts equal under chaos" seq_r par_r;
        (* the inline path books a death wherever a worker would die *)
        check Alcotest.int "same deaths" seq_stats.Engine.Shard.st_died
          stats.Engine.Shard.st_died;
        (* at these rates the stream provably hits something *)
        check Alcotest.bool "chaos actually fired" true
          (stats.Engine.Shard.st_died >= 1);
        Array.iter
          (function
            | Engine.Shard.Done _ | Quarantined _ -> ()
            | Failed msg -> Alcotest.fail ("chaos leaked a Failed: " ^ msg))
          par_r;
        (* every injected kill was recovered or quarantined, and the
           registry shows only intervention counters *)
        let counter name =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter ctx.Engine.Ctx.metrics name)
        in
        check Alcotest.bool "shard.worker_died bumped" true
          (counter "shard.worker_died" >= 1);
        check Alcotest.int "requeues match stats"
          stats.Engine.Shard.st_requeued
          (counter "shard.requeued"));
    tc "worker-oom at rate 1.0 trips the circuit breaker" (fun () ->
        let ctx = Engine.Ctx.create () in
        let r, stats =
          run ~shards:2 ~faults:(faults_of_spec "oom=1.0") ~ctx
            [| "a"; "b" |]
        in
        Array.iter
          (function
            | Engine.Shard.Quarantined { q_reason; q_attempts } ->
              check Alcotest.bool "reason names the oom category" true
                (Astring.String.is_infix ~affix:"worker-oom" q_reason);
              check Alcotest.bool "attempts were burned" true (q_attempts >= 1)
            | Done _ | Failed _ ->
              Alcotest.fail "permanent oom must quarantine")
          r;
        check Alcotest.int "every lease quarantined" 2
          stats.Engine.Shard.st_quarantined;
        check Alcotest.bool "oom kills counted" true
          (stats.Engine.Shard.st_oom >= 1);
        check Alcotest.bool "breaker counter bumped" true
          (Engine.Metrics.counter_value
             (Engine.Metrics.counter ctx.Engine.Ctx.metrics
                "shard.breaker_tripped")
           >= 1));
    tc "coordinator_crash at rate 1.0: lossless, restarts counted"
      (fun () ->
        let leases = Array.init 5 (fun i -> Fmt.str "l%d" i) in
        let seq_r, _ = run ~shards:1 leases in
        let par_r, stats =
          run ~shards:2 ~faults:(faults_of_spec "coord=1.0") leases
        in
        check verdicts_testable "no committed result lost" seq_r par_r;
        check Alcotest.bool "the coordinator crash-restarted" true
          (stats.Engine.Shard.st_crash_restarts >= 1));
    tc "journal fires once per Done lease, before the join" (fun () ->
        let seen = Hashtbl.create 8 in
        let leases = Array.init 6 (fun i -> Fmt.str "j%d" i) in
        let r, _ =
          run ~shards:2
            ~journal:(fun ~seq body -> Hashtbl.replace seen seq body)
            leases
        in
        Array.iteri
          (fun seq v ->
            match v with
            | Engine.Shard.Done body ->
              check Alcotest.(option string) "journaled body" (Some body)
                (Hashtbl.find_opt seen seq)
            | Failed _ | Quarantined _ -> Alcotest.fail "healthy run failed")
          r);
    tc "lease deadline: a stuck lease is killed and quarantined" (fun () ->
        let f ~heartbeat:_ ~seq:_ ~attempt:_ body =
          if body = "stuck" && Engine.Shard.in_worker () then
            Unix.sleepf 30.;
          "ok:" ^ body
        in
        let ctx = Engine.Ctx.create () in
        let r, stats =
          Engine.Shard.run_pool ~shards:2
            ~limits:
              {
                Engine.Shard.default_limits with
                hang_timeout_s = 30.;
                lease_deadline_s = 0.4;
                max_attempts = 2;
              }
            ~ctx ~f [| "a"; "stuck"; "b" |]
        in
        (match r.(1) with
        | Engine.Shard.Quarantined { q_reason; q_attempts = 2 } ->
          check Alcotest.string "deadline category" "deadline" q_reason
        | v ->
          Alcotest.failf "expected deadline quarantine, got %a"
            (Alcotest.pp verdict_testable) v);
        check verdict_testable "siblings unaffected"
          (Engine.Shard.Done "ok:a") r.(0);
        check Alcotest.bool "deadline kills counted" true
          (stats.Engine.Shard.st_deadline >= 1);
        check Alcotest.bool "shard.deadline_killed bumped" true
          (Engine.Metrics.counter_value
             (Engine.Metrics.counter ctx.Engine.Ctx.metrics
                "shard.deadline_killed")
           >= 1));
    tc "allocation budget: a hog lease is OOM-killed by the governor"
      (fun () ->
        let f ~heartbeat:_ ~seq:_ ~attempt:_ body =
          if body = "hog" && Engine.Shard.in_worker () then
            for _ = 1 to 8 do
              ignore (Sys.opaque_identity (Bytes.create 8_000_000));
              Gc.full_major ()
            done;
          "ok:" ^ body
        in
        let r, stats =
          Engine.Shard.run_pool ~shards:2
            ~limits:
              {
                Engine.Shard.default_limits with
                alloc_budget_words = 1_000_000.;
              }
            ~f [| "a"; "hog"; "b" |]
        in
        (match r.(1) with
        | Engine.Shard.Quarantined { q_reason; _ } ->
          check Alcotest.bool "classified as worker-oom" true
            (Astring.String.is_infix ~affix:"worker-oom" q_reason)
        | v ->
          Alcotest.failf "expected oom quarantine, got %a"
            (Alcotest.pp verdict_testable) v);
        check verdict_testable "siblings unaffected"
          (Engine.Shard.Done "ok:b") r.(2);
        check Alcotest.bool "governor kills counted" true
          (stats.Engine.Shard.st_oom >= 1));
    tc "spent spawn budget: the queue finishes inline" (fun () ->
        (* every worker dies on the first attempt of its first lease: two
           workers and a respawn budget of 2 x 3 take each of the eight
           leases once, then nothing is left to fork *)
        let f ~heartbeat ~seq ~attempt body =
          if attempt = 0 && Engine.Shard.in_worker () then Unix._exit 42;
          upper_f ~heartbeat ~seq ~attempt body
        in
        let leases = Array.init 8 (fun i -> Fmt.str "f%d" i) in
        let seq_r, _ = Engine.Shard.run_pool ~shards:1 ~f:upper_f leases in
        let fb_r, stats =
          Engine.Shard.run_pool ~shards:2 ~limits:quick_limits ~f leases
        in
        check verdicts_testable "fallback ≡ inline" seq_r fb_r;
        check Alcotest.int "every worker died" 8 stats.Engine.Shard.st_died;
        check Alcotest.int "every lease ran inline" 8
          stats.Engine.Shard.st_inline);
  ]

(* ------------------------------------------------------------------ *)
(* Sharded campaign coordinator                                        *)
(* ------------------------------------------------------------------ *)

let coordinator_tests =
  [
    tc "permanent oom: every unit quarantined, report grows the table"
      (fun () ->
        let t = (campaign ~faults:(faults_of_spec "oom=1.0") 2).t in
        check Alcotest.int "no results" 0
          (List.length t.Fuzzing.Coordinator.results);
        check Alcotest.int "all units quarantined" 4
          (List.length t.Fuzzing.Coordinator.quarantined);
        List.iter
          (fun (q : Fuzzing.Coordinator.quarantined_unit) ->
            check Alcotest.bool "reason names worker-oom" true
              (Astring.String.is_infix ~affix:"worker-oom" q.qu_reason);
            check Alcotest.bool "fingerprint recorded" true
              (String.length q.qu_fingerprint > 0))
          t.Fuzzing.Coordinator.quarantined;
        let report = Fuzzing.Coordinator.report t in
        check Alcotest.bool "quarantine table rendered" true
          (Astring.String.is_infix ~affix:"Quarantined units" report);
        check Alcotest.bool "unit named in the table" true
          (Astring.String.is_infix ~affix:"uCFuzz.s-GCC" report));
    tc "checkpoints with the previous magic are refused; units start fresh"
      (fun () ->
        in_scratch_dir (fun dir ->
            let files () =
              Array.to_list (Sys.readdir dir)
              |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
              |> List.map (Filename.concat dir)
            in
            let baseline = campaign ~checkpoint:dir 1 in
            (* rewrite every journal and snapshot under the previous magic,
               keeping fingerprint and payload: only the magic tells them
               apart from files this build wrote *)
            let old_magic = "METAMUT-CKPT5" in
            List.iter
              (fun path ->
                let body = In_channel.with_open_bin path In_channel.input_all in
                let nl = String.index body '\n' in
                check Alcotest.bool "the magic moved on" true
                  (String.sub body 0 nl <> old_magic);
                Out_channel.with_open_bin path (fun oc ->
                    output_string oc old_magic;
                    output_string oc
                      (String.sub body nl (String.length body - nl))))
              (files ());
            check Alcotest.bool "journals were written" true
              (List.exists
                 (fun f ->
                   Astring.String.is_prefix ~affix:"journal-"
                     (Filename.basename f))
                 (files ()));
            List.iter
              (fun path ->
                match Engine.Checkpoint.load ~path ~fingerprint:"any" with
                | Ok (_ : Fuzzing.Fuzz_result.t) ->
                  Alcotest.failf "%s loaded under the previous magic" path
                | Error _ -> ()
                | exception e ->
                  Alcotest.failf "%s: raised %s" path (Printexc.to_string e))
              (files ());
            let resumed = campaign ~checkpoint:dir ~resume:true 2 in
            check Alcotest.int "no unit resumed" 0 resumed.t.resumed_units;
            List.iter2
              (fun (u, r) (_, r') ->
                check result_testable (Fuzzing.Coordinator.unit_name u) r r')
              baseline.t.results resumed.t.results));
  ]


(* ------------------------------------------------------------------ *)
(* Status TTY ownership                                                *)
(* ------------------------------------------------------------------ *)

let status_tests =
  [
    tc "non-owners render nothing; the owner draws the aggregate line"
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Engine.Status.set_tty_owner true)
          (fun () ->
            let buf = Buffer.create 64 in
            let ctx = Engine.Ctx.create () in
            let st =
              Engine.Status.attach ~out:(Buffer.add_string buf)
                ~interval_ns:0L ~label:"shardtest" ctx
            in
            Engine.Status.set_tty_owner false;
            Engine.Status.update st ~execs:100 ~covered:5 ~crashes:1 ();
            Engine.Status.finish st;
            check Alcotest.string "worker drew nothing" "" (Buffer.contents buf);
            (* state still folds while silent: the line is current the
               moment ownership returns *)
            check Alcotest.bool "line carries the numbers" true
              (Astring.String.is_infix ~affix:"100 execs"
                 (Engine.Status.line st));
            Engine.Status.set_tty_owner true;
            let st2 =
              Engine.Status.attach ~out:(Buffer.add_string buf)
                ~interval_ns:0L ~label:"coord" ctx
            in
            Engine.Status.update st2 ~execs:7 ~covered:3 ~crashes:0 ();
            check Alcotest.bool "owner drew the aggregated line" true
              (Astring.String.is_infix ~affix:"7 execs"
                 (Buffer.contents buf));
            Engine.Status.finish st2));
  ]

let () =
  Alcotest.run "shard"
    [
      ("protocol", protocol_tests);
      ("pool", pool_tests);
      ("chaos", chaos_tests);
      ("coordinator", Contracts.tests "coordinator" @ coordinator_tests);
      ("status", status_tests);
    ]
