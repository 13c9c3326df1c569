(* Atomic snapshot store.

   A checkpoint file is [magic]\n[fingerprint]\n[Marshal payload].  The
   fingerprint is the caller's description of everything the payload is
   only valid for (campaign parameters, fault spec, ...): [load] refuses
   a file whose fingerprint differs, so a resumed run can never silently
   continue somebody else's campaign.

   Writes are atomic by the classic temp-file + [Sys.rename] dance: a
   reader (or a resume after a kill) sees either the previous complete
   snapshot or the new complete snapshot, never a torn one.  Saves go
   through {!Retry} and consult the [Io_failure] fault site per attempt,
   so the fault-injection suite exercises the retry path for real. *)

(* CKPT3: coverage maps are stored at rest (sorted pairs); a CKPT2 file
   holds dense maps and is refused, so its unit starts fresh.
   CKPT4: compile-cache entries (inside fuzzer snapshots) record whether
   the compile emitted assembly; a CKPT3 file is refused the same way. *)
let magic = "METAMUT-CKPT4"

let mkdir_p (dir : string) =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Sys.mkdir d 0o755 with Sys_error _ -> ())
    end
  in
  go dir

let write_file ~path ~fingerprint payload =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (magic ^ "\n");
      output_string oc (fingerprint ^ "\n");
      Marshal.to_channel oc payload []);
  Sys.rename tmp path

let save ?faults ?ctx ?(retry = Retry.default_policy) ~path ~fingerprint
    (payload : 'a) : (unit, string) result =
  let attempt ~attempt:_ =
    let injected =
      match faults with
      | Some f -> Faults.fire ?ctx f Faults.Io_failure
      | None -> false
    in
    if injected then Error "injected i/o failure"
    else
      match write_file ~path ~fingerprint payload with
      | () -> Ok ()
      | exception Sys_error msg -> Error msg
  in
  let out =
    Retry.run ?ctx ~name:"checkpoint.retry" retry
      ~retryable:(function Error _ -> true | Ok _ -> false)
      ~jitter:(fun () -> 0.5) (* waits are simulated; no entropy needed *)
      attempt
  in
  Option.iter
    (fun c ->
      match out.Retry.value with
      | Ok () ->
        Ctx.incr c "checkpoint.saved";
        Ctx.log_event c ~level:Log.Debug ~event:"checkpoint.saved"
          [
            ("file", Filename.basename path);
            ("attempts", string_of_int out.Retry.attempts);
          ]
      | Error msg ->
        Ctx.incr c "checkpoint.save_failed";
        Ctx.log_event c ~level:Log.Error ~event:"checkpoint.save_failed"
          [ ("file", Filename.basename path); ("error", msg) ])
    ctx;
  out.Retry.value

let load ~path ~fingerprint : ('a, string) result =
  if not (Sys.file_exists path) then Error (Fmt.str "no checkpoint at %s" path)
  else
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match
            let m = input_line ic in
            let fp = input_line ic in
            (m, fp)
          with
          | exception End_of_file -> Error (Fmt.str "%s: truncated header" path)
          | m, _ when m <> magic -> Error (Fmt.str "%s: not a checkpoint" path)
          | _, fp when fp <> fingerprint ->
            Error
              (Fmt.str "%s: fingerprint mismatch (have %S, want %S)" path fp
                 fingerprint)
          | _ -> (
            match Marshal.from_channel ic with
            | payload -> Ok payload
            | exception (Failure _ | End_of_file) ->
              Error (Fmt.str "%s: corrupt payload" path)))
