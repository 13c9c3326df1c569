(* The live scrape surface: a minimal HTTP/1.1 server polled from the
   campaign's own control flow.

   No threads, no event loop of its own: the owner calls [poll] at
   natural pause points (the coordinator's supervision rounds and worker
   heartbeats) and [poll] does a bounded amount of non-blocking work —
   accept whatever is queued, read whatever has arrived, answer whatever
   is complete — under the same deadline discipline as
   [Shard.read_exact].  A stalled or hostile
   client therefore costs the campaign one failed syscall per poll,
   never a wedge; its connection is dropped when its deadline passes.

   Everything served is a *read* of state the engine already maintains
   (the metrics registry, the heartbeat table, the quarantine list), so
   serving cannot change fuzz results. *)

type sample = {
  sa_execs : int;
  sa_covered : int;
  sa_crashes : int;
  sa_elapsed_s : float;
}

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;
  c_deadline : float;  (* gettimeofday; request must complete by then *)
}

type t = {
  ctx : Ctx.t;
  sock : Unix.file_descr;
  bound : string;
  unix_path : string option;  (* unlink on close *)
  mutable conns : conn list;
  series : sample option array;  (* ring, newest overwrites oldest *)
  mutable series_seen : int;
  shard_tbl : (int, int * int * int) Hashtbl.t;
  mutable quarantined : (string * string) list;  (* newest first *)
  mutable done_flag : bool;
  mutable requests : int;
  started_ns : int64;
  mutable last_shard_sample_ns : int64;
  prev_sigpipe : Sys.signal_behavior option;
}

let series_capacity = 512
let request_deadline_s = 0.25
let write_deadline_s = 1.0
let max_request_bytes = 8192

(* ------------------------------------------------------------------ *)
(* Listen                                                              *)
(* ------------------------------------------------------------------ *)

(* ADDR grammar: a '/' anywhere means a Unix-domain socket path;
   otherwise HOST:PORT (port 0 asks the kernel for an ephemeral port —
   [bound_addr] reports what it picked). *)
let parse_addr (addr : string) :
    (Unix.sockaddr * string option, string) result =
  if String.contains addr '/' then Ok (Unix.ADDR_UNIX addr, Some addr)
  else
    match String.rindex_opt addr ':' with
    | None -> Error (Fmt.str "--serve %S: expected HOST:PORT or a path" addr)
    | Some i -> (
      let host = String.sub addr 0 i in
      let port_s = String.sub addr (i + 1) (String.length addr - i - 1) in
      match int_of_string_opt port_s with
      | None -> Error (Fmt.str "--serve %S: bad port %S" addr port_s)
      | Some port -> (
        let host = if host = "" then "127.0.0.1" else host in
        match Unix.inet_addr_of_string host with
        | ip -> Ok (Unix.ADDR_INET (ip, port), None)
        | exception Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
            Error (Fmt.str "--serve %S: unknown host %S" addr host)
          | { Unix.h_addr_list; _ } ->
            Ok (Unix.ADDR_INET (h_addr_list.(0), port), None))))

let describe_sockaddr = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (ip, port) ->
    Fmt.str "%s:%d" (Unix.string_of_inet_addr ip) port

let listen ~addr (ctx : Ctx.t) : (t, string) result =
  match parse_addr addr with
  | Error _ as e -> e
  | Ok (sockaddr, unix_path) -> (
    match
      let domain = Unix.domain_of_sockaddr sockaddr in
      let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
      (try
         if domain = Unix.PF_UNIX then
           Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
             unix_path
         else Unix.setsockopt sock Unix.SO_REUSEADDR true;
         Unix.bind sock sockaddr;
         Unix.listen sock 16;
         Unix.set_nonblock sock
       with e ->
         Unix.close sock;
         raise e);
      sock
    with
    | exception Unix.Unix_error (err, _, _) ->
      Error (Fmt.str "--serve %s: %s" addr (Unix.error_message err))
    | sock ->
      let prev_sigpipe =
        (* a scrape client that disconnects mid-response must cost an
           EPIPE, not the process *)
        try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
        with Invalid_argument _ -> None
      in
      let now = Ctx.now_ns ctx in
      Ok
        {
          ctx;
          sock;
          bound = describe_sockaddr (Unix.getsockname sock);
          unix_path;
          conns = [];
          series = Array.make series_capacity None;
          series_seen = 0;
          shard_tbl = Hashtbl.create 8;
          quarantined = [];
          done_flag = false;
          requests = 0;
          started_ns = now;
          last_shard_sample_ns = 0L;
          prev_sigpipe;
        })

let bound_addr (t : t) = t.bound

(* ------------------------------------------------------------------ *)
(* Folded state feeds                                                  *)
(* ------------------------------------------------------------------ *)

let elapsed_s (t : t) =
  Int64.to_float (Int64.sub (Ctx.now_ns t.ctx) t.started_ns) /. 1e9

let totals (t : t) : int * int * int =
  Status.fold_heartbeats
    (Hashtbl.fold (fun _ beat acc -> beat :: acc) t.shard_tbl [])

let push_sample (t : t) =
  let execs, covered, crashes = totals t in
  t.series.(t.series_seen mod series_capacity) <-
    Some
      {
        sa_execs = execs;
        sa_covered = covered;
        sa_crashes = crashes;
        sa_elapsed_s = elapsed_s t;
      };
  t.series_seen <- t.series_seen + 1

let note_shard (t : t) ~shard ~execs ~covered ~crashes =
  Hashtbl.replace t.shard_tbl shard (execs, covered, crashes);
  (* heartbeats arrive ~1/s per shard; one series point per second is
     plenty for a sparkline *)
  let now = Ctx.now_ns t.ctx in
  if Int64.sub now t.last_shard_sample_ns >= 1_000_000_000L then begin
    t.last_shard_sample_ns <- now;
    push_sample t
  end

let note_quarantine (t : t) ~unit_name ~reason =
  t.quarantined <- (unit_name, reason) :: t.quarantined

let set_done (t : t) =
  t.done_flag <- true;
  push_sample t

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let esc = Trace.json_escape

let status_json (t : t) : string =
  let execs, covered, crashes = totals t in
  let el = elapsed_s t in
  let rate = if el <= 0. then 0. else float_of_int execs /. el in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Fmt.str
       "{\"done\": %b, \"elapsed_s\": %.3f, \"execs\": %d, \
        \"execs_per_sec\": %.1f, \"covered\": %d, \"crashes\": %d,\n"
       t.done_flag el execs rate covered crashes);
  let shard_rows =
    Hashtbl.fold (fun id beat acc -> (id, beat) :: acc) t.shard_tbl []
    |> List.sort compare
    |> List.map (fun (id, (e, c, k)) ->
           Fmt.str
             "  {\"shard\": %d, \"execs\": %d, \"covered\": %d, \
              \"crashes\": %d}"
             id e c k)
  in
  Buffer.add_string buf " \"shards\": [";
  if shard_rows <> [] then
    Buffer.add_string buf ("\n" ^ String.concat ",\n" shard_rows ^ "\n");
  Buffer.add_string buf "],\n";
  let q_rows =
    List.rev_map
      (fun (u, reason) ->
        Fmt.str "  {\"unit\": \"%s\", \"reason\": \"%s\"}" (esc u)
          (esc reason))
      t.quarantined
  in
  Buffer.add_string buf " \"quarantined\": [";
  if q_rows <> [] then
    Buffer.add_string buf ("\n" ^ String.concat ",\n" q_rows ^ "\n");
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let series_json (t : t) : string =
  let n = min t.series_seen series_capacity in
  let first = t.series_seen - n in
  let rows = ref [] in
  for i = t.series_seen - 1 downto first do
    match t.series.(i mod series_capacity) with
    | None -> ()
    | Some s ->
      rows :=
        Fmt.str
          "  {\"elapsed_s\": %.3f, \"execs\": %d, \"covered\": %d, \
           \"crashes\": %d}"
          s.sa_elapsed_s s.sa_execs s.sa_covered s.sa_crashes
        :: !rows
  done;
  match !rows with
  | [] -> "[]\n"
  | rows -> "[\n" ^ String.concat ",\n" rows ^ "\n]\n"

(* Read-only registry probe: [Metrics.counter] is find-or-create, and a
   scrape must never materialize an instrument (the live registry has to
   stay byte-identical to the one the final metrics.prom snapshots). *)
let healthy (t : t) =
  Metrics.counters_with_prefix t.ctx.Ctx.metrics
    ~prefix:"shard.breaker_tripped"
  |> List.for_all (fun (_, v) -> v = 0)

let respond (t : t) (path : string) : int * string * string =
  let path =
    match String.index_opt path '?' with
    | Some i -> String.sub path 0 i
    | None -> path
  in
  match path with
  | "/metrics" ->
    ( 200,
      "text/plain; version=0.0.4",
      Telemetry.prometheus_of_snapshot (Metrics.snapshot t.ctx.Ctx.metrics) )
  | "/status.json" -> (200, "application/json", status_json t)
  | "/series.json" -> (200, "application/json", series_json t)
  | "/healthz" ->
    if healthy t then (200, "text/plain", "ok\n")
    else (503, "text/plain", "breaker tripped\n")
  | _ -> (404, "text/plain", "not found\n")

let http_response ~code ~content_type ~body : string =
  let reason =
    match code with
    | 200 -> "OK"
    | 404 -> "Not Found"
    | 405 -> "Method Not Allowed"
    | 503 -> "Service Unavailable"
    | _ -> "Error"
  in
  Fmt.str
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    code reason content_type (String.length body) body

(* ------------------------------------------------------------------ *)
(* Non-blocking request handling                                       *)
(* ------------------------------------------------------------------ *)

(* Bounded write: the fd is non-blocking, so a full socket buffer costs
   a select with the remaining deadline, and a client that refuses to
   read is abandoned mid-response (it asked for a scrape and stopped
   listening; the campaign does not wait). *)
let write_all_bounded fd (s : string) ~deadline =
  let len = String.length s in
  let buf = Bytes.unsafe_of_string s in
  let off = ref 0 in
  (try
     while !off < len do
       match Unix.write fd buf !off (len - !off) with
       | n -> off := !off + n
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
         ->
         let remaining = deadline -. Unix.gettimeofday () in
         if remaining <= 0. then raise Exit;
         ignore (Unix.select [] [ fd ] [] remaining)
     done
   with Exit | Unix.Unix_error (_, _, _) -> ());
  ()

let close_conn (c : conn) = try Unix.close c.c_fd with Unix.Unix_error _ -> ()

(* One read step for a connection: returns [`Keep] while the request is
   still arriving, [`Done] once it has been answered or dropped. *)
let step_conn (t : t) (c : conn) ~now : [ `Keep | `Done ] =
  let chunk = Bytes.create 1024 in
  let rec drain () =
    match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | n ->
      Buffer.add_subbytes c.c_buf chunk 0 n;
      if Buffer.length c.c_buf > max_request_bytes then `Eof else drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Again
    | exception Unix.Unix_error (_, _, _) -> `Eof
  in
  let state = drain () in
  let data = Buffer.contents c.c_buf in
  let header_end =
    (* headers end at the first blank line; tolerate bare-LF clients *)
    match Astring.String.find_sub ~sub:"\r\n\r\n" data with
    | Some i -> Some i
    | None -> Astring.String.find_sub ~sub:"\n\n" data
  in
  match header_end with
  | Some _ ->
    t.requests <- t.requests + 1;
    let request_line =
      match String.index_opt data '\n' with
      | Some i -> String.trim (String.sub data 0 i)
      | None -> data
    in
    let response =
      match String.split_on_char ' ' request_line with
      | "GET" :: path :: _ ->
        let code, content_type, body = respond t path in
        http_response ~code ~content_type ~body
      | _ ->
        http_response ~code:405 ~content_type:"text/plain"
          ~body:"only GET is served\n"
    in
    write_all_bounded c.c_fd response
      ~deadline:(Unix.gettimeofday () +. write_deadline_s);
    close_conn c;
    `Done
  | None ->
    if state = `Eof || now > c.c_deadline then begin
      close_conn c;
      `Done
    end
    else `Keep

let poll (t : t) =
  (* accept everything queued *)
  let rec accept_loop () =
    match Unix.accept t.sock with
    | fd, _ ->
      Unix.set_nonblock fd;
      t.conns <-
        {
          c_fd = fd;
          c_buf = Buffer.create 256;
          c_deadline = Unix.gettimeofday () +. request_deadline_s;
        }
        :: t.conns;
      accept_loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  accept_loop ();
  if t.conns <> [] then begin
    let now = Unix.gettimeofday () in
    t.conns <-
      List.filter (fun c -> step_conn t c ~now = `Keep) t.conns
  end

(* Keep answering scrapes for [seconds] after the campaign finished —
   how a CI smoke reads the final registry without racing shutdown. *)
let linger (t : t) ~seconds =
  let until = Unix.gettimeofday () +. seconds in
  while Unix.gettimeofday () < until do
    poll t;
    (try ignore (Unix.select [ t.sock ] [] [] 0.05)
     with Unix.Unix_error _ -> ())
  done

let close (t : t) =
  List.iter close_conn t.conns;
  t.conns <- [];
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) t.unix_path;
  match t.prev_sigpipe with
  | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
  | None -> ()

let requests_served (t : t) = t.requests
