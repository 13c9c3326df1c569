(** Live HTTP scrape surface for running campaigns.

    A minimal HTTP/1.1 server with no thread of its own: the campaign
    calls {!poll} at natural pause points and each poll does a bounded
    amount of non-blocking work (same deadline discipline as
    [Shard.read_exact] — a stalled client is dropped, never waited on).

    Endpoints: [/metrics] (Prometheus text, live registry snapshot),
    [/status.json] (campaign totals, per-shard heartbeat table,
    quarantine list), [/healthz] (200 until the circuit breaker trips,
    503 after), [/series.json] (ring-buffered coverage/exec/crash time
    series). *)

type t

val listen : addr:string -> Ctx.t -> (t, string) result
(** Bind and listen.  [addr] is [HOST:PORT] (TCP; port 0 picks an
    ephemeral port) or a filesystem path (Unix-domain socket).  Ignores
    SIGPIPE for the server's lifetime. *)

val bound_addr : t -> string
(** The actual bound address ([host:port] after ephemeral-port
    resolution, or the socket path). *)

val poll : t -> unit
(** Accept queued connections, read what has arrived, answer complete
    requests.  Non-blocking; bounded by per-connection deadlines. *)

val note_shard :
  t -> shard:int -> execs:int -> covered:int -> crashes:int -> unit
(** Feed one worker heartbeat into the [/status.json] table and, at most
    once a second, a [/series.json] point.  Heartbeats are the only
    feed: campaign work never emits on the coordinator's bus. *)

val note_quarantine : t -> unit_name:string -> reason:string -> unit

val set_done : t -> unit
(** Mark the campaign finished; [/status.json] reports ["done": true]
    so pollers know the registry is final. *)

val linger : t -> seconds:float -> unit
(** Keep serving for [seconds] after campaign end (lets a smoke test
    scrape the final registry without racing shutdown). *)

val close : t -> unit
(** Drop connections, close (and unlink) the socket, restore SIGPIPE. *)

val requests_served : t -> int
