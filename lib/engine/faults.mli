(** Deterministic fault-injection harness.

    Any layer may consult a harness at one of seven {!site}s; the
    decision stream per site is a pure function of (seed, site, draw
    index), so one site's decisions are independent of how other sites'
    draws interleave — the property that keeps faulted campaigns
    byte-identical at any job count.

    The first three sites live inside one process; the last four are the
    shard layer's ({!Shard}) protocol- and resource-level chaos:
    garbled frames, mid-frame stalls, worker OOM kills, and coordinator
    crash-restarts.

    A harness is single-domain: parallel consumers must {!derive} a
    child per worker or per campaign cell.  Derivation does not consume
    parent state, so children are stable regardless of creation order. *)

type site =
  | Llm_throttle  (** the §4 API throttle/timeout, a.k.a. [System_error] *)
  | Compile_hang  (** pathological mutant stalling the compiler *)
  | Io_failure    (** checkpoint write failing *)
  | Frame_garble  (** worker emits a corrupt frame instead of its Result *)
  | Frame_stall   (** worker stalls mid-frame, holding the connection *)
  | Worker_oom    (** worker is OOM-killed at lease start (exit 137) *)
  | Coordinator_crash
      (** coordinator crash-restart after committing a result *)

val all_sites : site list
val site_to_string : site -> string

type config = {
  llm_throttle : float;
  compile_hang : float;
  io_failure : float;
  frame_garble : float;
  frame_stall : float;
  worker_oom : float;
  coordinator_crash : float;
}
(** Per-site injection probabilities, each in [\[0,1\]]. *)

val no_faults : config
val rate : config -> site -> float

type t
(** A seeded harness (mutable per-site draw counters). *)

val create : ?seed:int -> config -> t
val config_of : t -> config

val derive : t -> tag:int -> t
(** Child harness with the same config and a seed mixed from [tag].
    Distinct tags give independent streams; equal tags reproduce. *)

val fire : ?ctx:Ctx.t -> t -> site -> bool
(** Draw the site's next decision.  A zero-rate site never fires and
    consumes no draw.  With [ctx], fired faults bump
    [faults.injected.<site>]. *)

val parse_spec : string -> (config, string) result
(** ["llm=0.2,hang=0.01,io=0.02,frame=0.1,stall=0.05,oom=0.01,coord=0.02"]
    (long site names accepted); [""], ["off"] and ["none"] mean
    {!no_faults}.  An unknown site, the deleted [crash] among them, is
    an [Error]. *)

val spec_to_string : config -> string
(** Canonical spec (["off"] for {!no_faults}); round-trips through
    {!parse_spec}. *)

val fingerprint : t -> string
(** Spec + seed, for checkpoint compatibility checks. *)

val config_from_env : unit -> config option
(** Parse [METAMUT_FAULTS] (unset/empty → [None]; malformed → raises
    [Invalid_argument] — CI must not silently run fault-free). *)

val seed_from_env : unit -> int
(** [METAMUT_FAULT_SEED], default 0. *)
