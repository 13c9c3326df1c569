(** Tracing spans: wall-clock nanoseconds per named region.

    Durations land in the context registry as ["span.<name>"] histograms
    with {!Metrics.default_time_edges_ns} buckets; the histogram's total
    and sum give call count and cumulative time. *)

val with_ : Ctx.t -> name:string -> (unit -> 'a) -> 'a
(** Time [f] and record the duration — also when [f] raises (a crashing
    compiler stage still spent the time).  When the context has tracing
    enabled the span instance lands in its {!Trace} buffer too. *)

val with_opt : Ctx.t option -> name:string -> (unit -> 'a) -> 'a
(** [with_] when a context is present, plain [f ()] otherwise. *)

val histogram : Ctx.t -> name:string -> Metrics.histogram Lazy.t
(** The ["span.<name>"] histogram of the context, resolved when first
    forced.  A hot path that opens the same span on every call resolves
    it once per context and hands it to {!with_histogram}, instead of
    building the key and looking it up per span. *)

val with_histogram :
  Ctx.t -> Metrics.histogram Lazy.t -> name:string -> (unit -> 'a) -> 'a
(** [with_ ctx ~name f] with the span's histogram given, as {!histogram}
    [ctx ~name] returns it.  The histogram is forced only once [f] has
    returned or raised, so it exists exactly when [with_] would have
    made it. *)
