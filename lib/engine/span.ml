(* Tracing spans: wall-clock nanoseconds per named region, recorded
   into the context's metrics registry as "span.<name>" histograms
   (decade buckets, 1us..10s) and — when the context has tracing
   enabled — as individual span instances in its Trace buffer for the
   Chrome trace-event export.  A span records even when the wrapped
   computation raises: a compiler stage that crashes still spent the
   time. *)

let histogram (ctx : Ctx.t) ~name = lazy (Metrics.histogram ctx.Ctx.metrics ("span." ^ name))

(* The histogram is forced after the region ran, so it exists exactly
   when a span was recorded into it. *)
let record (ctx : Ctx.t) h ~name ~t0 ~t1 =
  let dur = Int64.sub t1 t0 in
  Metrics.observe (Lazy.force h) (Int64.to_float dur);
  match ctx.Ctx.trace with
  | None -> ()
  | Some tr -> Trace.record tr ~name ~ts_ns:t0 ~dur_ns:dur

let with_histogram (ctx : Ctx.t) h ~name f =
  let t0 = Ctx.now_ns ctx in
  match f () with
  | v ->
    record ctx h ~name ~t0 ~t1:(Ctx.now_ns ctx);
    v
  | exception e ->
    record ctx h ~name ~t0 ~t1:(Ctx.now_ns ctx);
    raise e

let with_ (ctx : Ctx.t) ~name f = with_histogram ctx (histogram ctx ~name) ~name f

let with_opt (ctx : Ctx.t option) ~name f =
  match ctx with None -> f () | Some ctx -> with_ ctx ~name f
