(* Process-level runtime tuning for throughput-oriented binaries.

   The minor heap is held at 256k words (2 MiB per domain, OCaml's
   64-bit default).  Measured with perfbench on every workload, larger
   nurseries only cost: at 8M words (64 MiB) the fuzz, replay, campaign
   and wrong-code workloads all ran slower and peaked 30-60 MB higher in
   RSS, because a nursery that outgrows the CPU caches turns every
   allocation into a cache miss.  [Gc.minor_words] counts allocation,
   not collections, so minor-words-per-compile metrics do not depend on
   this setting.

   This lives in a function the binaries call, not a library side
   effect: linking the engine must never change the GC policy of a
   host program. *)

let minor_heap_words = 256 * 1024

let tune () =
  let g = Gc.get () in
  (* never shrink a heap the user enlarged via OCAMLRUNPARAM *)
  if g.Gc.minor_heap_size < minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = minor_heap_words }
