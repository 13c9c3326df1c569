(** Process-level runtime tuning for throughput-oriented binaries. *)

val minor_heap_words : int
(** Minor-heap size (in words, per domain) that {!tune} installs. *)

val tune : unit -> unit
(** Raise the minor heap to {!minor_heap_words} if it is smaller
    (allocation counts are unaffected).  Never shrinks a heap already
    enlarged via [OCAMLRUNPARAM].  Called from binary entry points only
    — the library itself must not change a host program's GC policy. *)
