(** Back-end of the simulated compiler: instruction selection to a small
    RISC-flavoured target, linear-scan register allocation over
    {!phys_regs} physical registers, and assembly emission.  Selection
    patterns and allocation decisions report branch coverage.

    Two ways through it report exactly the same coverage: {!emit_program}
    renders the assembly text, {!allocate_program} stops after register
    allocation and selection (the fuzz loops read only outcome and
    coverage, so they skip the rendering).  Selection and emission are
    fused into one buffer-writing pass over the IR; the live-interval
    arrays, the register map and the output buffer come from the
    per-domain {!Scratch} arena, so a steady-state compile allocates
    little beyond the returned assembly string. *)

val phys_regs : int
(** Number of physical registers (8). *)

val regalloc : ?cov:Coverage.t -> Ir.func -> (int * int) list * int
(** Linear-scan allocation over live intervals, taken in order of first
    touch.  Returns the [(virtual, physical)] assignment (-1 = spilled;
    untouched vregs are absent) and the spill count. *)

val emit_program : ?cov:Coverage.t -> Ir.program -> string * int
(** Assembly for the whole program (data directives + functions) and
    the total spill count. *)

val allocate_program : ?cov:Coverage.t -> Ir.program -> int
(** The back-end stopped before emission: register allocation and
    instruction selection of every function, reporting into [cov]
    exactly what {!emit_program} reports, but rendering no text.
    Returns the total spill count. *)
