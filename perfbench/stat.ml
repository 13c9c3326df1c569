(* Clocks, allocation counters and order statistics for the benchmark. *)

let now () = Unix.gettimeofday ()

(* Process CPU seconds, including reaped children (forked shard workers
   are waited for before a campaign returns). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
  +. t.Unix.tms_cstime

(* Words allocated by this domain so far: minor allocations plus direct
   major allocations (large blocks and Marshal input never pass through
   the minor heap).  [Gc.minor_words] is exact at any point; the minor
   counts of [Gc.counters] and [Gc.quick_stat] only advance at minor
   collections, which with the tuned 8M-word minor heap are rare. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Peak resident set (VmHWM) of this process in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.
        | exception _ -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let sorted xs = List.sort Float.compare xs

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so spreads printed here match the
   ones any downstream script recomputes from the same samples. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan, nan)
  | [ x ] -> (x, x, x)
  | l ->
    let a = Array.of_list l in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  match sorted xs with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of raw samples ([p] in 0..100). *)
let percentile xs p =
  match sorted xs with
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Host speed.  The benchmark shares its machine, and neighbours' load
   slows everything on it by up to half for minutes at a time; no
   in-process signal (CPU time, steal time) shows it.  So rounds are
   bracketed by a fixed stdlib-only kernel -- hashing, sorting, string
   building and map inserts over 20k keys, no repository code -- and
   times are rescaled by how long the kernel took: the rounds and the
   kernel slow down together, so a rescaled time stays put when the host
   gets busy but still moves with the code under test. *)
let kernel_once () =
  let keys = Array.init 20_000 (fun i -> string_of_int ((i * 7919) mod 1_000_003)) in
  let t0 = now () in
  let h = Hashtbl.create 16 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
  let sorted = List.sort String.compare (Array.to_list keys) in
  let b = Buffer.create 16 in
  List.iter (fun k -> Buffer.add_string b k) sorted;
  let module M = Map.Make (String) in
  let m = List.fold_left (fun m k -> M.add k (Hashtbl.find h k) m) M.empty sorted in
  ignore (Sys.opaque_identity (M.cardinal m + Buffer.length b));
  now () -. t0

(* Three timings after a discarded first run, which pays for page faults
   (copy-on-write ones, right after a fork) rather than for the host. *)
let kernel_on_one_core () =
  ignore (kernel_once ());
  List.init 3 (fun _ -> kernel_once ())

(* For workloads that keep both cores busy: a forked copy of this process
   runs the kernel on the other core at the same time, so a neighbour
   slowing either core shows. *)
let kernel_on_two_cores () =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let line =
      String.concat " " (List.map string_of_float (kernel_on_one_core ())) ^ "\n"
    in
    ignore (Unix.write_substring w line 0 (String.length line));
    Unix._exit 0
  | pid ->
    Unix.close w;
    let mine = kernel_on_one_core () in
    let ic = Unix.in_channel_of_descr r in
    let theirs =
      match input_line ic with
      | line -> List.filter_map float_of_string_opt (String.split_on_char ' ' line)
      | exception End_of_file -> []
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    mine @ theirs

(* The kernel's median time on a quiet host of the kind the bounds were
   set on (2-vCPU Xeon KVM guest): a rescaled time reads as seconds on
   that host. *)
let reference_kernel_s = 0.014

(* [t] seconds measured while the kernel took [kernel] seconds. *)
let rescale ~kernel t = t *. reference_kernel_s /. kernel
