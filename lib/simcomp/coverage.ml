(* Branch-coverage instrumentation for the simulated compilers.

   Each decision point in the pipeline reports a (site, context) pair;
   context captures what the real compiler's branch would depend on (node
   kind, type class, pass decision...), so coverage grows with program
   diversity exactly as it does when fuzzing an instrumented GCC/Clang.

   The representation is AFL's edge map taken literally: a fixed byte
   array of [map_size] saturating 8-bit hit counters.  [hit] is a
   branch-predictable unboxed byte bump — no tuple, no [Hashtbl.hash],
   no heap traffic of any kind — because it fires thousands of times per
   compile (the feature-pair loop alone is O(n²) in feature buckets).

   Next to the map, each map keeps the vector of cells it has touched:
   [hit] appends a cell on its 0 → 1 transition, the branch where it
   already bumps the distinct count.  A compile touches a few hundred of
   the 2^20 cells, so merge, reset, iteration and equality walk that
   vector, not the map.  [hit] never
   grows the vector: once it is full, [hit] only counts, and the next
   walk rebuilds a larger vector with one scan of the map.  So [hit]
   stays allocation-free however many cells a map touches, and a
   scratch map's vector settles at its working set.

   A map has two forms.  A live map holds the dense bytes and the
   touched vector (indices in first-touch order).  A map at rest holds
   no dense bytes, only its sorted (index, count) pairs packed one per
   int: that is the form that crosses process and disk boundaries, a few
   KiB instead of 1 MiB.  The first [hit] or [merge ~into] of a map at
   rest rebuilds the dense bytes; reads work on either form. *)

type t = {
  mutable map : Bytes.t;
  (* live: [map_size] saturating 8-bit counters; at rest: empty *)
  mutable cells : int array;
  (* live: the nonzero cells' indices, in first-touch order (spare
     capacity past [distinct]); at rest: [(index lsl 8) lor count] per
     nonzero cell, in increasing index order *)
  mutable distinct : int;
  (* nonzero cells: the used prefix of [cells], unless it outran the
     vector (see [sync]) *)
  mutable hits : int; (* total branch events, unsaturated *)
}

let map_bits = 20
let map_size = 1 lsl map_bits

(* Above the cells one compile touches: a median of 484 and at most 736
   over 60 synthesized seeds. *)
let initial_cells = 1024

let create () =
  {
    map = Bytes.make map_size '\000';
    cells = Array.make initial_cells 0;
    distinct = 0;
    hits = 0;
  }

let[@inline] live cov = Bytes.length cov.map > 0

(* At rest → live: rebuild the dense bytes from the packed pairs and
   unpack the pairs into indices. *)
let unpack cov =
  let map = Bytes.make map_size '\000' in
  let cells = Array.make (max initial_cells (2 * cov.distinct)) 0 in
  for k = 0 to cov.distinct - 1 do
    let e = cov.cells.(k) in
    Bytes.unsafe_set map (e lsr 8) (Char.unsafe_chr (e land 255));
    cells.(k) <- e lsr 8
  done;
  cov.map <- map;
  cov.cells <- cells

let words = map_size / 8

(* A live map whose hits outran its vector: rebuild the vector, with
   room to spare, by one word-skipping scan of the map.  Every walk
   starts here. *)
let sync cov =
  if cov.distinct > Array.length cov.cells then begin
    let cells = Array.make (min map_size (2 * cov.distinct)) 0 in
    let n = ref 0 in
    for w = 0 to words - 1 do
      let base = w * 8 in
      if Bytes.get_int64_ne cov.map base <> 0L then
        for i = base to base + 7 do
          if Bytes.unsafe_get cov.map i <> '\000' then begin
            cells.(!n) <- i;
            incr n
          end
        done
    done;
    cov.cells <- cells
  end

(* Append cell [i], new to a synced map, growing the vector when full. *)
let touch cov i =
  let n = cov.distinct in
  if n = Array.length cov.cells then begin
    let cells = Array.make (min map_size (2 * n)) 0 in
    Array.blit cov.cells 0 cells 0 n;
    cov.cells <- cells
  end;
  Array.unsafe_set cov.cells n i;
  cov.distinct <- n + 1

let hit cov id =
  if not (live cov) then unpack cov;
  let i = id land (map_size - 1) in
  cov.hits <- cov.hits + 1;
  let c = Char.code (Bytes.unsafe_get cov.map i) in
  if c = 0 then begin
    let n = cov.distinct in
    if n < Array.length cov.cells then Array.unsafe_set cov.cells n i;
    cov.distinct <- n + 1
  end;
  if c < 255 then Bytes.unsafe_set cov.map i (Char.unsafe_chr (c + 1))

(* An integer mixer over the (site, a, b) triple: xmix/murmur-style
   multiply-shift rounds, entirely on immediates.  Replaces
   [Hashtbl.hash (site, a, b)], which boxed the triple on every event. *)
let[@inline] mix3 site a b =
  let h = site * 0x9E3779B1 in
  let h = (h lxor a) * 0x85EBCA77 in
  let h = (h lxor b) * 0xC2B2AE3D in
  let h = h lxor (h lsr 16) in
  let h = h * 0x27D4EB2F in
  h lxor (h lsr 13)

(* Report a branch at [site] with contextual values.  [branch3] is the
   hot-path spelling: without flambda, [branch]'s optional arguments box
   a [Some] per supplied value at every call site — thousands of events
   per compile, all allocating for nothing.  Instrumentation sites that
   fire per token/node/instruction must use [branch3]. *)
let branch3 cov site a b = hit cov (mix3 site a b)
let branch cov ~site ?(a = 0) ?(b = 0) () = branch3 cov site a b

let covered cov = cov.distinct

let total_hits cov = cov.hits

(* The [k]th nonzero cell of either form, and its count. *)
let[@inline] cell_at cov k =
  let e = Array.unsafe_get cov.cells k in
  if live cov then e else e lsr 8

let[@inline] count_at cov k =
  let e = Array.unsafe_get cov.cells k in
  if live cov then Char.code (Bytes.unsafe_get cov.map e) else e land 255

(* Cell [i]'s counter: a byte load when live, a binary search over the
   sorted pairs at rest. *)
let count cov i =
  if live cov then Char.code (Bytes.unsafe_get cov.map i)
  else
    let rec go lo hi =
      if lo >= hi then 0
      else
        let mid = (lo + hi) lsr 1 in
        let e = cov.cells.(mid) in
        let j = e lsr 8 in
        if j = i then e land 255 else if j < i then go (mid + 1) hi else go lo mid
    in
    go 0 cov.distinct

(* The covered cell indices in increasing order, in a fresh array: the
   pairs are already sorted, a live map's vector is in touch order. *)
let sorted_cells cov =
  sync cov;
  let a = Array.init cov.distinct (cell_at cov) in
  if live cov then Array.sort Int.compare a;
  a

let iter_nonzero cov f = Array.iter f (sorted_cells cov)

let branch_ids cov = Array.to_list (sorted_cells cov)

(* Zero only the cells the map touched.  A map at rest has no dense
   bytes to zero. *)
let reset cov =
  sync cov;
  if live cov then
    for k = 0 to cov.distinct - 1 do
      Bytes.unsafe_set cov.map (Array.unsafe_get cov.cells k) '\000'
    done;
  cov.distinct <- 0;
  cov.hits <- 0

let drain = reset

(* Accumulate [src] into [dst] over [src]'s touched cells, returning the
   number of cells new to [dst] — [fresh > 0] is the acceptance test of
   the paper's Algorithm 1, so callers need one call for both the accept
   decision and the accumulation.  With [consume], [src] is then reset
   over the same cells. *)
let merge_cells ~consume dst src =
  if not (live dst) then unpack dst;
  sync dst;
  sync src;
  let fresh = ref 0 in
  for k = 0 to src.distinct - 1 do
    let i = cell_at src k and s = count_at src k in
    let d = Char.code (Bytes.unsafe_get dst.map i) in
    if d = 0 then begin
      incr fresh;
      touch dst i
    end;
    let sum = d + s in
    Bytes.unsafe_set dst.map i (Char.unsafe_chr (if sum > 255 then 255 else sum))
  done;
  dst.hits <- dst.hits + src.hits;
  if consume then reset src;
  !fresh

let merge ~into src = merge_cells ~consume:false into src
let merge_consume ~into src = merge_cells ~consume:true into src

let has_new_coverage ~seen src =
  sync src;
  let rec go k =
    k < src.distinct && (count seen (cell_at src k) = 0 || go (k + 1))
  in
  go 0

let copy cov =
  {
    map = Bytes.copy cov.map;
    cells = Array.copy cov.cells;
    distinct = cov.distinct;
    hits = cov.hits;
  }

let at_rest cov =
  let cells = sorted_cells cov in
  Array.iteri (fun k i -> cells.(k) <- (i lsl 8) lor count cov i) cells;
  { map = Bytes.empty; cells; distinct = Array.length cells; hits = cov.hits }

(* Same hit total, same distinct count, and every cell of [a] carries
   the same counter in [b]: with equal distinct counts that makes the
   cell sets equal too, whichever form and touch order each map has. *)
let equal a b =
  sync a;
  a.hits = b.hits
  && a.distinct = b.distinct
  &&
  let rec go k =
    k >= a.distinct || (count b (cell_at a k) = count_at a k && go (k + 1))
  in
  go 0
