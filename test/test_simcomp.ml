(* Tests for the simulated compiler: coverage, feature extraction, IR
   lowering, optimizer passes, back-end, the reference interpreter, the
   bug database, and the end-to-end pipeline. *)

open Cparse

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let parse src =
  match Parser.parse src with
  | Ok tu -> tu
  | Error e -> Alcotest.failf "parse failed: %s" e

let run_src src =
  match Simcomp.Interp.run_src src with
  | Ok o -> o
  | Error e -> Alcotest.failf "interp parse failed: %s" e

let exit_of src = (run_src src).Simcomp.Interp.o_exit
let output_of src = (run_src src).Simcomp.Interp.o_output

(* ------------------------------------------------------------------ *)
(* Coverage                                                            *)
(* ------------------------------------------------------------------ *)

let coverage_tests =
  [
    tc "hit and covered" (fun () ->
        let c = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit c 1;
        Simcomp.Coverage.hit c 1;
        Simcomp.Coverage.hit c 2;
        check Alcotest.int "covered" 2 (Simcomp.Coverage.covered c);
        check Alcotest.int "hits" 3 (Simcomp.Coverage.total_hits c));
    tc "equal compares hits, distinct count, and the map" (fun () ->
        let a = Simcomp.Coverage.create () in
        let b = Simcomp.Coverage.create () in
        check Alcotest.bool "fresh maps equal" true (Simcomp.Coverage.equal a b);
        Simcomp.Coverage.hit a 7;
        check Alcotest.bool "diverged" false (Simcomp.Coverage.equal a b);
        Simcomp.Coverage.hit b 7;
        check Alcotest.bool "re-converged" true (Simcomp.Coverage.equal a b);
        (* same branch set, different hit counts: still unequal *)
        Simcomp.Coverage.hit a 7;
        check Alcotest.bool "hit counts matter" false
          (Simcomp.Coverage.equal a b));
    tc "merge counts fresh branches" (fun () ->
        let a = Simcomp.Coverage.create () in
        let b = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit a 1;
        Simcomp.Coverage.hit b 1;
        Simcomp.Coverage.hit b 2;
        let fresh = Simcomp.Coverage.merge ~into:a b in
        check Alcotest.int "fresh" 1 fresh;
        check Alcotest.int "covered" 2 (Simcomp.Coverage.covered a));
    tc "has_new_coverage" (fun () ->
        let seen = Simcomp.Coverage.create () in
        let x = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit seen 1;
        Simcomp.Coverage.hit x 1;
        check Alcotest.bool "no new" false
          (Simcomp.Coverage.has_new_coverage ~seen x);
        Simcomp.Coverage.hit x 99;
        check Alcotest.bool "new" true
          (Simcomp.Coverage.has_new_coverage ~seen x));
    tc "ids are bounded by the map size" (fun () ->
        let c = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit c (Simcomp.Coverage.map_size + 5);
        check Alcotest.bool "wrapped" true
          (List.for_all
             (fun id -> id < Simcomp.Coverage.map_size)
             (Simcomp.Coverage.branch_ids c)));
    tc "merge is idempotent on same map" (fun () ->
        let a = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit a 3;
        let b = Simcomp.Coverage.copy a in
        let fresh = Simcomp.Coverage.merge ~into:a b in
        check Alcotest.int "no fresh" 0 fresh);
  ]

(* Differential pin of the bitmap against the previous Hashtbl
   representation: the AFL-style edge map must report the same covered
   counts, fresh-branch counts, has-new verdicts, total hits, and id
   sets as the reference for any event stream, so coverage-guided
   acceptance decisions are unchanged by the representation swap. *)
module Ref_cov = struct
  type t = { map : (int, int) Hashtbl.t; mutable hits : int }

  let create () = { map = Hashtbl.create 64; hits = 0 }

  let hit cov id =
    let id = id land (Simcomp.Coverage.map_size - 1) in
    cov.hits <- cov.hits + 1;
    match Hashtbl.find_opt cov.map id with
    | Some n -> Hashtbl.replace cov.map id (n + 1)
    | None -> Hashtbl.replace cov.map id 1

  let covered c = Hashtbl.length c.map
  let ids c = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) c.map [])

  let merge ~into:dst src =
    let fresh = ref 0 in
    Hashtbl.iter
      (fun k v ->
        match Hashtbl.find_opt dst.map k with
        | Some n -> Hashtbl.replace dst.map k (n + v)
        | None ->
          incr fresh;
          Hashtbl.replace dst.map k v)
      src.map;
    dst.hits <- dst.hits + src.hits;
    !fresh

  let has_new ~seen src =
    Hashtbl.fold
      (fun k _ acc -> acc || not (Hashtbl.mem seen.map k))
      src.map false
end

(* A randomized id stream: a mix of small ids (forced collisions), full
   range ids, and out-of-range ids (wrap-around). *)
let random_ids rng n =
  List.init n (fun _ ->
      match Rng.int rng 3 with
      | 0 -> Rng.int rng 64
      | 1 -> Rng.int rng Simcomp.Coverage.map_size
      | _ -> Rng.int rng (8 * Simcomp.Coverage.map_size))

let bitmap_differential_tests =
  [
    tc "hit/covered/hits/ids match the Hashtbl reference" (fun () ->
        let rng = Rng.create 2024 in
        for _round = 1 to 20 do
          let bm = Simcomp.Coverage.create () and rf = Ref_cov.create () in
          let ids = random_ids rng (1 + Rng.int rng 400) in
          List.iter
            (fun id ->
              Simcomp.Coverage.hit bm id;
              Ref_cov.hit rf id)
            ids;
          check Alcotest.int "covered" (Ref_cov.covered rf)
            (Simcomp.Coverage.covered bm);
          check Alcotest.int "hits" rf.Ref_cov.hits
            (Simcomp.Coverage.total_hits bm);
          check
            Alcotest.(list int)
            "id sets" (Ref_cov.ids rf)
            (Simcomp.Coverage.branch_ids bm)
        done);
    tc "merge fresh counts and has_new match the reference" (fun () ->
        let rng = Rng.create 4242 in
        let bm_acc = Simcomp.Coverage.create () in
        let rf_acc = Ref_cov.create () in
        for _round = 1 to 40 do
          let bm = Simcomp.Coverage.create () and rf = Ref_cov.create () in
          List.iter
            (fun id ->
              Simcomp.Coverage.hit bm id;
              Ref_cov.hit rf id)
            (random_ids rng (Rng.int rng 120));
          check Alcotest.bool "has_new"
            (Ref_cov.has_new ~seen:rf_acc rf)
            (Simcomp.Coverage.has_new_coverage ~seen:bm_acc bm);
          let rf_fresh = Ref_cov.merge ~into:rf_acc rf in
          let bm_fresh = Simcomp.Coverage.merge ~into:bm_acc bm in
          check Alcotest.int "fresh" rf_fresh bm_fresh;
          check Alcotest.int "accumulated covered" (Ref_cov.covered rf_acc)
            (Simcomp.Coverage.covered bm_acc);
          check Alcotest.int "accumulated hits" rf_acc.Ref_cov.hits
            (Simcomp.Coverage.total_hits bm_acc)
        done);
    tc "coverage-guided accept decisions identical to the reference"
      (fun () ->
        (* Algorithm 1's accept test, run side by side: for the same RNG
           seed the two representations must accept/reject the exact
           same mutants *)
        let rng = Rng.create 77 in
        let bm_pool = Simcomp.Coverage.create () in
        let rf_pool = Ref_cov.create () in
        let decisions = ref [] in
        for _mutant = 1 to 300 do
          let ids = random_ids rng (Rng.int rng 60) in
          let bm = Simcomp.Coverage.create () and rf = Ref_cov.create () in
          List.iter
            (fun id ->
              Simcomp.Coverage.hit bm id;
              Ref_cov.hit rf id)
            ids;
          (* old API shape: has_new, then merge *)
          let rf_accept = Ref_cov.has_new ~seen:rf_pool rf in
          ignore (Ref_cov.merge ~into:rf_pool rf);
          (* new API shape: single merge, fresh count is the signal *)
          let bm_accept = Simcomp.Coverage.merge ~into:bm_pool bm > 0 in
          decisions := (rf_accept, bm_accept) :: !decisions
        done;
        check Alcotest.bool "some accepts and some rejects" true
          (List.exists (fun (a, _) -> a) !decisions
          && List.exists (fun (a, _) -> not a) !decisions);
        List.iter
          (fun (rf_accept, bm_accept) ->
            check Alcotest.bool "same decision" rf_accept bm_accept)
          !decisions);
    tc "reset zeroes in place and copy is independent" (fun () ->
        let c = Simcomp.Coverage.create () in
        List.iter (Simcomp.Coverage.hit c) [ 1; 2; 3; 1 ];
        let d = Simcomp.Coverage.copy c in
        Simcomp.Coverage.reset c;
        check Alcotest.int "reset covered" 0 (Simcomp.Coverage.covered c);
        check Alcotest.int "reset hits" 0 (Simcomp.Coverage.total_hits c);
        check Alcotest.(list int) "reset ids" [] (Simcomp.Coverage.branch_ids c);
        check Alcotest.int "copy survives" 3 (Simcomp.Coverage.covered d);
        check Alcotest.int "copy hits" 4 (Simcomp.Coverage.total_hits d);
        (* a reset map accepts hits again *)
        Simcomp.Coverage.hit c 9;
        check Alcotest.int "after reset" 1 (Simcomp.Coverage.covered c));
    tc "per-cell counters saturate without losing distinctness" (fun () ->
        let c = Simcomp.Coverage.create () in
        for _ = 1 to 1000 do
          Simcomp.Coverage.hit c 5
        done;
        check Alcotest.int "one branch" 1 (Simcomp.Coverage.covered c);
        check Alcotest.int "exact hits" 1000 (Simcomp.Coverage.total_hits c);
        (* saturated cells still merge correctly *)
        let d = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit d 5;
        check Alcotest.int "no fresh" 0 (Simcomp.Coverage.merge ~into:c d));
    tc "a scratch map comes back pristine after every merge_consume, drain \
        and reset" (fun () ->
        let pristine = Simcomp.Coverage.create () in
        let cycle name zero =
          let rng = Rng.create 31 in
          let scratch = Simcomp.Coverage.create () in
          let acc = Simcomp.Coverage.create () in
          for round = 1 to 300 do
            (* every 50th round outruns the touched vector *)
            let n = if round mod 50 = 0 then 3000 else Rng.int rng 200 in
            let rf = Ref_cov.create () in
            List.iter
              (fun id ->
                Simcomp.Coverage.hit scratch id;
                Ref_cov.hit rf id)
              (random_ids rng n);
            (* a cell the previous round left behind would not count as
               fresh here *)
            check Alcotest.int (name ^ ": covered") (Ref_cov.covered rf)
              (Simcomp.Coverage.covered scratch);
            zero ~acc scratch;
            if not (Simcomp.Coverage.equal pristine scratch) then
              Alcotest.failf "%s: round %d left cells behind" name round
          done
        in
        cycle "merge_consume" (fun ~acc s ->
            ignore (Simcomp.Coverage.merge_consume ~into:acc s));
        cycle "drain" (fun ~acc:_ s -> Simcomp.Coverage.drain s);
        cycle "reset" (fun ~acc:_ s -> Simcomp.Coverage.reset s));
    tc "maps round-tripped through frames and checkpoints accumulate the \
        same" (fun () ->
        let dir = Filename.temp_dir "metamut-cov" "" in
        let path = Filename.concat dir "map.ckpt" in
        let via_frame m =
          match Engine.Shard.decode (Engine.Shard.encode m) with
          | Ok m -> m
          | Error e -> Alcotest.fail e
        in
        let via_checkpoint m =
          match
            Result.bind (Engine.Checkpoint.save ~path ~fingerprint:"cov" m)
              (fun () -> Engine.Checkpoint.load ~path ~fingerprint:"cov")
          with
          | Ok m -> m
          | Error e -> Alcotest.fail e
        in
        let rng = Rng.create 55 in
        let mem = Simcomp.Coverage.create () in
        let wire = Simcomp.Coverage.create () in
        let disk = Simcomp.Coverage.create () in
        for round = 1 to 60 do
          let m = Simcomp.Coverage.create () in
          let n = if round mod 25 = 0 then 3000 else Rng.int rng 300 in
          List.iter (Simcomp.Coverage.hit m) (random_ids rng n);
          (* one cell saturates at 255 in every round *)
          for _ = 1 to 300 do
            Simcomp.Coverage.hit m 12345
          done;
          let rest = Simcomp.Coverage.at_rest m in
          check Alcotest.bool "at rest equals live" true
            (Simcomp.Coverage.equal m rest);
          let framed = via_frame rest and stored = via_checkpoint rest in
          check Alcotest.bool "frame round-trip" true
            (Simcomp.Coverage.equal m framed);
          check Alcotest.bool "checkpoint round-trip" true
            (Simcomp.Coverage.equal m stored);
          (* a decoded map rebuilds its dense bytes on the first hit *)
          if round mod 3 = 0 then
            List.iter
              (fun id ->
                Simcomp.Coverage.hit m id;
                Simcomp.Coverage.hit framed id;
                Simcomp.Coverage.hit stored id)
              [ 12345; round; 7 * round ];
          let f = Simcomp.Coverage.merge ~into:mem m in
          check Alcotest.int "frame fresh" f
            (Simcomp.Coverage.merge ~into:wire framed);
          check Alcotest.int "checkpoint fresh" f
            (Simcomp.Coverage.merge ~into:disk stored);
          (* a decoded accumulator rebuilds on the first merge into it *)
          if round mod 20 = 0 then begin
            let w = via_frame (Simcomp.Coverage.at_rest wire) in
            let d = via_checkpoint (Simcomp.Coverage.at_rest disk) in
            check Alcotest.int "decoded accumulator fresh" 0
              (Simcomp.Coverage.merge ~into:w m);
            ignore (Simcomp.Coverage.merge ~into:d m);
            ignore (Simcomp.Coverage.merge ~into:mem m);
            check Alcotest.bool "rebuilt wire accumulator" true
              (Simcomp.Coverage.equal mem w);
            check Alcotest.bool "rebuilt disk accumulator" true
              (Simcomp.Coverage.equal mem d);
            ignore (Simcomp.Coverage.merge ~into:wire m);
            ignore (Simcomp.Coverage.merge ~into:disk m)
          end
        done;
        check Alcotest.bool "frame-fed accumulator" true
          (Simcomp.Coverage.equal mem wire);
        check Alcotest.bool "checkpoint-fed accumulator" true
          (Simcomp.Coverage.equal mem disk);
        check Alcotest.(list int) "same ids"
          (Simcomp.Coverage.branch_ids mem)
          (Simcomp.Coverage.branch_ids disk);
        (* the at-rest form is what keeps frames small *)
        let bytes = String.length (Engine.Shard.encode (Simcomp.Coverage.at_rest mem)) in
        check Alcotest.bool
          (Fmt.str "at-rest frame of %d cells is %d bytes" (Simcomp.Coverage.covered mem)
             bytes)
          true
          (bytes < 8 * Simcomp.Coverage.covered mem + 64);
        Sys.remove path;
        Sys.rmdir dir);
    tc "iter_nonzero visits cells in strictly increasing order" (fun () ->
        let rng = Rng.create 8 in
        for round = 1 to 50 do
          let m = Simcomp.Coverage.create () in
          let n = if round mod 10 = 0 then 3000 else Rng.int rng 500 in
          List.iter (Simcomp.Coverage.hit m) (random_ids rng n);
          List.iter
            (fun (form, m) ->
              let seen = ref [] in
              Simcomp.Coverage.iter_nonzero m (fun i -> seen := i :: !seen);
              let visited = List.rev !seen in
              let rec increasing = function
                | a :: (b :: _ as rest) -> a < b && increasing rest
                | _ -> true
              in
              check Alcotest.bool (form ^ ": strictly increasing") true
                (increasing visited);
              check Alcotest.int (form ^ ": every covered cell")
                (Simcomp.Coverage.covered m) (List.length visited))
            [ ("live", m); ("at rest", Simcomp.Coverage.at_rest m) ]
        done);
    tc "touch order does not matter to equal" (fun () ->
        let rng = Rng.create 12 in
        let ids = random_ids rng 3000 in
        let a = Simcomp.Coverage.create () and b = Simcomp.Coverage.create () in
        List.iter (Simcomp.Coverage.hit a) ids;
        List.iter (Simcomp.Coverage.hit b) (List.rev ids);
        check Alcotest.bool "reversed order" true (Simcomp.Coverage.equal a b);
        check Alcotest.bool "reversed order, at rest" true
          (Simcomp.Coverage.equal (Simcomp.Coverage.at_rest a) b);
        Simcomp.Coverage.hit b (List.hd ids);
        check Alcotest.bool "one extra hit" false (Simcomp.Coverage.equal a b);
        (* same cells and hit total, different per-cell counts *)
        let a = Simcomp.Coverage.create () and b = Simcomp.Coverage.create () in
        List.iter (Simcomp.Coverage.hit a) [ 1; 1; 2 ];
        List.iter (Simcomp.Coverage.hit b) [ 1; 2; 2 ];
        check Alcotest.bool "per-cell counts" false (Simcomp.Coverage.equal a b);
        check Alcotest.bool "per-cell counts, at rest" false
          (Simcomp.Coverage.equal (Simcomp.Coverage.at_rest a) b));
    tc "hit allocates nothing on a warm scratch map" (fun () ->
        (* as in the fuzz loop: the scratch map's touched vector has
           already grown to its working set (10k cells outrun the initial
           vector; the merge rebuilds it larger) *)
        let cov = Simcomp.Coverage.create () in
        let acc = Simcomp.Coverage.create () in
        for i = 0 to 9_999 do
          Simcomp.Coverage.hit cov (i * 7919)
        done;
        ignore (Simcomp.Coverage.merge_consume ~into:acc cov);
        (* 100k hits: 5000 fresh cells, each revisited 20 times *)
        let ids = Array.init 100_000 (fun k -> (k mod 5000) * 104729) in
        let before = Gc.minor_words () in
        for k = 0 to Array.length ids - 1 do
          Simcomp.Coverage.hit cov (Array.unsafe_get ids k)
        done;
        let after = Gc.minor_words () in
        check (Alcotest.float 0.) "minor words" 0. (after -. before);
        check Alcotest.int "cells" 5000 (Simcomp.Coverage.covered cov));
  ]

(* ------------------------------------------------------------------ *)
(* Feature extraction                                                  *)
(* ------------------------------------------------------------------ *)

let feat src = Simcomp.Features.ast_features (parse src)

let feature_tests =
  [
    tc "counts functions, loops, ifs" (fun () ->
        let a =
          feat
            "int f(void) { if (1) return 1; return 0; }\n\
             int main(void) { while (0) ; for (;;) break; return f(); }"
        in
        check Alcotest.int "functions" 2 a.Simcomp.Features.n_functions;
        check Alcotest.int "ifs" 1 a.n_ifs;
        check Alcotest.int "loops" 2 a.n_loops);
    tc "const and volatile qualifiers" (fun () ->
        let a = feat "int main(void) { const int c = 1; volatile int v = 2; return c + v; }" in
        check Alcotest.bool "const" true a.Simcomp.Features.has_const_qual;
        check Alcotest.bool "volatile" true a.has_volatile_qual);
    tc "sprintf-to-self detection" (fun () ->
        let a =
          feat
            "char buffer[32];\n\
             int main(void) { return sprintf(buffer, \"%s\", buffer); }"
        in
        check Alcotest.bool "self" true a.Simcomp.Features.has_sprintf_self);
    tc "sprintf to other is not self" (fun () ->
        let a =
          feat
            "char buffer[32];\n\
             int main(void) { return sprintf(buffer, \"%s\", \"bar\"); }"
        in
        check Alcotest.bool "not self" false a.Simcomp.Features.has_sprintf_self);
    tc "void function with labels and no returns" (fun () ->
        let a =
          feat
            "void foo(int x) { if (x) goto a; if (x > 1) goto b; a: ; b: ; }\n\
             int main(void) { foo(1); return 0; }"
        in
        check Alcotest.bool "labels-no-return" true
          a.Simcomp.Features.has_labels_no_return;
        check Alcotest.bool "void-with-labels" true a.has_void_fn_with_labels);
    tc "zero-init decreasing loop (GCC #111820 shape)" (fun () ->
        let a =
          feat
            "int r;\nvoid f(void) { int n = 0; while (--n) { r += 1; } }\n\
             int main(void) { return 0; }"
        in
        check Alcotest.bool "shape" true
          a.Simcomp.Features.has_zero_init_decreasing_loop);
    tc "accumulation chain" (fun () ->
        let a =
          feat
            "int r[6];\n\
             void f(void) { r[1] += r[0]; r[2] += r[1]; r[3] += r[2]; }\n\
             int main(void) { return 0; }"
        in
        check Alcotest.bool "chain" true a.Simcomp.Features.has_scalar_accum_chain);
    tc "compound literal and struct cast (Clang #69213 shape)" (fun () ->
        let a =
          feat
            "struct s2 { int a; int b; };\n\
             int main(void) { struct s2 v; v = (struct s2){1, 2}; return v.a; }"
        in
        check Alcotest.bool "compound" true a.Simcomp.Features.has_compound_literal;
        check Alcotest.bool "struct cast" true a.has_struct_cast);
    tc "pointer arith cast chain (GCC #111819 shape)" (fun () ->
        let a =
          feat
            "long long combinedVar;\n\
             double *bar(void) { return (double *)((char *)&combinedVar + 8); }\n\
             int main(void) { return 0; }"
        in
        check Alcotest.bool "chain" true
          a.Simcomp.Features.has_ptr_arith_cast_chain);
    tc "fallthrough detection" (fun () ->
        let a =
          feat
            "int main(void) { int r = 0; switch (r) { case 0: r = 1; case 1: \
             r = 2; break; } return r; }"
        in
        check Alcotest.bool "fallthrough" true a.Simcomp.Features.has_fallthrough);
    tc "shift overflow" (fun () ->
        let a = feat "int main(void) { int x = 1; return x << 40; }" in
        check Alcotest.bool "overflow" true a.Simcomp.Features.has_shift_overflow);
    tc "division by literal zero" (fun () ->
        let a = feat "int main(void) { int x = 4; return x / 0; }" in
        check Alcotest.bool "div0" true a.Simcomp.Features.has_div_by_literal_zero);
    tc "uninitialised use" (fun () ->
        let a = feat "int main(void) { int x; return x + 1; }" in
        check Alcotest.bool "uninit" true a.Simcomp.Features.has_uninit_use);
    tc "initialised use is fine" (fun () ->
        let a = feat "int main(void) { int x = 0; return x + 1; }" in
        check Alcotest.bool "no uninit" false a.Simcomp.Features.has_uninit_use);
    tc "recursion" (fun () ->
        let a =
          feat "int f(int n) { return n ? f(n - 1) : 0; }\nint main(void) { return f(3); }"
        in
        check Alcotest.bool "recursion" true a.Simcomp.Features.has_recursion);
    tc "loop depth" (fun () ->
        let a =
          feat
            "int main(void) { for (;;) { for (;;) { for (;;) break; break; } \
             break; } return 0; }"
        in
        check Alcotest.int "depth" 3 a.Simcomp.Features.max_loop_depth);
    tc "cast chain depth" (fun () ->
        let a = feat "int main(void) { return (int)(char)(long)1; }" in
        check Alcotest.int "chain" 3 a.Simcomp.Features.max_cast_chain);
    tc "text features" (fun () ->
        let tx =
          Simcomp.Features.text_features "int aaaaaaaaaaaaaaaaaaaa; ((((("
        in
        check Alcotest.int "ident" 20 tx.Simcomp.Features.tx_max_ident_len;
        check Alcotest.int "paren depth" 5 tx.tx_paren_depth;
        check Alcotest.bool "no ctrl" false tx.tx_has_control_chars);
    tc "text features on binary garbage" (fun () ->
        let tx = Simcomp.Features.text_features "\x01\x02\"abc" in
        check Alcotest.bool "ctrl" true tx.Simcomp.Features.tx_has_control_chars;
        check Alcotest.bool "quote imbalance" true tx.tx_quote_imbalance);
  ]

(* The single-walk feature extractors, checked against the seven-walk
   implementation they replaced (kept here verbatim as the reference). *)
module Ref_features = struct
  open Ast
  open Simcomp.Features

  let text_features (src : string) : text =
    let n = String.length src in
    let max_ident = ref 0 and cur_ident = ref 0 in
    let depth = ref 0 and max_depth = ref 0 in
    let bdepth = ref 0 and max_bdepth = ref 0 in
    let ctrl = ref false and high = ref false in
    let digit_run = ref 0 and cur_digits = ref 0 in
    let semis = ref 0 and hashes = ref 0 and quotes = ref 0 in
    String.iter
      (fun c ->
        (match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' ->
          incr cur_ident;
          if !cur_ident > !max_ident then max_ident := !cur_ident
        | _ -> cur_ident := 0);
        (match c with
        | '0' .. '9' ->
          incr cur_digits;
          if !cur_digits > !digit_run then digit_run := !cur_digits
        | _ -> cur_digits := 0);
        (match c with
        | '(' ->
          incr depth;
          if !depth > !max_depth then max_depth := !depth
        | ')' -> decr depth
        | '{' ->
          incr bdepth;
          if !bdepth > !max_bdepth then max_bdepth := !bdepth
        | '}' -> decr bdepth
        | ';' -> incr semis
        | '#' -> incr hashes
        | '"' -> incr quotes
        | '\n' | '\t' | '\r' -> ()
        | c when Char.code c < 32 -> ctrl := true
        | c when Char.code c >= 127 -> high := true
        | _ -> ()))
      src;
    {
      tx_len = n;
      tx_max_ident_len = !max_ident;
      tx_paren_depth = !max_depth;
      tx_brace_depth = !max_bdepth;
      tx_has_control_chars = !ctrl;
      tx_has_high_bytes = !high;
      tx_digit_run = !digit_run;
      tx_semi_count = !semis;
      tx_hash_count = !hashes;
      tx_quote_imbalance = !quotes mod 2 = 1;
    }

  let ast_features (tu : tu) : ast =
    let n_ifs = ref 0 and n_loops = ref 0 and n_switches = ref 0 in
    let n_gotos = ref 0 and n_labels = ref 0 in
    let n_calls = ref 0 and n_casts = ref 0 and n_commas = ref 0 in
    let n_conds = ref 0 and n_ptr_ops = ref 0 and n_incdec = ref 0 in
    let n_compound = ref 0 in
    let max_switch = ref 0 and max_args = ref 0 in
    let n_returns = ref 0 and n_void_returns = ref 0 in
    let n_exprs = ref 0 and n_stmts = ref 0 in
    let has_fallthrough = ref false and has_empty_loop = ref false in
    let has_shift_over = ref false and has_div0 = ref false in
    let has_compound_lit = ref false and has_struct_cast = ref false in
    let has_ptr_chain = ref false in
    let has_sprintf_self = ref false in
    let has_variadic_call = ref false in
    let fe (e : expr) =
      incr n_exprs;
      match e.ek with
      | Call ({ ek = Ident f; _ }, args) ->
        incr n_calls;
        if List.length args > !max_args then max_args := List.length args;
        if List.mem f [ "printf"; "sprintf"; "snprintf" ] then
          has_variadic_call := true;
        (match f, args with
        | "sprintf", dst :: _ :: rest ->
          let same a b =
            match a.ek, b.ek with
            | Ident x, Ident y -> String.equal x y
            | _ -> false
          in
          if List.exists (fun a -> same a dst) rest then has_sprintf_self := true
        | _ -> ())
      | Call (_, args) ->
        incr n_calls;
        if List.length args > !max_args then max_args := List.length args
      | Cast (ty, inner) ->
        incr n_casts;
        (match inner.ek with
        | Init_list _ ->
          has_compound_lit := true;
          (match ty with
          | Tstruct _ | Tunion _ | Tint _ -> has_struct_cast := true
          | _ -> ())
        | _ -> ());
        (* cast of pointer arithmetic over a casted address: #111819 shape *)
        (match ty, inner.ek with
        | Tptr _, Binop ((Add | Sub), { ek = Cast (Tptr _, { ek = Addrof _; _ }); _ }, _) ->
          has_ptr_chain := true
        | _ -> ())
      | Comma _ -> incr n_commas
      | Cond _ -> incr n_conds
      | Deref _ | Addrof _ -> incr n_ptr_ops
      | Incdec _ -> incr n_incdec
      | Assign (op, _, _) when op <> A_none -> incr n_compound
      | Binop ((Shl | Shr), _, { ek = Int_lit (v, _, _); _ }) ->
        if v >= 32L || v < 0L then has_shift_over := true
      | Binop ((Div | Mod), _, { ek = Int_lit (0L, _, _); _ }) -> has_div0 := true
      | _ -> ()
    in
    let fs (s : stmt) =
      incr n_stmts;
      match s.sk with
      | Sif _ -> incr n_ifs
      | Swhile (_, b) | Sdo (b, _) ->
        incr n_loops;
        (match b.sk with Snull | Sblock [] -> has_empty_loop := true | _ -> ())
      | Sfor (_, _, _, b) ->
        incr n_loops;
        (match b.sk with Snull | Sblock [] -> has_empty_loop := true | _ -> ())
      | Sswitch (_, cases) ->
        incr n_switches;
        if List.length cases > !max_switch then max_switch := List.length cases;
        List.iter
          (fun c ->
            match List.rev c.case_body with
            | { sk = Sbreak; _ } :: _ -> ()
            | [] -> ()
            | _ -> has_fallthrough := true)
          cases
      | Sgoto _ -> incr n_gotos
      | Slabel _ -> incr n_labels
      | Sreturn (Some _) -> incr n_returns
      | Sreturn None ->
        incr n_returns;
        incr n_void_returns
      | _ -> ()
    in
    Visit.iter_tu tu ~fe ~fs;
    (* per-function / structural features *)
    let funcs = Visit.functions tu in
    let has_void_fn_with_labels = ref false in
    let has_labels_no_return = ref false in
    let has_recursion = ref false in
    let has_decreasing = ref false in
    let has_zero_init_decreasing = ref false in
    let has_accum_chain = ref false in
    let max_loop_depth = ref 0 in
    let max_cast_chain = ref 0 in
    List.iter
      (fun fd ->
        let labels = ref 0 and returns = ref 0 in
        let rec loop_depth d (s : stmt) =
          if d > !max_loop_depth then max_loop_depth := d;
          match s.sk with
          | Swhile (_, b) | Sdo (b, _) | Sfor (_, _, _, b) -> loop_depth (d + 1) b
          | Sblock ss -> List.iter (loop_depth d) ss
          | Sif (_, t, f) ->
            loop_depth d t;
            Option.iter (loop_depth d) f
          | Sswitch (_, cases) ->
            List.iter (fun c -> List.iter (loop_depth d) c.case_body) cases
          | Slabel (_, inner) -> loop_depth d inner
          | _ -> ()
        in
        List.iter (loop_depth 0) fd.f_body;
        List.iter
          (Visit.iter_stmt
             ~fe:(fun e ->
               (* cast chain depth *)
               let rec chain n e =
                 match e.ek with Cast (_, inner) -> chain (n + 1) inner | _ -> n
               in
               let c = chain 0 e in
               if c > !max_cast_chain then max_cast_chain := c;
               (match e.ek with
               | Call ({ ek = Ident n; _ }, _) when String.equal n fd.f_name ->
                 has_recursion := true
               | _ -> ());
               (* accumulation chains: x op= e or x = x + e, three or more in
                  one basic run detected statistically via count below *)
               ())
             ~fs:(fun s ->
               match s.sk with
               | Slabel _ -> incr labels
               | Sreturn _ -> incr returns
               | Swhile ({ ek = Incdec (false, true, _); _ }, _)
               | Sdo (_, { ek = Incdec (false, true, _); _ }) ->
                 has_decreasing := true
               | _ -> ()))
          fd.f_body;
        if !labels >= 2 && is_void_ty fd.f_ret then has_void_fn_with_labels := true;
        if !labels >= 1 && !returns = 0 && is_void_ty fd.f_ret then
          has_labels_no_return := true;
        (* zero-initialised variable driven to negative infinity: local n = 0
           followed by while (--n) — the #111820 trigger *)
        let zero_init = Hashtbl.create 4 in
        List.iter
          (Visit.iter_stmt
             ~fe:(fun _ -> ())
             ~fs:(fun s ->
               match s.sk with
               | Sdecl vs ->
                 List.iter
                   (fun v ->
                     match v.v_init with
                     | Some { ek = Int_lit (0L, _, _); _ } ->
                       Hashtbl.replace zero_init v.v_name ()
                     | _ -> ())
                   vs
               | Swhile ({ ek = Incdec (false, true, { ek = Ident n; _ }); _ }, _) ->
                 if Hashtbl.mem zero_init n then has_zero_init_decreasing := true
               | _ -> ()))
          fd.f_body;
        (* accumulation chain: >=3 compound-add assignments to scalars in a
           single block *)
        List.iter
          (Visit.iter_stmt
             ~fe:(fun _ -> ())
             ~fs:(fun s ->
               match s.sk with
               | Sblock ss | Sswitch (_, [ { case_body = ss; _ } ]) ->
                 let adds =
                   List.length
                     (List.filter
                        (fun s' ->
                          match s'.sk with
                          | Sexpr { ek = Assign (A_add, _, _); _ } -> true
                          | _ -> false)
                        ss)
                 in
                 if adds >= 3 then has_accum_chain := true
               | _ -> ()))
          fd.f_body;
        let body_adds =
          List.length
            (List.filter
               (fun s' ->
                 match s'.sk with
                 | Sexpr { ek = Assign (A_add, _, _); _ } -> true
                 | _ -> false)
               fd.f_body)
        in
        if body_adds >= 3 then has_accum_chain := true)
      funcs;
    (* const/volatile and writes to const *)
    let has_const = ref false and has_volatile = ref false in
    let const_names = Hashtbl.create 8 in
    let scan_decl (v : var_decl) =
      if v.v_quals.q_const then begin
        has_const := true;
        Hashtbl.replace const_names v.v_name ()
      end;
      if v.v_quals.q_volatile then has_volatile := true
    in
    List.iter
      (function
        | Gvar v -> scan_decl v
        | _ -> ())
      tu.globals;
    Visit.iter_tu tu ~fs:(fun s ->
        match s.sk with Sdecl vs -> List.iter scan_decl vs | _ -> ());
    let has_const_write = ref false in
    Visit.iter_tu tu ~fe:(fun e ->
        match e.ek with
        | Call ({ ek = Ident ("sprintf" | "memset" | "strcpy" | "memcpy"); _ }, { ek = Ident dst; _ } :: _)
          when Hashtbl.mem const_names dst ->
          has_const_write := true
        | _ -> ());
    (* uninitialized use: first statement reads a local declared w/o init *)
    let has_uninit = ref false in
    List.iter
      (fun fd ->
        let uninit = Hashtbl.create 4 in
        List.iter
          (fun s ->
            match s.sk with
            | Sdecl vs ->
              List.iter
                (fun v ->
                  if v.v_init = None && is_arith_ty v.v_ty then
                    Hashtbl.replace uninit v.v_name ())
                vs
            | Sexpr { ek = Assign (A_none, { ek = Ident n; _ }, _); _ } ->
              Hashtbl.remove uninit n
            | Sexpr e ->
              Visit.iter_expr
                (fun e' ->
                  match e'.ek with
                  | Ident n when Hashtbl.mem uninit n -> has_uninit := true
                  | _ -> ())
                e
            | Sreturn (Some e) ->
              Visit.iter_expr
                (fun e' ->
                  match e'.ek with
                  | Ident n when Hashtbl.mem uninit n -> has_uninit := true
                  | _ -> ())
                e
            | _ -> ())
          fd.f_body)
      funcs;
    let n_structs =
      List.length
        (List.filter
           (function Gstruct _ | Gunion _ -> true | _ -> false)
           tu.globals)
    in
    {
      n_functions = List.length funcs;
      n_globals = List.length (Visit.global_vars tu);
      n_structs;
      n_ifs = !n_ifs;
      n_loops = !n_loops;
      n_switches = !n_switches;
      n_gotos = !n_gotos;
      n_labels = !n_labels;
      n_calls = !n_calls;
      n_casts = !n_casts;
      n_commas = !n_commas;
      n_conds = !n_conds;
      n_ptr_ops = !n_ptr_ops;
      n_incdec = !n_incdec;
      n_compound_assigns = !n_compound;
      max_loop_depth = !max_loop_depth;
      max_cast_chain = !max_cast_chain;
      max_switch_cases = !max_switch;
      max_call_args = !max_args;
      has_const_qual = !has_const;
      has_volatile_qual = !has_volatile;
      has_const_write_warning = !has_const_write;
      has_void_fn_with_labels = !has_void_fn_with_labels;
      has_labels_no_return = !has_labels_no_return;
      has_decreasing_loop = !has_decreasing;
      has_zero_init_decreasing_loop = !has_zero_init_decreasing;
      has_scalar_accum_chain = !has_accum_chain;
      has_sprintf_self = !has_sprintf_self;
      has_struct_cast = !has_struct_cast;
      has_compound_literal = !has_compound_lit;
      has_ptr_arith_cast_chain = !has_ptr_chain;
      has_fallthrough = !has_fallthrough;
      has_empty_loop_body = !has_empty_loop;
      has_shift_overflow = !has_shift_over;
      has_div_by_literal_zero = !has_div0;
      has_uninit_use = !has_uninit;
      has_array_param =
        List.exists
          (fun fd ->
            List.exists
              (fun p -> match p.p_ty with Tptr _ -> true | _ -> false)
              fd.f_params)
          funcs;
      has_variadic_call = !has_variadic_call;
      has_recursion = !has_recursion;
      n_returns = !n_returns;
      n_void_returns = !n_void_returns;
      n_exprs = !n_exprs;
      n_stmts = !n_stmts;
    }
end

let same_ast_features what tu =
  let want = Ref_features.ast_features tu in
  if Simcomp.Features.ast_features tu <> want then
    Alcotest.failf "%s: ast features differ from the reference on\n%s" what
      (Pretty.tu_to_string tu)

let same_text_features what src =
  let want = Ref_features.text_features src in
  if Simcomp.Features.text_features src <> want then
    Alcotest.failf "%s: text features differ from the reference on %S" what src

(* the seed corpus the fuzz benchmarks start from *)
let seed_units =
  lazy
    (List.filter_map
       (fun src -> Result.to_option (Parser.parse src))
       (Fuzzing.Seeds.corpus ~n:30 (Rng.create 11)))

(* every applicable mutator of the extended corpus on every seed *)
let seed_mutants =
  lazy
    (List.concat
       (List.mapi
          (fun i tu ->
            let ctx = Uast.Ctx.create ~rng:(Rng.create (900 + i)) tu in
            List.filter_map
              (fun m -> Mutators.Mutator.apply_ctx m ctx)
              Mutators.Registry.extended)
          (Lazy.force seed_units)))

let features_differential_tests =
  [
    tc "ast_features matches the reference on generated programs" (fun () ->
        List.iter
          (fun (what, cfg, base) ->
            for i = 0 to 199 do
              same_ast_features what (Ast_gen.gen_tu ~cfg (Rng.create (base + i)))
            done)
          [
            ("default", Ast_gen.default_config, 5000);
            ("csmith-like", Ast_gen.csmith_like_config, 6000);
            ("yarpgen-like", Ast_gen.yarpgen_like_config, 7000);
          ]);
    tc "ast_features matches the reference on seed-corpus mutants" (fun () ->
        let mutants = Lazy.force seed_mutants in
        check Alcotest.bool "mutants" true (List.length mutants > 1000);
        List.iter
          (fun tu ->
            same_ast_features "mutant" tu;
            (* what the compiler sees: the printed mutant, parsed (a cast
               under ++/-- does not print back to C; see ROADMAP item 2) *)
            match Parser.parse (Pretty.tu_to_string tu) with
            | Ok tu' -> same_ast_features "reparsed mutant" tu'
            | Error _ -> ())
          mutants);
    tc "ast_features keeps the reference's quirks" (fun () ->
        let cases =
          [
            (* casts and recursion count in function bodies only *)
            ( "int f(void) { return 1; }\nint g = (int)(long)(short)f();",
              fun (a : Simcomp.Features.ast) ->
                a.max_cast_chain = 0 && a.n_casts = 3 && not a.has_recursion );
            ( "int f(int n) { return n ? f((int)(long)n - 1) : 0; }",
              fun a -> a.max_cast_chain = 2 && a.has_recursion );
            (* const names come from globals and declarations, not for
               initialisers *)
            ( "int f(void) { for (const int i = 0; i < 1;) sprintf(i, \"x\"); return 0; }",
              fun a -> (not a.has_const_qual) && not a.has_const_write_warning );
            ( "int f(void) { const char b[4]; sprintf(b, \"x\"); return 0; }",
              fun a -> a.has_const_qual && a.has_const_write_warning );
            (* the write check covers global initialisers and uses the
               final const set *)
            ( "const char b[4];\nint g = sprintf(b, \"x\");",
              fun a -> a.has_const_write_warning );
            ( "int f(void) { sprintf(b, \"x\"); return 0; }\nconst char b[4];",
              fun a -> a.has_const_write_warning );
            ( "int f(void) { memset(b, 0, 4); return 0; }\n\
               int g(void) { const char b[4]; return 0; }",
              fun a -> a.has_const_write_warning );
            (* the zero-init table is per function, filled in preorder *)
            ( "int f(void) { { int n = 0; } while (--n) ; return 0; }",
              fun a -> a.has_zero_init_decreasing_loop );
            ( "int f(void) { while (--n) ; int n = 0; return 0; }",
              fun a -> a.has_decreasing_loop && not a.has_zero_init_decreasing_loop );
            ( "void g(void) { int n = 0; }\nint f(void) { while (--n) ; return 0; }",
              fun a -> not a.has_zero_init_decreasing_loop );
            (* accumulation chains: blocks, single-case switch bodies and
               the top-level body *)
            ( "int f(int r) { if (r) { r += r; r += r; r += r; } return r; }",
              fun a -> a.has_scalar_accum_chain );
            ( "int f(int r) { r += r; r += r; r += r; return r; }",
              fun a -> a.has_scalar_accum_chain );
            ( "int f(int r) { switch (r) { case 1: r += r; r += r; r += r; } return r; }",
              fun a -> a.has_scalar_accum_chain );
            ( "int f(int r) { switch (r) { case 1: r += r; r += r; r += r; break; \
               case 2: break; } return r; }",
              fun a -> not a.has_scalar_accum_chain );
            ( "int f(int r) { r += r; if (r) r += r; r += r; return r; }",
              fun a -> not a.has_scalar_accum_chain );
            (* the uninitialised read looks at top-level statements only *)
            ("int f(void) { int x; return x; }", fun a -> a.has_uninit_use);
            ("int f(void) { int x; x += 1; return 0; }", fun a -> a.has_uninit_use);
            ("int f(void) { int x; x = 1; return x; }", fun a -> not a.has_uninit_use);
            ("int f(void) { int x; x = x + 1; return 0; }", fun a -> not a.has_uninit_use);
            ("int f(void) { int x; if (1) return x; return 0; }", fun a -> not a.has_uninit_use);
            ("int f(void) { { int x; return x; } }", fun a -> not a.has_uninit_use);
            ("int f(void) { int x; int y = x; return 0; }", fun a -> not a.has_uninit_use);
            ("int f(void) { int *p; return *p; }", fun a -> not a.has_uninit_use);
            ("int f(void) { int x; return 0; }\nint g(void) { return x; }",
             fun a -> not a.has_uninit_use);
          ]
        in
        List.iter
          (fun (src, holds) ->
            let tu = parse src in
            same_ast_features "quirk" tu;
            if not (holds (Simcomp.Features.ast_features tu)) then
              Alcotest.failf "quirk not kept on:\n%s" src)
          cases);
    tc "text_features matches the reference on rendered, corrupted and random \
        bytes" (fun () ->
        let rng = Rng.create 31 in
        let rendered =
          List.map Pretty.tu_to_string (Lazy.force seed_units)
          @ List.init 50 (fun i -> Ast_gen.gen_source (Rng.create (8000 + i)))
        in
        List.iter
          (fun src ->
            same_text_features "rendered" src;
            for _ = 1 to 4 do
              same_text_features "corrupted" (Fuzzing.Fragility.corrupt rng src)
            done)
          rendered;
        let alphabet = "aZ_09(){};#\"\n\t\r \001\031\127\128\255+" in
        for _ = 1 to 2000 do
          let n = Rng.int rng 200 in
          same_text_features "random bytes"
            (String.init n (fun _ -> Char.chr (Rng.int rng 256)));
          same_text_features "random delimiters"
            (String.init n (fun _ ->
                 alphabet.[Rng.int rng (String.length alphabet)]))
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let interp_tests =
  [
    tc "arithmetic and return" (fun () ->
        check Alcotest.int "6*7" 42 (exit_of "int main(void) { return 6 * 7; }"));
    tc "factorial via loop" (fun () ->
        check Alcotest.int "5!" 120
          (exit_of
             "int main(void) { int f = 1; for (int i = 1; i <= 5; i++) f = f \
              * i; return f; }"));
    tc "recursion (fib)" (fun () ->
        check Alcotest.int "fib 10" 55
          (exit_of
             "int fib(int n) { if (n < 2) return n; return fib(n-1) + \
              fib(n-2); }\nint main(void) { return fib(10); }"));
    tc "switch fallthrough" (fun () ->
        check Alcotest.int "fallthrough" 21
          (exit_of
             "int main(void) { int r = 0; switch (2) { case 2: r = 20; case \
              3: r += 1; break; default: r = 9; } return r; }"));
    tc "switch default" (fun () ->
        check Alcotest.int "default" 9
          (exit_of
             "int main(void) { int r = 0; switch (77) { case 2: r = 1; \
              break; default: r = 9; } return r; }"));
    tc "goto forward and backward" (fun () ->
        check Alcotest.int "goto" 6
          (exit_of
             "int main(void) { int n = 3; int s = 0; top: if (n == 0) goto \
              done; s += n; n--; goto top; done: return s; }"));
    tc "break and continue" (fun () ->
        check Alcotest.int "sum odds < 8" 16
          (exit_of
             "int main(void) { int s = 0; for (int i = 0; i < 100; i++) { if \
              (i >= 8) break; if (i % 2 == 0) continue; s += i; } return s; }"));
    tc "arrays" (fun () ->
        check Alcotest.int "array sum" 30
          (exit_of
             "int main(void) { int a[3]; a[0] = 4; a[1] = 10; a[2] = 16; \
              return a[0] + a[1] + a[2]; }"));
    tc "array out of bounds traps" (fun () ->
        let o = run_src "int main(void) { int a[2]; a[5] = 1; return 0; }" in
        check Alcotest.bool "aborted" true o.Simcomp.Interp.o_aborted);
    tc "structs" (fun () ->
        check Alcotest.int "fields" 7
          (exit_of
             "struct p { int x; int y; };\n\
              int main(void) { struct p v; v.x = 3; v.y = 4; return v.x + \
              v.y; }"));
    tc "pointers" (fun () ->
        check Alcotest.int "through pointer" 9
          (exit_of
             "int main(void) { int x = 1; int *p = &x; *p = 9; return x; }"));
    tc "struct pointer arrow" (fun () ->
        check Alcotest.int "arrow" 5
          (exit_of
             "struct p { int x; };\n\
              void set(struct p *q) { q->x = 5; }\n\
              int main(void) { struct p v; set(&v); return v.x; }"));
    tc "printf output" (fun () ->
        check Alcotest.string "hello" "hello 42\n"
          (output_of {|int main(void) { printf("hello %d\n", 42); return 0; }|}));
    tc "sprintf + strlen" (fun () ->
        check Alcotest.int "len" 3
          (exit_of
             {|char buffer[32];
int main(void) { return sprintf(buffer, "%s", "bar"); }|}));
    tc "strcpy into buffer" (fun () ->
        check Alcotest.string "copied" "hello\n"
          (output_of
             {|int main(void) { char b[16]; strcpy(b, "hello"); puts(b); return 0; }|}));
    tc "division by zero aborts" (fun () ->
        let o = run_src "int main(void) { int z = 0; return 4 / z; }" in
        check Alcotest.bool "aborted" true o.Simcomp.Interp.o_aborted);
    tc "abort() aborts" (fun () ->
        let o = run_src "int main(void) { abort(); return 0; }" in
        check Alcotest.bool "aborted" true o.Simcomp.Interp.o_aborted);
    tc "exit() sets code" (fun () ->
        check Alcotest.int "code" 3 (exit_of "int main(void) { exit(3); return 0; }"));
    tc "infinite loop runs out of fuel" (fun () ->
        let o = run_src "int main(void) { while (1) ; return 0; }" in
        check Alcotest.bool "hang" true o.Simcomp.Interp.o_hang;
        check Alcotest.bool "not a stack overflow" false
          o.Simcomp.Interp.o_stack_overflow);
    tc "runaway recursion is a stack overflow, not a hang" (fun () ->
        let o =
          run_src
            "int f(int n) { return f(n + 1); }\n\
             int main(void) { return f(0); }"
        in
        check Alcotest.bool "stack overflow" true
          o.Simcomp.Interp.o_stack_overflow;
        check Alcotest.bool "distinct from fuel exhaustion" false
          o.Simcomp.Interp.o_hang;
        check Alcotest.bool "not an abort" false o.Simcomp.Interp.o_aborted;
        check Alcotest.int "sigsegv exit" 139 o.Simcomp.Interp.o_exit);
    tc "bounded recursion stays under the depth limit" (fun () ->
        check Alcotest.int "5050 mod 256" 186
          (exit_of
             "int f(int n) { if (n == 0) return 0; return n + f(n - 1); }\n\
              int main(void) { return f(100) % 256; }"));
    tc "ternary and comma" (fun () ->
        check Alcotest.int "value" 11
          (exit_of "int main(void) { int x = (1, 2); return x > 1 ? 11 : 22; }"));
    tc "float arithmetic" (fun () ->
        check Alcotest.int "cast back" 3
          (exit_of "int main(void) { double d = 1.5; return (int)(d * 2.0); }"));
    tc "char truncation" (fun () ->
        check Alcotest.int "(char)257" 1
          (exit_of "int main(void) { return (char)257; }"));
    tc "do-while runs at least once" (fun () ->
        check Alcotest.int "once" 1
          (exit_of "int main(void) { int n = 0; do n++; while (0); return n; }"));
    tc "global initialisation order" (fun () ->
        check Alcotest.int "init" 7
          (exit_of "int g = 7;\nint main(void) { return g; }"));
    tc "small generated seeds terminate" (fun () ->
        (* bounded loops terminate; deep configurations can still be
           exponentially expensive (calls nested in loops), so strict
           termination is asserted on a small configuration *)
        let cfg =
          { Ast_gen.default_config with max_functions = 2; max_depth = 2;
            call_weight = 1 }
        in
        let rng = Rng.create 202 in
        for _ = 1 to 30 do
          let tu = Ast_gen.gen_tu ~cfg rng in
          let o = Simcomp.Interp.run ~fuel:5_000_000 tu in
          check Alcotest.bool "no hang" false o.Simcomp.Interp.o_hang
        done);
    tc "interpreter outcome is deterministic" (fun () ->
        let rng = Rng.create 203 in
        for _ = 1 to 10 do
          let tu = Ast_gen.gen_tu rng in
          let o1 = Simcomp.Interp.run ~fuel:100_000 tu in
          let o2 = Simcomp.Interp.run ~fuel:100_000 tu in
          check Alcotest.int "same exit" o1.Simcomp.Interp.o_exit
            o2.Simcomp.Interp.o_exit;
          check Alcotest.string "same output" o1.Simcomp.Interp.o_output
            o2.Simcomp.Interp.o_output
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Lowering and IR                                                     *)
(* ------------------------------------------------------------------ *)

let lower src =
  let tu = parse src in
  let tc_res = Typecheck.check tu in
  Simcomp.Lower.lower_tu tu tc_res

let ir_tests =
  [
    tc "lowering produces a function per definition" (fun () ->
        let p = lower "int f(void) { return 1; }\nint main(void) { return f(); }" in
        check Alcotest.int "functions" 2 (List.length p.Simcomp.Ir.p_funcs));
    tc "terminators always defined on reachable blocks" (fun () ->
        let p =
          lower
            "int main(void) { int x = 0; if (x) x = 1; else x = 2; while (x) \
             x--; return x; }"
        in
        List.iter
          (fun f ->
            match f.Simcomp.Ir.fn_blocks with
            | entry :: _ ->
              (* entry must not be unreachable-terminated *)
              check Alcotest.bool "entry terminated" true
                (entry.Simcomp.Ir.b_term <> Simcomp.Ir.Tunreachable
                || entry.b_instrs = [])
            | [] -> Alcotest.fail "no blocks")
          p.Simcomp.Ir.p_funcs);
    tc "successors reference existing blocks" (fun () ->
        let p =
          lower
            "int main(void) { int s = 0; for (int i = 0; i < 3; i++) { if (i) \
             s += i; } switch (s) { case 1: break; default: break; } return s; }"
        in
        List.iter
          (fun f ->
            List.iter
              (fun b ->
                List.iter
                  (fun l ->
                    check Alcotest.bool "target exists" true
                      (Simcomp.Ir.block_of f l <> None))
                  (Simcomp.Ir.successors b.Simcomp.Ir.b_term))
              f.Simcomp.Ir.fn_blocks)
          p.Simcomp.Ir.p_funcs);
    tc "globals become slots" (fun () ->
        let p = lower "int g = 5;\nint a[4];\nint main(void) { return g; }" in
        let names = List.map (fun s -> s.Simcomp.Ir.g_name) p.Simcomp.Ir.p_globals in
        check Alcotest.bool "g" true (List.mem "g" names);
        check Alcotest.bool "a" true (List.mem "a" names));
    tc "ir printing is total" (fun () ->
        let p =
          lower
            "int main(void) { int x = 1; x += 2; x = x * 3 - 1; return x; }"
        in
        check Alcotest.bool "nonempty" true
          (String.length (Simcomp.Ir.program_to_string p) > 0));
    tc "program_size counts instructions" (fun () ->
        let p = lower "int main(void) { return 1 + 2; }" in
        check Alcotest.bool "positive" true (Simcomp.Ir.program_size p > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let opt_tests =
  [
    tc "const folding fires on constant arithmetic" (fun () ->
        let p = lower "int main(void) { return 2 + 3 * 4; }" in
        let changes = Simcomp.Opt.const_fold_pass.Simcomp.Opt.run p in
        check Alcotest.bool "changed" true (changes > 0));
    tc "const folding turns constant branches into jumps" (fun () ->
        let p = lower "int main(void) { if (1 < 2) return 1; return 0; }" in
        ignore (Simcomp.Opt.const_fold_pass.Simcomp.Opt.run p);
        let has_cond_br = ref false in
        List.iter
          (fun f ->
            List.iter
              (fun b ->
                match b.Simcomp.Ir.b_term with
                | Simcomp.Ir.Tbr _ -> has_cond_br := true
                | _ -> ())
              f.Simcomp.Ir.fn_blocks)
          p.Simcomp.Ir.p_funcs;
        check Alcotest.bool "no conditional branch left" false !has_cond_br);
    tc "simplify-cfg removes unreachable blocks" (fun () ->
        let p = lower "int main(void) { return 1; int x = 2; return x; }" in
        ignore (Simcomp.Opt.const_fold_pass.Simcomp.Opt.run p);
        let before = List.length (List.hd p.Simcomp.Ir.p_funcs).Simcomp.Ir.fn_blocks in
        ignore (Simcomp.Opt.simplify_cfg_pass.Simcomp.Opt.run p);
        let after = List.length (List.hd p.Simcomp.Ir.p_funcs).Simcomp.Ir.fn_blocks in
        check Alcotest.bool "fewer blocks" true (after <= before));
    tc "dce removes instructions made dead by folding" (fun () ->
        let p = lower "int main(void) { int unused = 1 + 2; return 7; }" in
        ignore (Simcomp.Opt.const_fold_pass.Simcomp.Opt.run p);
        let changes = Simcomp.Opt.dce_pass.Simcomp.Opt.run p in
        check Alcotest.bool "removed" true (changes > 0));
    tc "dce keeps calls" (fun () ->
        let p =
          lower
            "int g;\nint f(void) { g = 1; return 0; }\n\
             int main(void) { f(); return g; }"
        in
        ignore (Simcomp.Opt.dce_pass.Simcomp.Opt.run p);
        let has_call = ref false in
        List.iter
          (fun fn ->
            List.iter
              (fun b ->
                List.iter
                  (fun i ->
                    match i with Simcomp.Ir.Icall _ -> has_call := true | _ -> ())
                  b.Simcomp.Ir.b_instrs)
              fn.Simcomp.Ir.fn_blocks)
          p.Simcomp.Ir.p_funcs;
        check Alcotest.bool "call kept" true !has_call);
    tc "strlen pass rewrites sprintf" (fun () ->
        let p =
          lower
            {|char buffer[32];
int main(void) { return sprintf(buffer, "%s", "bar"); }|}
        in
        let changes = Simcomp.Opt.strlen_pass.Simcomp.Opt.run p in
        check Alcotest.bool "rewritten" true (changes > 0));
    tc "inline pass folds constant functions" (fun () ->
        let p =
          lower "int five(void) { return 5; }\nint main(void) { return five(); }"
        in
        (* fold and simplify first so five() is a single constant return *)
        ignore (Simcomp.Opt.const_fold_pass.Simcomp.Opt.run p);
        ignore (Simcomp.Opt.simplify_cfg_pass.Simcomp.Opt.run p);
        let changes = Simcomp.Opt.inline_pass.Simcomp.Opt.run p in
        check Alcotest.bool "inlined" true (changes > 0));
    tc "pipeline level ordering" (fun () ->
        check Alcotest.int "O0 empty" 0
          (List.length (Simcomp.Opt.passes_for_level 0));
        check Alcotest.bool "O3 superset of O1" true
          (List.length (Simcomp.Opt.passes_for_level 3)
          > List.length (Simcomp.Opt.passes_for_level 1)));
    tc "disabled passes are skipped" (fun () ->
        let p = lower "int main(void) { return 1 + 2; }" in
        let results =
          Simcomp.Opt.run_pipeline ~level:2 ~disabled:[ "constfold" ] p
        in
        check Alcotest.bool "no constfold" false
          (List.mem_assoc "constfold" results));
  ]

(* ------------------------------------------------------------------ *)
(* Backend                                                             *)
(* ------------------------------------------------------------------ *)

let backend_tests =
  [
    tc "emits assembly text" (fun () ->
        let p = lower "int main(void) { int x = 1; return x + 2; }" in
        let asm, _ = Simcomp.Backend.emit_program p in
        check Alcotest.bool "has main" true
          (String.length asm > 0
          && String.sub asm 0 5 = ".data"
          || String.length asm > 0));
    tc "register allocation stays within bounds" (fun () ->
        let p =
          lower
            "int main(void) { int a = 1; int b = 2; int c = 3; int d = 4; \
             return a + b + c + d; }"
        in
        List.iter
          (fun f ->
            let assignment, _ = Simcomp.Backend.regalloc f in
            List.iter
              (fun (_, phys) ->
                check Alcotest.bool "in range" true
                  (phys = -1 || (phys >= 0 && phys < Simcomp.Backend.phys_regs)))
              assignment)
          p.Simcomp.Ir.p_funcs);
    tc "spills appear under register pressure" (fun () ->
        let exprs =
          String.concat " + " (List.init 40 (fun i -> Fmt.str "(a + %d)" i))
        in
        let p = lower (Fmt.str "int main(void) { int a = 1; return %s; }" exprs) in
        let _, spills = Simcomp.Backend.emit_program p in
        check Alcotest.bool "spilled" true (spills >= 0));
    tc "dense switch uses a jump table" (fun () ->
        let p =
          lower
            "int main(void) { int x = 3; switch (x) { case 0: return 0; case \
             1: return 1; case 2: return 2; case 3: return 3; } return 9; }"
        in
        let asm, _ = Simcomp.Backend.emit_program p in
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        check Alcotest.bool "jtab" true (contains asm "jtab"));
  ]

(* ------------------------------------------------------------------ *)
(* Bug database and end-to-end pipeline                                *)
(* ------------------------------------------------------------------ *)

let compile ?(compiler = Simcomp.Compiler.Gcc) ?(opt = 2) src =
  Simcomp.Compiler.compile compiler
    { Simcomp.Compiler.default_options with opt_level = opt }
    src

let expect_crash ?compiler ?opt ~bug src =
  match compile ?compiler ?opt src with
  | Simcomp.Compiler.Crashed c ->
    check Alcotest.string "bug id" bug c.Simcomp.Crash.bug_id
  | Simcomp.Compiler.Compiled _ -> Alcotest.failf "compiled, expected %s" bug
  | Simcomp.Compiler.Compile_error es ->
    Alcotest.failf "compile error (%s), expected %s" (String.concat ";" es) bug

let bug_tests =
  [
    tc "clean seed compiles at every level" (fun () ->
        let src = Ast_gen.gen_source (Rng.create 42) in
        List.iter
          (fun opt ->
            match compile ~opt src with
            | Simcomp.Compiler.Compiled _ -> ()
            | _ -> Alcotest.failf "failed at -O%d" opt)
          [ 0; 1; 2; 3 ]);
    tc "GCC #111820 shape hangs the vectorizer at -O3" (fun () ->
        expect_crash ~opt:3 ~bug:"gcc-111820"
          "int r[6];\n\
           void f(void) {\n\
           \  int n = 0;\n\
           \  while (--n) { r[1] += r[0]; r[2] += r[1]; r[3] += r[2]; }\n\
           }\n\
           int main(void) { return 0; }");
    tc "GCC #111820 does not fire at -O2" (fun () ->
        match
          compile ~opt:2
            "int r[6];\n\
             void f(void) {\n\
             \  int n = 0;\n\
             \  while (--n) { r[1] += r[0]; r[2] += r[1]; r[3] += r[2]; }\n\
             }\n\
             int main(void) { return 0; }"
        with
        | Simcomp.Compiler.Crashed _ -> Alcotest.fail "fired too early"
        | _ -> ());
    tc "strlen-range crash needs const + sprintf-self" (fun () ->
        expect_crash ~opt:2 ~bug:"gcc-strlen-range"
          "static char buffer[32];\n\
           const char tag = 1;\n\
           int test4(void) { return sprintf(buffer, \"%s\", buffer); }\n\
           int main(void) { return test4(); }");
    tc "Clang #63762 shape crashes the back-end" (fun () ->
        expect_crash ~compiler:Simcomp.Compiler.Clang ~bug:"clang-63762"
          "void foo(int x, int y) {\n\
           \  abort();\n\
           \  if (x > y) goto gt;\n\
           \  goto lt;\n\
           gt: ;\n\
           lt: ;\n\
           }\n\
           int main(void) { foo(1, 2); return 0; }");
    tc "GCC does not have Clang's bugs" (fun () ->
        match
          compile ~compiler:Simcomp.Compiler.Gcc
            "void foo(int x, int y) {\n\
             \  abort();\n\
             \  if (x > y) goto gt;\n\
             \  goto lt;\n\
             gt: ;\n\
             lt: ;\n\
             }\n\
             int main(void) { foo(1, 2); return 0; }"
        with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.bool "different bug" false
            (String.equal c.Simcomp.Crash.bug_id "clang-63762")
        | _ -> ());
    tc "front-end text bug fires on unparseable input" (fun () ->
        let long_ident = String.make 80 'a' in
        match compile (Fmt.str "int %s(((((" long_ident) with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.string "stage" "Front-End"
            (Simcomp.Crash.stage_to_string c.Simcomp.Crash.stage)
        | _ -> Alcotest.fail "expected a front-end crash");
    tc "crash identity uses top two frames" (fun () ->
        let c =
          {
            Simcomp.Crash.bug_id = "x";
            stage = Simcomp.Crash.Front_end;
            kind = Simcomp.Crash.Segfault;
            frames = [ "report_error"; "a"; "b"; "c" ];
          }
        in
        check Alcotest.string "key skips helpers" "a|b"
          (Simcomp.Crash.unique_key c));
    tc "compile errors are not crashes" (fun () ->
        match compile "int main(void) { return nope; }" with
        | Simcomp.Compiler.Compile_error _ -> ()
        | _ -> Alcotest.fail "expected compile error");
    tc "parse errors are reported" (fun () ->
        match compile "int main(void) {" with
        | Simcomp.Compiler.Compile_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    tc "coverage differs between compilers" (fun () ->
        let src = "int main(void) { return 1 + 2; }" in
        let cg = Simcomp.Coverage.create () in
        let cc = Simcomp.Coverage.create () in
        ignore (Simcomp.Compiler.compile ~cov:cg Simcomp.Compiler.Gcc
                  Simcomp.Compiler.default_options src);
        ignore (Simcomp.Compiler.compile ~cov:cc Simcomp.Compiler.Clang
                  Simcomp.Compiler.default_options src);
        check Alcotest.bool "salted ids differ" true
          (Simcomp.Coverage.has_new_coverage ~seen:cg cc));
    tc "compilation coverage is deterministic" (fun () ->
        let src = Ast_gen.gen_source (Rng.create 77) in
        let c1 = Simcomp.Coverage.create () in
        let c2 = Simcomp.Coverage.create () in
        ignore (Simcomp.Compiler.compile ~cov:c1 Simcomp.Compiler.Gcc
                  Simcomp.Compiler.default_options src);
        ignore (Simcomp.Compiler.compile ~cov:c2 Simcomp.Compiler.Gcc
                  Simcomp.Compiler.default_options src);
        check Alcotest.bool "same" false
          (Simcomp.Coverage.has_new_coverage ~seen:c1 c2);
        check Alcotest.int "same count"
          (Simcomp.Coverage.covered c1)
          (Simcomp.Coverage.covered c2));
    tc "random_options stays in range" (fun () ->
        let rng = Rng.create 3 in
        for _ = 1 to 50 do
          let o = Simcomp.Compiler.random_options rng in
          check Alcotest.bool "level" true
            (o.Simcomp.Compiler.opt_level >= 0 && o.opt_level <= 3)
        done);
    tc "triage is deterministic" (fun () ->
        let a = Simcomp.Bugdb.triage_of "gcc-111820" in
        let b = Simcomp.Bugdb.triage_of "gcc-111820" in
        check Alcotest.bool "equal" true (a = b));
    tc "bug database covers all stages for both compilers" (fun () ->
        List.iter
          (fun compiler ->
            let bugs = Simcomp.Bugdb.bugs_for compiler in
            List.iter
              (fun stage ->
                check Alcotest.bool
                  (Fmt.str "%s has %s bugs"
                     (Simcomp.Bugdb.compiler_to_string compiler)
                     (Simcomp.Crash.stage_to_string stage))
                  true
                  (List.exists (fun b -> b.Simcomp.Bugdb.stage = stage) bugs))
              Simcomp.Crash.[ Front_end; Ir_gen; Optimization; Back_end ])
          Simcomp.Bugdb.[ Gcc; Clang ]);
  ]

(* opt passes must preserve the observable behaviour of the program when
   the compiler succeeds: we compare the interpreter's verdict before and
   after the mutation-free pipeline on generated seeds (the passes run on
   IR; the check is that the pipeline at least never crashes or corrupts
   the IR structurally) *)
let pipeline_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pipeline is total on generated programs"
         ~count:60 QCheck.small_int
         (fun seed ->
           let src = Ast_gen.gen_source (Rng.create (seed + 501)) in
           match compile ~opt:3 src with
           | Simcomp.Compiler.Compiled _ -> true
           | Simcomp.Compiler.Compile_error _ -> false
           | Simcomp.Compiler.Crashed _ -> true (* latent bugs are legal *)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"optimizer never grows the program" ~count:40
         QCheck.small_int
         (fun seed ->
           let src = Ast_gen.gen_source (Rng.create (seed + 901)) in
           let tu = parse src in
           let tc_res = Typecheck.check tu in
           let p = Simcomp.Lower.lower_tu tu tc_res in
           let before = Simcomp.Ir.program_size p in
           ignore (Simcomp.Opt.run_pipeline ~level:2 ~disabled:[] p);
           Simcomp.Ir.program_size p <= before + 1));
  ]

(* ------------------------------------------------------------------ *)
(* Differential testing: AST semantics vs lowered IR vs optimized IR    *)
(* ------------------------------------------------------------------ *)

(* The scalar/array subset both interpreters share. *)
let diff_cfg =
  {
    Ast_gen.default_config with
    allow_pointers = false;
    allow_structs = false;
    allow_strings = false;
    max_functions = 2;
    max_depth = 2;
    call_weight = 1;
  }

let run_ir p =
  let o = Simcomp.Ir_interp.run ~fuel:2_000_000 p in
  match o.Simcomp.Ir_interp.o_unsupported with
  | Some _ -> None
  | None ->
    if o.Simcomp.Ir_interp.o_hang then None
    else Some (o.Simcomp.Ir_interp.o_exit, o.Simcomp.Ir_interp.o_trapped)

let run_ast tu =
  let o = Simcomp.Interp.run ~fuel:2_000_000 tu in
  if o.Simcomp.Interp.o_hang then None
  else Some (o.Simcomp.Interp.o_exit, o.Simcomp.Interp.o_aborted)

let differential_tests =
  [
    tc "ir interpreter runs a hand-written program" (fun () ->
        let p =
          lower
            "int acc;
             int triple(int x) { return x * 3; }
             int main(void) { int s = 0; for (int i = 0; i < 4; i++) s +=              triple(i); acc = s; return acc; }"
        in
        let o = Simcomp.Ir_interp.run p in
        check Alcotest.(option string) "supported" None
          o.Simcomp.Ir_interp.o_unsupported;
        check Alcotest.int "3*(0+1+2+3)" 18 o.Simcomp.Ir_interp.o_exit);
    tc "ir interpreter traps on division by zero" (fun () ->
        let p = lower "int main(void) { int z = 0; return 4 / z; }" in
        let o = Simcomp.Ir_interp.run p in
        check Alcotest.bool "trapped" true o.Simcomp.Ir_interp.o_trapped);
    tc "ir interpreter agrees with the AST interpreter on switch" (fun () ->
        let src =
          "int classify(int c) { int r = 0; switch (c) { case 0: case 1: r =            10; break; case 2: r = 20; case 3: r += 1; break; default: r = -1;            break; } return r; }
           int main(void) { return classify(2) + classify(0) + classify(9); }"
        in
        let tu = parse src in
        let p = lower src in
        check Alcotest.(option (pair int bool)) "same" (run_ast tu) (run_ir p));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"lowering preserves observable behaviour (AST vs IR)"
         ~count:80 QCheck.small_int
         (fun seed ->
           let rng = Rng.create (seed + 4001) in
           let tu = Ast_gen.gen_tu ~cfg:diff_cfg rng in
           let tc_res = Typecheck.check tu in
           let p = Simcomp.Lower.lower_tu tu tc_res in
           match run_ast tu, run_ir p with
           | Some a, Some b -> a = b
           | _ -> true (* fuel or unsupported: skip *)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"the optimizer is semantics-preserving (O2 pipeline)"
         ~count:80 QCheck.small_int
         (fun seed ->
           let rng = Rng.create (seed + 5001) in
           let tu = Ast_gen.gen_tu ~cfg:diff_cfg rng in
           let tc_res = Typecheck.check tu in
           let p = Simcomp.Lower.lower_tu tu tc_res in
           let before = run_ir p in
           ignore (Simcomp.Opt.run_pipeline ~level:2 ~disabled:[] p);
           let after = run_ir p in
           match before, after with
           | Some a, Some b -> a = b
           | _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"O3 pipeline also preserves semantics" ~count:50
         QCheck.small_int
         (fun seed ->
           let rng = Rng.create (seed + 6001) in
           let tu = Ast_gen.gen_tu ~cfg:diff_cfg rng in
           let tc_res = Typecheck.check tu in
           let p = Simcomp.Lower.lower_tu tu tc_res in
           let before = run_ir p in
           ignore (Simcomp.Opt.run_pipeline ~level:3 ~disabled:[] p);
           let after = run_ir p in
           match before, after with
           | Some a, Some b -> a = b
           | _ -> true));
  ]

(* Mutants intentionally change *program* semantics, but the compiler
   stack must still translate whatever program it is given faithfully:
   AST and optimized-IR semantics must agree on mutants too. *)
let mutant_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"optimizer soundness holds on mutated programs" ~count:60
       QCheck.small_int
       (fun seed ->
         let rng = Rng.create (seed + 7001) in
         let tu = Ast_gen.gen_tu ~cfg:diff_cfg rng in
         let m = Rng.choose rng Mutators.Registry.core in
         match Mutators.Mutator.apply m ~rng tu with
         | None -> true
         | Some tu' ->
           let tc_res = Typecheck.check tu' in
           if not tc_res.Typecheck.r_ok then true
           else begin
             let p = Simcomp.Lower.lower_tu tu' tc_res in
             let before = run_ir p in
             ignore (Simcomp.Opt.run_pipeline ~level:2 ~disabled:[] p);
             let after = run_ir p in
             match run_ast tu', before, after with
             | Some a, Some b, Some c -> a = b && b = c
             | _ -> true
           end))

(* ------------------------------------------------------------------ *)
(* IR interpreter: golden outcomes, fuel accounting, malformed IR      *)
(* ------------------------------------------------------------------ *)

(* One line per program: the full outcome at -O0..-O3 with the default
   fuel, at -O0 and -O2 with fuel 300, and the least fuel with which the
   -O2 IR completes ("-" when that exceeds 50_000).  An outcome prints as
   exit code, "t" when trapped, "h" when hung, then "!" and the
   unsupported feature. *)
let show_outcome (o : Simcomp.Ir_interp.outcome) =
  Fmt.str "%d%s%s%s" o.o_exit
    (if o.o_trapped then "t" else "")
    (if o.o_hang then "h" else "")
    (match o.o_unsupported with Some s -> "!" ^ s | None -> "")

let outcome_line src =
  let compile opt =
    Simcomp.Compiler.compile_ir Simcomp.Compiler.Gcc
      { Simcomp.Compiler.default_options with opt_level = opt }
      src
  in
  let run ?fuel opt =
    match compile opt with
    | Ok p -> show_outcome (Simcomp.Ir_interp.run ?fuel p)
    | Error _ -> "E"
  in
  let threshold =
    match compile 2 with
    | Error _ -> "-"
    | Ok p ->
      let finishes fuel = not (Simcomp.Ir_interp.run ~fuel p).o_hang in
      if not (finishes 50_000) then "-"
      else begin
        let lo = ref 1 and hi = ref 50_000 in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if finishes mid then hi := mid else lo := mid + 1
        done;
        "@" ^ string_of_int !lo
      end
  in
  String.concat " "
    (List.map (fun o -> run o) [ 0; 1; 2; 3 ]
    @ [ run ~fuel:300 0; run ~fuel:300 2; threshold ])

let golden_outcomes =
  [
    "6 6 6 6 124h 124h @2582";
    "4 4 4 4 4 4 @254";
    "0 0 0 0 0 0 @6";
    "186 186 186 186 124h 124h @24589";
    "1 1 1 1 1 1 @38";
    "124h 124h 124h 124h 124h 124h -";
    "0 0 0 0 124h 124h @1843";
    "0 0 0 0 0 0 @98";
    "124h 124h 124h 124h 124h 124h -";
    "0 0 0 0 124h 124h @2612";
    "60 60 60 60 124h 124h -";
    "7 7 7 7 124h 124h @6020";
    "2 2 2 2 124h 124h -";
    "5 5 5 5 124h 124h @2316";
    "10 10 10 10 124h 124h -";
    "24 24 24 24 124h 124h @26038";
    "124h 124h 124h 124h 124h 124h -";
    "88 88 88 88 124h 124h -";
    "0 0 0 0 124h 124h @49820";
    "0 0 0 0 0 0 @76";
    "35 35 35 35 124h 124h @1921";
    "0 0 0 0 124h 124h @610";
    "124h 124h 124h 124h 124h 124h -";
    "0 0 0 0 0 0 @6";
    "124h 124h 124h 124h 124h 124h -";
    "17 17 17 17 124h 124h @3029";
    "0 0 0 0 124h 124h @693";
    "0 0 0 0 0 0 @91";
    "124h 124h 124h 124h 124h 124h -";
    "240 240 240 240 124h 124h @10067";
    "255 255 255 255 124h 124h @1223";
    "248 248 248 248 124h 124h @21057";
    "0 0 0 0 0 0 @18";
    "160 160 159 159 124h 124h @14370";
    "124h 124h 124h 124h 124h 124h -";
    "15 15 15 15 124h 124h @2893";
    "254 254 254 254 124h 124h @13363";
    "8 8 8 8 124h 124h @6699";
    "0 0 0 0 124h 124h -";
    "9 9 9 9 124h 124h @1411";
    "0!builtin memset 0!builtin memset 0!builtin memset 0!builtin memset 0!builtin memset 0!builtin memset @8";
    "0 0 0 0 0 0 @19";
    "1 1 1 1 1 1 @10";
    "0 0 0 0 0 0 @71";
    "0 0 0 0 0 0 @16";
    "0 0 0 0 0 0 @21";
    "0!builtin strcpy 0!builtin strcpy 0!builtin strcpy 0!builtin strcpy 0!builtin strcpy 0!builtin strcpy @21";
    "0!builtin printf 0!builtin printf 0!builtin printf 0!builtin printf 124h 124h @614";
    "1 1 1 1 1 1 @177";
    "87 87 87 87 87 87 @22";
    "5 5 5 5 5 5 @129";
    "0!builtin printf 0!builtin printf 0!builtin printf 0!builtin printf 0!builtin printf 0!builtin printf @30";
    "7 7 7 7 7 7 @12";
    "0!builtin strcpy 0!builtin strcpy 0!builtin strcpy 0!builtin strcpy 0!builtin strcpy 0!builtin strcpy @11";
    "1 1 1 1 1 1 @194";
    "0 0 0 0 124h 124h @23811";
    "21 21 21 21 124h 124h @1867";
    "60 60 60 60 124h 124h @6584";
    "124h 124h 124h 124h 124h 124h -";
    "247 247 190 190 124h 124h -";
    "124h 124h 124h 124h 124h 124h -";
    "124h 124h 124h 124h 124h 124h -";
    "113 113 25 25 124h 124h @36749";
    "0 0 0 0 0 0 @6";
    "0 0 0 0 0 0 @6";
    "124h 124h 124h 124h 124h 124h -";
    "0 0 0 0 0 0 @6";
    "0 0 0 0 124h 124h @13034";
    "4 4 4 4 124h 124h @18741";
    "2 2 2 2 124h 124h -";
    "142 142 142 142 124h 124h @465";
    "3 3 3 3 124h 124h @1130";
    "38 38 38 38 124h 124h @7010";
    "122 122 122 122 124h 124h @10800";
    "124h 124h 124h 124h 124h 124h -";
    "2 2 2 2 124h 124h @365";
    "0 0 0 0 124h 124h -";
    "1 1 1 1 1 1 @20";
    "1 1 1 1 124h 124h -";
    "15 15 15 15 124h 124h -";
    "84 84 84 84 84 84 @31";
    "0 0 0 0 124h 124h @4961";
    "124h 124h 124h 124h 124h 124h -";
    "4 4 4 4 124h 124h @3137";
    "36 36 166 166 124h 124h @6167";
    "124h 124h 124h 124h 124h 124h -";
    "1 1 1 1 124h 124h @5063";
    "121 121 121 121 121 121 @31";
    "0 0 0 0 124h 124h @3011";
    "133 133 133 133 133 133 @270";
    "0 0 0 0 0 0 @63";
    "124h 124h 124h 124h 124h 124h -";
    "124h 124h 124h 124h 124h 124h -";
    "117 117 117 117 124h 124h @2283";
    "0 0 0 0 0 0 @6";
    "124h 3 2 2 124h 124h -";
    "244 244 244 244 124h 124h @7861";
    "124h 124h 124h 124h 124h 124h -";
    "0 0 0 0 124h 124h @36914";
    "215 215 215 215 124h 124h -";
  ]

let golden_programs () =
  List.init 40 (fun i -> Ast_gen.gen_source (Rng.create (700 + i)))
  @ Fuzzing.Seeds.corpus ~n:60 (Rng.create 21)

(* Hand-built IR, for shapes Lower never produces. *)
let block label instrs term = { Simcomp.Ir.b_label = label; b_instrs = instrs; b_term = term }

let func ?(nregs = 0) name blocks =
  { Simcomp.Ir.fn_name = name; fn_params = []; fn_ret_void = false; fn_blocks = blocks;
    fn_nregs = nregs }

let prog funcs = { Simcomp.Ir.p_funcs = funcs; p_globals = [] }

let outcome ?fuel p = show_outcome (Simcomp.Ir_interp.run ?fuel p)

let ir_interp_tests =
  let open Simcomp.Ir in
  [
    tc "golden outcomes on generated and seed programs" (fun () ->
        let lines = List.map outcome_line (golden_programs ()) in
        check Alcotest.int "programs" (List.length golden_outcomes) (List.length lines);
        List.iteri
          (fun i (want, got) -> check Alcotest.string (Fmt.str "program %d" i) want got)
          (List.combine golden_outcomes lines));
    tc "fuel pays for every call, block entry and instruction" (fun () ->
        (* 7 units: main's call and entry block, its call instruction,
           f's call, entry block and mov, then main's L1 *)
        let p =
          prog
            [
              func ~nregs:0 "main"
                [ block 0 [ Icall (Some 0, "f", []) ] (Tjmp 1); block 1 [] (Tret (Some (Reg 0))) ];
              func ~nregs:0 "f" [ block 0 [ Imov (0, Imm 7L) ] (Tret (Some (Reg 0))) ];
            ]
        in
        check Alcotest.string "fuel 7 hangs" "124h" (outcome ~fuel:7 p);
        check Alcotest.string "fuel 8 completes" "7" (outcome ~fuel:8 p));
    tc "a call nested 101 deep hangs" (fun () ->
        let depth k =
          lower
            (Fmt.str
               "int d(int n) { if (n > 0) return d(n - 1); return 0; }
                int main(void) { return d(%d); }"
               k)
        in
        (* main is depth 1, d(k) .. d(0) are depths 2 .. k + 2 *)
        check Alcotest.string "depth 100" "0" (outcome (depth 98));
        check Alcotest.string "depth 101" "124h" (outcome (depth 99)));
    tc "a jump to a missing label is unsupported after its block-entry tick" (fun () ->
        let p = prog [ func "main" [ block 0 [] (Tjmp 42) ] ] in
        check Alcotest.string "reported" "0!missing block L42" (outcome p);
        check Alcotest.string "fuel runs out first" "124h" (outcome ~fuel:3 p));
    tc "an unknown builtin is unsupported" (fun () ->
        let p =
          prog [ func "main" [ block 0 [ Icall (Some 0, "frobnicate", [ Imm 1L ]) ] (Tret None) ] ]
        in
        check Alcotest.string "reported" "0!builtin frobnicate" (outcome p));
    tc "reading an out-of-range register is unsupported" (fun () ->
        let p = prog [ func ~nregs:1 "main" [ block 0 [] (Tret (Some (Reg 2))) ] ] in
        check Alcotest.string "reported" "0!register out of range" (outcome p));
    tc "writing an out-of-range register is unsupported, after its operands" (fun () ->
        let write i = prog [ func ~nregs:1 "main" [ block 0 [ i ] (Tret (Some (Reg 0))) ] ] in
        check Alcotest.string "reported" "0!destination register out of range"
          (outcome (write (Imov (2, Imm 1L))));
        check Alcotest.string "negative" "0!destination register out of range"
          (outcome (write (Imov (-1, Imm 1L))));
        check Alcotest.string "the division traps first" "134t"
          (outcome (write (Ibin (Cparse.Ast.Div, 5, Imm 1L, Imm 0L))));
        check Alcotest.string "fuel runs out first" "124h"
          (outcome ~fuel:3 (write (Imov (2, Imm 1L))));
        check Alcotest.(option (pair int bool)) "observable" None
          (Simcomp.Ir_interp.observable (write (Imov (2, Imm 1L)))));
    tc "a function without blocks is unsupported when called" (fun () ->
        let calls_empty =
          prog
            [
              func "main" [ block 0 [ Icall (None, "empty", []) ] (Tret (Some (Imm 3L))) ];
              func "empty" [];
            ]
        in
        check Alcotest.string "callee" "0!function empty has no blocks" (outcome calls_empty);
        check Alcotest.string "main" "0!function main has no blocks" (outcome (prog [ func "main" [] ]));
        check Alcotest.string "never called" "3"
          (outcome (prog [ func "main" [ block 0 [] (Tret (Some (Imm 3L))) ]; func "empty" [] ])));
    tc "calls and jumps reach the first match" (fun () ->
        let p =
          prog
            [
              func "main"
                [ block 0 [ Icall (Some 0, "f", []) ] (Tjmp 1);
                  block 1 [] (Tret (Some (Reg 0)));
                  block 1 [] (Tret (Some (Imm 99L))) ];
              func "f" [ block 0 [] (Tret (Some (Imm 1L))) ];
              func "f" [ block 0 [] (Tret (Some (Imm 2L))) ];
            ]
        in
        check Alcotest.string "first f, first L1" "1" (outcome p));
  ]

(* Front-end golden.  For each input it pins the token count ("E" on a
   lex error), an MD5 prefix of the coverage map [Compiler.compile ~cov]
   leaves, and the [Parser.parse] result: an MD5 prefix of the reprinted
   tree, or the error text with its line:col.  The inputs are generated
   and seed programs plus deterministic truncations and byte flips of
   them, so lex and parse errors land all over a file. *)
let md5_prefix s = String.sub (Digest.to_hex (Digest.string s)) 0 8

let token_count src =
  match Lexer.tokenize src with
  | exception Lexer.Error _ -> "E"
  | toks -> string_of_int (Lexer.length toks)

let frontend_inputs () =
  let bases =
    List.init 12 (fun i -> Ast_gen.gen_source (Rng.create (900 + i)))
    @ Fuzzing.Seeds.corpus ~n:12 (Rng.create 23)
  in
  let rng = Rng.create 31 in
  let punct = "(){}[];,\"'/*\n.0x#\\" in
  List.concat_map
    (fun src ->
      let n = String.length src in
      let cut () = String.sub src 0 (Rng.int rng (n + 1)) in
      let flip byte =
        let b = Bytes.of_string src in
        let at = Rng.int rng n in
        Bytes.set b at (byte ());
        Bytes.to_string b
      in
      let cut1 = cut () in
      let cut2 = cut () in
      let flip1 = flip (fun () -> Char.chr (Rng.int rng 256)) in
      let flip2 = flip (fun () -> punct.[Rng.int rng (String.length punct)]) in
      [ src; cut1; cut2; flip1; flip2 ])
    bases

let frontend_line src =
  let parsed =
    match Parser.parse src with
    | Ok tu -> "ok:" ^ md5_prefix (Pretty.tu_to_string tu)
    | Error e -> e
  in
  let cov = Simcomp.Coverage.create () in
  ignore
    (Simcomp.Compiler.compile ~cov Simcomp.Compiler.Gcc
       Simcomp.Compiler.default_options src);
  let map =
    md5_prefix
      (String.concat ","
         (List.map string_of_int
            (Simcomp.Coverage.total_hits cov :: Simcomp.Coverage.branch_ids cov)))
  in
  Fmt.str "%s %s %s" (token_count src) map parsed

let golden_frontend =
  [
    "2225 f8779df9 ok:603f56e6";
    "364 ee6fa023 parse error at 68:16: expected ) but found <eof>";
    "536 d33447b3 parse error at 90:90: expected ) but found <eof>";
    "2226 2454972e parse error at 310:1: expected ] but found <eof>";
    "2226 c3446833 ok:572978b3";
    "292 676e13c7 ok:13d57c24";
    "255 36a23144 parse error at 35:103: expected : but found <eof>";
    "175 3f9d7cb0 parse error at 29:15: expected ; but found <eof>";
    "292 ac931ccd parse error at 2:8: expected ; but found f_2";
    "292 ab6fa71b parse error at 41:20: expected ) but found ;";
    "169 3ee9e068 ok:d304275c";
    "167 eb55c112 parse error at 29:18: expected ; but found <eof>";
    "68 fc6c460c parse error at 14:37: expected ) but found <eof>";
    "E 1d582c99 lex error at 19:1: unexpected character '\\162'";
    "170 b89dc734 parse error at 20:42: expected ) but found ;";
    "608 1de3eab8 ok:886e0f67";
    "151 6aa34e7c parse error at 37:16: expected ; but found <eof>";
    "342 a7ae63e2 parse error at 70:6: unexpected token <eof> in expression";
    "E 1d582c99 lex error at 9:2: unexpected character '\\007'";
    "609 11220924 parse error at 36:11: expected ) but found v_14";
    "452 d9ee5f54 ok:cd22ee10";
    "224 d2abea51 parse error at 25:7: expected ; but found <eof>";
    "387 ac751fba parse error at 59:1: unexpected token <eof> in expression";
    "453 3c6de561 parse error at 25:25: expected ; but found {";
    "E 8143694a lex error at 68:12: unexpected character '\\\\'";
    "963 fc4ebe6a ok:7f10931d";
    "731 e6179d75 parse error at 98:76: expected : but found <eof>";
    "931 386afcbe parse error at 122:40: expected ) but found <eof>";
    "E 1d582c99 lex error at 74:12: unexpected character '\\128'";
    "962 396b7ba4 parse error at 126:9: expected ; but found (";
    "1118 490d0ea9 ok:c7e069dc";
    "1002 27644a70 parse error at 148:4: unexpected token <eof> in expression";
    "190 2c9d41d0 parse error at 34:3: unexpected token <eof> in expression";
    "E 1d582c99 lex error at 31:14: unexpected character '\\213'";
    "1119 15f3c096 parse error at 40:3: unexpected token } in expression";
    "406 e56acd5d ok:d50e65fe";
    "190 8964548c parse error at 35:9: expected ; but found <eof>";
    "1 cfcd2084 ok:d41d8cd9";
    "407 a274ce46 parse error at 29:27: expected ) but found _6";
    "407 49a6d7a8 ok:364f5420";
    "1999 5c688408 ok:e0640ec3";
    "1141 b297425f parse error at 193:60: expected ) but found <eof>";
    "614 507e5ad7 parse error at 113:15: unexpected token <eof> in expression";
    "E 1d582c99 lex error at 267:51: unexpected character '\\198'";
    "E 49eac4a7 lex error at 66:20: unterminated char literal";
    "309 cc82fea8 ok:caf556a0";
    "202 52f4b6cf parse error at 36:14: unexpected token <eof> in expression";
    "232 875988da parse error at 46:2: unexpected token <eof> in expression";
    "E 1d582c99 lex error at 13:5: unexpected character '\\201'";
    "309 0fc5b5e2 parse error at 56:15: expected ; but found )";
    "1235 5a857e83 ok:1bda18b0";
    "345 2e4f7577 parse error at 50:5: unexpected token <eof> in expression";
    "1069 8c8c08cf parse error at 157:23: expected ) but found <eof>";
    "1236 0052aa75 parse error at 89:5: unexpected token % in expression";
    "1236 443f7005 parse error at 61:1: expected ; but found 0";
    "181 76d91e4a ok:24e89b11";
    "52 9c6b51dc parse error at 18:44: expected { but found <eof>";
    "77 73f81ea2 parse error at 25:17: expected ; but found <eof>";
    "E 1d582c99 lex error at 43:1: unexpected character '\\162'";
    "182 01357396 parse error at 42:3: unexpected token [ in expression";
    "67 b5dadc8e ok:458d07f1";
    "35 06f6ee2b parse error at 8:18: unexpected token <eof> in expression";
    "57 5d876f58 parse error at 13:14: expected ) but found <eof>";
    "E 1d582c99 lex error at 1:22: unexpected character '\\209'";
    "E 49eac4a7 lex error at 7:23: unterminated char literal";
    "65 3a3ba257 ok:1f6b4726";
    "21 37494497 parse error at 3:13: unexpected token <eof> in expression";
    "47 0c7c46bc parse error at 13:10: expected ) but found <eof>";
    "E 1d582c99 lex error at 7:1: unexpected character '\\207'";
    "66 ee06df27 parse error at 10:3: unexpected token return in expression";
    "51 730efb10 ok:43c34b23";
    "42 5255c7ef parse error at 13:13: expected ; but found <eof>";
    "4 8334db49 parse error at 2:2: expected ; but found <eof>";
    "52 d5fafb3c parse error at 2:2: expected ; but found (";
    "E 00e34ee0 lex error at 9:16: newline in string literal";
    "102 aa23d54c ok:2f2000be";
    "100 4231604f parse error at 17:19: expected ; but found <eof>";
    "80 4655af33 parse error at 11:18: unexpected token <eof> in expression";
    "E 1d582c99 lex error at 8:14: unexpected character '\\031'";
    "102 573c962e parse error at 17:10: expected ; but found r";
    "60 61c30fe8 ok:466af885";
    "45 5b370d7c parse error at 13:5: expected ; but found <eof>";
    "35 d692941a parse error at 11:2: expected ; but found <eof>";
    "E 1d582c99 lex error at 7:2: unexpected character '\\018'";
    "61 6264593f ok:a62a2c67";
    "81 3d8e6cc1 ok:a905201d";
    "15 2a484ea3 parse error at 3:11: unexpected token <eof> in expression";
    "44 4a9c9963 parse error at 12:2: unexpected token <eof> in expression";
    "81 3d8e6cc1 ok:d2afafef";
    "E 8143694a lex error at 17:2: unexpected character '\\\\'";
    "61 8a2efa2d ok:76975ef5";
    "58 b1a56f33 parse error at 12:9: unexpected token <eof> in expression";
    "12 1646daf4 parse error at 2:10: unexpected token <eof> in expression";
    "E 1d582c99 lex error at 8:4: unexpected character '\\147'";
    "E 00e34ee0 lex error at 9:16: newline in string literal";
    "93 386d86ba ok:d1c31960";
    "E 49eac4a7 lex error at 19:12: unterminated string literal";
    "88 7fa6acec parse error at 20:8: expected ; but found <eof>";
    "E 1d582c99 lex error at 5:5: unexpected character '\\005'";
    "91 9803d7b7 parse error at 7:3: unexpected token for in expression";
    "52 aee50a56 ok:7814ce39";
    "15 db10c187 parse error at 3:6: expected ; but found <eof>";
    "27 239291f0 parse error at 4:27: unexpected token <eof> in expression";
    "52 5f03c13c parse error at 3:12: expected ; but found n";
    "54 cc99b3ee parse error at 4:7: expected ; but found ]";
    "50 4eff9d12 ok:f9a8cb68";
    "32 1e2fe1ac parse error at 8:6: expected ; but found <eof>";
    "18 afe8db90 parse error at 3:6: unexpected token <eof> in expression";
    "E 1d582c99 lex error at 4:13: unexpected character '\\247'";
    "51 84af973a parse error at 4:13: unexpected token [ in expression";
    "61 1727b2ec ok:57b6a83b";
    "37 f45f87ce parse error at 11:3: expected while but found <eof>";
    "56 cc681894 parse error at 16:18: expected ; but found <eof>";
    "E 1d582c99 lex error at 16:7: unexpected character '\\146'";
    "63 57f5e805 ok:b7e63821";
    "80 cca51f5a ok:62a153c8";
    "11 830e9448 parse error at 1:24: expected ) but found <eof>";
    "61 90cb3c0e parse error at 9:12: expected ; but found <eof>";
    "E 1d582c99 lex error at 10:1: unexpected character '\\150'";
    "81 950ab4df parse error at 5:1: expected ; but found ]";
    "55 42c5481e ok:62cfde1d";
    "22 d17479f2 parse error at 5:15: expected ) but found <eof>";
    "1 cfcd2084 ok:d41d8cd9";
    "55 3b75ab83 ok:4e76aefe";
    "55 145b9f63 parse error at 7:1: unexpected token ) in expression";
    "97 f432298a ok:e1ded051";
    "42 bd5fcd4a parse error at 7:8: expected ; but found <eof>";
    "37 3bfb83f4 parse error at 4:4: expected ; but found <eof>";
    "E 1d582c99 lex error at 4:5: unexpected character '\\019'";
    "97 f9c9bd1f parse error at 4:11: unexpected token ; in expression";
    "97 5929467a ok:335e0873";
    "29 91626daa parse error at 8:3: unexpected token <eof> in expression";
    "30 72455abb parse error at 8:4: expected ; but found <eof>";
    "97 2cb17dfc parse error at 23:17: expected ; but found !";
    "98 451011a1 parse error at 11:3: unexpected token ) in expression";
  ]

(* The single-lex pipeline entries: compile_tu's returned tree, the
   crash-free observation entry and the dedup cache must be
   indistinguishable from plain compile. *)
let compile_pipeline_tests =
  let opts = Simcomp.Compiler.default_options in
  let gen_sources n seed =
    List.init n (fun i -> Ast_gen.gen_source (Rng.create (seed + i)))
  in
  [
    tc "front-end golden: token counts, parse results, coverage" (fun () ->
        check
          Alcotest.(list string)
          "front-end lines" golden_frontend
          (List.map frontend_line (frontend_inputs ())));
    tc "compile_tu returns the tree parse would produce" (fun () ->
        List.iter
          (fun src ->
            match Simcomp.Compiler.compile_tu Simcomp.Compiler.Gcc opts src with
            | Simcomp.Compiler.Compiled _, Some tu ->
              check Alcotest.string "same pretty-printed tree"
                (Pretty.tu_to_string (parse src))
                (Pretty.tu_to_string tu)
            | Simcomp.Compiler.Compiled _, None ->
              Alcotest.fail "compiled outcome must carry the parsed tree"
            | _ -> ())
          (gen_sources 10 500));
    tc "compile_passes and compile agree on the front-end" (fun () ->
        (* clean programs and seeds, plus their fragility slips: inputs
           that fail to lex, to parse and to type-check *)
        let rng = Rng.create 41 in
        let inputs =
          List.concat_map
            (fun src ->
              src :: List.init 4 (fun _ -> Fuzzing.Fragility.corrupt rng src))
            (gen_sources 12 2700 @ Fuzzing.Seeds.corpus ~n:12 (Rng.create 37))
        in
        let rejected = Hashtbl.create 3 in
        List.iter
          (fun src ->
            let stage =
              match Parser.parse src with
              | Error e when Astring.String.is_prefix ~affix:"lex" e -> "lex"
              | Error _ -> "parse"
              | Ok _ -> "typecheck"
            in
            List.iter
              (fun (compiler, opt_level) ->
                let opts = { opts with Simcomp.Compiler.opt_level } in
                match
                  ( Simcomp.Compiler.compile compiler opts src,
                    Simcomp.Compiler.compile_passes compiler opts src )
                with
                | Simcomp.Compiler.Compile_error msgs, Error e ->
                  Hashtbl.replace rejected stage ();
                  check Alcotest.string "same diagnostics"
                    (String.concat "\n" msgs) e
                | Simcomp.Compiler.Compile_error _, Ok _ ->
                  Alcotest.failf "compile_passes accepted a rejected input:@.%s"
                    src
                | Simcomp.Compiler.Compiled _, Error e ->
                  Alcotest.failf "compile_passes rejected a compiled input: %s"
                    e
                | Simcomp.Compiler.Compiled _, Ok _
                | Simcomp.Compiler.Crashed _, _ -> ())
              (List.concat_map
                 (fun c -> List.init 4 (fun l -> (c, l)))
                 [ Simcomp.Compiler.Gcc; Simcomp.Compiler.Clang ]))
          inputs;
        List.iter
          (fun stage ->
            check Alcotest.bool (stage ^ " errors exercised") true
              (Hashtbl.mem rejected stage))
          [ "lex"; "parse"; "typecheck" ]);
    tc "compile_tu parse failure yields no tree" (fun () ->
        match Simcomp.Compiler.compile_tu Simcomp.Compiler.Gcc opts "int main( {" with
        | Simcomp.Compiler.Compile_error _, None -> ()
        | _ -> Alcotest.fail "expected error outcome without a tree");
    tc "compile_cached reproduces compile outcomes and dedups repeats"
      (fun () ->
        let cache = Simcomp.Compiler.cache_create () in
        let srcs = gen_sources 8 900 in
        let srcs = srcs @ srcs in
        (* every source twice *)
        List.iter
          (fun src ->
            let cov_plain = Simcomp.Coverage.create () in
            let plain =
              Simcomp.Compiler.compile ~cov:cov_plain Simcomp.Compiler.Gcc
                opts src
            in
            let cov_cached = Simcomp.Coverage.create () in
            let cached, _ =
              Simcomp.Compiler.compile_cached ~cache ~cov:cov_cached
                Simcomp.Compiler.Gcc opts src
            in
            check Alcotest.bool "identical outcome" true (plain = cached))
          srcs;
        check Alcotest.int "second pass all hits" 8
          (Simcomp.Compiler.cache_hits cache);
        check Alcotest.int "first pass all misses" 8
          (Simcomp.Compiler.cache_misses cache));
    tc "fingerprint dedup decisions match an exact-keyed cache" (fun () ->
        (* a constant fingerprint makes every lookup collide, forcing
           the exact-triple fallback on each probe: hit/miss decisions
           (and so outcomes, coverage, accounting) must be identical to
           the well-distributed default hash *)
        let normal = Simcomp.Compiler.cache_create () in
        let colliding =
          Simcomp.Compiler.cache_create ~fingerprint:(fun _ -> 42) ()
        in
        let srcs = gen_sources 6 1300 in
        let srcs = srcs @ List.rev srcs @ srcs in
        let outcomes cache =
          List.map
            (fun src ->
              fst
                (Simcomp.Compiler.compile_cached ~cache Simcomp.Compiler.Gcc
                   opts src))
            srcs
        in
        check Alcotest.bool "same outcome sequence" true
          (outcomes normal = outcomes colliding);
        check Alcotest.int "same hits"
          (Simcomp.Compiler.cache_hits normal)
          (Simcomp.Compiler.cache_hits colliding);
        check Alcotest.int "same misses"
          (Simcomp.Compiler.cache_misses normal)
          (Simcomp.Compiler.cache_misses colliding);
        check Alcotest.bool "collisions detected" true
          (Simcomp.Compiler.cache_collisions colliding > 0);
        check Alcotest.int "default hash does not collide" 0
          (Simcomp.Compiler.cache_collisions normal));
    tc "epoch clearing keeps decisions correct at tiny capacity" (fun () ->
        (* capacity 2 forces wholesale epoch clears mid-sequence: hits
           become misses, but every returned outcome must still equal
           the uncached compile *)
        let cache = Simcomp.Compiler.cache_create ~capacity:2 () in
        let srcs = gen_sources 5 1400 in
        let srcs = srcs @ srcs @ srcs in
        List.iter
          (fun src ->
            let plain = Simcomp.Compiler.compile Simcomp.Compiler.Gcc opts src in
            let cached, _ =
              Simcomp.Compiler.compile_cached ~cache Simcomp.Compiler.Gcc opts
                src
            in
            check Alcotest.bool "outcome survives epoch clears" true
              (plain = cached))
          srcs);
    tc "scratch reuse yields byte-identical assembly" (fun () ->
        (* per-domain scratch buffers (arena, token array, IR vectors)
           are reused across compiles: interleaving other compiles must
           not leak state into a recompile of the same source *)
        let srcs = gen_sources 6 1600 in
        let asm src =
          match Simcomp.Compiler.compile Simcomp.Compiler.Gcc opts src with
          | Simcomp.Compiler.Compiled { asm; _ } -> Some asm
          | _ -> None
        in
        let cold = List.map asm srcs in
        (* scratch is now warm and sized by the largest of the batch *)
        let warm = List.map asm srcs in
        List.iter2
          (fun a b ->
            check Alcotest.(option string) "identical assembly" a b)
          cold warm);
    tc "cache hits replay engine accounting exactly" (fun () ->
        let src = Ast_gen.gen_source (Rng.create 321) in
        let counters engine =
          List.filter
            (function _, Engine.Metrics.Counter _ -> true | _ -> false)
            (Engine.Metrics.snapshot engine.Engine.Ctx.metrics)
        in
        let uncached = Engine.Ctx.create () in
        ignore
          (Simcomp.Compiler.compile ~engine:uncached Simcomp.Compiler.Gcc opts
             src);
        ignore
          (Simcomp.Compiler.compile ~engine:uncached Simcomp.Compiler.Gcc opts
             src);
        let cached_engine = Engine.Ctx.create () in
        let cache = Simcomp.Compiler.cache_create () in
        ignore
          (Simcomp.Compiler.compile_cached ~cache ~engine:cached_engine
             Simcomp.Compiler.Gcc opts src);
        ignore
          (Simcomp.Compiler.compile_cached ~cache ~engine:cached_engine
             Simcomp.Compiler.Gcc opts src);
        (* same compile.total / compile.outcome.* family, plus the
           compile.cached marker on the cached run; opt.pass.* counters
           count real pass executions (like spans) and are legitimately
           absent on a hit *)
        let drop_cached =
          List.filter (fun (name, _) ->
              name <> "compile.cached"
              && not
                   (String.length name >= 9
                   && String.equal (String.sub name 0 9) "opt.pass."))
        in
        check Alcotest.bool "counter families match" true
          (drop_cached (counters uncached)
          = drop_cached (counters cached_engine));
        check Alcotest.bool "cache marker counted" true
          (List.assoc "compile.cached" (counters cached_engine)
          = Engine.Metrics.Counter 1));
    tc "injected hangs trip the compile watchdog" (fun () ->
        let engine = Engine.Ctx.create () in
        let faults =
          Engine.Faults.create
            { Engine.Faults.no_faults with Engine.Faults.compile_hang = 1.0 }
        in
        (match
           Simcomp.Compiler.compile ~engine ~faults Simcomp.Compiler.Gcc opts
             "int main(void) { return 0; }"
         with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.bool "hang kind" true
            (c.Simcomp.Crash.kind = Simcomp.Crash.Hang);
          check Alcotest.bool "watchdog frame" true
            (List.mem "watchdog_timeout" c.Simcomp.Crash.frames)
        | _ -> Alcotest.fail "expected the watchdog to report a hang");
        check Alcotest.int "hang counted" 1
          (Engine.Metrics.counter_value
             (Engine.Metrics.counter engine.Engine.Ctx.metrics
                "compile.watchdog_hang")));
    tc "cached hangs replay as hangs" (fun () ->
        (* a pathological mutant stays pathological: memoization must
           not resurrect it *)
        let faults =
          Engine.Faults.create
            { Engine.Faults.no_faults with Engine.Faults.compile_hang = 1.0 }
        in
        let cache = Simcomp.Compiler.cache_create () in
        let src = "int main(void) { return 1; }" in
        let once () =
          fst
            (Simcomp.Compiler.compile_cached ~cache ~faults
               Simcomp.Compiler.Gcc opts src)
        in
        (match (once (), once ()) with
        | Simcomp.Compiler.Crashed a, Simcomp.Compiler.Crashed b ->
          check Alcotest.string "same bug id" a.Simcomp.Crash.bug_id
            b.Simcomp.Crash.bug_id
        | _ -> Alcotest.fail "both lookups must replay the hang");
        check Alcotest.int "second lookup hit the cache" 1
          (Simcomp.Compiler.cache_hits cache));
  ]

(* ------------------------------------------------------------------ *)
(* Pass manager                                                        *)
(* ------------------------------------------------------------------ *)

let pass_manager_tests =
  let opts_at ?(disabled = []) ?pass_list level =
    {
      Simcomp.Compiler.default_options with
      opt_level = level;
      disabled_passes = disabled;
      pass_list;
    }
  in
  [
    tc "registry enumerates passes in canonical order" (fun () ->
        check
          Alcotest.(list string)
          "names"
          [ "constfold"; "simplify-cfg"; "dce"; "inline"; "strlen-opt";
            "loop-opt" ]
          (Simcomp.Opt.pass_names ()));
    tc "registering a duplicate pass name is rejected" (fun () ->
        Alcotest.check_raises "duplicate"
          (Invalid_argument "Opt.register: duplicate pass dce") (fun () ->
            Simcomp.Opt.register Simcomp.Opt.dce_pass));
    tc "pipeline specs are golden per level" (fun () ->
        let golden =
          [
            (0, []);
            (1, [ "constfold"; "simplify-cfg"; "dce" ]);
            ( 2,
              [ "constfold"; "simplify-cfg"; "inline"; "strlen-opt";
                "constfold"; "dce" ] );
            ( 3,
              [ "constfold"; "simplify-cfg"; "inline"; "strlen-opt";
                "loop-opt"; "constfold"; "simplify-cfg"; "dce" ] );
          ]
        in
        List.iter
          (fun (level, expected) ->
            check
              Alcotest.(list string)
              (Fmt.str "-O%d" level) expected
              (Simcomp.Compiler.pipeline_of (opts_at level)))
          golden);
    tc "unknown pass in an explicit pipeline is rejected" (fun () ->
        check Alcotest.bool "raises" true
          (try
             ignore
               (Simcomp.Compiler.pipeline_of
                  (opts_at ~pass_list:[ "constfold"; "vectorize" ] 2));
             false
           with Invalid_argument _ -> true));
    tc "disabling a pass equals the explicit pipeline without it" (fun () ->
        let src =
          "int five(void) { return 5; }\n\
           int main(void) { int unused = 1 + 2; return five() + 4; }"
        in
        let spec_minus_dce =
          List.filter
            (fun p -> not (String.equal p "dce"))
            (Simcomp.Compiler.pipeline_of (opts_at 2))
        in
        let outcome opts = Simcomp.Compiler.compile Simcomp.Compiler.Gcc opts src in
        check Alcotest.bool "same outcome" true
          (outcome (opts_at ~disabled:[ "dce" ] 2)
          = outcome (opts_at ~pass_list:spec_minus_dce 2)));
    tc "dump-ir snapshots only the requested pass" (fun () ->
        let src = "int main(void) { int unused = 1 + 2; return 7; }" in
        let steps dump =
          match
            Simcomp.Compiler.compile_passes Simcomp.Compiler.Gcc
              { (opts_at 2) with Simcomp.Compiler.dump_ir = dump }
              src
          with
          | Ok tr -> tr.Simcomp.Compiler.pt_steps
          | Error e -> Alcotest.failf "compile_passes: %s" e
        in
        List.iter
          (fun (st : Simcomp.Compiler.pass_step) ->
            check Alcotest.bool "no IR captured" true
              (st.st_ir_before = None && st.st_ir_after = None))
          (steps Simcomp.Compiler.Dump_none);
        List.iter
          (fun (st : Simcomp.Compiler.pass_step) ->
            check Alcotest.bool "all IR captured" true
              (st.st_ir_before <> None && st.st_ir_after <> None))
          (steps Simcomp.Compiler.Dump_all);
        List.iter
          (fun (st : Simcomp.Compiler.pass_step) ->
            let want = String.equal st.st_pass "dce" in
            check Alcotest.bool "only dce captured" want
              (st.st_ir_before <> None))
          (steps (Simcomp.Compiler.Dump_pass "dce")));
    tc "per-pass run counters follow the spec" (fun () ->
        let engine = Engine.Ctx.create () in
        ignore
          (Simcomp.Compiler.compile ~engine Simcomp.Compiler.Gcc (opts_at 2)
             "int main(void) { return 1 + 2; }");
        let runs name =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter engine.Engine.Ctx.metrics
               (Fmt.str "opt.pass.%s.runs" name))
        in
        check Alcotest.int "constfold twice" 2 (runs "constfold");
        check Alcotest.int "dce once" 1 (runs "dce");
        check Alcotest.int "loop-opt never" 0 (runs "loop-opt"));
    tc "pass-ordering ICE: dce without a prior constfold" (fun () ->
        let src =
          "int main(void) { int a = 1; int b = 2; int c = a < b ? 1 : 2; int \
           d = b < a ? 3 : 4; return a + b + c + d; }"
        in
        (match
           Simcomp.Compiler.compile Simcomp.Compiler.Gcc
             (opts_at ~disabled:[ "constfold" ] 2)
             src
         with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.string "bug id" "gcc-dce-unfolded"
            c.Simcomp.Crash.bug_id
        | _ -> Alcotest.fail "expected the pass-ordering ICE");
        match Simcomp.Compiler.compile Simcomp.Compiler.Gcc (opts_at 2) src with
        | Simcomp.Compiler.Compiled _ -> ()
        | _ -> Alcotest.fail "default pipeline must stay clean");
    tc "pass-ordering ICE: strlen-opt without a prior inline" (fun () ->
        let src =
          "int f(void) { return 1; }\n\
           int main(void) { return f() + f(); }"
        in
        (match
           Simcomp.Compiler.compile Simcomp.Compiler.Clang
             (opts_at ~disabled:[ "inline" ] 2)
             src
         with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.string "bug id" "clang-strlen-before-inline"
            c.Simcomp.Crash.bug_id
        | _ -> Alcotest.fail "expected the pass-ordering ICE");
        match
          Simcomp.Compiler.compile Simcomp.Compiler.Clang (opts_at 2) src
        with
        | Simcomp.Compiler.Compiled _ -> ()
        | _ -> Alcotest.fail "default pipeline must stay clean");
    tc "pass-homed ICE is masked by disabling its home pass" (fun () ->
        let src =
          "static char buffer[32];\n\
           const char tag = 1;\n\
           int test4(void) { return sprintf(buffer, \"%s\", buffer); }\n\
           int main(void) { return test4(); }"
        in
        (match Simcomp.Compiler.compile Simcomp.Compiler.Gcc (opts_at 2) src with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.string "bug id" "gcc-strlen-range"
            c.Simcomp.Crash.bug_id
        | _ -> Alcotest.fail "expected gcc-strlen-range");
        match
          Simcomp.Compiler.compile Simcomp.Compiler.Gcc
            (opts_at ~disabled:[ "strlen-opt" ] 2)
            src
        with
        | Simcomp.Compiler.Crashed c ->
          Alcotest.failf "still crashed: %s" c.Simcomp.Crash.bug_id
        | _ -> ());
    tc "random_options draws from the registry" (fun () ->
        let rng = Rng.create 11 in
        for _ = 1 to 50 do
          let o = Simcomp.Compiler.random_options rng in
          List.iter
            (fun p ->
              check Alcotest.bool "known pass" true
                (Option.is_some (Simcomp.Opt.find_pass p)))
            o.Simcomp.Compiler.disabled_passes
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Backend differential: interval arrays and stop-before-emit          *)
(* ------------------------------------------------------------------ *)

(* The linear-scan allocator as it was before the interval arrays: first
   and last touches in fresh [Hashtbl.create 256] tables, intervals
   folded out of the first-touch table and stably sorted by first
   position.  The reference for the allocation order, ties included. *)
let reference_regalloc ?cov (f : Simcomp.Ir.func) : (int * int) list * int =
  let open Simcomp.Ir in
  let first = Hashtbl.create ~random:false 256 in
  let last = Hashtbl.create ~random:false 256 in
  let pos = ref 0 in
  let touch r =
    if not (Hashtbl.mem first r) then Hashtbl.replace first r !pos;
    Hashtbl.replace last r !pos
  in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          incr pos;
          iter_regs touch i)
        b.b_instrs;
      incr pos;
      iter_term_regs touch b.b_term)
    f.fn_blocks;
  let intervals =
    Hashtbl.fold (fun r s acc -> (r, s, Hashtbl.find last r) :: acc) first []
    |> List.sort (fun (_, s1, _) (_, s2, _) -> compare s1 s2)
  in
  let regmap = Array.make (f.fn_nregs + 1) (-2) in
  let active = Array.make Simcomp.Backend.phys_regs (-1) in
  let spills = ref 0 in
  List.iter
    (fun (r, s, e) ->
      let found = ref (-1) in
      Array.iteri (fun i expiry -> if !found < 0 && expiry < s then found := i) active;
      if !found >= 0 then begin
        active.(!found) <- e;
        regmap.(r) <- !found
      end
      else begin
        incr spills;
        regmap.(r) <- -1
      end)
    intervals;
  (match cov with
  | Some cov ->
    Simcomp.Coverage.branch3 cov 0x4200 (min 31 !spills)
      (List.length intervals land 0xf);
    List.iteri
      (fun i (_, s, e) ->
        if i < 64 then
          let len = e - s in
          let bucket =
            if len <= 2 then 0 else if len <= 8 then 1
            else if len <= 32 then 2 else if len <= 128 then 3 else 4
          in
          Simcomp.Coverage.branch3 cov 0x4210 (i land 0x3f) bucket)
      intervals
  | None -> ());
  let acc = ref [] in
  for r = f.fn_nregs downto 0 do
    if regmap.(r) <> -2 then acc := (r, regmap.(r)) :: !acc
  done;
  (!acc, !spills)

(* A function over at least [n] vregs, shaped for the allocator: most
   instructions introduce several new vregs at once (ties on the first
   position) and uses reach back to any earlier vreg (intervals of every
   length, so spills under pressure). *)
let wide_func rng n =
  let open Simcomp.Ir in
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let old () = if !next = 0 then fresh () else 1 + Rng.int rng !next in
  let operand () =
    match Rng.int rng 6 with
    | 0 -> Imm (Int64.of_int (Rng.int rng 5000))
    | 1 | 2 -> Reg (old ())
    | _ -> Reg (fresh ())
  in
  let instr () =
    match Rng.int rng 6 with
    | 0 | 1 ->
      let r = fresh () in
      let a = operand () in
      Ibin (Cparse.Ast.Add, r, a, operand ())
    | 2 ->
      let r = fresh () in
      Icall (Some r, "f", List.init (Rng.int rng 7) (fun _ -> operand ()))
    | 3 ->
      let i = operand () in
      Istore (Aindex ("a", i, 4), operand ())
    | 4 -> Iload (fresh (), Areg (operand ()))
    | _ -> Imov (fresh (), Reg (old ()))
  in
  let blocks = ref [] in
  let label = ref 0 in
  while !next < n do
    let instrs = List.init (1 + Rng.int rng 12) (fun _ -> instr ()) in
    incr label;
    let term =
      match Rng.int rng 3 with
      | 0 -> Tbr (operand (), !label + 1, !label + 1)
      | 1 -> Tswitch (operand (), [ (1L, !label + 1); (9L, !label + 1) ], !label + 1)
      | _ -> Tjmp (!label + 1)
    in
    blocks := block !label instrs term :: !blocks
  done;
  blocks := block (!label + 1) [] (Tret (Some (Reg (old ())))) :: !blocks;
  func ~nregs:!next (Fmt.str "wide%d" n) (List.rev !blocks)

let backend_programs () =
  List.concat_map
    (fun (cfg, seed) ->
      List.init 30 (fun i -> Ast_gen.gen_source ~cfg (Rng.create (seed + i))))
    [ (Ast_gen.default_config, 2300); (Ast_gen.csmith_like_config, 2400) ]
  @ Fuzzing.Seeds.corpus ~n:40 (Rng.create 29)

let levels = [ 0; 1; 2; 3 ]
let opts_at_level l = { Simcomp.Compiler.default_options with opt_level = l }

(* Same assignment, spill count and coverage as the reference; returns
   the function's distinct vreg count. *)
let check_regalloc (f : Simcomp.Ir.func) =
  let cov = Simcomp.Coverage.create () and ref_cov = Simcomp.Coverage.create () in
  let assignment, spills = Simcomp.Backend.regalloc ~cov f in
  let ref_assignment, ref_spills = reference_regalloc ~cov:ref_cov f in
  check Alcotest.(list (pair int int)) (f.Simcomp.Ir.fn_name ^ " regmap")
    ref_assignment assignment;
  check Alcotest.int (f.Simcomp.Ir.fn_name ^ " spills") ref_spills spills;
  check Alcotest.bool (f.Simcomp.Ir.fn_name ^ " coverage") true
    (Simcomp.Coverage.equal ref_cov cov);
  List.length assignment

let backend_differential_tests =
  [
    tc "interval arrays allocate like the table allocator" (fun () ->
        let funcs = ref 0 in
        List.iter
          (fun src ->
            List.iter
              (fun l ->
                match Simcomp.Compiler.compile_ir Simcomp.Compiler.Gcc (opts_at_level l) src with
                | Ok p ->
                  List.iter
                    (fun f ->
                      ignore (check_regalloc f);
                      incr funcs)
                    p.Simcomp.Ir.p_funcs
                | Error _ -> ())
              levels)
          (backend_programs ());
        check Alcotest.bool "enough functions" true (!funcs > 500));
    tc "wide hand-built functions keep the resized-table tie order" (fun () ->
        (* the reference table grows past 256 buckets at 513 vregs and
           past 512 at 1025: the tie order follows the final size.  Sizes
           go up and down, so narrow functions reuse a grown arena. *)
        let widest = ref 0 in
        List.iteri
          (fun i n ->
            let f = wide_func (Rng.create (4100 + i)) n in
            widest := max !widest (check_regalloc f))
          [ 8; 514; 40; 1100; 200; 4300; 511; 700; 5; 1025; 1600; 30; 2100 ];
        check Alcotest.bool "past 2048 vregs" true (!widest > 2048));
    tc "stopping before emit keeps the outcome and the coverage" (fun () ->
        List.iter
          (fun src ->
            List.iter
              (fun compiler ->
                List.iter
                  (fun l ->
                    let opts = opts_at_level l in
                    let cov = Simcomp.Coverage.create () in
                    let emitted = Simcomp.Compiler.compile ~cov compiler opts src in
                    let cov' = Simcomp.Coverage.create () in
                    let stopped =
                      Simcomp.Compiler.compile ~cov:cov' ~emit:false compiler opts src
                    in
                    let without_asm = function
                      | Simcomp.Compiler.Compiled c ->
                        check Alcotest.bool "asm emitted" true (String.length c.asm > 0);
                        Simcomp.Compiler.Compiled { c with asm = "" }
                      | o -> o
                    in
                    check Alcotest.bool "same outcome but asm" true
                      (without_asm emitted = stopped);
                    check Alcotest.bool "same coverage" true
                      (Simcomp.Coverage.equal cov cov'))
                  levels)
              [ Simcomp.Compiler.Gcc; Simcomp.Compiler.Clang ])
          (backend_programs ()));
    tc "an emitting probe is never served an asm-less outcome" (fun () ->
        let opts = Simcomp.Compiler.default_options in
        let srcs = List.init 4 (fun i -> Ast_gen.gen_source (Rng.create (2500 + i))) in
        let compiled = function
          | Simcomp.Compiler.Compiled { asm; _ } -> Some asm
          | _ -> None
        in
        (* both modes of a source share its fingerprint bucket (a
           constant fingerprint shares one bucket among all entries):
           only the exact key tells them apart *)
        List.iter
          (fun fingerprint ->
            let cache = Simcomp.Compiler.cache_create ?fingerprint () in
            let probe ?emit src =
              compiled
                (fst
                   (Simcomp.Compiler.compile_cached ~cache ?emit Simcomp.Compiler.Gcc
                      opts src))
            in
            List.iter
              (fun src ->
                let full = compiled (Simcomp.Compiler.compile Simcomp.Compiler.Gcc opts src) in
                check Alcotest.bool "compiles" true (Option.is_some full);
                (* no-emit entry first, then an emitting probe of the
                   same source, then both again (hits) *)
                check Alcotest.(option string) "stopped" (Some "") (probe ~emit:false src);
                check Alcotest.(option string) "emitted" full (probe src);
                check Alcotest.(option string) "stopped, cached" (Some "")
                  (probe ~emit:false src);
                check Alcotest.(option string) "emitted, cached" full (probe src))
              srcs;
            check Alcotest.int "one miss per (source, emit)" 8
              (Simcomp.Compiler.cache_misses cache);
            check Alcotest.int "one hit per (source, emit)" 8
              (Simcomp.Compiler.cache_hits cache);
            check Alcotest.bool "modes met in a bucket" true
              (Simcomp.Compiler.cache_collisions cache >= 4))
          [ None; Some (fun _ -> 42) ]);
  ]

let () =
  Alcotest.run "simcomp"
    [
      ("coverage", coverage_tests);
      ("coverage-bitmap-differential", bitmap_differential_tests);
      ("compile-pipeline", compile_pipeline_tests);
      ("features", feature_tests);
      ("features-differential", features_differential_tests);
      ("interp", interp_tests);
      ("ir", ir_tests);
      ("opt", opt_tests);
      ("pass-manager", pass_manager_tests);
      ("backend", backend_tests);
      ("backend-differential", backend_differential_tests);
      ("bugs-and-pipeline", bug_tests @ pipeline_props);
      ("differential", differential_tests @ [ mutant_differential ]);
      ("ir-interp", ir_interp_tests);
    ]
