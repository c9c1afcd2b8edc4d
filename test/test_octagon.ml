(* Octagon domain tests (Sect. 6.2.2). *)

module F = Astree_frontend
module D = Astree_domains
module O = D.Octagon
module LF = D.Linear_form
module Metrics = Astree_obs.Metrics

(* the octagon's closure counters in the metrics registry *)
let closures key = Metrics.value (Metrics.counter key)

let mkvar =
  let next = ref 1000 in
  fun name ->
    incr next;
    {
      F.Tast.v_id = !next;
      v_name = name;
      v_orig = name;
      v_ty = F.Ctypes.t_float;
      v_kind = F.Tast.Kglobal;
      v_volatile = false;
      v_loc = F.Loc.dummy;
    }

let no_oracle _ = (Float.neg_infinity, Float.infinity)

let bounded lo hi (v : F.Tast.var) (w : F.Tast.var) =
  if F.Tast.Var.equal v w then (lo, hi) else (Float.neg_infinity, Float.infinity)

let test_top_bot () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  Alcotest.(check bool) "top not bot" false (O.is_bot o);
  let b = O.bottom [| x; y |] in
  Alcotest.(check bool) "bottom" true (O.is_bot b);
  Alcotest.(check bool) "bot subset top" true (O.subset b o);
  Alcotest.(check bool) "top not subset bot" false (O.subset o b)

let test_set_get_bounds () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.set_bounds o x (-2.0, 5.0);
  match O.get_bounds o x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "lo" true (lo <= -2.0 && lo >= -2.0001);
      Alcotest.(check bool) "hi" true (hi >= 5.0 && hi <= 5.0001)
  | None -> Alcotest.fail "no bounds"

let test_diff_constraint_closure () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.set_bounds o y (0.0, 10.0);
  O.add_diff_le o x y 3.0 (* x - y <= 3 *);
  O.close o;
  (match O.get_bounds o x with
  | Some (_, hi) -> Alcotest.(check bool) "x <= 13" true (hi <= 13.001)
  | None -> Alcotest.fail "no bounds");
  match O.get_diff_bounds o x y with
  | Some (_, hi) -> Alcotest.(check bool) "diff hi" true (hi <= 3.001)
  | None -> Alcotest.fail "no diff bounds"

let test_sum_constraint () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.add_sum_le o x y 10.0;
  O.set_bounds o y (2.0, 4.0);
  O.close o;
  match O.get_bounds o x with
  | Some (_, hi) -> Alcotest.(check bool) "x <= 8" true (hi <= 8.001)
  | None -> Alcotest.fail "no bounds"

let test_emptiness_detection () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.add_diff_le o x y (-5.0) (* x - y <= -5, so x < y *);
  O.add_diff_le o y x (-5.0) (* y - x <= -5, so y < x: contradiction *);
  O.close o;
  Alcotest.(check bool) "empty" true (O.is_bot o)

let test_forget () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.set_bounds o x (0.0, 1.0);
  O.add_sum_le o x y 10.0;
  O.close o;
  O.forget o x;
  match O.get_bounds o x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "unbounded" true
        (lo = Float.neg_infinity && hi = Float.infinity)
  | None -> Alcotest.fail "x missing"

let test_join_hull () =
  let x = mkvar "x" in
  let o1 = O.top [| x |] and o2 = O.top [| x |] in
  O.set_bounds o1 x (0.0, 1.0);
  O.set_bounds o2 x (5.0, 8.0);
  let j = O.join o1 o2 in
  match O.get_bounds j x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "hull" true (lo <= 0.0 && hi >= 8.0 && hi < 9.0)
  | None -> Alcotest.fail "missing"

let test_meet () =
  let x = mkvar "x" in
  let o1 = O.top [| x |] and o2 = O.top [| x |] in
  O.set_bounds o1 x (0.0, 10.0);
  O.set_bounds o2 x (5.0, 20.0);
  let m = O.meet o1 o2 in
  match O.get_bounds m x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "meet" true (lo >= 4.99 && hi <= 10.01)
  | None -> Alcotest.fail "missing"

let test_assign_relational () =
  (* the paper's example: after r := v - lim and the guard r >= 1,
     closure must bound lim from v's range *)
  let r = mkvar "r" and v = mkvar "v" and lim = mkvar "lim" in
  let o = O.top [| r; v; lim |] in
  let oracle w =
    if F.Tast.Var.equal w v then (-100.0, 100.0)
    else if F.Tast.Var.equal w lim then (-100.0, 100.0)
    else (Float.neg_infinity, Float.infinity)
  in
  O.assign o oracle r LF.(sub (of_var v) (of_var lim));
  O.guard_le_zero o oracle LF.(sub (of_interval 1.0 1.0) (of_var r));
  match O.get_bounds o lim with
  | Some (_, hi) -> Alcotest.(check bool) "lim <= 99" true (hi <= 99.01)
  | None -> Alcotest.fail "missing"

let test_assign_self_update () =
  let x = mkvar "x" in
  let o = O.top [| x |] in
  O.set_bounds o x (0.0, 10.0);
  O.close o;
  (* x := x + 1 evaluated through the octagon's own bounds *)
  O.assign o no_oracle x LF.(add (of_var x) (of_interval 1.0 1.0));
  match O.get_bounds o x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "shifted" true (lo >= 0.99 && hi <= 11.01)
  | None -> Alcotest.fail "missing"

let test_widen_thresholds () =
  let x = mkvar "x" in
  let o1 = O.top [| x |] and o2 = O.top [| x |] in
  O.set_bounds o1 x (0.0, 10.0);
  O.set_bounds o2 x (0.0, 12.0);
  (* the octagon uses the standard Mine widening: an unstable bound jumps
     straight to +oo (constraints are rebuilt by the transfer functions,
     so genuine invariants are re-derived on the next iterate) *)
  let w = O.widen ~thresholds:(D.Thresholds.of_list [ 100.0 ]) o1 o2 in
  (match O.get_bounds w x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "unstable side to +oo" true (hi = Float.infinity);
      Alcotest.(check bool) "stable side kept" true (lo >= -0.001)
  | None -> Alcotest.fail "missing");
  (* a stable bound is untouched *)
  let o3 = O.top [| x |] in
  O.set_bounds o3 x (2.0, 8.0);
  let w2 = O.widen ~thresholds:D.Thresholds.default o1 o3 in
  match O.get_bounds w2 x with
  | Some (_, hi) -> Alcotest.(check bool) "kept" true (hi <= 10.001)
  | None -> Alcotest.fail "missing"

let test_widen_stable_side () =
  let x = mkvar "x" in
  let o1 = O.top [| x |] and o2 = O.top [| x |] in
  O.set_bounds o1 x (0.0, 10.0);
  O.set_bounds o2 x (2.0, 8.0);
  let w = O.widen ~thresholds:D.Thresholds.default o1 o2 in
  Alcotest.(check bool) "stable" true (O.subset o1 w && O.subset o2 w)

let test_guard_two_vars () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.set_bounds o y (0.0, 5.0);
  O.close o;
  (* guard x + y <= 3 *)
  O.guard_le_zero o (bounded 0.0 5.0 y)
    LF.(sub (add (of_var x) (of_var y)) (of_interval 3.0 3.0));
  match O.get_bounds o x with
  | Some (_, hi) -> Alcotest.(check bool) "x <= 3" true (hi <= 3.01)
  | None -> Alcotest.fail "missing"

let test_count_constraints () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.add_sum_le o x y 5.0;
  O.add_diff_le o x y 2.0;
  let sums, diffs = O.count_constraints o in
  Alcotest.(check bool) "counts" true (sums >= 1 && diffs >= 1)

(* property: closure is sound on random boxes + constraints, checked by
   sampling concrete points *)
let prop_closure_sound =
  QCheck.Test.make ~name:"strong closure preserves concrete points"
    QCheck.(
      quad (pair (float_range (-50.) 0.) (float_range 0. 50.))
        (pair (float_range (-50.) 0.) (float_range 0. 50.))
        (float_range (-20.) 20.) (float_range (-20.) 20.))
    (fun ((xlo, xhi), (ylo, yhi), c, px) ->
      let x = mkvar "x" and y = mkvar "y" in
      let o = O.top [| x; y |] in
      O.set_bounds o x (xlo, xhi);
      O.set_bounds o y (ylo, yhi);
      O.add_diff_le o x y c;
      O.close o;
      (* pick a concrete point satisfying the constraints, if any *)
      let px = Float.max xlo (Float.min xhi px) in
      let py_min = Float.max ylo (px -. c) in
      if py_min > yhi then true (* no witness on this slice *)
      else
        let py = py_min in
        if O.is_bot o then false
        else
          match (O.get_bounds o x, O.get_bounds o y) with
          | Some (lx, hx), Some (ly, hy) ->
              lx <= px && px <= hx && ly <= py && py <= hy
          | _ -> false)

(* ------------------------------------------------------------------ *)
(* Incremental closure (PR 3)                                          *)
(* ------------------------------------------------------------------ *)

(* Random DBMs + random touched-variable updates: [close_incremental]
   must agree with the full [close] — same matrix, same bottom
   detection.  All generated bounds are small integers, so every bound
   computed by either algorithm is a dyadic rational far inside the
   binary64 range and the directed-rounding arithmetic is EXACT: both
   algorithms then compute the unique real strong closure, and the
   comparison below is bit-for-bit. *)
let prop_incremental_equiv =
  let gen =
    QCheck.Gen.(
      int_range 3 5 >>= fun n ->
      let var = int_bound (n - 1) in
      let base_c =
        quad (int_bound 3) var var (pair (int_range (-20) 20) (int_range (-20) 20))
      in
      let upd =
        quad (int_bound 4) var var (pair (int_range (-8) 8) (int_range (-8) 8))
      in
      list_size (int_range 0 12) base_c >>= fun base ->
      list_size (int_range 1 2) upd >>= fun upds -> return (n, base, upds))
  in
  QCheck.Test.make ~count:500
    ~name:"close_incremental = full close (exact dyadic inputs)"
    (QCheck.make gen)
    (fun (n, base, upds) ->
      let pack = Array.init n (fun i -> mkvar (Printf.sprintf "v%d" i)) in
      let o = O.top pack in
      List.iter
        (fun (k, i, j, (c, d)) ->
          let x = pack.(i) and y = pack.(j) in
          let c = float_of_int c and d = float_of_int d in
          match k with
          | 0 -> O.set_bounds o x (Float.min c d, Float.max c d)
          | 1 -> O.add_diff_le o x y c
          | 2 -> O.add_sum_le o x y c
          | _ -> O.add_neg_sum_le o x y c)
        base;
      O.close o;
      let a = O.copy o and b = O.copy o in
      let apply t (k, i, j, (c, d)) =
        let x = pack.(i) and y = pack.(j) in
        let cf = float_of_int c and df = float_of_int d in
        match k with
        | 0 -> O.set_bounds t x (Float.min cf df, Float.max cf df)
        | 1 -> O.add_diff_le t x y cf
        | 2 -> O.add_sum_le t x y cf
        | 3 -> O.shift_var t i (Float.min cf df) (Float.max cf df)
        | _ -> O.forget t x
      in
      List.iter (apply a) upds;
      List.iter (apply b) upds;
      O.close_incremental a;
      (* the full cubic pass on an identical copy *)
      O.close b;
      O.is_bot a = O.is_bot b
      && (O.is_bot a || (a.O.m = b.O.m && a.O.closure = O.Closed)))

(* Deterministic instance pinning the genuinely incremental path (one
   dirty variable out of four, below the full-closure fallback
   threshold). *)
let test_incremental_path () =
  let pack = Array.init 4 (fun i -> mkvar (Printf.sprintf "w%d" i)) in
  let o = O.top pack in
  O.set_bounds o pack.(0) (0.0, 10.0);
  O.add_diff_le o pack.(0) pack.(1) 3.0;
  O.add_sum_le o pack.(2) pack.(3) 7.0;
  O.close o;
  let a = O.copy o and b = O.copy o in
  O.add_diff_le a pack.(2) pack.(0) 1.0;
  O.add_diff_le b pack.(2) pack.(0) 1.0;
  let incr0 = closures "oct.close.incr" in
  O.close_incremental a;
  Alcotest.(check int)
    "incremental algorithm used" (incr0 + 1)
    (closures "oct.close.incr");
  O.close b;
  Alcotest.(check bool) "same bottom" (O.is_bot a) (O.is_bot b);
  Alcotest.(check bool) "same matrix" true (a.O.m = b.O.m)

(* Counter-based regression: the join of two closed octagons is closed
   by construction and must perform zero closure work — neither at join
   time nor when a closure is next requested on the result. *)
let test_join_zero_closure_work () =
  let x = mkvar "jx" and y = mkvar "jy" and z = mkvar "jz" in
  let pack = [| x; y; z |] in
  let a = O.top pack and b = O.top pack in
  O.set_bounds a x (0.0, 10.0);
  O.add_diff_le a x y 3.0;
  O.close a;
  O.set_bounds b x (2.0, 8.0);
  O.add_sum_le b y z 5.0;
  O.close b;
  Alcotest.(check bool) "a closed" true (a.O.closure = O.Closed);
  Alcotest.(check bool) "b closed" true (b.O.closure = O.Closed);
  let full0 = closures "oct.close.full" in
  let incr0 = closures "oct.close.incr" in
  let j = O.join a b in
  Alcotest.(check int) "join: no full closure" full0
    (closures "oct.close.full");
  Alcotest.(check int) "join: no incremental closure" incr0
    (closures "oct.close.incr");
  Alcotest.(check bool) "join of closed is closed" true
    (j.O.closure = O.Closed);
  O.close_incremental j;
  Alcotest.(check int) "re-closing the join is free" full0
    (closures "oct.close.full");
  Alcotest.(check int) "re-closing the join is free (incr)" incr0
    (closures "oct.close.incr")

(* Widening results must stay unclosed (the classical termination
   condition), and the next closure request falls back to the full
   pass. *)
let test_widen_unclosed () =
  let x = mkvar "ux" and y = mkvar "uy" in
  let a = O.top [| x; y |] and b = O.top [| x; y |] in
  O.set_bounds a x (0.0, 10.0);
  O.close a;
  O.set_bounds b x (0.0, 12.0);
  O.close b;
  let w = O.widen ~thresholds:D.Thresholds.default a b in
  Alcotest.(check bool) "widen result unclosed" true
    (w.O.closure = O.Unclosed);
  let full0 = closures "oct.close.full" in
  O.close_incremental w;
  Alcotest.(check int) "unclosed falls back to full closure" (full0 + 1)
    (closures "oct.close.full");
  Alcotest.(check bool) "then closed" true (w.O.closure = O.Closed)

(* Allocation regression for the closure kernels: on a 6-variable pack,
   [close] and [close_incremental] must allocate at most a small constant
   number of minor words per call, never one boxed float per relaxation.
   This relies on the workspace's default (release) profile: under
   dune's dev profile every library is built with -opaque, the
   directed-rounding primitives cannot be inlined across modules, and
   each relaxation boxes its operands and result (about 19,000 words per
   [close] on this pack). *)
let test_closure_allocation () =
  let pack = Array.init 6 (fun i -> mkvar (Printf.sprintf "a%d" i)) in
  let o = O.top pack in
  Array.iteri
    (fun i v -> O.set_bounds o v (float_of_int (-i - 1), float_of_int (i + 2)))
    pack;
  for i = 0 to 4 do
    O.add_diff_le o pack.(i) pack.(i + 1) (float_of_int i +. 0.5);
    O.add_sum_le o pack.(i) pack.(5 - i) 7.25
  done;
  O.close o;
  let calls = 50 in
  let per_call name prep f =
    let inputs = Array.init calls (fun _ -> prep (O.copy o)) in
    let w0 = Gc.minor_words () in
    Array.iter f inputs;
    let words = (Gc.minor_words () -. w0) /. float_of_int calls in
    if words > 64.0 then
      Alcotest.failf "%s allocates %.0f minor words per call (limit 64)"
        name words
  in
  let saved = !Metrics.timing in
  Metrics.timing := false;
  Fun.protect
    ~finally:(fun () -> Metrics.timing := saved)
    (fun () ->
      per_call "close" Fun.id O.close;
      let incr0 = closures "oct.close.incr" in
      per_call "close_incremental"
        (fun c ->
          O.add_diff_le c pack.(3) pack.(0) 1.0;
          c)
        O.close_incremental;
      Alcotest.(check int)
        "incremental algorithm used" (incr0 + calls)
        (closures "oct.close.incr"))

let suite =
  [
    Alcotest.test_case "top/bottom" `Quick test_top_bot;
    Alcotest.test_case "set/get bounds" `Quick test_set_get_bounds;
    Alcotest.test_case "difference + closure" `Quick test_diff_constraint_closure;
    Alcotest.test_case "sum constraint" `Quick test_sum_constraint;
    Alcotest.test_case "emptiness" `Quick test_emptiness_detection;
    Alcotest.test_case "forget" `Quick test_forget;
    Alcotest.test_case "join hull" `Quick test_join_hull;
    Alcotest.test_case "meet" `Quick test_meet;
    Alcotest.test_case "relational assignment (paper ex.)" `Quick test_assign_relational;
    Alcotest.test_case "self-update assignment" `Quick test_assign_self_update;
    Alcotest.test_case "widening thresholds" `Quick test_widen_thresholds;
    Alcotest.test_case "widening stable" `Quick test_widen_stable_side;
    Alcotest.test_case "two-variable guard" `Quick test_guard_two_vars;
    Alcotest.test_case "constraint census" `Quick test_count_constraints;
    Alcotest.test_case "incremental closure path" `Quick test_incremental_path;
    Alcotest.test_case "join does zero closure work" `Quick
      test_join_zero_closure_work;
    Alcotest.test_case "widening stays unclosed" `Quick test_widen_unclosed;
  ]
  @ [
      QCheck_alcotest.to_alcotest prop_closure_sound;
      QCheck_alcotest.to_alcotest prop_incremental_equiv;
    ]
  @ [
      Alcotest.test_case "closure kernels do not box" `Quick
        test_closure_allocation;
    ]
