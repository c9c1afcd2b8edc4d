(** The octagon abstract domain (Sect. 6.2.2), after Miné [28, 29, 30].

    An octagon over a pack of variables v_0 .. v_{n-1} represents
    conjunctions of constraints (+-x +-y <= c).  The implementation uses
    the difference-bound-matrix encoding: index 2k stands for +v_k and
    2k+1 for -v_k, and entry m[i][j] bounds V_j - V_i.  The matrix is
    stored as one flat row-major [float array] of length (2n)², so a
    matrix is a single unboxed allocation and a copy is a single blit.

    Strong closure is cubic in time; to keep it off the hot path the
    octagon tracks its own closure state.  Transfer functions mark the
    variables whose constraints they touched and call
    [close_incremental], which repairs closure in O(n²) per dirty
    variable; lattice operations propagate the state so that re-closing
    an already-closed octagon costs nothing.

    Per the paper's design, the domain works in the real field: bounds
    are binary64 with upward rounding, and floating-point program
    expressions only reach it through the sound linear forms of
    Sect. 6.3, which carry their own rounding errors.  This is the
    paper's "generic way of implementing relational abstract domains on
    floating-point numbers". *)

module F = Astree_frontend
module Metrics = Astree_obs.Metrics

(* --profile probes: call counters (always on) and wall-clock timers
   (only when [Metrics.timing] is set) *)
let c_close_full = Metrics.counter "oct.close.full"
let c_close_incr = Metrics.counter "oct.close.incr"
let c_close_skip = Metrics.counter "oct.close.skip"
let c_join = Metrics.counter "oct.join"
let c_widen = Metrics.counter "oct.widen"
let t_close_full = Metrics.timer "oct.close.full.time"
let t_close_incr = Metrics.timer "oct.close.incr.time"
let t_join = Metrics.timer "oct.join.time"
let t_widen = Metrics.timer "oct.widen.time"

type closure_state =
  | Closed
  | Dirty of int
  | Unclosed

type t = {
  pack : F.Tast.var array;    (** the variables of this pack, in order *)
  mutable bot : bool;
  n2 : int;                   (** 2 * number of pack variables *)
  m : float array;            (** flat 2n x 2n row-major bound matrix;
                                  entry (i,j) at [i*n2 + j]; +inf = top *)
  mutable closure : closure_state;
  index : (int, int) Hashtbl.t;
      (** variable id -> pack position; built once per pack at creation
          and shared by every copy (never mutated afterwards) *)
}

let bar i = i lxor 1

(* Bitmask dirty sets cover packs up to 62 variables; larger packs (far
   beyond any packing configuration) degrade to the full closure. *)
let dirty_width = 62

let mark_dirty (o : t) (k : int) : unit =
  if k >= dirty_width then o.closure <- Unclosed
  else
    match o.closure with
    | Unclosed -> ()
    | Closed -> o.closure <- Dirty (1 lsl k)
    | Dirty s -> o.closure <- Dirty (s lor (1 lsl k))

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let top (pack : F.Tast.var array) : t =
  let n = Array.length pack in
  let n2 = 2 * n in
  let m = Array.make (n2 * n2) Float.infinity in
  for i = 0 to n2 - 1 do
    m.((i * n2) + i) <- 0.0
  done;
  let index = Hashtbl.create (max 1 n) in
  Array.iteri (fun k v -> Hashtbl.replace index v.F.Tast.v_id k) pack;
  { pack; bot = false; n2; m; closure = Closed; index }

let bottom (pack : F.Tast.var array) : t = { (top pack) with bot = true }

let is_bot o = o.bot

let copy o = { o with m = Array.copy o.m }

let var_index (o : t) (v : F.Tast.var) : int option =
  Hashtbl.find_opt o.index v.F.Tast.v_id

let mem_var o (v : F.Tast.var) = Hashtbl.mem o.index v.F.Tast.v_id

(* ------------------------------------------------------------------ *)
(* Strong closure                                                      *)
(* ------------------------------------------------------------------ *)

let add_up = Float_utils.add_up

(* One Floyd-Warshall pivot: m[i][j] <- min(m[i][j], m[i][k] + m[k][j]).
   All indices are in range by construction, hence the unsafe accesses. *)
let fw_pivot (m : float array) (n2 : int) (k : int) : unit =
  let krow = k * n2 in
  for i = 0 to n2 - 1 do
    let irow = i * n2 in
    let mik = Array.unsafe_get m (irow + k) in
    if mik < Float.infinity then
      for j = 0 to n2 - 1 do
        let via = add_up mik (Array.unsafe_get m (krow + j)) in
        if via < Array.unsafe_get m (irow + j) then
          Array.unsafe_set m (irow + j) via
      done
  done

(* Octagonal strengthening:
   m[i][j] <- min(m[i][j], (m[i][bar i] + m[bar j][j]) / 2) *)
let strengthen_pass (m : float array) (n2 : int) : unit =
  for i = 0 to n2 - 1 do
    let irow = i * n2 in
    for j = 0 to n2 - 1 do
      let s =
        add_up
          (Array.unsafe_get m (irow + (i lxor 1)))
          (Array.unsafe_get m (((j lxor 1) * n2) + j))
        /. 2.0
      in
      let s = Float_utils.round_up s in
      if s < Array.unsafe_get m (irow + j) then
        Array.unsafe_set m (irow + j) s
    done
  done

(* Emptiness shows up as a negative diagonal entry; a consistent
   diagonal is reset to exactly 0. *)
let check_empty (o : t) : unit =
  let n2 = o.n2 and m = o.m in
  let empty = ref false in
  for i = 0 to n2 - 1 do
    let d = (i * n2) + i in
    if Array.unsafe_get m d < 0.0 then empty := true
    else Array.unsafe_set m d 0.0
  done;
  if !empty then o.bot <- true

(** Floyd–Warshall shortest paths followed by the octagonal
    strengthening step; detects emptiness on the diagonal.  All bound
    arithmetic rounds upward, which keeps the result a sound
    over-approximation. *)
let close (o : t) : unit =
  if not o.bot then begin
    Metrics.incr c_close_full;
    let t0 = Metrics.start () in
    let n2 = o.n2 and m = o.m in
    (* Mine's strong closure: one Floyd-Warshall step through both
       polarities of each variable, followed by the octagonal
       strengthening step after EACH variable (interleaving is what
       makes the result strongly closed, hence idempotent) *)
    let n = n2 / 2 in
    for v = 0 to n - 1 do
      fw_pivot m n2 (2 * v);
      fw_pivot m n2 ((2 * v) + 1);
      strengthen_pass m n2
    done;
    check_empty o;
    Metrics.stop t_close_full t0
  end;
  o.closure <- Closed

(* Incremental strong closure (Mine): precondition is that the
   submatrix obtained by deleting the rows and columns of the dirty
   variables is strongly closed — exactly what the transfer functions
   maintain by marking every variable whose constraints they touch.

   Phase 1 re-tightens the dirty rows and columns: a shortest path from
   or to a dirty pole needs at most one intermediate hop before entering
   the clean region, because the clean region is already transitively
   closed.  Phase 2 is the ordinary Floyd-Warshall step restricted to
   the dirty poles, letting the remaining paths route through them.
   Together they compute the closure in O(|dirty| * n²).  A single final
   strengthening pass then yields strong closure: over the reals,
   strengthening a closed matrix once is strongly closed (Mine), so the
   per-variable interleaving of the full algorithm is not needed here. *)
let close_incremental_set (o : t) (dirty : int) : unit =
  let n2 = o.n2 and m = o.m in
  let n = n2 / 2 in
  for v = 0 to n - 1 do
    if dirty land (1 lsl v) <> 0 then
      for p = 2 * v to (2 * v) + 1 do
        let prow = p * n2 in
        for k = 0 to n2 - 1 do
          if k <> p then begin
            let krow = k * n2 in
            (* row: m[p][j] <- min(m[p][j], m[p][k] + m[k][j]) *)
            let mpk = Array.unsafe_get m (prow + k) in
            if mpk < Float.infinity then
              for j = 0 to n2 - 1 do
                let via = add_up mpk (Array.unsafe_get m (krow + j)) in
                if via < Array.unsafe_get m (prow + j) then
                  Array.unsafe_set m (prow + j) via
              done;
            (* column: m[i][p] <- min(m[i][p], m[i][k] + m[k][p]) *)
            let mkp = Array.unsafe_get m (krow + p) in
            if mkp < Float.infinity then
              for i = 0 to n2 - 1 do
                let via = add_up (Array.unsafe_get m ((i * n2) + k)) mkp in
                if via < Array.unsafe_get m ((i * n2) + p) then
                  Array.unsafe_set m ((i * n2) + p) via
              done
          end
        done
      done
  done;
  for v = 0 to n - 1 do
    if dirty land (1 lsl v) <> 0 then begin
      fw_pivot m n2 (2 * v);
      fw_pivot m n2 ((2 * v) + 1)
    end
  done;
  strengthen_pass m n2;
  check_empty o

let popcount =
  let rec go acc s = if s = 0 then acc else go (acc + (s land 1)) (s lsr 1) in
  fun s -> go 0 s

let force_full_close = ref false

let close_incremental (o : t) : unit =
  if !force_full_close then close o
  else if o.bot then o.closure <- Closed
  else
    match o.closure with
    | Closed -> Metrics.incr c_close_skip
    | Unclosed -> close o
    | Dirty set ->
        let n = Array.length o.pack in
        if 2 * popcount set >= n then close o
        else begin
          Metrics.incr c_close_incr;
          let t0 = Metrics.start () in
          close_incremental_set o set;
          Metrics.stop t_close_incr t0;
          o.closure <- Closed
        end

(* ------------------------------------------------------------------ *)
(* Lattice operations (on closed arguments)                            *)
(* ------------------------------------------------------------------ *)

let join (a : t) (b : t) : t =
  if a.bot then copy b
  else if b.bot then copy a
  else begin
    Metrics.incr c_join;
    let t0 = Metrics.start () in
    let nn = a.n2 * a.n2 in
    let am = a.m and bm = b.m in
    let rm = Array.make nn 0.0 in
    for i = 0 to nn - 1 do
      Array.unsafe_set rm i
        (Float.max (Array.unsafe_get am i) (Array.unsafe_get bm i))
    done;
    (* the pointwise max of two (strongly) closed matrices is again
       (strongly) closed — the closure inequalities are preserved by max
       because bound addition is monotone — so the join of two closed
       octagons needs no re-closure at all *)
    let closure =
      match (a.closure, b.closure) with
      | Closed, Closed -> Closed
      | _ -> Unclosed
    in
    Metrics.stop t_join t0;
    { a with m = rm; bot = false; closure }
  end

let meet (a : t) (b : t) : t =
  if a.bot then copy a
  else if b.bot then copy b
  else begin
    let nn = a.n2 * a.n2 in
    let rm = Array.make nn 0.0 in
    for i = 0 to nn - 1 do
      rm.(i) <- Float.min a.m.(i) b.m.(i)
    done;
    let r = { a with m = rm; bot = false; closure = Unclosed } in
    close r;
    r
  end

(** Widening: an unstable bound jumps straight to +infinity (the
    standard octagon widening of Mine [29]).  Since the transfer
    functions rebuild relational constraints at every assignment, a
    killed bound is re-derived on the next iterate if it is genuinely
    invariant; jumping through intermediate thresholds would instead let
    rounding-noise creep drag whole constraint families up the ladder.
    The [thresholds] parameter is kept for interface uniformity with the
    other domains.  The left argument must not be closed after widening
    is engaged, per the classical octagon widening soundness condition;
    the result is therefore marked [Unclosed] and stays that way until a
    transfer function next needs a closure. *)
let widen ~(thresholds : Thresholds.t) (a : t) (b : t) : t =
  ignore thresholds;
  if a.bot then copy b
  else if b.bot then copy a
  else begin
    Metrics.incr c_widen;
    let t0 = Metrics.start () in
    let nn = a.n2 * a.n2 in
    let rm = Array.copy a.m in
    for i = 0 to nn - 1 do
      if b.m.(i) > a.m.(i) then rm.(i) <- Float.infinity
    done;
    Metrics.stop t_widen t0;
    { a with m = rm; bot = false; closure = Unclosed }
  end

let narrow (a : t) (b : t) : t =
  if a.bot || b.bot then bottom a.pack
  else begin
    let nn = a.n2 * a.n2 in
    let rm = Array.copy a.m in
    for i = 0 to nn - 1 do
      if a.m.(i) = Float.infinity then rm.(i) <- b.m.(i)
    done;
    { a with m = rm; bot = false; closure = Unclosed }
  end

let subset (a : t) (b : t) : bool =
  a.bot
  || (not b.bot)
     && (let nn = a.n2 * a.n2 in
         let ok = ref true in
         for i = 0 to nn - 1 do
           if Array.unsafe_get a.m i > Array.unsafe_get b.m i then ok := false
         done;
         !ok)

let equal (a : t) (b : t) : bool =
  (a.bot && b.bot) || ((not a.bot) && (not b.bot) && a.m = b.m)

(* ------------------------------------------------------------------ *)
(* Interval extraction and injection                                   *)
(* ------------------------------------------------------------------ *)

(** Hull of variable k: [-m[2k][2k+1]/2, m[2k+1][2k]/2]. *)
let get_bounds (o : t) (v : F.Tast.var) : (float * float) option =
  if o.bot then Some (1.0, -1.0)
  else
    match var_index o v with
    | None -> None
    | Some k ->
        let n2 = o.n2 in
        let i = 2 * k in
        let hi = Float_utils.round_up (o.m.((bar i * n2) + i) /. 2.0) in
        let lo = Float_utils.round_down (-.(o.m.((i * n2) + bar i) /. 2.0)) in
        Some (lo, hi)

(** Constrain v to [lo, hi] (meet). *)
let set_bounds (o : t) (v : F.Tast.var) ((lo, hi) : float * float) : unit =
  if not o.bot then
    match var_index o v with
    | None -> ()
    | Some k ->
        let n2 = o.n2 in
        let i = 2 * k in
        let up = (bar i * n2) + i and dn = (i * n2) + bar i in
        if hi < Float.infinity then begin
          let c = Float_utils.mul_up 2.0 hi in
          if c < o.m.(up) then begin
            o.m.(up) <- c;
            mark_dirty o k
          end
        end;
        if lo > Float.neg_infinity then begin
          let c = Float_utils.mul_up (-2.0) lo in
          if c < o.m.(dn) then begin
            o.m.(dn) <- c;
            mark_dirty o k
          end
        end

(** Bounds on the difference x - y, when both are in the pack. *)
let get_diff_bounds (o : t) (x : F.Tast.var) (y : F.Tast.var) :
    (float * float) option =
  if o.bot then None
  else
    match (var_index o x, var_index o y) with
    | Some kx, Some ky when kx <> ky ->
        (* x - y <= m[2ky][2kx]; y - x <= m[2kx][2ky] *)
        let n2 = o.n2 in
        let hi = o.m.((2 * ky * n2) + (2 * kx)) in
        let lo = -.o.m.((2 * kx * n2) + (2 * ky)) in
        if lo > Float.neg_infinity || hi < Float.infinity then Some (lo, hi)
        else None
    | _ -> None

(** Remove every constraint involving v (projection).  A projection of a
    strongly closed matrix is still strongly closed, so forgetting never
    dirties the octagon — it can only remove v from the dirty set. *)
let forget (o : t) (v : F.Tast.var) : unit =
  if not o.bot then
    match var_index o v with
    | None -> ()
    | Some k ->
        let n2 = o.n2 in
        let i0 = 2 * k and i1 = (2 * k) + 1 in
        for j = 0 to n2 - 1 do
          if j <> i0 then begin
            o.m.((i0 * n2) + j) <- Float.infinity;
            o.m.((j * n2) + i0) <- Float.infinity
          end;
          if j <> i1 then begin
            o.m.((i1 * n2) + j) <- Float.infinity;
            o.m.((j * n2) + i1) <- Float.infinity
          end
        done;
        o.m.((i0 * n2) + i0) <- 0.0;
        o.m.((i1 * n2) + i1) <- 0.0;
        if k < dirty_width then begin
          match o.closure with
          | Dirty s ->
              let s' = s land lnot (1 lsl k) in
              o.closure <- (if s' = 0 then Closed else Dirty s')
          | Closed | Unclosed -> ()
        end

(* Add constraint V_j - V_i <= c, maintaining coherence.  Every touched
   entry lies in the rows/columns of variable j/2, so marking that one
   variable dirty is enough for the incremental closure. *)
let add_constraint (o : t) i j c =
  let n2 = o.n2 in
  let ij = (i * n2) + j in
  if c < o.m.(ij) then begin
    o.m.(ij) <- c;
    let ji = (bar j * n2) + bar i in
    if c < o.m.(ji) then o.m.(ji) <- c;
    mark_dirty o (j lsr 1)
  end

(** Constrain x - y <= c  (x, y in the pack). *)
let add_diff_le (o : t) (x : F.Tast.var) (y : F.Tast.var) (c : float) : unit =
  if not o.bot then
    match (var_index o x, var_index o y) with
    | Some kx, Some ky when kx <> ky ->
        (* x - y = V_{2kx} - V_{2ky} <= c *)
        add_constraint o (2 * ky) (2 * kx) c
    | _ -> ()

(** Constrain x + y <= c. *)
let add_sum_le (o : t) (x : F.Tast.var) (y : F.Tast.var) (c : float) : unit =
  if not o.bot then
    match (var_index o x, var_index o y) with
    | Some kx, Some ky when kx <> ky ->
        (* x + y = V_{2kx} - V_{2ky+1} <= c *)
        add_constraint o ((2 * ky) + 1) (2 * kx) c
    | _ -> ()

(** Constrain -x - y <= c. *)
let add_neg_sum_le (o : t) (x : F.Tast.var) (y : F.Tast.var) (c : float) : unit
    =
  if not o.bot then
    match (var_index o x, var_index o y) with
    | Some kx, Some ky when kx <> ky ->
        (* -x - y = V_{2kx+1} - V_{2ky} <= c *)
        add_constraint o (2 * ky) ((2 * kx) + 1) c
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Transfer functions                                                  *)
(* ------------------------------------------------------------------ *)

(* An oracle gives float hulls for variables outside the pack. *)
type oracle = F.Tast.var -> float * float

let eval_form (o : t) (oracle : oracle) (form : Linear_form.t) : float * float =
  let var_hull v =
    match get_bounds o v with
    | Some (lo, hi) -> (
        (* the octagon's own bounds may be tighter than the oracle's *)
        let olo, ohi = oracle v in
        (Float.max lo olo, Float.min hi ohi))
    | None -> oracle v
  in
  Linear_form.eval var_hull form

(** Abstract assignment [x := form].  The transfer function is the
    paper's "smart" one: for every unit-coefficient variable y of the
    form, the rest of the form is evaluated to an interval [c, d] and the
    relational constraints c <= x -+ y <= d are synthesized; other
    variables only contribute their interval.  This is what proves
    L <= X in the paper's rate-limiter example. *)
(* Exact self-update x := x + [c, d]: every constraint involving x
   shifts by the increment, preserving all relational information
   (what keeps loop counters related to their accumulators). *)
let shift_var (o : t) (k : int) (c : float) (d : float) : unit =
  let n2 = o.n2 in
  let i0 = 2 * k and i1 = (2 * k) + 1 in
  let su = Float_utils.sub_up and au = Float_utils.add_up in
  for j = 0 to n2 - 1 do
    if j <> i0 && j <> i1 then begin
      (* V_j - x <= m[i0][j]  becomes  <= m - c *)
      o.m.((i0 * n2) + j) <- su o.m.((i0 * n2) + j) c;
      (* x - V_j <= m[j][i0]  becomes  <= m + d *)
      o.m.((j * n2) + i0) <- au o.m.((j * n2) + i0) d;
      (* V_j + x <= m[i1][j]  becomes  <= m + d *)
      o.m.((i1 * n2) + j) <- au o.m.((i1 * n2) + j) d;
      (* -x - V_j <= m[j][i1]  becomes  <= m - c *)
      o.m.((j * n2) + i1) <- su o.m.((j * n2) + i1) c
    end
  done;
  (* unary bounds: -2x <= m[i0][i1] becomes <= m - 2c; 2x <= m[i1][i0]
     becomes <= m + 2d *)
  o.m.((i0 * n2) + i1) <- su o.m.((i0 * n2) + i1) (Float_utils.mul_down 2.0 c);
  o.m.((i1 * n2) + i0) <- au o.m.((i1 * n2) + i0) (Float_utils.mul_up 2.0 d);
  mark_dirty o k

let assign (o : t) (oracle : oracle) (x : F.Tast.var) (form : Linear_form.t) :
    unit =
  if not o.bot then begin
    match var_index o x with
    | None -> ()
    | Some kx
      when (match Linear_form.as_single_var form with
           | Some (y, k, _) ->
               F.Tast.Var.equal y x
               && k.Linear_form.lo = 1.0 && k.Linear_form.hi = 1.0
           | None -> false) ->
        (* x := x + [c, d] *)
        let c, d =
          match Linear_form.as_single_var form with
          | Some (_, _, cst) -> (cst.Linear_form.lo, cst.Linear_form.hi)
          | None -> (0.0, 0.0)
        in
        shift_var o kx c d;
        close_incremental o
    | Some _ ->
        (* value hull computed before forgetting x (x may occur in form) *)
        let vlo, vhi = eval_form o oracle form in
        (* detect x := x + [c,d] - like self-updates: substitute via a
           temporary approach: compute relational info w.r.t. other vars
           from the pre-state *)
        let unit_terms =
          Linear_form.vars form
          |> List.filter_map (fun y ->
                 if F.Tast.Var.equal y x then None
                 else if not (mem_var o y) then None
                 else
                   let coeffs =
                     Linear_form.(
                       match VarMap.find_opt y form.terms with
                       | Some c -> c
                       | None -> coeff_zero)
                   in
                   if coeffs.Linear_form.lo = 1.0 && coeffs.Linear_form.hi = 1.0
                   then Some (y, `Plus)
                   else if
                     coeffs.Linear_form.lo = -1.0
                     && coeffs.Linear_form.hi = -1.0
                   then Some (y, `Minus)
                   else None)
        in
        (* rest intervals are computed in the pre-state *)
        let rests =
          List.map
            (fun (y, sign) ->
              let ly = Linear_form.of_var y in
              let rest =
                match sign with
                | `Plus -> Linear_form.sub form ly
                | `Minus -> Linear_form.add form ly
              in
              let c, d = eval_form o oracle rest in
              (y, sign, c, d))
            unit_terms
        in
        forget o x;
        set_bounds o x (vlo, vhi);
        List.iter
          (fun (y, sign, c, d) ->
            match sign with
            | `Plus ->
                (* x = y + rest, rest in [c,d]: c <= x - y <= d *)
                if d < Float.infinity then add_diff_le o x y d;
                if c > Float.neg_infinity then add_diff_le o y x (-.c)
            | `Minus ->
                (* x = -y + rest: c <= x + y <= d *)
                if d < Float.infinity then add_sum_le o x y d;
                if c > Float.neg_infinity then add_neg_sum_le o x y (-.c))
          rests;
        close_incremental o
  end

(** Abstract guard [form <= 0].  Octagonal constraints are extracted when
    the form involves one or two pack variables with unit coefficients;
    otherwise only interval information is used. *)
let guard_le_zero (o : t) (oracle : oracle) (form : Linear_form.t) : unit =
  if not o.bot then begin
    let in_pack = List.filter (mem_var o) (Linear_form.vars form) in
    let unit_coeff v =
      match Linear_form.VarMap.find_opt v form.Linear_form.terms with
      | Some c when c.Linear_form.lo = 1.0 && c.Linear_form.hi = 1.0 ->
          Some `Plus
      | Some c when c.Linear_form.lo = -1.0 && c.Linear_form.hi = -1.0 ->
          Some `Minus
      | _ -> None
    in
    (match in_pack with
    | [ x ] -> (
        match unit_coeff x with
        | Some sign ->
            let lx = Linear_form.of_var x in
            let rest =
              match sign with
              | `Plus -> Linear_form.sub form lx
              | `Minus -> Linear_form.add form lx
            in
            let c, d = eval_form o oracle rest in
            ignore c;
            (* +x + rest <= 0  ==>  x <= -rest_lo is wrong; x <= -c with
               c the lower bound of rest *)
            (match sign with
            | `Plus ->
                (* x <= -rest, so x <= -(lower bound of rest) *)
                let _, cur_hi =
                  Option.value (get_bounds o x)
                    ~default:(Float.neg_infinity, Float.infinity)
                in
                let new_hi = Float_utils.round_up (-.c) in
                if new_hi < cur_hi then
                  set_bounds o x (Float.neg_infinity, new_hi)
            | `Minus ->
                (* -x + rest <= 0: x >= rest_lo *)
                let new_lo = Float_utils.round_down c in
                if new_lo > Float.neg_infinity then
                  set_bounds o x (new_lo, Float.infinity));
            ignore d
        | None -> ())
    | [ x; y ] -> (
        match (unit_coeff x, unit_coeff y) with
        | Some sx, Some sy ->
            let form' =
              let lx = Linear_form.of_var x and ly = Linear_form.of_var y in
              let f = form in
              let f =
                match sx with
                | `Plus -> Linear_form.sub f lx
                | `Minus -> Linear_form.add f lx
              in
              match sy with
              | `Plus -> Linear_form.sub f ly
              | `Minus -> Linear_form.add f ly
            in
            let c, _d = eval_form o oracle form' in
            (* sx.x + sy.y + rest <= 0 ==> sx.x + sy.y <= -c *)
            let bound = Float_utils.round_up (-.c) in
            if bound < Float.infinity then begin
              match (sx, sy) with
              | `Plus, `Plus -> add_sum_le o x y bound
              | `Plus, `Minus -> add_diff_le o x y bound
              | `Minus, `Plus -> add_diff_le o y x bound
              | `Minus, `Minus -> add_neg_sum_le o x y bound
            end
        | _ -> ())
    | _ -> ());
    close_incremental o
  end

(* ------------------------------------------------------------------ *)
(* Pretty-printing and accounting                                      *)
(* ------------------------------------------------------------------ *)

(** Number of non-trivial (finite, off-diagonal) constraints, split into
    (sum constraints, difference constraints) — matching the paper's
    invariant census of additive vs subtractive octagonal assertions
    (Sect. 9.4.1). *)
let count_constraints (o : t) : int * int =
  if o.bot then (0, 0)
  else begin
    let n2 = o.n2 in
    let sums = ref 0 and diffs = ref 0 in
    for i = 0 to n2 - 1 do
      for j = 0 to n2 - 1 do
        if i <> j && i / 2 <> j / 2 && o.m.((i * n2) + j) < Float.infinity
        then
          (* V_j - V_i <= c: a difference if both have the same parity
             polarity, a sum otherwise *)
          if i land 1 = j land 1 then incr sums else incr diffs
      done
    done;
    (!sums / 2, !diffs / 2)
    (* each constraint is stored twice by coherence *)
  end

(** True when the octagon carries at least one relational constraint
    (used by the packing-usefulness optimization, Sect. 7.2.2). *)
let has_relational_info (o : t) : bool =
  (not o.bot)
  &&
  let n2 = o.n2 in
  let found = ref false in
  for i = 0 to n2 - 1 do
    for j = 0 to n2 - 1 do
      if i / 2 <> j / 2 && o.m.((i * n2) + j) < Float.infinity then
        found := true
    done
  done;
  !found

let pp ppf (o : t) =
  if o.bot then Fmt.string ppf "_|_"
  else begin
    let n = Array.length o.pack in
    let n2 = o.n2 in
    let first = ref true in
    for k = 0 to n - 1 do
      match get_bounds o o.pack.(k) with
      | Some (lo, hi) when lo > Float.neg_infinity || hi < Float.infinity ->
          if not !first then Fmt.string ppf ", ";
          first := false;
          Fmt.pf ppf "%s in [%g, %g]" o.pack.(k).F.Tast.v_name lo hi
      | _ -> ()
    done;
    for i = 0 to (2 * n) - 1 do
      for j = 0 to (2 * n) - 1 do
        if i / 2 < j / 2 && o.m.((i * n2) + j) < Float.infinity then begin
          if not !first then Fmt.string ppf ", ";
          first := false;
          let vi = o.pack.(i / 2).F.Tast.v_name
          and vj = o.pack.(j / 2).F.Tast.v_name in
          let si = if i land 1 = 0 then "-" else "+" in
          let sj = if j land 1 = 0 then "+" else "-" in
          Fmt.pf ppf "%s%s %s%s <= %g" sj vj si vi o.m.((i * n2) + j)
        end
      done
    done;
    if !first then Fmt.string ppf "T"
  end
