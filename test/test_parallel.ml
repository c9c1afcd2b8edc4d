(* Parallel-subsystem tests: the worker pool survives exceptions,
   crashes and timeouts; the deterministic merge reproduces the
   sequential collector's policy; and -j n analyses produce exactly the
   alarms, invariants and final states of -j 1 — single-task programs
   through the public entry point, batches and multi-task programs on
   the pool, including when workers are killed under foot. *)

module C = Astree_core
module Conc = Astree_conc
module Metrics = Astree_obs.Metrics
module F = Astree_frontend
module G = Astree_gen
module P = Astree_parallel
module R = Astree_robust

(* The pool unit tests below assert exact Ok/Error patterns, so they
   mask fault injection ([Faultsim.with_suppressed]): the suite stays
   green under a global ASTREE_FAULTS chaos run, while the equivalence
   tests keep the faults live — those must hold whatever is injected. *)
let no_faults = R.Faultsim.with_suppressed

let with_chaos k =
  Unix.putenv "ASTREE_PAR_CHAOS" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "ASTREE_PAR_CHAOS" "") k

(* ---------------- pool ---------------- *)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "job failed: %s" e

let test_pool_order () =
  no_faults @@ fun () ->
  P.Pool.with_pool ~jobs:3
    (fun x -> x * x)
    (fun pool ->
      let rs = P.Pool.map pool [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
      Alcotest.(check (list int))
        "squares in job order"
        [ 1; 4; 9; 16; 25; 36; 49; 64; 81; 100 ]
        (List.map ok_exn rs))

let test_pool_exception () =
  no_faults @@ fun () ->
  P.Pool.with_pool ~jobs:2
    (fun x -> if x = 3 then failwith "boom" else x + 1)
    (fun pool ->
      let rs = P.Pool.map pool [ 1; 2; 3; 4 ] in
      (match List.nth rs 2 with
      | Error e ->
          Alcotest.(check bool) "carries the message" true
            (String.length e > 0)
      | Ok _ -> Alcotest.fail "expected a failed job");
      Alcotest.(check int) "other jobs succeed" 3
        (List.length (List.filter Result.is_ok rs)))

let test_pool_crash_respawn () =
  no_faults @@ fun () ->
  P.Pool.with_pool ~jobs:2
    (fun x -> if x = 2 then Unix._exit 7 else 10 * x)
    (fun pool ->
      (match P.Pool.map pool [ 1; 2; 3 ] with
      | [ Ok 10; Error _; Ok 30 ] -> ()
      | _ -> Alcotest.fail "expected [Ok 10; Error _; Ok 30]");
      (* the dead worker was respawned: the pool keeps working *)
      Alcotest.(check bool) "usable after a crash" true
        (P.Pool.map pool [ 5; 6 ] = [ Ok 50; Ok 60 ]))

let test_pool_timeout () =
  no_faults @@ fun () ->
  P.Pool.with_pool ~jobs:2
    (fun x ->
      if x = 2 then Unix.sleepf 10.;
      x)
    (fun pool ->
      match P.Pool.map ~timeout:0.4 pool [ 1; 2; 3 ] with
      | [ Ok 1; Error e; Ok 3 ] ->
          Alcotest.(check bool) "reported as timeout" true
            (e = "worker timed out")
      | _ -> Alcotest.fail "expected only job 2 to time out")

(* ---------------- merge ---------------- *)

let loc line = F.Loc.make ~file:"t.c" ~line ~col:1

let al kind line msg : C.Alarm.t =
  { C.Alarm.a_kind = kind; a_loc = loc line; a_msg = msg; a_prov = None }

let test_merge_alarms () =
  let merged =
    P.Merge.alarms
      [
        [ al C.Alarm.Div_by_zero 9 "first"; al C.Alarm.Int_overflow 3 "a" ];
        [ al C.Alarm.Div_by_zero 9 "second"; al C.Alarm.Float_overflow 1 "b" ];
      ]
  in
  Alcotest.(check (list string))
    "sorted by location, first duplicate wins"
    [ "b@1"; "a@3"; "first@9" ]
    (List.map
       (fun (a : C.Alarm.t) ->
         Fmt.str "%s@%d" a.C.Alarm.a_msg a.C.Alarm.a_loc.F.Loc.line)
       merged)

let test_merge_states () =
  Alcotest.(check bool) "empty join is bottom" true
    (C.Astate.is_bot (P.Merge.join_states []));
  Alcotest.(check bool) "bottom is the unit" true
    (C.Astate.is_bot (P.Merge.join_states [ C.Astate.bottom; C.Astate.bottom ]))

(* ---------------- sequential equivalence ---------------- *)

let mini_fbw_src =
  (* tests run from the dune sandbox; walk up to the repository root *)
  lazy
    (let rec find dir depth =
       let cand = Filename.concat dir "examples/data/mini_fbw.c" in
       if Sys.file_exists cand then Some cand
       else if depth = 0 then None
       else find (Filename.dirname dir) (depth - 1)
     in
     match find (Sys.getcwd ()) 6 with
     | None -> None
     | Some path ->
         let ic = open_in_bin path in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         Some s)

let with_mini_fbw k =
  match Lazy.force mini_fbw_src with
  | None -> Alcotest.skip ()
  | Some src -> k src

let compile_member (g : G.Generator.generated) =
  let p, _ = C.Analysis.compile [ ("m.c", g.G.Generator.source) ] in
  let cfg =
    {
      C.Config.default with
      C.Config.partitioned_functions = g.G.Generator.partition_fns;
    }
  in
  (cfg, p)

(* [-j jobs] must reproduce the sequential run exactly: same alarms,
   same census, same final-state assertions (one fingerprint covers
   all three). *)
let check_equiv ?(jobs = 4) ~name (cfg : C.Config.t) (p : F.Tast.program) =
  let seq = C.Analysis.analyze ~cfg:{ cfg with C.Config.jobs = 1 } p in
  let par = C.Analysis.analyze ~cfg:{ cfg with C.Config.jobs = jobs } p in
  Alcotest.(check (list string))
    (name ^ ": same alarms")
    (List.map (Fmt.str "%a" C.Alarm.pp) seq.C.Analysis.r_alarms)
    (List.map (Fmt.str "%a" C.Alarm.pp) par.C.Analysis.r_alarms);
  Alcotest.(check string)
    (name ^ ": same fingerprint")
    (P.Merge.fingerprint seq) (P.Merge.fingerprint par)

let test_equiv_mini_fbw () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg =
        {
          C.Config.default with
          C.Config.partitioned_functions = [ "select_gain" ];
        }
      in
      check_equiv ~name:"mini_fbw" cfg p)

let test_equiv_members () =
  List.iter
    (fun (seed, kloc, bug_ratio) ->
      let g =
        G.Generator.generate
          {
            G.Generator.default with
            G.Generator.seed;
            target_lines = int_of_float (kloc *. 1000.);
            bug_ratio;
          }
      in
      let cfg, p = compile_member g in
      check_equiv ~name:(Fmt.str "member seed=%d kloc=%.1f" seed kloc) cfg p)
    [ (1, 0.3, 0.); (7, 0.4, 0.15); (42, 0.6, 0.) ]

(* A multi-task member: its per-task runs are the single-program path
   that still forks workers and ships deltas. *)
let tasks_member ~seed ~bug_ratio =
  let g =
    G.Generator.generate_tasks
      { G.Generator.default with G.Generator.seed; target_lines = 150; bug_ratio }
      ~tasks:3
  in
  let p, _ = C.Analysis.compile [ ("mt.c", g.G.Generator.source) ] in
  (g.G.Generator.task_fns, p)

let analyze_tasks ?(timeout = 0.) ~jobs ~tasks p =
  (Conc.Fixpoint.analyze
     ~cfg:{ C.Config.default with C.Config.jobs; timeout }
     ~tasks p)
    .Conc.Fixpoint.c_result

(* every worker self-kills on its first job (ASTREE_PAR_CHAOS): the
   crash -> respawn -> in-process-fallback ladder of the per-task pool
   must still yield the sequential result *)
let fallbacks () = Metrics.value (Metrics.counter "conc.fallbacks")

let test_equiv_under_chaos () =
  let tasks, p = tasks_member ~seed:3 ~bug_ratio:0.5 in
  let seq = analyze_tasks ~jobs:1 ~tasks p in
  let f0 = fallbacks () in
  let par = with_chaos (fun () -> analyze_tasks ~jobs:2 ~tasks p) in
  Alcotest.(check bool) "the workers were killed" true (fallbacks () > f0);
  Alcotest.(check string)
    "identical despite killed workers"
    (P.Merge.fingerprint seq) (P.Merge.fingerprint par)

(* ---------------- batch axis ---------------- *)

let test_batch_equiv () =
  let items =
    List.map
      (fun (seed, lines, label) ->
        let g =
          G.Generator.generate
            { G.Generator.default with G.Generator.seed; target_lines = lines }
        in
        let cfg =
          {
            C.Config.default with
            C.Config.partitioned_functions = g.G.Generator.partition_fns;
          }
        in
        P.Scheduler.batch_job ~label ~cfg
          (P.Scheduler.Bs_sources [ (label ^ ".c", g.G.Generator.source) ]))
      [ (11, 200, "m11"); (12, 250, "m12"); (13, 300, "m13") ]
  in
  let seq = List.map (fun bj -> P.Scheduler.run_batch_job bj) items in
  let par = P.Scheduler.analyze_batch ~jobs:3 items in
  Alcotest.(check (list string))
    "labels in job order" [ "m11"; "m12"; "m13" ] (List.map fst par);
  List.iter2
    (fun s (label, r) ->
      Alcotest.(check string)
        (label ^ ": batch result identical")
        (P.Merge.fingerprint s) (P.Merge.fingerprint r))
    seq par

(* ---------------- examples matrix ---------------- *)

let read_example name =
  let rec find dir depth =
    let cand = Filename.concat dir (Filename.concat "examples/data" name) in
    if Sys.file_exists cand then Some cand
    else if depth = 0 then None
    else find (Filename.dirname dir) (depth - 1)
  in
  match find (Sys.getcwd ()) 6 with
  | None -> None
  | Some path ->
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some s

(* On every example program and at every -j, the parallel analysis
   reproduces the sequential fingerprint exactly. *)
let test_examples_matrix () =
  no_faults @@ fun () ->
  List.iter
    (fun (name, parts) ->
      match read_example name with
      | None -> Alcotest.skip ()
      | Some src ->
          let p, _ = C.Analysis.compile [ (name, src) ] in
          let cfg =
            { C.Config.default with C.Config.partitioned_functions = parts }
          in
          let seq =
            P.Merge.fingerprint
              (C.Analysis.analyze ~cfg:{ cfg with C.Config.jobs = 1 } p)
          in
          List.iter
            (fun j ->
              let par =
                P.Merge.fingerprint
                  (C.Analysis.analyze ~cfg:{ cfg with C.Config.jobs = j } p)
              in
              Alcotest.(check string) (Fmt.str "%s -j%d = seq" name j) seq par)
            [ 1; 2; 4 ])
    [
      ("mini_fbw.c", [ "select_gain" ]);
      ("filter_bank.c", []);
      ("buggy_demo.c", []);
    ]

(* A default-configured batch leaves the process able to fork: a pool
   built right after it serves jobs. *)
let test_fork_after_batch () =
  let items =
    List.map
      (fun (seed, label) ->
        let g =
          G.Generator.generate
            { G.Generator.default with G.Generator.seed; target_lines = 100 }
        in
        P.Scheduler.batch_job ~label
          (P.Scheduler.Bs_sources [ (label ^ ".c", g.G.Generator.source) ]))
      [ (41, "p"); (42, "q") ]
  in
  let par = no_faults (fun () -> P.Scheduler.analyze_batch ~jobs:2 items) in
  Alcotest.(check (list string)) "batch labels" [ "p"; "q" ] (List.map fst par);
  let rs =
    no_faults (fun () ->
        P.Pool.with_pool ~jobs:2 (fun x -> x * 2) (fun pool ->
            P.Pool.map pool [ 1; 2; 3 ]))
  in
  Alcotest.(check (list int)) "pool forked after the batch" [ 2; 4; 6 ]
    (List.map (function Ok v -> v | Error e -> Alcotest.fail e) rs)

let test_batch_chaos_fallback () =
  let items =
    List.map
      (fun (seed, label) ->
        let g =
          G.Generator.generate
            { G.Generator.default with G.Generator.seed; target_lines = 150 }
        in
        P.Scheduler.batch_job ~label
          (P.Scheduler.Bs_sources [ (label ^ ".c", g.G.Generator.source) ]))
      [ (21, "a"); (22, "b") ]
  in
  let seq = List.map (fun bj -> P.Scheduler.run_batch_job bj) items in
  let par = with_chaos (fun () -> P.Scheduler.analyze_batch ~jobs:2 items) in
  List.iter2
    (fun s (label, r) ->
      Alcotest.(check string)
        (label ^ ": identical despite chaos")
        (P.Merge.fingerprint s) (P.Merge.fingerprint r))
    seq par

(* On a healthy pool every per-task job comes back from its worker:
   a reply that cannot be marshalled (a closure left in the result's
   session) would silently cost a sequential recomputation.  The
   generous budget puts the runs under the governor's tick hook, as the
   CLI's signal handlers always do. *)
let test_tasks_workers_answer () =
  no_faults @@ fun () ->
  let tasks, p = tasks_member ~seed:8 ~bug_ratio:0.5 in
  let seq = analyze_tasks ~jobs:1 ~tasks p in
  let f0 = fallbacks () in
  let par = analyze_tasks ~timeout:3600. ~jobs:3 ~tasks p in
  Alcotest.(check int) "no job fell back in-process" f0 (fallbacks ());
  Alcotest.(check string)
    "same result as -j1" (P.Merge.fingerprint seq) (P.Merge.fingerprint par)

let suite =
  [
    Alcotest.test_case "pool: ordered map" `Quick test_pool_order;
    Alcotest.test_case "pool: exception -> Error" `Quick test_pool_exception;
    Alcotest.test_case "pool: crash + respawn" `Quick test_pool_crash_respawn;
    Alcotest.test_case "pool: timeout" `Quick test_pool_timeout;
    Alcotest.test_case "merge: alarm dedup + sort" `Quick test_merge_alarms;
    Alcotest.test_case "merge: state join" `Quick test_merge_states;
    Alcotest.test_case "equiv: mini_fbw -j4" `Quick test_equiv_mini_fbw;
    Alcotest.test_case "equiv: family members -j4" `Slow test_equiv_members;
    Alcotest.test_case "equiv: killed workers" `Quick test_equiv_under_chaos;
    Alcotest.test_case "batch: -j3 equivalence" `Slow test_batch_equiv;
    Alcotest.test_case "batch: chaos fallback" `Quick test_batch_chaos_fallback;
    Alcotest.test_case "batch: pool forks after a batch" `Quick
      test_fork_after_batch;
    Alcotest.test_case "equiv: examples -j1/2/4" `Slow test_examples_matrix;
    Alcotest.test_case "equiv: multi-task workers answer every job" `Quick
      test_tasks_workers_answer;
  ]
