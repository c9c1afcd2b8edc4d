(** The parallel scheduler: whole-program batch jobs served by the fork
    pool, with deterministic merge and a retry-once-then-sequential
    fault policy.

    {b Batch.}  Whole-program analyses (a family sweep, a
    parameter-refinement ladder) are embarrassingly parallel: each
    worker runs one full analysis and ships the result back.  The
    multi-task interference fixpoint ([Astree_conc]) runs its per-task
    analyses on the same pool.  A single-task program is analyzed
    sequentially at any [-j]: its conditional branches and
    trace-partition disjuncts are too small to pay for a worker round
    trip (DESIGN.md §7).

    {b One pool.}  Batches run on the fork {!Pool}: workers inherit the
    caller's heap by copy-on-write and exchange marshalled jobs and
    replies over pipes.  Fault injection and the resource budget live in
    process-global state that the workers inherit, and a hung or crashed
    worker can be killed and respawned.  Each worker ships its registry
    delta with its reply; the parent absorbs the deltas in job order, so
    reports merge deterministically.  An OCaml 5 domains pool once
    served the same jobs by reference; it lost to fork on every measured
    batch and, once a domain had been spawned, left the process unable
    to fork, so it was removed (DESIGN.md §14).

    {b Fault policy.}  A failed job (crashed or timed-out worker) is
    retried once; if that also fails, the job is recomputed in-process
    — [-j n] can lose speed, never soundness or results. *)

module C = Astree_core
module F = Astree_frontend
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace

(** Default worker count: the machine's available cores. *)
let default_jobs () = max 1 (Domain.recommended_domain_count ())

(** Per-job wall-clock budget (seconds) before a worker is presumed
    hung, killed and its job retried. *)
let batch_job_timeout = ref 3600.

(** Map with the retry-once policy: every [Error] slot of the first
    round is resubmitted once; persistent failures come back as [None]
    and the caller recomputes in-process. *)
let map_retry (pmap : 'a list -> ('b, string) result list) (jobs : 'a list) :
    'b option list =
  let first = pmap jobs in
  let failed =
    List.map2 (fun j r -> (j, r)) jobs first
    |> List.mapi (fun i (j, r) -> (i, j, r))
    |> List.filter_map (fun (i, j, r) ->
           match r with Error _ -> Some (i, j) | Ok _ -> None)
  in
  if failed = [] then
    List.map (function Ok v -> Some v | Error _ -> None) first
  else begin
    let retry = pmap (List.map snd failed) in
    let patched = Hashtbl.create 8 in
    List.iter2 (fun (i, _) r -> Hashtbl.replace patched i r) failed retry;
    List.mapi
      (fun i r ->
        let r =
          match Hashtbl.find_opt patched i with Some r' -> r' | None -> r
        in
        match r with Ok v -> Some v | Error _ -> None)
      first
  end

type batch_source =
  | Bs_program of F.Tast.program  (** already compiled *)
  | Bs_sources of (string * string) list  (** (filename, contents) pairs *)

type batch_job = {
  bj_label : string;
  bj_main : string;
  bj_cfg : C.Config.t;
  bj_source : batch_source;
}

let batch_job ?(label = "") ?(main = "main") ?(cfg = C.Config.default)
    (source : batch_source) : batch_job =
  { bj_label = label; bj_main = main; bj_cfg = cfg; bj_source = source }

(** Run one batch job sequentially (workers and the fallback path). *)
let run_batch_job (bj : batch_job) : C.Analysis.result =
  let cfg = { bj.bj_cfg with C.Config.jobs = 1 } in
  match bj.bj_source with
  | Bs_program p -> C.Analysis.analyze ~cfg p
  | Bs_sources srcs -> C.Analysis.analyze_sources ~cfg ~main:bj.bj_main srcs

(* Worker-side wrapper for batch jobs: detach the inherited trace
   sink and ship the job's registry delta back with the result, so
   profile probes and iterator counters cover batch runs too. *)
let run_batch_job_delta (bj : batch_job) :
    C.Analysis.result * Metrics.snapshot =
  Trace.in_worker ();
  let m0 = Metrics.snapshot () in
  let r = run_batch_job bj in
  (r, Metrics.diff m0)

(** Estimated cost of a batch job: its source bytes, or the program's
    statement count when it is already compiled.  Only the dispatch
    order depends on it. *)
let job_cost (bj : batch_job) : int =
  match bj.bj_source with
  | Bs_program p -> F.Tast.program_size p
  | Bs_sources srcs ->
      List.fold_left (fun n (_, src) -> n + String.length src) 0 srcs

(** Hand [jobs] to [pmap] in decreasing estimated cost (a stable sort,
    so equal costs keep their order) and return the results in [jobs]
    order.  A pool serves jobs in the order it is given them, so the
    longest job starts first instead of setting the batch's tail. *)
let longest_first (pmap : batch_job list -> 'r list) (jobs : batch_job list) :
    'r list =
  let sorted =
    List.mapi (fun i bj -> (job_cost bj, i, bj)) jobs
    |> List.stable_sort (fun (c1, _, _) (c2, _, _) -> Int.compare c2 c1)
  in
  let out = Array.make (List.length jobs) None in
  List.iter2
    (fun (_, i, _) r -> out.(i) <- Some r)
    sorted
    (pmap (List.map (fun (_, _, bj) -> bj) sorted));
  Array.to_list out |> List.map Option.get

(** Run a batch of whole-program analyses on [jobs] workers, results in
    job order.  Jobs are dispatched longest first; failed jobs are
    retried once, then recomputed in-process.  Worker registry deltas
    (metrics, profile probes) are absorbed in item order, so batch
    reports merge deterministically whatever the interleaving. *)
let analyze_batch ?(jobs = default_jobs ()) (items : batch_job list) :
    (string * C.Analysis.result) list =
  if jobs <= 1 || List.compare_length_with items 2 < 0 then
    List.map (fun bj -> (bj.bj_label, run_batch_job bj)) items
  else begin
    Trace.flush ();
    Pool.with_pool ~jobs:(min jobs (List.length items)) run_batch_job_delta
      (fun pool ->
        let rs =
          map_retry
            (longest_first (Pool.map ~timeout:!batch_job_timeout pool))
            items
        in
        List.map2
          (fun bj r ->
            ( bj.bj_label,
              match r with
              | Some (r, delta) ->
                  Metrics.absorb delta;
                  r
              | None -> run_batch_job bj ))
          items rs)
  end
