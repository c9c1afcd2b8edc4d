(** Outer interference fixpoint for multi-task programs (Miné's
    rely/guarantee iteration over Astrée's sequential analysis).

    Each round analyzes every task with the sequential analyzer, its
    reads of shared cells widened by the other tasks' interference
    (the rely), while collecting the task's own abstract writes to
    shared cells (the guarantee).  The per-task write maps are joined
    (then widened) across rounds; the fixpoint is reached when one
    more round adds nothing — at which point the last round's runs
    were analyzed under a rely that over-approximates every concurrent
    write, so their union of alarms soundly covers every sequentially
    consistent interleaving with statement-level atomicity.

    Termination: write maps live in a finite product of interval
    lattices (the shared cells); after [widen_delay] plain-join rounds
    every unstable bound is widened to +-oo, so the chain stabilizes.
    A round budget backstops even that: if [max_rounds] is exhausted,
    one final run with the everything-top rely (every shared cell at
    its full type range) is reported — strictly coarser than any
    fixpoint, hence still sound.

    Per-task runs are plain sequential analyses against a fresh
    session, so they compose with the summary cache (the per-task
    config digests the rely: summaries never leak across interference
    environments) and dispatch to the parallel pool as pure-data
    jobs.

    Resource budget: the whole outer iteration runs under
    [Degrade.govern], with the budget polled from every per-task run's
    statement tick and from the pool's dispatch loop.  A timeout or
    memory trip restarts the fixpoint one ladder step coarser (every
    per-task run sheds the same refinements, so the argument for the
    single-task ladder carries over); an interrupt reports the alarms of
    the per-task runs finished so far. *)

module C = Astree_core
module D = Astree_domains
module F = Astree_frontend
module I = Astree_incremental
module P = Astree_parallel
module R = Astree_robust
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace

let max_rounds = ref 8
let widen_delay = ref 2
let rounds_counter = Metrics.counter "conc.rounds"

(* per-task jobs a pool worker failed to answer, recomputed in-process:
   0 on a healthy pool, so a reply that cannot travel shows here *)
let fallbacks_counter = Metrics.counter "conc.fallbacks"

type t = {
  c_result : C.Analysis.result;
  c_tasks : string list;
  c_shared : string list;
  c_rounds : int;
  c_stabilized : bool;
}

(* One per-task unit of work; pure data, marshals to pool workers. *)
type job = { j_task : string; j_rely : Interference.map }

(* The everything-top rely: every cell of every shared variable at its
   full type range.  The sound fallback when the round budget runs
   out, and the base of nothing — it needs no per-task indexing
   because it already dominates any guarantee. *)
let top_rely (cfg : C.Config.t) (p : F.Tast.program)
    (shared : F.Tast.var list) : Interference.map =
  List.concat_map
    (fun (v : F.Tast.var) ->
      List.map
        (fun (c : C.Cell.t) ->
          ( (v.F.Tast.v_id, c.C.Cell.path),
            C.Avalue.top_of_scalar p.F.Tast.p_target c.C.Cell.cty ))
        (C.Cell.cells_of_var ~structs:p.F.Tast.p_structs
           ~expand_array_max:cfg.C.Config.expand_array_max v))
    shared
  |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)

(* Run one task under its rely: a sequential analysis of [p] re-rooted
   at the task, against a fresh session carrying the interference
   context.  The config digests the rely, so summary-cache keys
   self-identify the interference environment; cells are pre-filled in
   program order, so ids (hence states and invariants) align across
   tasks and with the combined context.  [tick] is the resource
   governor's poll, installed as the session's tick hook. *)
let run_job ~tick ~(cfg : C.Config.t) (p : F.Tast.program)
    (shared : F.Tast.var list) (j : job) :
    C.Analysis.result * Interference.map =
  let cfg =
    {
      cfg with
      C.Config.jobs = 1;
      conc_rely_digest = Interference.digest j.j_rely;
    }
  in
  let ses = C.Transfer.new_session () in
  let shared_ids = Hashtbl.create 16 in
  List.iter
    (fun (v : F.Tast.var) -> Hashtbl.replace shared_ids v.F.Tast.v_id ())
    shared;
  let it =
    {
      C.Transfer.itf_rely = Interference.to_table j.j_rely;
      itf_shared = shared_ids;
      itf_writes = Hashtbl.create 32;
    }
  in
  ses.C.Transfer.ses_itf <- Some it;
  let p_t = { p with F.Tast.p_main = j.j_task } in
  let cache =
    if C.Config.cache_enabled cfg then Some (I.Summary.attach ses cfg p_t)
    else None
  in
  let actx = C.Transfer.make_actx ~session:ses cfg p_t in
  C.Transfer.prefill_cells actx;
  (* the hook is a closure: it must be gone before the result (whose
     context carries the session) is marshalled back from a worker *)
  let analyze () =
    ses.C.Transfer.ses_tick_hook <- tick;
    Fun.protect
      ~finally:(fun () -> ses.C.Transfer.ses_tick_hook <- None)
      (fun () -> C.Analysis.analyze_prepared actx p_t)
  in
  let r =
    match cache with
    | None -> analyze ()
    | Some ss -> (
        match analyze () with
        | r ->
            let cs = I.Summary.detach cfg ss in
            {
              r with
              C.Analysis.r_stats =
                { r.C.Analysis.r_stats with C.Analysis.s_cache = Some cs };
            }
        | exception (R.Budget.Tripped _ as e) ->
            (* a trip is not a failed analysis: keep the summaries
               computed so far, as the single-task cache driver does *)
            ignore (I.Summary.detach cfg ss);
            raise e)
  in
  (r, Interference.of_table it.C.Transfer.itf_writes)

(* Worker-side wrapper (the batch-axis discipline): detach any
   inherited trace sink, ship the registry delta and the job's trace
   events back with the reply. *)
let run_job_delta ~tick ~cfg p shared (j : job) :
    (C.Analysis.result * Interference.map)
    * Metrics.snapshot
    * Trace.event list =
  Trace.in_worker ();
  let m0 = Metrics.snapshot () in
  let mark = Trace.capture_begin () in
  let r = run_job ~tick ~cfg p shared j in
  (r, Metrics.diff m0, Trace.capture_end mark)

(* Run one round: every task under its rely, in task order, reporting
   each finished run to [finished].  The pool path absorbs worker
   deltas and events in task order and falls back to in-process
   recomputation for failed jobs, so a crashed worker degrades to the
   sequential result, never to a missing task. *)
let run_round ~tick ~(cfg : C.Config.t) ~pool ~finished (p : F.Tast.program)
    (shared : F.Tast.var list) (jobs : job list) :
    (C.Analysis.result * Interference.map) list =
  let run j =
    let r = run_job ~tick ~cfg p shared j in
    finished (fst r);
    r
  in
  match pool with
  | None -> List.map run jobs
  | Some pool ->
      List.map2
        (fun j -> function
          | Ok (r, delta, events) ->
              Metrics.absorb delta;
              Trace.absorb events;
              finished (fst r);
              r
          | Error _ ->
              Metrics.incr fallbacks_counter;
              run j)
        jobs
        (P.Pool.map pool jobs)

(* Join the per-task contexts' bookkeeping into the combined context:
   loop invariants join point-wise (ids align by construction), useful
   octagon packs union. *)
let absorb_actx (dst : C.Transfer.actx) (src : C.Transfer.actx) : unit =
  Hashtbl.iter
    (fun id st ->
      match Hashtbl.find_opt dst.C.Transfer.invariants id with
      | None -> Hashtbl.replace dst.C.Transfer.invariants id st
      | Some st0 ->
          Hashtbl.replace dst.C.Transfer.invariants id (C.Astate.join st0 st))
    src.C.Transfer.invariants;
  Hashtbl.iter
    (fun id () -> Hashtbl.replace dst.C.Transfer.oct_useful id ())
    src.C.Transfer.oct_useful;
  dst.C.Transfer.join_count <-
    dst.C.Transfer.join_count + src.C.Transfer.join_count

(* One complete outer iteration at configuration [cfg] (shared cells
   already excluded from the packs).  [finished] hears of every per-task
   run that completes, [rounds] counts the completed rounds. *)
let fixpoint ~tick ~finished ~rounds ~t0 (cfg : C.Config.t)
    ~(tasks : string list) (shared : F.Tast.var list) (p : F.Tast.program) :
    C.Analysis.result * int * bool =
  let pool =
    if cfg.C.Config.jobs > 1 && List.compare_length_with tasks 1 > 0 then begin
      (* drain buffered trace events to the sink before forking: workers
         would otherwise inherit (and possibly re-write) them *)
      Trace.flush ();
      Some
        (P.Pool.create
           ~jobs:(min cfg.C.Config.jobs (List.length tasks))
           (run_job_delta ~tick ~cfg p shared))
    end
    else None
  in
  let round_of ~round (writes : Interference.map list) :
      (C.Analysis.result * Interference.map) list =
    Metrics.incr rounds_counter;
    if !Trace.enabled then
      Trace.span_begin "conc.round" ~args:[ ("round", Trace.I round) ];
    let jobs =
      List.mapi
        (fun i task ->
          (* rely of task i: join of every other task's guarantee *)
          let rely =
            List.fold_left Interference.join Interference.empty
              (List.filteri (fun k _ -> k <> i) writes)
          in
          { j_task = task; j_rely = rely })
        tasks
    in
    let rs = run_round ~tick ~cfg ~pool ~finished p shared jobs in
    if !Trace.enabled then
      Trace.span_end "conc.round"
        ~args:
          [
            ( "interference_cells",
              Trace.I
                (List.fold_left
                   (fun n (_, w) -> n + Interference.cardinal w)
                   0 rs) );
          ];
    rounds := round;
    rs
  in
  let finish (results : (C.Analysis.result * Interference.map) list)
      ~(round : int) ~(stabilized : bool) =
    let per_task = List.map fst results in
    let alarms =
      P.Merge.alarms (List.map (fun r -> r.C.Analysis.r_alarms) per_task)
    in
    let final =
      P.Merge.join_states (List.map (fun r -> r.C.Analysis.r_final) per_task)
    in
    (* combined context: same cell numbering as every per-task run
       (pre-fill covers all functions), merged invariants and pack
       usefulness *)
    let actx = C.Transfer.make_actx cfg p in
    C.Transfer.prefill_cells actx;
    List.iter
      (fun r -> absorb_actx actx r.C.Analysis.r_actx)
      per_task;
    let stats =
      let s =
        P.Merge.sum_stats (List.map (fun r -> r.C.Analysis.r_stats) per_task)
      in
      { s with C.Analysis.s_time = Unix.gettimeofday () -. t0 }
    in
    let r =
      {
        C.Analysis.r_alarms = alarms;
        r_final = final;
        r_actx = actx;
        r_stats = stats;
      }
    in
    C.Analysis.set_gauges r;
    (r, round, stabilized)
  in
  (* round 1 under the empty rely, then iterate *)
  let rec iterate ~round (writes : Interference.map list) =
    let results = round_of ~round writes in
    let writes' = List.map snd results in
    if List.for_all2 Interference.subset writes' writes then
      (* nothing new: these runs were analyzed under a rely that
         over-approximates every concurrent write — report them *)
      finish results ~round ~stabilized:true
    else if round >= !max_rounds then begin
      (* budget exhausted: one last, everything-top round *)
      let top = top_rely cfg p shared in
      let results =
        round_of ~round:(round + 1) (List.map (fun _ -> top) tasks)
      in
      finish results ~round:(round + 1) ~stabilized:false
    end
    else
      let writes'' =
        if round <= !widen_delay then List.map2 Interference.join writes writes'
        else List.map2 Interference.widen writes writes'
      in
      iterate ~round:(round + 1) writes''
  in
  Fun.protect
    ~finally:(fun () ->
      match pool with Some pl -> P.Pool.shutdown pl | None -> ())
    (fun () ->
      match shared with
      | [] ->
          (* no interference possible: one round under the empty rely
             is already the fixpoint *)
          let results = round_of ~round:1 (List.map (fun _ -> []) tasks) in
          finish results ~round:1 ~stabilized:true
      | _ -> iterate ~round:1 (List.map (fun _ -> Interference.empty) tasks))

let analyze ?(cfg = C.Config.default) ~(tasks : string list)
    (p : F.Tast.program) : t =
  let t0 = Unix.gettimeofday () in
  let tm = Taskmodel.build p tasks in
  let shared = tm.Taskmodel.tm_shared in
  let shared_names = List.map (fun (v : F.Tast.var) -> v.F.Tast.v_name) shared in
  Metrics.set_gauge "conc.tasks" (List.length tasks);
  Metrics.set_gauge "conc.interference_vars" (List.length shared_names);
  (* shared variables leave the relational packs in every run, the
     combined context included, so states stay comparable *)
  let cfg = { cfg with C.Config.conc_shared = shared_names } in
  (* alarms and statistics of the per-task runs finished in the current
     attempt, newest first: all an interrupt reports, and small enough
     to keep (whole results would pin every run's context) *)
  let done_runs = ref [] and rounds = ref 0 in
  let result (r, rounds, stabilized) =
    {
      c_result = r;
      c_tasks = tasks;
      c_shared = shared_names;
      c_rounds = rounds;
      c_stabilized = stabilized;
    }
  in
  R.Degrade.govern ~cfg p
    ~run:(fun ~tick acfg ->
      done_runs := [];
      rounds := 0;
      result
        (fixpoint ~tick
           ~finished:(fun (r : C.Analysis.result) ->
             done_runs :=
               (r.C.Analysis.r_alarms, r.C.Analysis.r_stats) :: !done_runs)
           ~rounds ~t0 acfg ~tasks shared p))
    ~interrupted:(fun acfg ->
      (* the alarms of every per-task run finished before the
         interrupt; the final state is bottom, as for a single task *)
      let alarms, stats = List.split (List.rev !done_runs) in
      let s = P.Merge.sum_stats stats in
      result
        ( {
            C.Analysis.r_alarms = P.Merge.alarms alarms;
            r_final = C.Astate.bottom;
            r_actx = C.Transfer.make_actx acfg p;
            r_stats =
              {
                s with
                C.Analysis.s_time = Unix.gettimeofday () -. t0;
                s_degraded = Some R.Degrade.interrupted_record;
              };
          },
          !rounds,
          false ))
    ~mark:(fun t dg -> { t with c_result = R.Degrade.mark t.c_result dg })
