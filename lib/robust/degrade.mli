(** Sound graceful degradation: when a resource budget trips, restart
    the analysis under a coarser configuration from a three-step ladder
    instead of aborting.  Every step only removes refinements, so a
    degraded run's alarms are a superset of the full run's. *)

(** Widest relational pack kept by ladder step 1 (default 3: ellipsoid
    packs survive, wider octagon/decision-tree packs are shed). *)
val shed_threshold : int ref

(** The configuration at ladder step [level] (1..3, cumulative):
    1 = shed packs wider than {!shed_threshold}, 2 = + no trace
    partitioning, 3 = + immediate threshold-less widening.  Exposed for
    the soundness property test. *)
val config_at : level:int -> Astree_core.Config.t -> Astree_core.Config.t

val max_level : int

(** Record a degradation in a result's statistics. *)
val mark :
  Astree_core.Analysis.result ->
  Astree_core.Analysis.degraded ->
  Astree_core.Analysis.result

(** The degradation record of an interrupted run (reason
    ["interrupted"], level 0, nothing shed). *)
val interrupted_record : Astree_core.Analysis.degraded

(** The budget ladder around any analysis of [p]: [run ~tick acfg]
    analyzes at ladder configuration [acfg], calling [tick] (when given)
    from the statement tick of every analysis it performs, so a trip
    raises out of it; [interrupted acfg] assembles the partial result of
    an interrupted attempt; [mark r dg] records a degradation.  A trip
    restarts [run] one ladder step coarser; the last step, if it trips
    too, is rerun unbudgeted.  Without a budget and without signal
    handlers this is exactly [run ~tick:None cfg].  The multi-task
    fixpoint governs its whole outer iteration through this. *)
val govern :
  cfg:Astree_core.Config.t ->
  Astree_frontend.Tast.program ->
  run:(tick:(unit -> unit) option -> Astree_core.Config.t -> 'r) ->
  interrupted:(Astree_core.Config.t -> 'r) ->
  mark:('r -> Astree_core.Analysis.degraded -> 'r) ->
  'r

(** Analyze under the budget of [cfg] ([timeout] / [max_mem_mb]);
    identical to [Analysis.analyze] when no budget is armed and no
    signal handlers are installed.  [stats.s_degraded] is [Some _] iff
    precision was shed or the run was interrupted (in which case the
    result is partial: alarms found so far, bottom final state).
    [?session] threads an existing analysis session through the ladder
    (every attempt, including degraded retries, runs under it); a fresh
    one is created otherwise. *)
val analyze :
  ?session:Astree_core.Transfer.session ->
  ?cfg:Astree_core.Config.t ->
  Astree_frontend.Tast.program ->
  Astree_core.Analysis.result
