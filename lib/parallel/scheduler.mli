(** Parallel scheduler: whole-program batch jobs served by the fork
    pool, with deterministic merge and a retry-once-then-sequential
    fault policy.  Single-task programs are analyzed sequentially at
    any [-j]. *)

module C = Astree_core
module F = Astree_frontend

(** Worker count matching the machine's available cores. *)
val default_jobs : unit -> int

(** Per-job wall-clock budget (seconds) before a worker is presumed
    hung and its job retried. *)
val batch_job_timeout : float ref

type batch_source =
  | Bs_program of F.Tast.program  (** already compiled *)
  | Bs_sources of (string * string) list  (** (filename, contents) pairs *)

type batch_job = {
  bj_label : string;
  bj_main : string;
  bj_cfg : C.Config.t;
  bj_source : batch_source;
}

val batch_job :
  ?label:string -> ?main:string -> ?cfg:C.Config.t -> batch_source -> batch_job

(** Run one batch job sequentially in-process. *)
val run_batch_job : batch_job -> C.Analysis.result

(** [longest_first pmap jobs] hands [jobs] to [pmap] sorted by
    decreasing estimated cost — total source bytes, or the statement
    count of an already-compiled program; a stable sort — and returns
    the results in [jobs] order. *)
val longest_first : (batch_job list -> 'r list) -> batch_job list -> 'r list

(** Run whole-program analyses on a worker pool, dispatched longest
    first; returns (label, result) pairs in job order.  Failed jobs are
    retried once, then recomputed in-process. *)
val analyze_batch :
  ?jobs:int -> batch_job list -> (string * C.Analysis.result) list
