(* In-library probe of the benchmark (perfbench/run.py drives it).

   Subcommands, each printing one JSON object on stdout:

     batch [--trace] JOBS FILE...
                                Scheduler.analyze_batch once per entry of
                                the comma-separated JOBS (e.g. 1,2), on the
                                default backend, in a process that has
                                neither forked nor spawned a domain before
                                (so `auto` resolves as it does for a user).
     layers [--cache DIR] FILE  the one-shot pipeline split at each
                                layer's public entry point, each call
                                wrapped in a span recorded here, with the
                                registry timers on (as --profile does).
     bugs FILE                  analyze, then run the concrete
                                interpreter under seeded inputs: every
                                error it witnesses must be alarmed.

   Spans are recorded by this file, around calls into the layers; the
   program itself is not instrumented for the benchmark. *)

module C = Astree_core
module F = Astree_frontend
module Metrics = Astree_obs.Metrics
module Sched = Astree_parallel.Scheduler
module Merge = Astree_parallel.Merge
module Summary = Astree_incremental.Summary
module Fingerprint = Astree_incremental.Fingerprint
module Service = Astree_server.Service

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- JSON output ---------------------------------------------------- *)

module Json = Astree_server.Json

let i n = Json.Num (float_of_int n)
let print_json v = print_endline (Json.to_string v)

(* ---- spans and allocation ------------------------------------------- *)

(* Words allocated by the calling domain so far: minor + major - promoted,
   the figure OCAMLRUNPARAM=v=0x400 prints as allocated_words. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type span = { sp_name : string; sp_parent : string; sp_s : float; sp_words : float }

let spans : span list ref = ref []
let stack : string list ref = ref []

(* Record a span named [name] around [f]: wall-clock seconds and words
   allocated, with the enclosing span as parent. *)
let span name f =
  let parent = match !stack with p :: _ -> p | [] -> "" in
  stack := name :: !stack;
  let w0 = alloc_words () and t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () and w1 = alloc_words () in
  stack := List.tl !stack;
  spans := { sp_name = name; sp_parent = parent; sp_s = t1 -. t0; sp_words = w1 -. w0 } :: !spans;
  r

let spans_json () =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [ ("name", Json.Str s.sp_name); ("parent", Json.Str s.sp_parent);
             ("s", Json.Num s.sp_s); ("words", Json.Num s.sp_words) ])
       !spans)

let registry_json ?(timers = true) () =
  Json.Obj
    (List.filter_map
       (fun (x : Metrics.export) ->
         let v =
           match x.Metrics.x_kind with
           | `Timer -> if timers then Some (Json.Num x.Metrics.x_time) else None
           | `Counter | `Gauge -> Some (i x.Metrics.x_int)
           | `Hist -> Some (Json.List (List.map i (Array.to_list x.Metrics.x_buckets)))
         in
         Option.map (fun v -> (x.Metrics.x_name, v)) v)
       (Metrics.export (Metrics.snapshot ())))

let gc_json () =
  let s = Gc.quick_stat () in
  Json.Obj
    [ ("minor_collections", i s.Gc.minor_collections);
      ("major_collections", i s.Gc.major_collections) ]

(* The configuration the CLI builds for `astree [--cache DIR] FILE`. *)
let config ?cache sources =
  let o_cache = match cache with Some d -> `Dir d | None -> `Off in
  Service.config_of { Service.default_options with Service.o_cache } ~sources

let result_json label (r : C.Analysis.result) =
  Json.Obj
    [ ("label", Json.Str label); ("fingerprint", Json.Str (Merge.fingerprint r));
      ("alarms", i (C.Analysis.n_alarms r));
      ("degraded", i (if r.C.Analysis.r_stats.C.Analysis.s_degraded = None then 0 else 1));
      ("s_time", Json.Num r.C.Analysis.r_stats.C.Analysis.s_time) ]

(* ---- batch ---------------------------------------------------------- *)

(* One pass of Scheduler.analyze_batch per entry of [jobs_list], in order,
   each with its own registry delta and allocation count (exact at -j 1:
   the calling domain does all the work). *)
let batch ~trace jobs_list files =
  if trace then Metrics.timing := true;
  let jobs =
    List.map
      (fun f ->
        let sources = [ (f, read_file f) ] in
        Sched.batch_job ~label:f ~cfg:(config sources) (Sched.Bs_sources sources))
      files
  in
  let pass n =
    Metrics.reset ();
    let w0 = alloc_words () in
    let t0 = Unix.gettimeofday () in
    let rs = Sched.analyze_batch ~jobs:n jobs in
    let t1 = Unix.gettimeofday () in
    let words = alloc_words () -. w0 in
    let top = (Gc.quick_stat ()).Gc.top_heap_words in
    let registry = registry_json ~timers:false () in
    let results =
      span (Printf.sprintf "merge.fingerprint.j%d" n) (fun () ->
          List.map (fun (l, r) -> result_json l r) rs)
    in
    Json.Obj
      [ ("jobs", i n); ("s", Json.Num (t1 -. t0)); ("words", Json.Num words);
        ("top_heap_words", i top); ("results", Json.List results); ("registry", registry) ]
  in
  let passes = List.map pass jobs_list in
  print_json (Json.Obj [ ("passes", Json.List passes); ("spans", spans_json ()) ])

(* ---- layers --------------------------------------------------------- *)

let layers ?cache file =
  Metrics.timing := true;
  let sources = [ (file, read_file file) ] in
  let cfg = config ?cache sources in
  if C.Config.cache_enabled cfg then Summary.register ();
  let r, cstats =
    span "analysis" (fun () ->
        let p =
          span "frontend" (fun () ->
              let ast = span "frontend.parse" (fun () -> F.Linker.parse_and_link sources) in
              let p =
                span "frontend.typecheck" (fun () ->
                    F.Typecheck.elab_program ~target:F.Ctypes.default_target ~main:"main" ast)
              in
              fst (span "frontend.simplify" (fun () -> F.Simplify.run p)))
        in
        let session = C.Transfer.new_session () in
        (* the cache driver's order: attach (fingerprint, store load),
           then the context, then the iterator, then detach (store save) *)
        let ss =
          if C.Config.cache_enabled cfg then begin
            ignore (span "incremental.fingerprint" (fun () -> Fingerprint.make cfg p));
            Some (span "incremental.attach" (fun () -> Summary.attach session cfg p))
          end
          else None
        in
        let actx = span "packing" (fun () -> C.Transfer.make_actx ~session cfg p) in
        if ss <> None then C.Transfer.prefill_cells actx;
        let r = span "iterator" (fun () -> C.Analysis.analyze_prepared actx p) in
        let cstats =
          Option.map (fun ss -> span "incremental.detach" (fun () -> Summary.detach cfg ss)) ss
        in
        (r, cstats))
  in
  let cache =
    match cstats with
    | None -> Json.Obj []
    | Some c ->
        Json.Obj
          [ ("hits", i c.C.Analysis.c_hits); ("misses", i c.C.Analysis.c_misses);
            ("entries", i c.C.Analysis.c_entries); ("loaded", i c.C.Analysis.c_loaded);
            ("load_s", Json.Num c.C.Analysis.c_load_time);
            ("save_s", Json.Num c.C.Analysis.c_save_time) ]
  in
  print_json
    (Json.Obj
       [ ("result", result_json file r); ("cache", cache); ("spans", spans_json ());
         ("registry", registry_json ()); ("gc", gc_json ()) ])

(* ---- bugs ----------------------------------------------------------- *)

(* Seeded input oracle for volatile reads, uniform over each input's
   declared range (integers rounded). *)
let oracle seed =
  let state = ref seed in
  fun (spec : F.Tast.input_spec) ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    let u = float_of_int !state /. float_of_int 0x3FFFFFFF in
    let v = spec.F.Tast.in_lo +. (u *. (spec.F.Tast.in_hi -. spec.F.Tast.in_lo)) in
    if F.Ctypes.is_integer spec.F.Tast.in_var.F.Tast.v_ty then Float.round v else v

let alarmed (alarms : C.Alarm.t list) ((k, l) : F.Interp.error_kind * F.Loc.t) =
  List.exists
    (fun (a : C.Alarm.t) ->
      F.Loc.equal a.C.Alarm.a_loc l
      &&
      match (k, a.C.Alarm.a_kind) with
      | F.Interp.Int_overflow, C.Alarm.Int_overflow
      | F.Interp.Div_by_zero, (C.Alarm.Div_by_zero | C.Alarm.Mod_by_zero)
      | F.Interp.Out_of_bounds, C.Alarm.Out_of_bounds
      | F.Interp.Float_overflow, C.Alarm.Float_overflow
      | F.Interp.Invalid_op, C.Alarm.Invalid_op
      | F.Interp.Assert_failure, C.Alarm.Assert_failure
      | F.Interp.Shift_range, C.Alarm.Shift_range -> true
      | _ -> false)
    alarms

let bugs file =
  let sources = [ (file, read_file file) ] in
  let p, _ = C.Analysis.compile sources in
  let r = C.Analysis.analyze ~cfg:(config sources) p in
  let errors = ref [] in
  for seed = 1 to 40 do
    match F.Interp.run ~max_ticks:300 ~input:(oracle seed) p with
    | F.Interp.Finished -> ()
    | F.Interp.Error (k, l) -> errors := (k, l) :: !errors
  done;
  let errors = List.sort_uniq compare !errors in
  let missed = List.filter (fun e -> not (alarmed r.C.Analysis.r_alarms e)) errors in
  print_json
    (Json.Obj
       [ ("alarms", i (C.Analysis.n_alarms r)); ("errors", i (List.length errors));
         ("unalarmed", i (List.length missed)) ])

let jobs_list s = List.map int_of_string (String.split_on_char ',' s)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "batch" :: "--trace" :: jobs :: (_ :: _ as files) -> batch ~trace:true (jobs_list jobs) files
  | "batch" :: jobs :: (_ :: _ as files) -> batch ~trace:false (jobs_list jobs) files
  | [ "layers"; "--cache"; dir; file ] -> layers ~cache:dir file
  | [ "layers"; file ] -> layers file
  | [ "bugs"; file ] -> bugs file
  | _ ->
      prerr_endline "usage: pbhelper (batch [--trace] JOBS FILE... | layers [--cache DIR] FILE | bugs FILE)";
      exit 2
