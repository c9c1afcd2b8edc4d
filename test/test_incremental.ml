(* Incremental-subsystem tests: fingerprints are stable under
   whitespace/comment edits and invalidate through the callee closure;
   warm runs (in-memory and on-disk, sequential and parallel) reproduce
   the cold result exactly; corrupt stores degrade to cold, never
   fail. *)

module C = Astree_core
module F = Astree_frontend
module G = Astree_gen
module I = Astree_incremental
module P = Astree_parallel

(* ---------------- fingerprints ---------------- *)

let base_src =
  {|
volatile float input;
float acc;
float aux;

float scale(float x) {
  float y;
  y = x * 0.5f;
  if (y > 10.0f) { y = 10.0f; }
  return y;
}

float step(float x) {
  float s;
  s = scale(x) + 1.0f;
  return s;
}

float other(float x) {
  return x - 2.0f;
}

int main(void) {
  __astree_input_range(input, -100.0, 100.0);
  acc = 0.0f; aux = 0.0f;
  while (1) {
    acc = step(input);
    aux = other(input);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

(* same program, only comments and whitespace moved around *)
let whitespace_src =
  {|
/* a comment that was not there before */
volatile float input;
float acc;
float aux;


float scale(float x) {
  float y;   /* trailing comment */
  y = x * 0.5f;
  if (y > 10.0f) {
      y = 10.0f;
  }
  return y;
}

float step(float x) {
  float s;
  s = scale(x) + 1.0f;
  return s;
}

float other(float x) { return x - 2.0f; }

int main(void) {
  __astree_input_range(input, -100.0, 100.0);
  acc = 0.0f;
  aux = 0.0f;
  while (1) {
    acc = step(input);
    aux = other(input);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

(* one constant changed inside [scale] *)
let edited_src =
  {|
volatile float input;
float acc;
float aux;

float scale(float x) {
  float y;
  y = x * 0.25f;
  if (y > 10.0f) { y = 10.0f; }
  return y;
}

float step(float x) {
  float s;
  s = scale(x) + 1.0f;
  return s;
}

float other(float x) {
  return x - 2.0f;
}

int main(void) {
  __astree_input_range(input, -100.0, 100.0);
  acc = 0.0f; aux = 0.0f;
  while (1) {
    acc = step(input);
    aux = other(input);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let fps_of src =
  let p, _ = C.Analysis.compile [ ("t.c", src) ] in
  I.Fingerprint.make C.Config.default p

let fn_exn fps name =
  match I.Fingerprint.fn fps name with
  | Some h -> h
  | None -> Alcotest.failf "no fingerprint for %s" name

let test_fp_deterministic () =
  let a = fps_of base_src and b = fps_of base_src in
  Alcotest.(check string)
    "program fingerprint reproducible"
    (I.Fingerprint.program a) (I.Fingerprint.program b);
  List.iter
    (fun f ->
      Alcotest.(check string)
        (f ^ " reproducible") (fn_exn a f) (fn_exn b f))
    [ "scale"; "step"; "other"; "main" ]

let test_fp_whitespace_stable () =
  let a = fps_of base_src and b = fps_of whitespace_src in
  List.iter
    (fun f ->
      Alcotest.(check string)
        (f ^ " unchanged by whitespace/comments")
        (fn_exn a f) (fn_exn b f))
    [ "scale"; "step"; "other"; "main" ];
  Alcotest.(check string)
    "program fingerprint unchanged"
    (I.Fingerprint.program a) (I.Fingerprint.program b)

let test_fp_edit_propagates () =
  let a = fps_of base_src and b = fps_of edited_src in
  Alcotest.(check bool)
    "edited callee changed" true
    (fn_exn a "scale" <> fn_exn b "scale");
  Alcotest.(check bool)
    "caller changed through the closure" true
    (fn_exn a "step" <> fn_exn b "step");
  Alcotest.(check bool)
    "transitive caller (main) changed" true
    (fn_exn a "main" <> fn_exn b "main");
  Alcotest.(check string)
    "unrelated function unchanged" (fn_exn a "other") (fn_exn b "other");
  Alcotest.(check bool)
    "program fingerprint changed" true
    (I.Fingerprint.program a <> I.Fingerprint.program b)

let test_fp_config_sensitivity () =
  let p, _ = C.Analysis.compile [ ("t.c", base_src) ] in
  let base = I.Fingerprint.make C.Config.default p in
  let nooct =
    I.Fingerprint.make
      { C.Config.default with C.Config.use_octagons = false }
      p
  in
  Alcotest.(check bool)
    "domain selection is part of every fingerprint" true
    (fn_exn base "scale" <> fn_exn nooct "scale");
  (* jobs and the cache mode itself are result-neutral: excluded, so a
     -j1 warm run may reuse a -j4 store *)
  let j4 =
    I.Fingerprint.make
      {
        C.Config.default with
        C.Config.jobs = 4;
        summary_cache = C.Config.Cache_mem;
      }
      p
  in
  Alcotest.(check string)
    "jobs/cache excluded from the config digest"
    (fn_exn base "scale") (fn_exn j4 "scale")

(* ---------------- warm = cold = off ---------------- *)

let with_cache_driver k =
  I.Summary.register ();
  (* the test programs' helpers are tiny; memoize everything so hit
     counters are exercised *)
  let min0 = !C.Iterator.memo_min_stmts in
  C.Iterator.memo_min_stmts := 0;
  Fun.protect
    ~finally:(fun () ->
      C.Analysis.cache_driver := None;
      C.Iterator.memo_min_stmts := min0)
    (fun () ->
      (* counter assertions (hits > 0, loaded > 0, misses = 0) only hold
         without injected store faults: mask them so the suite stays
         green under a global ASTREE_FAULTS chaos run *)
      Astree_robust.Faultsim.with_suppressed k)

let with_fresh_dir k =
  let dir = Filename.temp_file "astree-cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> k dir)

let with_tmpdir k =
  match Sys.getenv_opt "ASTREE_TEST_CACHE" with
  | Some dir when dir <> "" ->
      (* persistent store shared across whole suite runs (CI runs the
         suite twice against it to exercise the warm path end to end);
         every assertion below holds on a pre-populated store, and
         nothing is cleaned up *)
      k dir
  | _ -> with_fresh_dir k

let cache_stats_exn (r : C.Analysis.result) =
  match r.C.Analysis.r_stats.C.Analysis.s_cache with
  | Some c -> c
  | None -> Alcotest.fail "expected cache statistics"

(* cold store run, warm store run and cache-off run must all agree on
   the one digest that covers alarms, census and final state; the warm
   run must be all hits *)
let check_warm_equals_cold ~name (cfg : C.Config.t) (p : F.Tast.program) =
  with_tmpdir (fun dir ->
      let off = C.Analysis.analyze ~cfg p in
      with_cache_driver (fun () ->
          let ccfg =
            { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
          in
          let cold = C.Analysis.analyze ~cfg:ccfg p in
          let warm = C.Analysis.analyze ~cfg:ccfg p in
          Alcotest.(check string)
            (name ^ ": cold = off")
            (P.Merge.fingerprint off) (P.Merge.fingerprint cold);
          Alcotest.(check string)
            (name ^ ": warm = off")
            (P.Merge.fingerprint off) (P.Merge.fingerprint warm);
          let cs = cache_stats_exn warm in
          Alcotest.(check bool)
            (name ^ ": warm run hits") true
            (cs.C.Analysis.c_hits > 0);
          Alcotest.(check int) (name ^ ": warm run misses") 0
            cs.C.Analysis.c_misses;
          Alcotest.(check bool)
            (name ^ ": store was loaded") true
            (cs.C.Analysis.c_loaded > 0)))

(* tests run from the dune sandbox; walk up to the repository root *)
let read_example name =
  let rec find dir depth =
    let cand =
      Filename.concat dir (Filename.concat "examples/data" name)
    in
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

let mini_fbw_src = lazy (read_example "mini_fbw.c")

let with_mini_fbw k =
  match Lazy.force mini_fbw_src with
  | None -> Alcotest.skip ()
  | Some src -> k src

let test_warm_mini_fbw_seq () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg =
        {
          C.Config.default with
          C.Config.partitioned_functions = [ "select_gain" ];
        }
      in
      check_warm_equals_cold ~name:"mini_fbw -j1" cfg p)

let test_warm_mini_fbw_par () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg =
        {
          C.Config.default with
          C.Config.jobs = 4;
          partitioned_functions = [ "select_gain" ];
        }
      in
      check_warm_equals_cold ~name:"mini_fbw -j4" cfg p)

let member_program () =
  let g =
    G.Generator.generate
      { G.Generator.default with G.Generator.seed = 5; target_lines = 400 }
  in
  let p, _ = C.Analysis.compile [ ("m.c", g.G.Generator.source) ] in
  ( {
      C.Config.default with
      C.Config.partitioned_functions = g.G.Generator.partition_fns;
    },
    p )

let test_warm_member_seq () =
  let cfg, p = member_program () in
  check_warm_equals_cold ~name:"member -j1" cfg p

let test_warm_member_par () =
  let cfg, p = member_program () in
  check_warm_equals_cold ~name:"member -j4" { cfg with C.Config.jobs = 4 } p

let test_mem_cache_equiv () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg =
        {
          C.Config.default with
          C.Config.partitioned_functions = [ "select_gain" ];
        }
      in
      let off = C.Analysis.analyze ~cfg p in
      with_cache_driver (fun () ->
          let r =
            C.Analysis.analyze
              ~cfg:{ cfg with C.Config.summary_cache = C.Config.Cache_mem }
              p
          in
          Alcotest.(check string)
            "in-memory cache result identical"
            (P.Merge.fingerprint off) (P.Merge.fingerprint r);
          (* the main loop revisits the same call contexts while
             iterating: even one run hits *)
          Alcotest.(check bool)
            "intra-run hits" true
            ((cache_stats_exn r).C.Analysis.c_hits > 0)))

(* ---------------- store robustness ---------------- *)

(* the store file of [p] under [cfg]: one file per program fingerprint,
   so a shared ASTREE_TEST_CACHE directory holding other programs'
   stores does not confuse the test *)
let store_file dir cfg p =
  let fps = I.Fingerprint.make cfg p in
  Filename.concat dir (I.Fingerprint.program fps ^ ".summaries")

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_store_corruption () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg = C.Config.default in
      let off = C.Analysis.analyze ~cfg p in
      with_tmpdir (fun dir ->
          with_cache_driver (fun () ->
              let ccfg =
                { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
              in
              let check_degraded name =
                let r = C.Analysis.analyze ~cfg:ccfg p in
                Alcotest.(check string)
                  (name ^ ": result identical")
                  (P.Merge.fingerprint off) (P.Merge.fingerprint r);
                Alcotest.(check int)
                  (name ^ ": nothing loaded")
                  0
                  (cache_stats_exn r).C.Analysis.c_loaded
              in
              (* garbage in place of a store file *)
              ignore (C.Analysis.analyze ~cfg:ccfg p);
              let file = store_file dir ccfg p in
              write_file file "not a summary store at all";
              check_degraded "garbage";
              (* truncated store: valid magic, payload cut short *)
              ignore (C.Analysis.analyze ~cfg:ccfg p);
              let full = In_channel.with_open_bin file In_channel.input_all in
              write_file file (String.sub full 0 (String.length full / 3));
              check_degraded "truncated";
              (* empty file *)
              write_file file "";
              check_degraded "empty")))

(* A warm rerun that adds nothing leaves the store file alone (same
   inode, same mtime); a run that adds entries rewrites it with the
   union of the file and the fresh summaries. *)
let test_store_unchanged_not_rewritten () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      with_fresh_dir (fun dir ->
          with_cache_driver (fun () ->
              let cfg =
                {
                  C.Config.default with
                  C.Config.summary_cache = C.Config.Cache_dir dir;
                }
              in
              let key = I.Fingerprint.program (I.Fingerprint.make cfg p) in
              let file = store_file dir cfg p in
              let keys () =
                List.sort compare (List.map fst (I.Store.load ~dir ~key))
              in
              let stamp () =
                let st = Unix.stat file in
                (st.Unix.st_ino, st.Unix.st_mtime)
              in
              ignore (C.Analysis.analyze ~cfg p);
              let all = keys () in
              if List.length all < 2 then Alcotest.skip ();
              let before = stamp () in
              let warm = cache_stats_exn (C.Analysis.analyze ~cfg p) in
              Alcotest.(check int) "warm run misses" 0
                warm.C.Analysis.c_misses;
              Alcotest.(check bool) "unchanged store not rewritten" true
                (stamp () = before);
              (* keep only half of the entries: the next run recomputes
                 the rest and must write them back *)
              let half =
                List.filteri (fun i _ -> i mod 2 = 0) (I.Store.load ~dir ~key)
              in
              Sys.remove file;
              I.Store.save ~dir ~key half;
              let before = stamp () in
              let partial = cache_stats_exn (C.Analysis.analyze ~cfg p) in
              Alcotest.(check bool) "partial store misses" true
                (partial.C.Analysis.c_misses > 0);
              Alcotest.(check bool) "grown store rewritten" true
                (fst (stamp ()) <> fst before);
              Alcotest.(check bool) "rewritten store holds the union" true
                (keys () = all))))

(* concurrent multi-process writers (daemon pool workers, batch runs
   sharing one cache directory) racing [Store.save] on the same key:
   no interleaving may ever publish a torn file, and merge-on-save must
   converge to the union of both writers' entries rather than letting
   the last rename drop the other writer's work *)
let store_magic = "astree-summary-store v4\n"

(* the store format contract: magic header, then the MD5 of the payload,
   then the payload.  Any complete file satisfies it; a torn or partial
   publish cannot. *)
let check_file_intact file =
  if Sys.file_exists file then
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let hdr = really_input_string ic (String.length store_magic) in
          Alcotest.(check string) "store magic intact" store_magic hdr;
          let digest = really_input_string ic 16 in
          let payload = In_channel.input_all ic in
          Alcotest.(check bool)
            "store digest covers payload" true
            (Digest.string payload = digest))
    with End_of_file -> Alcotest.fail "torn store file published"

let test_store_racing_writers () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg = C.Config.default in
      (* harvest real summaries to race with: one cold cached run *)
      let dir0 = Filename.temp_file "astree-race-seed" "" in
      Sys.remove dir0;
      let key = I.Fingerprint.program (I.Fingerprint.make cfg p) in
      let entries =
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists dir0 then begin
              Array.iter
                (fun f -> Sys.remove (Filename.concat dir0 f))
                (Sys.readdir dir0);
              Sys.rmdir dir0
            end)
          (fun () ->
            with_cache_driver (fun () ->
                ignore
                  (C.Analysis.analyze
                     ~cfg:
                       {
                         cfg with
                         C.Config.summary_cache = C.Config.Cache_dir dir0;
                       }
                     p);
                I.Store.load ~dir:dir0 ~key))
      in
      if List.length entries < 2 then Alcotest.skip ();
      (* split into two overlapping halves, one per writer process *)
      let n = List.length entries in
      let half_a = List.filteri (fun i _ -> i <= n / 2) entries in
      let half_b = List.filteri (fun i _ -> i >= n / 2) entries in
      let dir = Filename.temp_file "astree-race" "" in
      Sys.remove dir;
      let file = Filename.concat dir (key ^ ".summaries") in
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists dir then begin
            Array.iter
              (fun f -> Sys.remove (Filename.concat dir f))
              (Sys.readdir dir);
            Sys.rmdir dir
          end)
        (fun () ->
          let writer half =
            flush stdout;
            flush stderr;
            match Unix.fork () with
            | 0 ->
                let code =
                  try
                    Astree_robust.Faultsim.with_suppressed (fun () ->
                        for _ = 1 to 40 do
                          I.Store.save ~dir ~key half
                        done);
                    0
                  with _ -> 1
                in
                Unix._exit code
            | pid -> pid
          in
          let pid_a = writer half_a in
          let pid_b = writer half_b in
          (* watch the published file while the two writers race *)
          let running = ref [ pid_a; pid_b ] in
          let statuses = ref [] in
          while !running <> [] do
            check_file_intact file;
            running :=
              List.filter
                (fun pid ->
                  match Unix.waitpid [ Unix.WNOHANG ] pid with
                  | 0, _ -> true
                  | _, st ->
                      statuses := st :: !statuses;
                      false)
                !running;
            Unix.sleepf 0.002
          done;
          List.iter
            (fun st ->
              Alcotest.(check bool)
                "writer exited cleanly" true
                (st = Unix.WEXITED 0))
            !statuses;
          check_file_intact file;
          let keys_of es = List.sort compare (List.map fst es) in
          let union =
            List.sort_uniq compare (List.map fst (half_a @ half_b))
          in
          (* whatever the race left behind is a coherent subset of the
             union — never torn, never foreign.  The oracle's own reads
             and saves run fault-suppressed: this test is about the
             writers racing, not about the chaos env corrupting the
             verification pass itself *)
          let after_race =
            Astree_robust.Faultsim.with_suppressed (fun () ->
                keys_of (I.Store.load ~dir ~key))
          in
          Alcotest.(check bool)
            "race result within the union" true
            (List.for_all (fun k -> List.mem k union) after_race);
          Alcotest.(check bool) "race result non-empty" true
            (after_race <> []);
          (* one sequential save of each half must now converge to the
             exact union, whichever writer won the race *)
          let converged =
            Astree_robust.Faultsim.with_suppressed (fun () ->
                I.Store.save ~dir ~key half_a;
                I.Store.save ~dir ~key half_b;
                keys_of (I.Store.load ~dir ~key))
          in
          Alcotest.(check bool)
            "merge-on-save converges to the union" true
            (converged = union)))

(* every example in the repository: warm, cold and cache-less runs must
   agree on the result fingerprint (alarms + census + final state) *)
let test_warm_all_examples () =
  List.iter
    (fun name ->
      match read_example name with
      | None -> ()
      | Some src ->
          let p, _ = C.Analysis.compile [ (name, src) ] in
          let cfg = C.Config.default in
          let off = C.Analysis.analyze ~cfg p in
          with_tmpdir (fun dir ->
              with_cache_driver (fun () ->
                  let ccfg =
                    {
                      cfg with
                      C.Config.summary_cache = C.Config.Cache_dir dir;
                    }
                  in
                  let cold = C.Analysis.analyze ~cfg:ccfg p in
                  let warm = C.Analysis.analyze ~cfg:ccfg p in
                  Alcotest.(check string)
                    (name ^ ": cold = off")
                    (P.Merge.fingerprint off) (P.Merge.fingerprint cold);
                  Alcotest.(check string)
                    (name ^ ": warm = off")
                    (P.Merge.fingerprint off) (P.Merge.fingerprint warm))))
    [ "mini_fbw.c"; "filter_bank.c"; "buggy_demo.c" ]

(* ---------------- versioned blobs (daemon checkpoints) ---------------- *)

let blob_magic = "astree-test-blob v1\n"

let with_blob_file k =
  let file = Filename.temp_file "astree-blob" ".bin" in
  Sys.remove file;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () -> k file)

let test_blob_roundtrip () =
  with_blob_file (fun file ->
      let v = [ ("alpha", [ 1; 2; 3 ]); ("beta", [ 4 ]) ] in
      I.Store.save_blob ~file ~magic:blob_magic v;
      Alcotest.(check (option (list (pair string (list int)))))
        "round-trips" (Some v)
        (I.Store.load_blob ~file ~magic:blob_magic);
      (* a second save atomically replaces the first *)
      I.Store.save_blob ~file ~magic:blob_magic [ ("gamma", [ 9 ]) ];
      Alcotest.(check (option (list (pair string (list int)))))
        "overwrites atomically"
        (Some [ ("gamma", [ 9 ]) ])
        (I.Store.load_blob ~file ~magic:blob_magic))

let test_blob_missing_and_magic () =
  with_blob_file (fun file ->
      Alcotest.(check (option (list int)))
        "missing file reads as None" None
        (I.Store.load_blob ~file ~magic:blob_magic);
      I.Store.save_blob ~file ~magic:blob_magic [ 1; 2 ];
      Alcotest.(check (option (list int)))
        "foreign magic rejected" None
        (I.Store.load_blob ~file ~magic:"astree-test-blob v2\n"))

let test_blob_corrupt () =
  with_blob_file (fun file ->
      I.Store.save_blob ~file ~magic:blob_magic [ 1; 2; 3; 4; 5 ];
      let blob = In_channel.with_open_bin file In_channel.input_all in
      (* bit rot mid-payload *)
      let rotten = Bytes.of_string blob in
      let mid = Bytes.length rotten - 4 in
      Bytes.set rotten mid
        (Char.chr (Char.code (Bytes.get rotten mid) lxor 0xFF));
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_bytes oc rotten);
      Alcotest.(check (option (list int)))
        "corrupt blob reads as None" None
        (I.Store.load_blob ~file ~magic:blob_magic);
      (* a write that stopped halfway *)
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (String.sub blob 0 (String.length blob / 2)));
      Alcotest.(check (option (list int)))
        "truncated blob reads as None" None
        (I.Store.load_blob ~file ~magic:blob_magic))

let test_blob_torn_write () =
  with_blob_file (fun file ->
      (* with the fault armed the writer tears mid-payload on the final
         name — the digest check must reject the file, silently *)
      Astree_robust.Faultsim.install ~seed:5
        [ (Astree_robust.Faultsim.Checkpoint_torn, 1.0) ];
      Fun.protect
        ~finally:(fun () -> Astree_robust.Faultsim.clear ())
        (fun () ->
          I.Store.save_blob ~file ~magic:blob_magic [ 42 ];
          Alcotest.(check bool) "torn file was published" true
            (Sys.file_exists file);
          Alcotest.(check (option (list int)))
            "torn blob reads as None" None
            (I.Store.load_blob ~file ~magic:blob_magic)))

let suite =
  [
    Alcotest.test_case "fingerprint: deterministic" `Quick
      test_fp_deterministic;
    Alcotest.test_case "fingerprint: whitespace/comment stable" `Quick
      test_fp_whitespace_stable;
    Alcotest.test_case "fingerprint: edits reach callers" `Quick
      test_fp_edit_propagates;
    Alcotest.test_case "fingerprint: config sensitivity" `Quick
      test_fp_config_sensitivity;
    Alcotest.test_case "warm = cold: mini_fbw -j1" `Quick
      test_warm_mini_fbw_seq;
    Alcotest.test_case "warm = cold: mini_fbw -j4" `Quick
      test_warm_mini_fbw_par;
    Alcotest.test_case "warm = cold: family member -j1" `Slow
      test_warm_member_seq;
    Alcotest.test_case "warm = cold: family member -j4" `Slow
      test_warm_member_par;
    Alcotest.test_case "in-memory cache equivalence" `Quick
      test_mem_cache_equiv;
    Alcotest.test_case "warm = cold: every example" `Quick
      test_warm_all_examples;
    Alcotest.test_case "store: corrupt files degrade to cold" `Quick
      test_store_corruption;
    Alcotest.test_case "store: unchanged warm run not rewritten" `Quick
      test_store_unchanged_not_rewritten;
    Alcotest.test_case "store: racing writers never tear" `Quick
      test_store_racing_writers;
    Alcotest.test_case "blob: round-trip and atomic replace" `Quick
      test_blob_roundtrip;
    Alcotest.test_case "blob: missing file and foreign magic" `Quick
      test_blob_missing_and_magic;
    Alcotest.test_case "blob: corrupt + truncated read as None" `Quick
      test_blob_corrupt;
    Alcotest.test_case "blob: torn write rejected by digest" `Quick
      test_blob_torn_write;
  ]
