#!/usr/bin/env python3
"""The analyzer's benchmark: one-shot, family batch, cached rerun and daemon.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch --seed 42 --seconds 22 --trace 0

It builds the analyzer from source with dune, generates its inputs from
--seed with the repository's own generator (the analyzer only ever sees
the generated C), sets up, measures for --seconds, checks every verdict
against its reference, prints a table of every metric with its unit and,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  perfbench/README.md explains each workload and metric.
"""

import argparse
import concurrent.futures
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

OUT = ".perfbench_out"  # relative: keeps socket paths short
EXE = os.path.join("_build", "default")
ASTREE = os.path.join(EXE, "bin", "astree.exe")
ASTREED = os.path.join(EXE, "bin", "astreed.exe")
GENFAMILY = os.path.join(EXE, "bin", "genfamily.exe")
HELPER = os.path.join(EXE, "perfbench", "helper", "pbhelper.exe")
GC_ENV = dict(os.environ, OCAMLRUNPARAM="v=0x400")  # GC totals on exit
SETUP_REPEATS = 3
CLAMP = re.compile(r"if \(k > (\d+)\) \{ k = (\d+); \}")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build and processes ------------------------------------------------


def build():
    for need in ("dune-project", "bin/astree.ml", "lib", "perfbench/helper/dune"):
        if not os.path.exists(need):
            raise BenchError(f"not a checkout of the analyzer: {need} is missing")
    if shutil.which("dune") is None:
        raise BenchError("dune is not installed")
    targets = [ASTREE, ASTREED, GENFAMILY, HELPER]
    # no shared dune cache: the build reads and writes only the checkout
    p = subprocess.run(["dune", "build", "--root", ".", *[t[len(EXE) + 1:] for t in targets]],
                       capture_output=True, text=True, env=dict(os.environ, DUNE_CACHE="disabled"))
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stderr[-4000:])


def run(args, env=None, cwd=None, timeout=170):
    t0 = time.perf_counter()
    p = subprocess.run(args, capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout)
    return time.perf_counter() - t0, p


def astree(path, *opts, env=None):
    """`astree OPTS FILE`, run from the file's directory: the command line,
    and with it the count of allocated words, is then the same in every
    run."""
    return run([os.path.abspath(ASTREE), *opts, os.path.basename(path)], env=env,
               cwd=os.path.dirname(path))


def gc_totals(stderr):
    """allocated_words and top_heap_words from OCAMLRUNPARAM=v=0x400; None
    when the process died before printing them."""
    a = re.search(r"^allocated_words: (\d+)$", stderr, re.M)
    t = re.search(r"^top_heap_words: (\d+)$", stderr, re.M)
    return (int(a.group(1)), int(t.group(1))) if a and t else None


def helper(*args, cwd=None):
    dt, p = run([os.path.abspath(HELPER), *args], cwd=cwd)
    if p.returncode != 0:
        raise BenchError(f"pbhelper {args[0]} failed: {p.stderr[-2000:]}")
    return dt, json.loads(p.stdout)


def genfamily(path, kloc, seed, fuse=1, bugs=0.0):
    _, p = run([GENFAMILY, "--kloc", str(kloc), "--seed", str(seed), "--fuse", str(fuse),
                "--bugs", str(bugs), "-o", path])
    if p.returncode != 0:
        raise BenchError("genfamily failed: " + p.stderr)
    return path


def kloc_of(path):
    with open(path) as f:
        return sum(1 for _ in f) / 1000.0


def edits(src, rng):
    """Every one-statement edit of [src] that keeps it safe by construction:
    an index clamp `if (k > N) { k = N; }` tightened to N - d.  Shuffled."""
    out = []
    for m in CLAMP.finditer(src):
        n = int(m.group(1))
        for d in range(1, min(n, 3) + 1):
            out.append((m.start(), m.end(), n - d))
    rng.shuffle(out)
    return out


def apply_edit(src, edit):
    start, end, n = edit
    return src[:start] + f"if (k > {n}) {{ k = {n}; }}" + src[end:]


# ---- verdicts -----------------------------------------------------------


def report_of(p):
    """Decode an `astree --format json` report; None when there is none
    (a crash), which fails the operation."""
    try:
        return json.loads(p.stdout)
    except ValueError:
        return None


def verdict(rep):
    if rep is None:
        return {"fingerprint": None, "alarms": 0, "degraded": False}
    return {"fingerprint": rep["fingerprint"], "alarms": len(rep["alarms"]),
            "degraded": "degraded" in rep}


def reference(path):
    """The input's reference verdict, on the cache-off -j 1 CLI path."""
    _, p = astree(path, "--format", "json")
    v = verdict(report_of(p))
    if v["fingerprint"] is None or v["degraded"]:
        raise BenchError(f"no clean reference verdict for {path}: {p.stderr[-1000:]}")
    return v


def references(paths):
    """Reference verdicts of many inputs, two analyses at a time (outside
    any timed part)."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(reference, paths))


class Checker:
    """Counts attempted and failed operations, false alarms and
    nondeterminism.  Every input here is safe by construction, so its
    known answer is 0 alarms."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.false_alarms = 0
        self.safe_verdicts = 0
        self.alarmed_verdicts = 0
        self.nondet = []
        self.notes = []
        self.lock = threading.Lock()

    def check(self, what, got, ref, ok=True):
        with self.lock:
            self.attempted += 1
            self.safe_verdicts += 1
            self.false_alarms += got["alarms"]
            if got["alarms"]:
                self.alarmed_verdicts += 1
            bad = []
            if not ok:
                bad.append("operation failed")
            if got["degraded"]:
                bad.append("degraded")
            if got["alarms"]:
                bad.append(f"{got['alarms']} false alarm(s)")
            if ref is not None and got["fingerprint"] != ref["fingerprint"]:
                bad.append("fingerprint differs from the reference")
            if bad:
                self.failed += 1
                self.notes.append(f"{what}: " + ", ".join(bad))
            return not bad

    def fail(self, what, why):
        with self.lock:
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"{what}: {why}")

    def exact(self, what, values):
        """[values] were computed from identical inputs and state at -j 1:
        they must be equal, bit for bit."""
        if len(set(values)) > 1:
            self.nondet.append(f"{what}: {sorted(set(values))}")


def bugs_check(ck, w, seed):
    """Independent reference: on a member with injected defects, every
    error the concrete interpreter witnesses must be alarmed."""
    path = genfamily(os.path.join(w, "bugs.c"), 1, seed, bugs=0.3)
    _, r = helper("bugs", path)
    if r["unalarmed"]:
        ck.notes.append(f"bugs member: {r['unalarmed']} of {r['errors']} concrete errors unalarmed")
        return False
    return True


def layers(ck, ref, path, cache=False):
    """The traced layer breakdown of one analysis, run like `astree` from
    the file's directory (with the same `cache` store); its verdict is
    checked like any other."""
    _, out = helper("layers", *(["--cache", "cache"] if cache else []), os.path.basename(path),
                    cwd=os.path.dirname(path))
    res = out["result"]
    ck.check("layers " + os.path.basename(res["label"]),
             {"fingerprint": res["fingerprint"], "alarms": res["alarms"],
              "degraded": bool(res["degraded"])}, ref)
    return out


# ---- statistics ---------------------------------------------------------


def tail(values):
    """The highest percentile with at least ten samples beyond it: the
    (n-10)-th smallest of n samples.  With fewer than eleven samples no
    percentile has ten beyond it; the smallest sample is reported then, so
    that the value moves steadily with n.  Returns the value, the number of
    samples beyond it and n."""
    s = sorted(values)
    i = max(0, len(s) - 11)
    return s[i], len(s) - 1 - i, len(s)


def median(values):
    return statistics.median(values) if values else 0.0


def timed_setup(ck, setup):
    """Set up SETUP_REPEATS times, each in a fresh directory; returns the
    last set-up's state and the median set-up time.  The reference
    verdicts of the repetitions must agree."""
    times, states = [], []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        states.append(setup(k))
        times.append(time.perf_counter() - t0)
    refs = [json.dumps(s["refs"], sort_keys=True) for s in states]
    ck.exact("reference verdicts across set-ups", refs)
    for s in states[:-1]:
        s.get("stop", lambda: None)()
    return states[-1], median(times)


def traced_opts(w):
    """The CLI's tracing: a JSONL trace and the registry with timers on."""
    return ["--trace", os.path.abspath(os.path.join(w, "trace.jsonl")),
            "--metrics", os.path.abspath(os.path.join(w, "metrics.json"))]


# ---- workload: oneshot --------------------------------------------------


def wl_oneshot(a, ck, w):
    def setup(k):
        d = os.path.join(w, f"s{k}")
        os.makedirs(d)
        member = genfamily(os.path.join(d, "member.c"), 8, a.seed)
        return {"member": member, "refs": {"member": reference(member)}}

    st, setup_s = timed_setup(ck, setup)
    member, ref = st["member"], st["refs"]["member"]
    kloc = kloc_of(member)
    r = {"setup_s": setup_s, "j1": [], "j2": [], "words": [], "top": [], "traced": [],
         "registries": [], "kloc": 0.0}

    def analyze(jobs, traced):
        dt, p = astree(member, *(traced_opts(w) if traced else []), "--format", "json",
                       "-j", str(jobs), env=GC_ENV)
        ck.check(f"oneshot -j {jobs}", verdict(report_of(p)), ref, p.returncode == 0)
        r["kloc"] += kloc
        return dt, p

    t0 = time.perf_counter()
    while not r["j1"] or time.perf_counter() - t0 < a.seconds:
        dt, p = analyze(1, False)
        r["j1"].append(dt)
        totals = gc_totals(p.stderr)
        if totals:
            r["words"].append(totals[0])
            r["top"].append(totals[1])
        if a.trace:
            dt, p = analyze(1, True)
            r["traced"].append(dt)
            with open(os.path.join(w, "metrics.json")) as f:
                r["registries"].append(json.load(f))
        elif len(r["j1"]) % 3 == 1:
            r["j2"].append(analyze(2, False)[0])
    r["wall"] = time.perf_counter() - t0
    ck.exact("oneshot -j 1 allocated words", r["words"])
    ck.exact("oneshot -j 1 top heap words", r["top"])
    r["exact"] = {"words": r["words"][:1], "top": r["top"][:1], "fingerprint": ref["fingerprint"]}
    if a.trace:
        ck.exact("oneshot -j 1 registry counters",
                 [json.dumps([m["counters"], m["gauges"]], sort_keys=True) for m in r["registries"]])
        r["layers"] = [layers(ck, ref, member)]
    r["bugs_ok"] = bugs_check(ck, w, a.seed)
    return r


# ---- workload: batch ----------------------------------------------------

BATCH_KLOC = [1, 1, 1, 1.5, 1.5, 2]


def wl_batch(a, ck, w):
    def setup(k):
        d = os.path.join(w, f"s{k}")
        os.makedirs(d)
        files = [genfamily(os.path.join(d, f"m{i}.c"), kl, a.seed * 10 + i)
                 for i, kl in enumerate(BATCH_KLOC)]
        return {"files": files, "refs": {os.path.basename(f): reference(f) for f in files}}

    st, setup_s = timed_setup(ck, setup)
    files, refs = st["files"], st["refs"]
    kloc = sum(kloc_of(f) for f in files)
    r = {"setup_s": setup_s, "j1": [], "j2": [], "words": [], "top": [], "traced": [],
         "kloc": 0.0, "registries_j1": [], "members": len(files)}

    def batch(jobs, traced=False):
        """One fresh process running the batch once per entry of [jobs]."""
        _, out = helper("batch", *(["--trace"] if traced else []), jobs,
                        *[os.path.basename(f) for f in files], cwd=os.path.dirname(files[0]))
        passes = {}
        for p in out["passes"]:
            for res in p["results"]:
                got = {"fingerprint": res["fingerprint"], "alarms": res["alarms"],
                       "degraded": bool(res["degraded"])}
                ck.check(f"batch -j {p['jobs']} {res['label']}", got, refs[res["label"]])
            r["kloc"] += kloc
            passes[p["jobs"]] = p
        return passes, out

    t0 = time.perf_counter()
    while not r["j2"] or time.perf_counter() - t0 < a.seconds:
        # the -j 1 pass, before the -j 2 one in the same process, on every
        # third operation: enough for the ratio, and more -j 2 samples
        if len(r["j2"]) % 3 == 0:
            passes, _ = batch("1,2")
            r["j1"].append(passes[1]["s"])
            r["words"].append(passes[1]["words"])
            r["top"].append(passes[1]["top_heap_words"])
            r["registries_j1"].append(json.dumps(passes[1]["registry"], sort_keys=True))
        else:
            passes, _ = batch("2")
        r["j2"].append(passes[2]["s"])
        if a.trace:
            passes, r["traced_out"] = batch("2", traced=True)
            r["traced"].append(passes[2]["s"])
    r["wall"] = time.perf_counter() - t0
    ck.exact("batch -j 1 allocated words", r["words"])
    ck.exact("batch -j 1 top heap words", r["top"])
    ck.exact("batch -j 1 registry counters", r["registries_j1"])
    r["exact"] = {"words": r["words"][:1], "top": r["top"][:1],
                  "fingerprints": sorted(v["fingerprint"] for v in refs.values())}
    if a.trace:
        r["layers"] = [layers(ck, refs[os.path.basename(f)], f) for f in files]
    r["bugs_ok"] = bugs_check(ck, w, a.seed)
    return r


# ---- workload: rerun ----------------------------------------------------


def wl_rerun(a, ck, w):
    def setup(k):
        d = os.path.join(w, f"s{k}")
        os.makedirs(d)
        base = genfamily(os.path.join(d, "base.c"), 4, a.seed, fuse=16)
        ref = reference(base)
        _, p = astree(base, "--cache", "cache", "--format", "json")
        ck.check("rerun cold fill", verdict(report_of(p)), ref, p.returncode == 0)
        return {"base": base, "refs": {"base": ref}}

    st, setup_s = timed_setup(ck, setup)
    base, ref = st["base"], st["refs"]["base"]
    d = os.path.dirname(base)
    cache = os.path.join(d, "cache")
    with open(base) as f:
        src = f.read()
    pending = edits(src, random.Random(a.seed))
    kloc = kloc_of(base)
    r = {"setup_s": setup_s, "j1": [], "j2": [], "unchanged": [], "words": [],
         "top": [], "traced": [], "kloc": 0.0, "edits": [], "registries": []}

    def rerun(path, jobs=1, traced=False):
        dt, p = astree(path, *(traced_opts(w) if traced else []), "--cache", "cache",
                       "--format", "json", "-j", str(jobs), env=GC_ENV)
        rep = report_of(p)
        r["kloc"] += kloc
        return dt, p, rep

    t0 = time.perf_counter()
    while not r["j1"] or time.perf_counter() - t0 < a.seconds:
        # read path: the unchanged program against its warm store
        dt, p, rep = rerun(base)
        ck.check("rerun unchanged", verdict(rep), ref, p.returncode == 0)
        r["j1"].append(dt)
        r["unchanged"].append(dt)
        totals = gc_totals(p.stderr)
        if totals:
            r["words"].append(totals[0])
            r["top"].append(totals[1])
        if a.trace:
            dt, p, rep = rerun(base, traced=True)
            ck.check("rerun unchanged (traced)", verdict(rep), ref, p.returncode == 0)
            r["traced"].append(dt)
            with open(os.path.join(w, "metrics.json")) as f:
                r["registries"].append(json.load(f))
        else:
            dt, p, rep = rerun(base, jobs=2)
            ck.check("rerun unchanged -j 2", verdict(rep), ref, p.returncode == 0)
            r["j2"].append(dt)
        # write path: a fresh one-statement edit, never analyzed before
        if not pending:
            raise BenchError("rerun: the member has no edit sites left")
        path = os.path.join(d, f"edit{len(r['edits'])}.c")
        with open(path, "w") as f:
            f.write(apply_edit(src, pending.pop()))
        dt, p, rep = rerun(path)
        r["edits"].append((path, verdict(rep), p.returncode == 0))
        r["j1"].append(dt)
    r["wall"] = time.perf_counter() - t0
    # edited variants: reference verdicts computed now, outside the timed part
    for (path, got, ok), ref_e in zip(r["edits"], references([e[0] for e in r["edits"]])):
        ck.check("rerun edited", got, ref_e, ok)
    ck.exact("rerun unchanged allocated words", r["words"])
    ck.exact("rerun unchanged top heap words", r["top"])
    if a.trace:
        ck.exact("rerun unchanged registry counters",
                 [json.dumps([m["counters"], m["gauges"]], sort_keys=True)
                  for m in r["registries"]])
    r["exact"] = {"words": r["words"][:1], "top": r["top"][:1], "fingerprint": ref["fingerprint"]}
    if a.trace:
        fresh = os.path.join(d, "fresh.c")
        with open(fresh, "w") as f:
            f.write(apply_edit(src, pending.pop()))
        r["layers"] = [layers(ck, ref, base, cache=True),
                       layers(ck, reference(fresh), fresh, cache=True)]
        r["store_bytes"] = sum(os.path.getsize(os.path.join(cache, f)) for f in os.listdir(cache))
    r["bugs_ok"] = bugs_check(ck, w, a.seed)
    return r


# ---- workload: daemon ---------------------------------------------------

DAEMON_MEMBERS = 3
DAEMON_EDIT_EVERY = 5  # every 5th request of a connection is a fresh edit,
DAEMON_FRESH_EDITS = 12  # up to this many per daemon: it keeps every program
                         # resident (up to 32), so a fixed count keeps its heap
                         # independent of how many requests the run manages
DAEMON_CLIENTS = 2


class Daemon:
    def __init__(self, d, trace):
        self.sock = os.path.join(d, "s.sock")
        self.err = os.path.join(d, "astreed.err")
        args = [ASTREED, "--socket", self.sock]
        if trace:
            args += ["--trace", os.path.join(d, "astreed.trace.jsonl")]
        with open(self.err, "w") as err:
            self.proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=err, env=GC_ENV,
                                         start_new_session=True)
        deadline = time.perf_counter() + 30
        while True:
            try:
                if self.call(b'{"verb": "status"}\n')["status"] == "ok":
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("astreed did not become ready")
            time.sleep(0.005)

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.sock)
        return s, s.makefile("rb")

    def call(self, line):
        """One request line on a fresh connection; the decoded reply."""
        s, f = self.connect()
        try:
            s.sendall(line)
            return json.loads(f.readline())
        finally:
            f.close()
            s.close()

    def stop(self):
        """Drain on SIGTERM; returns the daemon's GC totals when it exited
        cleanly.  The daemon's workers share its process group."""
        totals = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            with open(self.err) as f:
                totals = gc_totals(f.read())
        except OSError:
            pass
        deadline = time.perf_counter() + 10
        while time.perf_counter() < deadline + 5:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            if time.perf_counter() > deadline:
                os.killpg(self.proc.pid, signal.SIGKILL)
            time.sleep(0.01)
        return totals


def analyze_req(rid, name, src):
    return (json.dumps({"verb": "analyze", "id": 1, "rid": rid, "main": "main", "options": {},
                        "files": [{"name": name, "contents": src}]}) + "\n").encode()


def wl_daemon(a, ck, w):
    daemons = []

    def start(d, trace, srcs, refs):
        dm = Daemon(d, trace)
        daemons.append(dm)
        rep = dm.call(analyze_req("first", "m0.c", srcs[0]))
        ck.check("daemon first request", verdict(rep["report"]), refs["m0"],
                 rep.get("status") == "ok")
        return dm

    def setup(k):
        d = os.path.join(w, f"s{k}")
        os.makedirs(d)
        files = [genfamily(os.path.join(d, f"m{i}.c"), 2, a.seed * 10 + i, fuse=16)
                 for i in range(DAEMON_MEMBERS)]
        refs = {f"m{i}": reference(f) for i, f in enumerate(files)}
        srcs = [open(f).read() for f in files]
        dm = start(d, a.trace, srcs, refs)
        return {"daemon": dm, "srcs": srcs, "refs": refs, "stop": dm.stop}

    try:
        st, setup_s = timed_setup(ck, setup)
        traffic = Traffic(a, st["srcs"])
        r = {"setup_s": setup_s, "traced": []}
        if a.trace:
            # the same traffic against an untraced daemon first, for the
            # tracing overhead
            os.makedirs(os.path.join(w, "plain"))
            plain = start(os.path.join(w, "plain"), False, st["srcs"], st["refs"])
            r["traced"] = tally(ck, w, st, traffic.drive(plain, a.seconds / 2))["j1"]
            r.update(tally(ck, w, st, traffic.drive(st["daemon"], a.seconds / 2)))
            r["j1"], r["traced"] = r["traced"], r["j1"]
        else:
            r.update(tally(ck, w, st, traffic.drive(st["daemon"], a.seconds)))
        r["trace_file"] = os.path.join(os.path.dirname(st["daemon"].sock), "astreed.trace.jsonl")
        r["bugs_ok"] = bugs_check(ck, w, a.seed)
        return r
    finally:
        for dm in daemons:
            dm.stop()


class Traffic:
    """Closed-loop request mix: DAEMON_CLIENTS connections, each sending its
    next request when the previous reply arrives.  A request resubmits one
    of the members (drawn from the seed), or on every DAEMON_EDIT_EVERY-th
    request of a connection, until DAEMON_FRESH_EDITS have been sent, a
    freshly edited variant never submitted before."""

    def __init__(self, a, srcs):
        self.a = a
        self.srcs = srcs
        self.base_reqs = [analyze_req("b", f"m{i}.c", s) for i, s in enumerate(srcs)]
        rng = random.Random(a.seed)
        self.pending = [(i, e) for i, s in enumerate(srcs) for e in edits(s, rng)]
        rng.shuffle(self.pending)
        self.rounds = 0

    def drive(self, dm, seconds):
        lock = threading.Lock()
        ops = []  # (seconds, reply bytes, reply, member, edited source or None)
        fresh = [DAEMON_FRESH_EDITS]
        errors = []
        self.rounds += 1
        t0 = time.perf_counter()

        def client(c):
            crng = random.Random((self.a.seed * 100 + c) * 10 + self.rounds)
            try:
                s, f = dm.connect()
            except OSError as e:
                errors.append(str(e))
                return
            n = crng.randrange(DAEMON_EDIT_EVERY)
            try:
                while time.perf_counter() - t0 < seconds:
                    i = crng.randrange(len(self.srcs))
                    edited = None
                    n += 1
                    with lock:
                        edit = n % DAEMON_EDIT_EVERY == 0 and fresh[0] > 0
                        if edit:
                            fresh[0] -= 1
                            i, e = self.pending.pop()
                    if edit:
                        edited = apply_edit(self.srcs[i], e)
                        req = analyze_req("e", f"m{i}.c", edited)
                    else:
                        req = self.base_reqs[i]
                    t = time.perf_counter()
                    s.sendall(req)
                    line = f.readline()
                    dt = time.perf_counter() - t
                    try:
                        rep = json.loads(line)
                    except ValueError:
                        rep = None
                    with lock:
                        ops.append((dt, len(line), rep, i, edited))
            except OSError as e:
                errors.append(str(e))
            finally:
                f.close()
                s.close()

        threads = [threading.Thread(target=client, args=(c,)) for c in range(DAEMON_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        metrics = dm.call(b'{"verb": "metrics"}\n').get("metrics", {})
        totals = dm.stop()
        return {"ops": ops, "errors": errors, "wall": wall, "metrics": metrics,
                "totals": totals}


def tally(ck, w, st, run_):
    """Check every reply of a drive against its input's reference (edited
    variants get theirs now, outside the timed part) and collect the
    figures."""
    for e in run_["errors"]:
        ck.fail("daemon connection", e)
    r = {"wall": run_["wall"], "metrics": run_["metrics"], "j1": [], "kloc": 0.0,
         "service": [], "queue": [], "wire": [], "bytes": [], "cache_hits": 0, "cache_misses": 0}
    edited_paths = []
    for k, (_, _, _, _, edited) in enumerate(run_["ops"]):
        if edited is not None:
            edited_paths.append(os.path.join(w, f"edited{k}.c"))
            with open(edited_paths[-1], "w") as f:
                f.write(edited)
    edited_refs = iter(references(edited_paths))
    for dt, nbytes, rep, i, edited in run_["ops"]:
        ref = st["refs"][f"m{i}"] if edited is None else next(edited_refs)
        if not (rep and rep.get("status") == "ok" and "report" in rep):
            ck.fail("daemon request", (rep or {}).get("error", "no reply"))
            continue
        ck.check("daemon request", verdict(rep["report"]), ref)
        srv = rep.get("server", {})
        r["j1"].append(dt)
        r["kloc"] += st["srcs"][i].count("\n") / 1000.0
        r["service"].append(srv.get("analysis_s", 0.0))
        r["queue"].append(srv.get("wait_s", 0.0))
        r["wire"].append(dt - srv.get("analysis_s", 0.0) - srv.get("wait_s", 0.0))
        r["bytes"].append(nbytes)
        counters = srv.get("metrics", {}).get("counters", {})
        r["cache_hits"] += counters.get("cache.hits", 0)
        r["cache_misses"] += counters.get("cache.misses", 0)
    totals = run_["totals"]
    if totals is None:
        ck.fail("daemon shutdown", "astreed did not exit cleanly")
        totals = (0, 0)
    served = len(run_["ops"]) + 1  # with the set-up's first request
    r["words"] = [totals[0] / served]
    r["top"] = [totals[1]]
    return r


# ---- metrics ------------------------------------------------------------


def end_to_end(name, r, ck):
    verdicts = r["j2"] if name == "batch" else r["j1"]
    p50 = median(verdicts)
    t, beyond, n = tail(verdicts)
    if name == "batch":
        speedup = median(r["j1"]) / median(r["j2"])
    elif name == "daemon":
        # serving the same requests one at a time would take their summed
        # analysis time: the concurrency the daemon actually delivered
        speedup = sum(r["service"]) / r["wall"]
    elif r["j2"]:
        speedup = median(r["unchanged" if name == "rerun" else "j1"]) / median(r["j2"])
    else:
        speedup = 1.0  # traced runs do not report it
    per_verdict = r.get("members", 1)
    m = {
        "setup_s": r["setup_s"],
        "verdict_p50_s": p50,
        "verdict_tail_s": t,
        "throughput_kloc_s": r["kloc"] / r["wall"],
        "speedup_vs_j1": speedup,
        "alloc_mwords": median(r["words"]) / per_verdict / 1e6,
        "peak_heap_mb": median(r["top"]) * 8 / 1e6,
        "pass_rate": 1.0 - ck.failed / max(1, ck.attempted),
        "alarm_free_rate": 1.0 - ck.alarmed_verdicts / max(1, ck.safe_verdicts),
    }
    info = {"verdict_tail_s": f"{beyond} of {n} samples beyond it",
            "verdict_p50_s": f"{n} samples"}
    return m, info


def span_total(layers, name):
    return sum(s["s"] for lay in layers for s in lay["spans"] if s["name"] == name)


def span_words(layers, name):
    return sum(s["words"] for lay in layers for s in lay["spans"] if s["name"] == name)


def reg_sum(layers, key):
    total = 0
    for lay in layers:
        v = lay["registry"].get(key, 0)
        total += sum(v) if isinstance(v, list) else v
    return total


DOMAIN_TIMERS = ["itv.transfer.time", "oct.close.full.time", "oct.close.incr.time",
                 "oct.join.time", "oct.widen.time", "env.join.time", "widen.total.time"]
DOMAIN_COUNTS = ["itv.transfer", "oct.close.full", "oct.close.incr", "oct.close.skip",
                 "oct.join", "oct.widen", "env.join", "widen.total", "widen.threshold_hits"]


def loop_iters(layers):
    """Fixpoint iterations summed over loops, as the lower bound the
    registry's log2 buckets give (bucket i holds 2^i - 1 <= v < 2^(i+1) - 1)."""
    return sum(n * (2 ** i - 1) for lay in layers
               for i, n in enumerate(lay["registry"].get("loop.iters", [])))


def trace_phases(path):
    """Seconds per phase span in a program trace file (B/E pairs)."""
    out, open_ = {}, {}
    if not os.path.exists(path):
        return out
    with open(path) as f:
        for line in f:
            try:
                ev = json.loads(line)
            except ValueError:
                continue
            k = ev.get("kind", "")
            if ev.get("phase") == "B":
                open_.setdefault(k, []).append(ev.get("t", 0.0))
            elif ev.get("phase") == "E" and open_.get(k):
                out[k] = out.get(k, 0.0) + ev.get("t", 0.0) - open_[k].pop()
    return out


def per_layer(name, r, ck):
    m = {}
    layers = r.get("layers", [])
    if name == "daemon":
        phases = trace_phases(r["trace_file"])
        m["phase.parse_s"] = phases.get("phase.parse", 0.0)
        m["phase.typecheck_s"] = phases.get("phase.typecheck", 0.0)
        m["phase.simplify_s"] = phases.get("phase.simplify", 0.0)
        m["phase.iterate_s"] = phases.get("phase.iterate", 0.0)
        counters = r["metrics"].get("counters", {})
        reg = [{"registry": {**counters, **r["metrics"].get("histograms", {})}}]
        for k in DOMAIN_COUNTS + ["iter.calls_inlined", "iter.loops"]:
            m[k] = counters.get(k, 0)
    else:
        m["phase.parse_s"] = span_total(layers, "frontend.parse")
        m["phase.typecheck_s"] = span_total(layers, "frontend.typecheck")
        m["phase.simplify_s"] = span_total(layers, "frontend.simplify")
        m["phase.iterate_s"] = span_total(layers, "iterator")
        reg = layers
        for k in DOMAIN_COUNTS + ["iter.calls_inlined", "iter.loops"]:
            m[k] = reg_sum(layers, k)
    m["frontend.mwords"] = span_words(layers, "frontend") / 1e6
    m["packing_s"] = span_total(layers, "packing")
    for g in ["analysis.oct_packs", "analysis.oct_useful", "analysis.ell_packs",
              "analysis.dt_packs"]:
        m[g] = reg_sum(layers, g)
    m["packing.useful_ratio"] = m["analysis.oct_useful"] / max(1, m["analysis.oct_packs"])
    m["iterate.mwords"] = span_words(layers, "iterator") / 1e6
    m["loop.iters"] = loop_iters(reg)
    m["gc.minor_collections"] = sum(lay["gc"]["minor_collections"] for lay in layers)
    m["gc.major_collections"] = sum(lay["gc"]["major_collections"] for lay in layers)
    domain_s = sum(reg_sum(layers, t) for t in DOMAIN_TIMERS)
    for t in DOMAIN_TIMERS:
        m[t] = reg_sum(layers, t)
    m["iterate.unattributed_s"] = max(0.0, m["phase.iterate_s"] - domain_s) if layers else 0.0
    m["iterate.attributed_share"] = domain_s / m["phase.iterate_s"] if layers and m["phase.iterate_s"] else 0.0
    closes = m["oct.close.full"] + m["oct.close.incr"] + m["oct.close.skip"]
    m["oct.close.skip_ratio"] = m["oct.close.skip"] / closes if closes else 0.0
    # incremental
    caches = [lay["cache"] for lay in layers if lay.get("cache")]
    m["cache.hits"] = sum(c["hits"] for c in caches)
    m["cache.misses"] = sum(c["misses"] for c in caches)
    m["cache.loaded"] = sum(c["loaded"] for c in caches)
    m["cache.entries"] = sum(c["entries"] for c in caches)
    m["summary.load_s"] = sum(c["load_s"] for c in caches)
    m["summary.save_s"] = sum(c["save_s"] for c in caches)
    m["fingerprint_s"] = span_total(layers, "incremental.fingerprint")
    m["store.bytes"] = r.get("store_bytes", 0)
    if name == "daemon":
        m["cache.hits"] = r["cache_hits"]
        m["cache.misses"] = r["cache_misses"]
    looked = m["cache.hits"] + m["cache.misses"]
    m["cache.hit_ratio"] = m["cache.hits"] / looked if looked else 0.0
    # parallel
    if "traced_out" in r:
        out = r["traced_out"]
        p = out["passes"][-1]
        busy = sum(x["s_time"] for x in p["results"])
        m["batch.busy_s"] = busy
        m["batch.longest_job_s"] = max(x["s_time"] for x in p["results"])
        m["batch.idle_share"] = max(0.0, 1.0 - busy / (2 * p["s"]))
        m["par.backend"] = p["registry"].get("par.backend", 0)
        m["par.jobs_dispatched"] = p["registry"].get("par.jobs_dispatched", 0)
        m["par.steals"] = p["registry"].get("par.steals", 0)
        m["merge.fingerprint_s"] = sum(s["s"] for s in out["spans"]
                                       if s["name"] == "merge.fingerprint.j2")
        m["self.parallel_s"] = max(0.0, p["s"] - busy / 2)
    else:
        for k in ["batch.busy_s", "batch.longest_job_s", "batch.idle_share", "par.backend",
                  "par.jobs_dispatched", "par.steals", "merge.fingerprint_s", "self.parallel_s"]:
            m[k] = 0
    # server
    if name == "daemon":
        m["srv.roundtrip_s"] = median(r["j1"])
        m["srv.queue_s"] = median(r["queue"])
        m["srv.service_s"] = median(r["service"])
        m["srv.wire_s"] = median(r["wire"])
        m["srv.reply_bytes"] = median(r["bytes"])
        counters = r["metrics"].get("counters", {})
        m["srv.requests"] = counters.get("srv.requests", 0)
        m["srv.dedup_hits"] = counters.get("srv.dedup_hits", 0)
        m["srv.shed"] = counters.get("srv.shed", 0)
        m["srv.cache_hits"] = r["cache_hits"]
        m["self.server_s"] = m["srv.queue_s"] + m["srv.wire_s"]
    else:
        for k in ["srv.roundtrip_s", "srv.queue_s", "srv.service_s", "srv.wire_s",
                  "srv.reply_bytes", "srv.requests", "srv.dedup_hits", "srv.shed",
                  "srv.cache_hits", "self.server_s"]:
            m[k] = 0
    # self time of each layer span: its duration minus its children's
    m["self.frontend_s"] = max(0.0, span_total(layers, "frontend") - m["phase.parse_s"]
                               - m["phase.typecheck_s"] - m["phase.simplify_s"]) if layers else 0.0
    m["self.packing_s"] = m["packing_s"]
    m["self.iterator_s"] = m["iterate.unattributed_s"]
    m["self.domains_s"] = domain_s
    m["self.incremental_s"] = (m["fingerprint_s"] + span_total(layers, "incremental.attach")
                               + span_total(layers, "incremental.detach"))
    # obs and robustness
    traced = r.get("traced") or []
    untraced = r["unchanged"] if name == "rerun" else r["j2"] if name == "batch" else r["j1"]
    m["trace.overhead"] = median(traced) / median(untraced)
    regs = r.get("registries", [])
    m["trace.dropped"] = sum(x.get("counters", {}).get("trace.dropped", 0) for x in regs)
    m["degrade.trips"] = sum(x.get("counters", {}).get("degrade.trips", 0) for x in regs)
    if name == "daemon":
        m["degrade.trips"] += r["metrics"].get("counters", {}).get("degrade.trips", 0)
    m["check.false_alarms"] = ck.false_alarms
    m["check.fail_rate"] = ck.failed / max(1, ck.attempted)
    m["exact.mismatches"] = len(ck.nondet)
    return m


WORKLOADS = {"oneshot": wl_oneshot, "batch": wl_batch, "rerun": wl_rerun, "daemon": wl_daemon}


def check_exact_across_runs(a, ck, exact):
    """Exact -j 1 figures must repeat across runs of the same seed."""
    d = os.path.join(OUT, "exact")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    if os.path.exists(path):
        with open(path) as f:
            prev = json.load(f)
        if prev != exact:
            ck.nondet.append(f"exact figures differ from an earlier run of seed {a.seed}: "
                             f"{prev} vs {exact}")
    with open(path, "w") as f:
        json.dump(exact, f, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    def interrupted(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupted)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        build()
    except (OSError, ValueError, BenchError) as e:
        log(f"perfbench: {e}")
        return 2
    w = os.path.join(OUT, f"w{os.getpid()}")
    shutil.rmtree(w, ignore_errors=True)
    os.makedirs(w)
    ck = Checker()
    try:
        r = WORKLOADS[a.workload](a, ck, w)
        m, info = end_to_end(a.workload, r, ck)
        if a.trace:
            m = per_layer(a.workload, r, ck)
        check_exact_across_runs(a, ck, r.get("exact", {}))
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {a.workload}: {e}")
        return 1
    except KeyboardInterrupt:
        log(f"perfbench: {a.workload}: interrupted")
        return 130
    finally:
        shutil.rmtree(w, ignore_errors=True)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    missing = [x["name"] for x in wanted if x["name"] not in m]
    if missing:
        log(f"perfbench: metrics not computed: {missing}")
        return 1
    for note in ck.notes[:20]:
        log(f"FAILED {note}")
    for note in ck.nondet:
        log(f"NONDETERMINISM {note}")
    print(f"workload {a.workload}  seed {a.seed}  seconds {a.seconds}  trace {a.trace}")
    print(f"operations {ck.attempted}  failed {ck.failed}  false alarms {ck.false_alarms}  "
          f"nondeterministic {len(ck.nondet)}  bugs member fully alarmed {r['bugs_ok']}")
    for x in wanted:
        extra = info.get(x["name"], "") if not a.trace else ""
        print(f"  {x['name']:28s} {m[x['name']]:>16.6f} {x['unit']:8s} {extra}")
    correct = ck.failed == 0 and r["bugs_ok"]
    print(json.dumps({"correct": correct, "attempted": ck.attempted, "failed": ck.failed,
                      "metrics": {x["name"]: {"value": m[x["name"]], "unit": x["unit"]}
                                  for x in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
