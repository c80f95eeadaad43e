#!/usr/bin/env python3
"""O2 benchmark: a closed-loop fleet of o2batch runs, and a traced run.

Run from the root of an O2 checkout:

  python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 12 \\
      --trace 0

It builds o2batch and the traced harness (perfbench/o2trace.cpp) from the
checkout's sources into .bench_build/, writes a seeded corpus of .oir
modules into .bench_work/<workload>/, and then:

  --trace 0  runs o2batch over the corpus, one fleet run at a time, from
             one process, with --jobs=2, for --seconds seconds, and
             reports the median wall time, CPU time (user + sys of o2batch
             and its forked workers, from wait4) and peak RSS, plus the
             median set-up time (corpus, cold reference report and, for
             rerun-isolated, the primed cache);
  --trace 1  drives the same corpus through the library's public entry
             points in o2trace and reports per-layer times, peak-memory
             rises and the program's own work counters.

Every report is checked: job statuses, the known answers of checks.py, and
byte-identity with a cold, in-process report of the same corpus.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Write nothing next to the sources.

import checks  # noqa: E402
import corpus  # noqa: E402

JOBS = 2
SETUP_REPEATS = 3
MIN_RUNS = 3
RUN_TIMEOUT_S = 120

# Why each workload exists is recorded in BENCHMARK.json. A rerun workload
# runs as the CI re-run does: in isolated workers, on a primed cache.
WORKLOADS = {
    "paper-cold": {"analyses": "osa,race", "rerun": False},
    "race-dense": {"analyses": "osa,race", "rerun": False},
    "rerun-isolated": {"analyses": "osa,race", "rerun": True},
    "aux-all": {"analyses": "all", "rerun": False},
}


def log(msg):
    print(f"[perfbench] {msg}", flush=True)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


def run_checked(cmd, log_path=None):
    """Runs cmd to completion; dies with its output if it fails."""
    with open(log_path or os.devnull, "ab") as out:
        p = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if p.returncode != 0:
        if log_path:
            with open(log_path, "rb") as f:
                sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
        die(f"command failed ({p.returncode}): {' '.join(cmd)}")


def build(root):
    """Builds o2batch and o2trace from the checkout; returns their paths."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        die("no O2 sources here; run from the root of an O2 checkout")
    bdir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"], log_path)
    run_checked(["cmake", "--build", bdir, "--target", "o2batch", "o2trace",
                 "-j", str(min(4, os.cpu_count() or 1))], log_path)
    return (os.path.join(bdir, "o2-examples", "o2batch"),
            os.path.join(bdir, "o2trace"))


def spawn_measured(cmd):
    """Runs cmd through launch.py; returns its measurements as a dict:
    exit, wall_s, cpu_s and peak_rss_mb."""
    p = subprocess.run([sys.executable, LAUNCHER, str(RUN_TIMEOUT_S)] + cmd,
                       stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S + 30)
    if p.returncode != 0:
        die(f"launching failed: {' '.join(cmd)}")
    return json.loads(p.stdout)


def o2batch_cmd(o2batch, cfg, corpus_dir, out, cache_dir=None):
    """The o2batch command line: cold and in-process, or with cache_dir the
    CI re-run's, in isolated workers on that cache."""
    cmd = [o2batch, f"--jobs={JOBS}", "--quiet", f"--out={out}"]
    if cfg["analyses"] != "osa,race":
        cmd.append(f"--analyses={cfg['analyses']}")
    if cache_dir:
        cmd += ["--isolate=process", f"--cache-dir={cache_dir}"]
    return cmd + [corpus_dir]


def run_o2batch(cmd):
    code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    if code not in (0, 1, 2):
        die(f"o2batch exited {code}: {' '.join(cmd)}")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def setup(workload, seed, d, o2batch):
    """Writes under d the corpus, the cold in-process reference report that
    every run must reproduce and, for a rerun workload, the primed cache.
    Returns (digest, plans)."""
    cfg = WORKLOADS[workload]
    digest, plans = corpus.generate(workload, seed, os.path.join(d, "corpus"))
    if cfg["rerun"]:
        # The cache holds the corpus as it was before the edits: the
        # edited tenth misses, the rest hits.
        corpus.generate(workload, seed, os.path.join(d, "base"),
                        unedited=True)
        run_o2batch(o2batch_cmd(o2batch, cfg, os.path.join(d, "base"),
                                os.path.join(d, "prime.jsonl"),
                                cache_dir=os.path.join(d, "cache-primed")))
    run_o2batch(o2batch_cmd(o2batch, cfg, os.path.join(d, "corpus"),
                            os.path.join(d, "reference.jsonl")))
    return digest, plans


def restore_cache(d, names):
    for name in names:
        target = os.path.join(d, name)
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(os.path.join(d, "cache-primed"), target)


class Verdict:
    """Collects failed jobs and broken invariants over a whole run."""

    def __init__(self):
        self.plans = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.checked = {}  # report digest -> (jobs, failed jobs)

    def report(self, path):
        """Checks one o2batch report; returns its digest."""
        digest = file_digest(path)
        if digest not in self.checked:
            with open(path) as f:
                jobs, failures = checks.check_report(f.read(), self.plans)
            for name, reasons in sorted(failures.items()):
                self.problem(f"{name}: {'; '.join(reasons)}")
            self.checked[digest] = (jobs, len(failures))
        jobs, failed = self.checked[digest]
        self.attempted += jobs
        self.failed += failed
        return digest

    def problem(self, msg):
        if len(self.problems) < 20:
            log(f"FAILED CHECK: {msg}")
        self.problems.append(msg)

    def same(self, what, a, b):
        if a != b:
            self.problem(f"{what} differs")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def describe(name, unit, xs):
    lo, hi = quartiles(xs)
    log(f"{name:12s} median {statistics.median(xs):.4f} {unit} "
        f"(q1 {lo:.4f}, q3 {hi:.4f}, min {min(xs):.4f}, max {max(xs):.4f}, "
        f"n={len(xs)})")


def timed_setups(workload, seed, work, o2batch, repeats, verdict):
    """Sets up `repeats` times; returns (setup seconds, final dir)."""
    times, first = [], None
    for i in range(repeats):
        d = os.path.join(work, f"setup{i}")
        start = time.perf_counter()
        digest, plans = setup(workload, seed, d, o2batch)
        times.append(time.perf_counter() - start)
        fp = (digest, file_digest(os.path.join(d, "reference.jsonl")))
        if first is None:
            first = fp
        verdict.same("corpus or cold reference across set-ups", first, fp)
        if i + 1 < repeats:
            shutil.rmtree(d)
    log(f"corpus sha256 {first[0]} ({len(plans)} modules)")
    verdict.plans = plans
    return times, d


def measure(args, o2batch, work):
    cfg = WORKLOADS[args.workload]
    verdict = Verdict()
    setup_s, d = timed_setups(args.workload, args.seed, work, o2batch,
                              SETUP_REPEATS, verdict)
    corpus_dir = os.path.join(d, "corpus")
    out = os.path.join(d, "run.jsonl")
    cache = os.path.join(d, "cache-run") if cfg["rerun"] else None
    cmd = o2batch_cmd(o2batch, cfg, corpus_dir, out, cache_dir=cache)

    # Every run must reproduce the cold in-process report. Its jobs are
    # counted with the runs that reproduce it, not on their own.
    reference = verdict.report(os.path.join(d, "reference.jsonl"))
    verdict.attempted = verdict.failed = 0
    walls, cpus, rsss = [], [], []
    start = time.perf_counter()
    # One fleet run at a time. Stop before a run that would end past the
    # time budget, once there are enough samples for a median.
    while len(walls) < MIN_RUNS or (time.perf_counter() - start +
                                    statistics.median(walls)
                                    <= args.seconds):
        if cache:
            restore_cache(d, ["cache-run"])
        # Start every run with no writeback of earlier reports pending.
        os.sync()
        m = spawn_measured(cmd)
        if m["exit"] not in (0, 1, 2):
            die(f"o2batch exited {m['exit']}")
        verdict.same("report vs the cold reference", reference,
                     verdict.report(out))
        walls.append(m["wall_s"])
        cpus.append(m["cpu_s"])
        rsss.append(m["peak_rss_mb"])

    describe("setup_s", "s", setup_s)
    describe("wall_s", "s", walls)
    describe("cpu_s", "s", cpus)
    describe("peak_rss_mb", "MB", rsss)
    log(f"failed_frac {verdict.failed / max(verdict.attempted, 1):.4f} "
        f"({verdict.failed} of {verdict.attempted} jobs)")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    return verdict, metrics


def src_lines(root):
    n = 0
    for top in ("src", "include"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                with open(os.path.join(dirpath, name), "rb") as f:
                    n += f.read().count(b"\n")
    return n


def run_trace(o2trace, cfg, d, spans, report, chrome):
    cmd = [o2trace, f"--corpus={os.path.join(d, 'corpus')}",
           f"--analyses={cfg['analyses']}", f"--jobs={JOBS}",
           f"--spans={1 if spans else 0}", f"--report={report}"]
    if cfg["rerun"]:
        cmd.append("--isolate")
        names = ["trace-cache-" + n for n in "abcd"]
        restore_cache(d, names)
        cmd.append("--cache=" + ",".join(os.path.join(d, n) for n in names))
    if chrome:
        cmd.append(f"--chrome={chrome}")
    os.sync()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        die(f"o2trace exited {p.returncode}")
    return json.loads(p.stdout)


def layer_metrics(t):
    """Per-layer metrics from a traced run: name -> (unit, value)."""
    span = t["span_ms"].get
    cnt = t["counters"].get
    rss = t["rss_kb"].get

    def ms(*names):
        return sum(span(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "ir.parse_ms": ("ms", ms("parseModule")),
        "ir.verify_ms": ("ms", ms("verifyModule")),
        "ir.input_bytes": ("bytes", t["input_bytes"]),
        "ir.rss_kb": ("KiB", rss("ir", 0)),
        "pta.solve_ms": ("ms", ms("getPTA")),
        "pta.rss_kb": ("KiB", rss("pta", 0)),
        "pta.propagated-words": ("count", cnt("pta.propagated-words", 0)),
        "pta.pointer-nodes": ("count", cnt("pta.pointer-nodes", 0)),
        "pta.waves": ("count", cnt("pta.waves", 0)),
        "osa.sharing_ms": ("ms", ms("getSharing")),
        "osa.rss_kb": ("KiB", rss("osa", 0)),
        "osa.access-stmts": ("count", cnt("osa.access-stmts", 0)),
        "osa.shared-accesses": ("count", cnt("osa.shared-accesses", 0)),
        "osa.shared_frac": ("ratio", ratio(cnt("osa.shared-accesses", 0),
                                           cnt("osa.access-stmts", 0))),
        "osa.escape_ms": ("ms", ms("getEscape")),
        "shb.graph_ms": ("ms", ms("getSHB")),
        "shb.hbindex_ms": ("ms", ms("getHBIndex")),
        "shb.rss_kb": ("KiB", rss("shb", 0)),
        "race.access-events": ("count", cnt("race.access-events", 0)),
        "race.hb-index-segments": ("count", cnt("race.hb-index-segments", 0)),
        "race.detect_ms": ("ms", ms("getRaces")),
        "race.rss_kb": ("KiB", rss("race", 0)),
        "race.pairs-checked": ("count", cnt("race.pairs-checked", 0)),
        "race.hb-queries": ("count", cnt("race.hb-queries", 0)),
        "race.lockset-checks": ("count", cnt("race.lockset-checks", 0)),
        "race.races": ("count", cnt("race.races", 0)),
        "race.races_per_pair": ("ratio", ratio(cnt("race.races", 0),
                                               cnt("race.pairs-checked", 0))),
        "race.racerd_ms": ("ms", ms("getRacerD")),
        "race.deadlock_ms": ("ms", ms("getDeadlocks")),
        "race.oversync_ms": ("ms", ms("getOverSync")),
        "racerd.potential-races": ("count", cnt("racerd.potential-races", 0)),
        "driver.records_ms": ("ms", t["records_ms"]),
        "driver.jsonl_ms": ("ms", ms("printJSONL")),
        "driver.jsonl_bytes": ("bytes", t["jsonl_bytes"]),
        "driver.batch_ms": ("ms", ms("runBatch")),
        "driver.fork_ms": ("ms", t["fork_ms"]),
        "driver.cache_lookup_ms": ("ms", ms("ResultCache::lookup")),
        "driver.cache_store_ms": ("ms", ms("ResultCache::store")),
        "driver.cache_hit_frac": ("ratio", ratio(t["cache_hits"],
                                                 t["cache_lookups"])),
    }


# A layer's self time: the spans of the calls into it, minus the calls it
# makes into other layers (runOneJob minus its parse, verify, passes and
# cache calls is the batch driver's record building). runBatch repeats every
# job, so it is reported on its own and left out of the split.
SELF_SPANS = {
    "ir": ["read", "parseModule", "verifyModule"],
    "pta": ["getPTA"],
    "osa": ["getSharing", "getEscape"],
    "shb": ["getSHB", "getHBIndex"],
    "race": ["getRaces", "getDeadlocks", "getOverSync", "getRacerD"],
    "driver": ["printJSONL", "ResultCache::lookup", "ResultCache::store"],
}


def self_times(t):
    out = {layer: sum(t["span_ms"].get(n, 0.0) for n in names)
           for layer, names in SELF_SPANS.items()}
    out["driver"] += t["records_ms"] + t["fork_ms"]
    return out


def trace(args, o2batch, o2trace, root, work):
    cfg = WORKLOADS[args.workload]
    verdict = Verdict()
    _, d = timed_setups(args.workload, args.seed, work, o2batch, 1, verdict)
    reference = verdict.report(os.path.join(d, "reference.jsonl"))

    chrome = os.path.join(work, "trace.json")
    runs = {}
    for spans in (True, False):
        report = os.path.join(d, f"trace-{int(spans)}.jsonl")
        runs[spans] = run_trace(o2trace, cfg, d, spans, report,
                                chrome if spans else None)
        verdict.same(f"traced runBatch report (spans {int(spans)}) vs "
                     "o2batch", reference, verdict.report(report))
    on, off = runs[True], runs[False]
    verdict.same("work counters between two traced runs", on["counters"],
                 off["counters"])
    overhead = (on["total_ms"] - off["total_ms"]) / off["total_ms"]
    log(f"chrome trace: {os.path.relpath(chrome, root)}")
    log(f"traced harness {on['total_ms']:.1f} ms, spans off "
        f"{off['total_ms']:.1f} ms, overhead {overhead:+.4f}")

    selfs = self_times(on)
    total = sum(selfs.values()) or 1.0
    for layer, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
        log(f"self time {layer:7s} {v:10.2f} ms  {100 * v / total:5.1f}%")
    log(f"largest layer: {max(selfs, key=selfs.get)}")

    metrics = {name: (value, unit)
               for name, (unit, value) in layer_metrics(on).items()}
    for layer, v in selfs.items():
        metrics[f"{layer}.self_ms"] = (v, "ms")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["repo.src_lines"] = (src_lines(root), "lines")
    return verdict, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    o2batch, o2trace = build(root)
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")

    if args.trace:
        verdict, metrics = trace(args, o2batch, o2trace, root, work)
    else:
        verdict, metrics = measure(args, o2batch, work)

    correct = not verdict.problems and verdict.failed == 0
    log("all checks passed" if correct else
        f"{len(verdict.problems)} check(s) failed")
    print(json.dumps({
        "correct": correct,
        "attempted": max(verdict.attempted, 1),
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
