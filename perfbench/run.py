"""monoidlab benchmark: time to verdict on closed-loop query workloads.

One client in one process and one thread sends the queries of a workload
one at a time, each after the previous verdict, and checks every verdict
against a reference (see ``workloads.py``).  Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of the output is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, measured from spans around the calls into monoidlab
(``spans.py``), and the spans are written to ``perfbench/out/``.

``--workload all`` runs every workload of BENCHMARK.json, untraced and
traced, each in a fresh process, and prints all metrics and the tracing
overhead.
"""

from __future__ import annotations

import os

# One thread for numpy and any BLAS it loads; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per untraced run (this process plus fresh processes); the median
#: is reported, so one slow start does not move setup_s.
SETUP_SAMPLES = 5
#: query_tail_ms is the highest percentile with at least this many samples
#: above it in one pass.
TAIL_ABOVE = 10
CHILD_TIMEOUT_S = 900
#: Speed gauge: a fixed piece of pure-Python work, timed before a query
#: whenever GAUGE_EVERY_S of query time has passed since the last gauge.  It
#: builds a set and a dict of GAUGE_TUPLES small tuples, as the library's
#: searches do, then reads GAUGE_READS bytes of an 8 MiB buffer at strides
#: that miss the caches, so it slows with the host's memory traffic as well
#: as with its CPU.  GAUGE_REF_S is its time at the reference speed (about
#: its fastest on a 2-core x86-64 host under Python 3.11), so that times at
#: the reference speed stay close to seconds on that host.
GAUGE_TUPLES = 6_000
GAUGE_READS = 15_000
GAUGE_BUFFER = bytearray(range(256)) * 32_768
GAUGE_EVERY_S = 0.05
GAUGE_REF_S = 0.006


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload: str, seed: int, tracer=None) -> tuple[list, float]:
    """Import monoidlab from this checkout's ``src`` and build the workload's
    queries; returns them with the seconds this took at the reference speed
    (the fastest of three gauges before and three after it)."""
    gauges = [gauge() for _ in range(3)]
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import monoidlab
    import monoidlab.cli  # noqa: F401  (part of what a user's first command imports)

    if not os.path.abspath(monoidlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"monoidlab was imported from {monoidlab.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install()
    import workloads  # binds the (possibly traced) functions it calls

    builder = workloads.build_smoke if workload == "smoke" else workloads.WORKLOADS[workload]
    queries = builder(seed)
    seconds = time.perf_counter() - start
    gauges += [gauge() for _ in range(3)]
    return queries, seconds * GAUGE_REF_S / min(gauges)


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """setup() timed in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def gauge() -> float:
    """Seconds the speed gauge takes now; it runs no monoidlab code."""
    t0 = time.perf_counter()
    seen, first = set(), {}
    for i in range(GAUGE_TUPLES):
        key = (i & 63, i >> 6, i % 7)
        if key not in seen:
            seen.add(key)
            first[key] = [i]
    acc, j, size = 0, 0, len(GAUGE_BUFFER)
    for _ in range(GAUGE_READS):
        j = (j + 1_000_003) % size
        acc += GAUGE_BUFFER[j]
    return time.perf_counter() - t0


def run_pass(queries, gauges: list[float], tracer=None) -> tuple[list[float], list]:
    """Send every query once, in order, with speed gauges between them
    (appended to ``gauges``); returns each query's time to verdict and the
    outputs (an exception counts as one)."""
    durations, outputs = [], []
    gc.collect()
    since_gauge = GAUGE_EVERY_S
    for i, q in enumerate(queries):
        if since_gauge >= GAUGE_EVERY_S:
            gauges.append(gauge())
            since_gauge = 0.0
        if tracer is not None:
            tracer.query = i
        t0 = time.perf_counter()
        try:
            out = q.run()
        except Exception as exc:  # a failed query is counted, not fatal
            out = exc
        durations.append(time.perf_counter() - t0)
        since_gauge += durations[-1]
        outputs.append(out)
    if tracer is not None:
        tracer.query = -1  # the checks that follow are not part of a query
    return durations, outputs


def check_pass(queries, outputs) -> list[str]:
    """One line per query whose output is wrong or an exception."""
    problems = []
    for q, out in zip(queries, outputs):
        if isinstance(out, Exception):
            problem = f"raised {type(out).__name__}: {out}"
        else:
            try:
                problem = q.check(out)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            problems.append(f"{q.label}: {problem}")
    return problems


def measure(queries, seconds: float, tracer=None) -> tuple[list[list[float]], list[float], list[str]]:
    """Whole passes over the queries: at least one, and another while the
    slowest pass so far still fits in ``seconds``.  A traced run makes one.
    Returns each query's time to verdict in every pass, the gauge times,
    and the problems found."""
    per_query, gauges, problems, walls = [[] for _ in queries], [], [], []
    start = time.perf_counter()
    while True:
        durations, outputs = run_pass(queries, gauges, tracer)
        problems += check_pass(queries, outputs)
        del outputs
        walls.append(sum(durations))
        for samples, t in zip(per_query, durations):
            samples.append(t)
        if tracer is not None or time.perf_counter() - start + max(walls) > seconds:
            return per_query, gauges, problems


def reference_pass_seconds(per_query: list[list[float]], gauges: list[float]) -> float:
    """One pass's time to all verdicts at the reference speed.

    On a shared host the CPU speed of a core drops by up to about 2x, for
    fractions of a second to minutes.  Each query counts at its fastest
    time over the run's passes, which keeps out the short slowdowns; the
    sum is scaled by GAUGE_REF_S over the gauge's fastest time in the run,
    which takes out most of the slowdowns that last the whole run.
    """
    return sum(min(samples) for samples in per_query) * GAUGE_REF_S / min(gauges)


def tail_percentile(per_pass: int) -> float:
    """The highest percentile with TAIL_ABOVE of one pass's samples above it."""
    return 100 * max(1, per_pass - TAIL_ABOVE) / per_pass


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, round(pct / 100 * len(ordered))) - 1]


def environment() -> dict:
    import numpy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=60).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "monoidlab")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}


def result_line(spec_metrics: list[dict], values: dict, problems: list[str], attempted: int) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    return json.dumps({"correct": not problems, "attempted": attempted,
                       "failed": len(problems), "metrics": metrics})


def run_workload(args, spec: dict) -> int:
    tracer = None
    if args.trace:
        from spans import Tracer, span_cost

        tracer = Tracer()
    queries, first_setup = setup(args.workload, args.seed, tracer)
    setups = [first_setup]
    if not args.trace:
        setups += [fresh_setup_seconds(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]

    per_query, gauges, problems = measure(queries, args.seconds, tracer)
    passes = len(per_query[0])
    walls = [sum(samples[k] for samples in per_query) for k in range(passes)]
    durations = [t for samples in per_query for t in samples]
    attempted = len(durations)
    pct = tail_percentile(len(queries))
    p50_ms = 1000 * statistics.median(durations)
    tail_ms = 1000 * nearest_rank(durations, pct)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{passes} pass(es) of {len(queries)} queries")
    print("env " + json.dumps(environment()))
    print(f"failed_frac = {len(problems) / attempted:.6g} ({len(problems)} of {attempted} queries)")
    print(f"query_p50_ms = {p50_ms:.6g} ms ({attempted} samples)")
    print(f"query_tail_ms = {tail_ms:.6g} ms (p{pct:.1f} of {attempted} samples)")
    for line in problems[:20]:
        print("FAILED " + line, file=sys.stderr)

    if tracer is not None:
        tracer.uninstall()
        values = tracer.layer_metrics()
        values["query.p50_ms"] = p50_ms
        values["query.tail_ms"] = tail_ms
        values["trace.wall_s"] = reference_pass_seconds(per_query, gauges)
        values["trace.spans"] = len(tracer.spans)
        for line in tracer.attribution([q.group for q in queries],
                                        [samples[0] for samples in per_query]):
            print(line)
        cost = span_cost()
        print(f"tracing cost estimate: {len(tracer.spans)} spans x {1e6 * cost:.2f} us "
              f"= {len(tracer.spans) * cost:.4f} s")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, [q.label for q in queries])
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        spec_metrics = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": reference_pass_seconds(per_query, gauges),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups, at the reference speed",
            "wall_s": f"at the reference speed, each query at its fastest of {passes} "
                      f"pass(es); fastest gauge {1000 * min(gauges):.4g} ms of {len(gauges)}; "
                      f"median pass as measured {statistics.median(walls):.6g} s",
            "peak_rss_mb": "peak resident set of this process, 8 MiB of it the gauge's buffer",
        }
        for m in spec["end_to_end"]:
            print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']} ({notes[m['name']]})")
        spec_metrics = spec["end_to_end"]
    print(result_line(spec_metrics, values, problems, attempted))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for w in (w["name"] for w in spec["workloads"]):
        results[w] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"workload {w} trace {trace} exited with {proc.returncode}")
                return 1
            print("\n".join(lines[:-1]))
            results[w][trace] = json.loads(lines[-1])
        untraced = results[w][0]["metrics"]["wall_s"]["value"]
        traced = results[w][1]["metrics"]["trace.wall_s"]["value"]
        print(f"tracing overhead {w}: {traced - untraced:+.3f} s "
              f"({100 * (traced - untraced) / untraced:+.1f}% of wall_s; one traced pass "
              f"against each query's fastest untraced time)")
    print(json.dumps({w: {"untraced": r[0], "traced": r[1]} for w, r in results.items()}))
    return 0


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "monoidlab", "__init__.py")):
        print(f"no monoidlab sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["smoke", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        _, seconds = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
