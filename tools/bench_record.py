"""Record the benchmark trajectory: write one side of BENCH_<pr>.json.

Measures a checkout of the repository (by default the one holding this
script) and stores the numbers under a label, keeping the other labels
already in the file, so the parent commit and a change can be recorded
side by side:

    python3 tools/bench_record.py --pr N --label parent --root <clone of the parent>
    python3 tools/bench_record.py --pr N --label change --root <clone of the change>

Measure both sides in fresh clones, not in a working checkout: a working
checkout can hold ``src/monoidlab/__pycache__`` from earlier runs, which a
fresh clone lacks, and loading cached bytecode lowers perfbench's
``setup_s`` by about as much as that metric's bound.  So each side also
records ``bytecode_cache``: whether that directory existed before the
first run and after the last, and the value of ``PYTHONDONTWRITEBYTECODE``
(when it is set, no run writes a cache).

Four sources are recorded, with the checkout's git SHA (and a digest of
its ``src/monoidlab`` files, which tells uncommitted changes apart):

- ``perfbench``: the last line of each of ``REPEAT`` runs of
  ``perfbench/run.py --workload all`` (every workload, untraced and
  traced, each in a fresh process), and per workload the median over
  those runs of each end-to-end metric of BENCHMARK.json (untraced);
- ``verify_paper_s``: wall time of ``monoidlab verify-paper``, one process;
- ``tier1``: wall time and summary line of the Tier-1 test suite;
- ``isoterm_wn_xyxy4``: wall time and verdict of ``isoterm`` on
  ``wn_xyxy(4)`` over ``M(xyxy)`` at the default budget, in a fresh process.

``perfbench`` runs with seed ``SEED`` for ``SECONDS`` per workload.  Every
command runs ``REPEAT`` times, every result is kept, and the median is
reported beside them, so one slow stretch of a shared host does not decide
a comparison.  Raw times drift with the host (1.8x between BENCH files on
identical source), so each command also records ``gauge_s``: the fastest
of ``GAUGE_RUNS`` runs of perfbench's speed gauge (``gauge`` in this
repository's ``perfbench/run.py``), taken just before it (before each
perfbench run, and before the first of the other commands' runs).
``median_s * gauge_ref_s / gauge_s`` is the median at the gauge's
reference speed, the scale of perfbench's own times.
The file written is ``BENCH_<pr>.json`` at the root of this repository.
Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.util
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SEED = 1
SECONDS = 30
REPEAT = 3
GAUGE_RUNS = 5


def _load_perfbench_run():
    """``perfbench/run.py`` as a module, for its speed gauge.  Importing it
    pins numpy's thread variables in ``os.environ``; they are put back, so
    the timed commands run in the environment they always had."""
    saved = dict(os.environ)
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE.parent / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    os.environ.clear()
    os.environ.update(saved)
    return module

ISOTERM_RUN = """
import json, time
from monoidlab.equations import isoterm
from monoidlab.monoids import catalog
from monoidlab.words import wn_xyxy
start = time.perf_counter()
v = isoterm(catalog("M(xyxy)"), wn_xyxy(4))
print(json.dumps({"seconds": time.perf_counter() - start, "kind": v.kind, "bound": v.bound}))
"""


def run(root: pathlib.Path, args: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``args`` in ``root`` with its ``src`` on the path; return the
    wall time and the finished process.  A nonzero exit raises."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return seconds, proc


def timed(root: pathlib.Path, args: list[str], timeout: float, gauge) -> dict:
    gauge_s = gauge()
    times, last = [], None
    for _ in range(REPEAT):
        seconds, last = run(root, args, timeout)
        times.append(seconds)
    return {"median_s": statistics.median(times), "runs_s": times, "gauge_s": gauge_s,
            "last_line": last.stdout.strip().splitlines()[-1] if last.stdout.strip() else ""}


def perfbench(root: pathlib.Path, gauge, end_to_end: list[str]) -> dict:
    runs = []
    for _ in range(REPEAT):
        gauge_s = gauge()
        proc = run(root, [sys.executable, "perfbench/run.py", "--workload", "all",
                          "--seed", str(SEED), "--seconds", str(SECONDS)], timeout=3600)[1]
        runs.append({"gauge_s": gauge_s, "result": json.loads(proc.stdout.splitlines()[-1])})
    median = {
        w: {m: statistics.median(r["result"][w]["untraced"]["metrics"][m]["value"] for r in runs)
            for m in end_to_end}
        for w in runs[0]["result"]
    }
    return {"seed": SEED, "seconds": SECONDS, "runs": runs, "median": median}


def git_state(root: pathlib.Path) -> dict:
    def git(*args: str) -> str:
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else ""

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "monoidlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": git("rev-parse", "HEAD") or None,
            "worktree_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_sha256": digest.hexdigest()}


def record(root: pathlib.Path) -> dict:
    py = sys.executable
    cache = root / "src" / "monoidlab" / "__pycache__"
    cache_at_start = cache.is_dir()
    perfbench_run = _load_perfbench_run()

    def gauge() -> float:
        return min(perfbench_run.gauge() for _ in range(GAUGE_RUNS))

    bench = perfbench(root, gauge, [m["name"] for m in perfbench_run.load_spec()["end_to_end"]])
    isoterm_gauge_s = gauge()
    isoterm_runs = [json.loads(run(root, [py, "-c", ISOTERM_RUN], 600)[1].stdout)
                    for _ in range(REPEAT)]
    result = {
        **git_state(root),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "perfbench": bench,
        "gauge_ref_s": perfbench_run.GAUGE_REF_S,
        "verify_paper_s": timed(root, [py, "-m", "monoidlab.cli", "verify-paper"], 600, gauge),
        "tier1": timed(root, [py, "-m", "pytest", "-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider"], 3600, gauge),
        "isoterm_wn_xyxy4": {
            "median_s": statistics.median(r["seconds"] for r in isoterm_runs),
            "runs_s": [r["seconds"] for r in isoterm_runs],
            "gauge_s": isoterm_gauge_s,
            "kind": isoterm_runs[-1]["kind"],
            "bound": isoterm_runs[-1]["bound"],
        },
    }
    result["bytecode_cache"] = {
        "present_at_start": cache_at_start, "present_at_end": cache.is_dir(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name BENCH_<pr>.json")
    parser.add_argument("--label", required=True, help="key to store this checkout's numbers under")
    parser.add_argument("--root", type=pathlib.Path, default=HERE.parent,
                        help="checkout to measure (default: this repository)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "monoidlab" / "__init__.py").is_file():
        print(f"no monoidlab sources under {root / 'src'}", file=sys.stderr)
        return 2
    out = HERE.parent / f"BENCH_{args.pr}.json"
    data = json.loads(out.read_text()) if out.exists() else {"pr": args.pr, "runs": {}}
    data["runs"][args.label] = record(root)
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.label} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
