"""Benchmark harness for the exdev laboratory.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: point-gibbs, tail-is, exceedance, tilt-sweep (see workloads.py).

A run repeats passes of the workload for about S seconds.  Every pass is a
fresh Python process (worker.py), so each one pays the import of exdev and
the cold cumulant cache exactly as a CLI invocation does, and no pass sees
another's caches or memory.  The pass's op seeds come from --seed and the
pass index.

With --trace 0 the run reports the end-to-end metrics, each the median over
its passes:

    wall_s       first layer call to last checked result, in the worker
    setup_s      process start until exdev is imported and the densities
                 are built
    peak_rss_mb  ru_maxrss of the worker process
    ess_per_s    effective draws per second of wall_s

With --trace 1 it alternates traced and untraced passes on the same seeds
and reports the per-layer metrics of layers.py (medians over the traced
passes) and the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Lines before it are
for people.  The harness itself needs only the standard library.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import layers  # noqa: E402  (stdlib only, next to this file)

WORKLOADS = ("point-gibbs", "tail-is", "exceedance", "tilt-sweep")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ess_per_s": "1/s"}
MIN_PASSES = {False: 3, True: 4}
# a run must exit within 180 s whatever its passes do
DEADLINE_S = 170.0
NUMERIC_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                       "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in NUMERIC_THREAD_VARS:
        env[var] = str(nproc)
    return env


def run_pass(workload: str, seed: int, index: int, traced: bool, nproc: int,
             env: dict, timeout: float) -> dict:
    """Start one worker and wait for it; returns its result plus the times
    this process saw, or {"error": ...}."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(index), "1" if traced else "0", str(nproc)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass {index} timed out after {timeout:.0f}s"}
    ended = time.monotonic()
    if proc.returncode != 0:
        return {"error": f"pass {index} exited {proc.returncode}: "
                         + proc.stderr.strip()[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_monotonic"] - spawned
    result["pass_s"] = ended - spawned
    result["traced"] = traced
    return result


def provenance(nproc: int, versions: dict) -> dict:
    files = sorted(glob.glob(os.path.join(SRC, "exdev", "**", "*.py"),
                             recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    # git must not look above the checkout, which need not be a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "nproc": nproc,
            "python": platform.python_version(), **versions}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict]) -> dict:
    values = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
        "ess_per_s": [p["ess"] / p["wall_s"] for p in passes],
    }
    return {name: metric(statistics.median(v), END_TO_END[name])
            for name, v in values.items()}


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name, (unit, *_rest) in layers.METRICS.items():
        if name == "trace.overhead_s":
            value = (statistics.median(p["wall_s"] for p in traced)
                     - statistics.median(p["wall_s"] for p in plain))
        else:
            value = statistics.median(p["layers"][name] for p in traced)
        out[name] = metric(value, unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "exdev", "__init__.py")):
        print(f"error: no exdev sources under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)
    traced = bool(args.trace)
    start = time.monotonic()
    passes, errors = [], []
    index = 0
    while True:
        elapsed = time.monotonic() - start
        durations = [p["pass_s"] for p in passes]
        if len(passes) + len(errors) >= MIN_PASSES[traced] and (
                not durations
                or elapsed + statistics.median(durations) > args.seconds):
            break
        left = DEADLINE_S - elapsed
        if left <= 0:
            break
        # traced runs alternate traced and untraced passes on the same seeds
        tracing = traced and index % 2 == 0
        seed_index = index // 2 if traced else index
        res = run_pass(args.workload, args.seed, seed_index, tracing, nproc,
                       env, left)
        index += 1
        if "error" in res:
            errors.append(res["error"])
            print(res["error"], file=sys.stderr)
            continue
        passes.append(res)
        status = "ok" if not res["failures"] else "; ".join(res["failures"])
        print(f"pass {index}{' traced' if tracing else ''}: "
              f"wall {res['wall_s']:.3f}s setup {res['setup_s']:.3f}s "
              f"rss {res['rss_mb']:.1f}MB ess {res['ess']:.1f} "
              f"ops {res['ops']} {status}")

    kinds = {p["traced"] for p in passes}
    # a traced run needs both kinds of pass for the overhead
    if not passes or (traced and kinds != {True, False}):
        print("error: not enough passes completed", file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(provenance(nproc, passes[0]["versions"])))
    if traced:
        for p in passes:
            if p["traced"]:
                name, self_s = p["dominant"]
                print(f"dominant span by self time: {name} {self_s:.3f}s of "
                      f"wall {p['wall_s']:.3f}s")
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(p["ops"] for p in passes) + len(errors)
    failed = sum(len(p["failures"]) for p in passes) + len(errors)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
