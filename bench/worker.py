"""One pass of one workload, in the fresh process the harness starts for it.

Usage: worker.py WORKLOAD SEED PASS TRACE NPROC

Imports exdev, builds the workload's densities, runs the workload's ops
(traced when TRACE is 1) and prints one JSON line on stdout.  The pass's op
seeds come from SeedSequence([SEED, PASS]).  Timestamps that the harness
compares with its own use time.monotonic, which is system-wide on Linux.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import layers
from tracing import Tracer


def run_pass(name: str, seed: int, index: int, trace: bool,
             nproc: int) -> dict:
    t0 = time.perf_counter()
    import exdev
    import_s = time.perf_counter() - t0
    # after exdev, so that the import time above includes numpy and scipy
    import numpy as np
    from workloads import OpLog, WORKLOADS

    setup, run = WORKLOADS[name]
    t0 = time.perf_counter()
    dens = setup(exdev)
    build_s = time.perf_counter() - t0
    ready = time.monotonic()

    seeds = [int(s) for s in np.random.SeedSequence([seed, index])
             .generate_state(8)]
    log = OpLog()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        out = run(exdev, dens, seeds, log, nproc)
        wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "ready_monotonic": ready,
        "wall_s": wall_s,
        "ess": out["ess"],
        "ops": log.attempted,
        "failures": log.failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__,
                     "scipy": sys.modules["scipy"].__version__},
    }
    if tracer is not None:
        extras = {"densities.build_s": build_s, "setup.import_s": import_s,
                  **out}
        result["layers"] = layers.layer_metrics(tracer.spans, extras)
        result["dominant"] = layers.dominant_span(tracer.spans)
    return result


def main(argv: list[str]) -> int:
    name, seed, index, trace, nproc = argv
    result = run_pass(name, int(seed), int(index), trace == "1", int(nproc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
