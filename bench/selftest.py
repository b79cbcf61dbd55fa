"""Self-tests of the benchmark harness.

Run from the repository root:  python3 bench/selftest.py

They check the ESS estimator on chains whose ESS is known, that an
untraced pass runs every original exdev callable, that a traced pass
records a span for every wrapped callable and finds each workload's
dominant layer, and that BENCHMARK.json names the metrics the harness
prints.  Each workload runs once untraced and once traced (about half a
minute in all).
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from ess import bulk_ess  # noqa: E402
from workloads import OpLog, WORKLOADS  # noqa: E402

# the layer whose spans take the most self time, as measured when the
# workloads were sized
DOMINANT = {"point-gibbs": "conditional.pair_step",
            "tail-is": "tables.sample",
            "exceedance": "tables.sample",
            "tilt-sweep": "quadrature.moments"}


def _ar1(phi: float, chains: int, iters: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((chains, iters))
    x = np.empty_like(eps)
    x[:, 0] = eps[:, 0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, iters):
        x[:, t] = phi * x[:, t - 1] + eps[:, t]
    return x


def _originals() -> dict:
    out = {}
    for module, attr, _name, _attrs in tracing.TARGETS:
        owner, key = tracing.resolve(module, attr)
        out[(module, attr)] = getattr(owner, key)
    return out


def _unwrapped(originals: dict) -> list:
    """TARGETS entries whose attribute is no longer the original object."""
    return [k for k, fn in originals.items()
            if getattr(*tracing.resolve(*k)) is not fn]


class EssTest(unittest.TestCase):
    def test_ar1_chains(self):
        # an AR(1) chain with coefficient phi has ESS N (1 - phi) / (1 + phi)
        for phi in (0.0, 0.5, 0.9):
            x = _ar1(phi, chains=64, iters=1000, seed=3)
            exact = x.size * (1.0 - phi) / (1.0 + phi)
            self.assertAlmostEqual(bulk_ess(x) / exact, 1.0, delta=0.1,
                                   msg=f"phi={phi}")

    def test_stuck_chains_have_low_ess(self):
        # chains that each sit at their own level never mix
        x = _ar1(0.5, chains=8, iters=400, seed=4) * 0.01
        x += np.arange(8)[:, None]
        self.assertLess(bulk_ess(x), 0.05 * x.size)


class TracingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import exdev
        cls.ex = exdev
        cls.originals = _originals()
        cls.seeds = [int(s) for s in
                     np.random.SeedSequence([1, 0]).generate_state(8)]

    def test_untraced_pass_runs_originals(self):
        originals = self.originals
        test = self

        class CheckingLog(OpLog):
            def run(self, name, call, check):
                test.assertEqual(_unwrapped(originals), [], name)
                return super().run(name, call, check)

        for name, (setup, run_workload) in WORKLOADS.items():
            log = CheckingLog()
            run_workload(self.ex, setup(self.ex), self.seeds, log, 2)
            self.assertEqual(log.failures, [], name)
        self.assertEqual(_unwrapped(originals), [])

    def test_traced_pass_spans_every_target(self):
        seen = set()
        for name, (setup, run_workload) in WORKLOADS.items():
            dens = setup(self.ex)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                self.assertEqual(len(_unwrapped(self.originals)),
                                 len(tracing.TARGETS))
                log = OpLog()
                out = run_workload(self.ex, dens, self.seeds, log, 2)
            finally:
                tracer.uninstall()
            self.assertEqual(log.failures, [], name)
            self.assertEqual(layers.dominant_span(tracer.spans)[0],
                             DOMINANT[name], name)
            metrics = layers.layer_metrics(
                tracer.spans, {"densities.build_s": 0.0,
                               "setup.import_s": 0.0, **out})
            self.assertEqual(set(metrics) | {"trace.overhead_s"},
                             set(layers.METRICS))
            seen |= {s.name for s in tracer.spans}
        self.assertEqual(_unwrapped(self.originals), [])
        self.assertEqual(seen, {t[2] for t in tracing.TARGETS})


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            {k: v[:2] for k, v in layers.METRICS.items()})


if __name__ == "__main__":
    unittest.main()
