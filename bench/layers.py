"""Per-layer metrics derived from one pass's spans, and the map from each of
them to the end-to-end metric it should move.

Layers are exdev's modules.  `cli`, `config` and `errors` only parse flags
and emit JSON, so they get no layer metrics; importing the package is timed
as `setup.import_s`.  A metric whose layer did not run in a workload reads 0.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

LAYERS = ("densities", "quadrature", "tilting", "tables", "tails",
          "edgeworth", "conditional", "levelsets")

ALL = ("point-gibbs", "tail-is", "exceedance", "tilt-sweep")

# name -> (unit, better, end-to-end metrics it should move, workloads where
# it should move them).  Later changes cite these names.
METRICS = {
    "quadrature.moments.calls": ("count", "lower", "wall_s", "tilt-sweep"),
    "quadrature.moments.busy_s": ("s", "lower", "wall_s", "tilt-sweep"),
    "quadrature.moments.ms_per_call_p50": ("ms", "lower", "wall_s",
                                           "tilt-sweep"),
    # the highest whole percentile with at least ten calls beyond it
    "quadrature.moments.ms_per_call_tail": ("ms", "lower", "wall_s",
                                            "tilt-sweep"),
    "tilting.cumulants.calls": ("count", "lower", "wall_s", "tilt-sweep"),
    "tilting.cumulant_hit_ratio": ("ratio", "higher", "wall_s", "tilt-sweep"),
    "tilting.invert_m.calls": ("count", "lower", "wall_s",
                               "tilt-sweep, exceedance"),
    "tilting.invert_m.busy_s": ("s", "lower", "wall_s",
                                "tilt-sweep, exceedance"),
    "tilting.invert_m.cumulants_per_solve": ("count", "lower", "wall_s",
                                             "tilt-sweep, exceedance"),
    "tables.build_cdf_table.calls": ("count", "lower", "wall_s",
                                     "exceedance"),
    "tables.build_cdf_table.busy_s": ("s", "lower", "wall_s", "exceedance"),
    "tables.sample.draws": ("count", "lower", "wall_s, ess_per_s",
                            "tail-is, exceedance"),
    "tables.sample.busy_s": ("s", "lower", "wall_s, ess_per_s",
                             "tail-is, exceedance"),
    "tables.sample.ns_per_draw": ("ns", "lower", "wall_s, ess_per_s",
                                  "tail-is, exceedance"),
    "tails.is_oracle.busy_s": ("s", "lower", "wall_s, ess_per_s", "tail-is"),
    "tails.is_oracle.hit_fraction": ("ratio", "higher", "wall_s, ess_per_s",
                                     "tail-is"),
    "tails.is_oracle.ess_ratio": ("ratio", "higher", "ess_per_s", "tail-is"),
    # sampler busy time over (threads x oracle busy time)
    "tails.is_oracle.thread_util": ("ratio", "higher", "wall_s", "tail-is"),
    "conditional.point.busy_s": ("s", "lower", "wall_s, ess_per_s",
                                 "point-gibbs"),
    # busy time over burn-in plus retained pair steps
    "conditional.point.ms_per_step": ("ms", "lower", "wall_s, ess_per_s",
                                      "point-gibbs"),
    "conditional.point.chain_updates_per_s": ("1/s", "higher",
                                              "wall_s, ess_per_s",
                                              "point-gibbs"),
    "conditional.point.sum_residual": ("ratio", "lower", "wall_s",
                                       "point-gibbs"),
    # benchmark multi-chain ESS over retained rows
    "conditional.point.ess_ratio": ("ratio", "higher", "ess_per_s",
                                    "point-gibbs"),
    "conditional.pair_step.calls": ("count", "lower", "wall_s",
                                    "point-gibbs"),
    "conditional.pair_step.busy_s": ("s", "lower", "wall_s", "point-gibbs"),
    "conditional.exceedance.busy_s": ("s", "lower", "wall_s, ess_per_s",
                                      "exceedance"),
    "conditional.exceedance.proposals": ("count", "lower",
                                         "wall_s, ess_per_s", "exceedance"),
    "conditional.exceedance.acceptance": ("ratio", "higher",
                                          "wall_s, ess_per_s", "exceedance"),
    "conditional.exceedance.ess_ratio": ("ratio", "higher", "ess_per_s",
                                         "exceedance"),
    # DLP estimates above 1 by rounding (criterion 08's known defect)
    "conditional.dlp.above_one": ("count", "lower", "correct",
                                  "exceedance"),
    "conditional.marginal_tv.busy_s": ("s", "lower", "wall_s",
                                       "point-gibbs"),
    "edgeworth.convolve_oracle.calls": ("count", "lower", "wall_s",
                                        "tilt-sweep"),
    "edgeworth.convolve_oracle.busy_s": ("s", "lower", "wall_s",
                                         "tilt-sweep"),
    "levelsets.mh_sample.busy_s": ("s", "lower", "wall_s", "tilt-sweep"),
    "levelsets.mh_sample.acceptance": ("ratio", "higher", "wall_s",
                                       "tilt-sweep"),
    "densities.build_s": ("s", "lower", "setup_s", ", ".join(ALL)),
    "setup.import_s": ("s", "lower", "setup_s", ", ".join(ALL)),
    **{f"layer.{layer}.self_s": ("s", "lower", "wall_s", ", ".join(ALL))
       for layer in LAYERS},
    # traced wall_s minus untraced wall_s, medians over the run's passes
    "trace.overhead_s": ("s", "lower", "wall_s", ", ".join(ALL)),
}


def _self_time(span, children) -> float:
    """Duration minus the part of it that the union of child spans covers."""
    covered = 0.0
    reach = span.start
    for lo, hi in sorted((c.start, c.end) for c in children):
        lo, hi = max(lo, reach), min(hi, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def _tail_ms(durations) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    calls = len(ordered)
    if calls <= 10:
        return 1e3 * ordered[-1]
    pct = math.floor(100.0 * (calls - 10) / calls)
    pos = pct / 100.0 * (calls - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, calls - 1)
    return 1e3 * (ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, extras: dict) -> dict:
    """Per-layer metrics of one pass (everything but trace.overhead_s).

    extras carries what the worker measured outside the spans:
    densities.build_s, setup.import_s, the pass's benchmark ESS and the
    exceedance workload's dlp_above_one count.
    """
    by_id = {s.id: s for s in spans}
    named = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def ancestors(s):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            yield s

    def outer(name):
        """Spans of `name` not nested in another span of the same name."""
        return [s for s in named[name]
                if all(a.name != name for a in ancestors(s))]

    def busy(name) -> float:
        return sum(s.duration for s in outer(name))

    def total(name, attr) -> float:
        return sum(s.attrs.get(attr, 0) for s in named[name])

    m = {}
    moments = [s.duration for s in named["quadrature.moments"]]
    m["quadrature.moments.calls"] = len(moments)
    m["quadrature.moments.busy_s"] = busy("quadrature.moments")
    m["quadrature.moments.ms_per_call_p50"] = (
        1e3 * statistics.median(moments) if moments else 0.0)
    m["quadrature.moments.ms_per_call_tail"] = _tail_ms(moments)

    cum_calls = len(named["tilting.cumulants"])
    m["tilting.cumulants.calls"] = cum_calls
    m["tilting.cumulant_hit_ratio"] = (
        1.0 - len(moments) / cum_calls if cum_calls else 0.0)
    solves = named["tilting.invert_m"]
    m["tilting.invert_m.calls"] = len(solves)
    m["tilting.invert_m.busy_s"] = busy("tilting.invert_m")
    m["tilting.invert_m.cumulants_per_solve"] = _ratio(
        sum(1 for s in solves for c in children[s.id]
            if c.name == "tilting.cumulants"), len(solves))

    m["tables.build_cdf_table.calls"] = len(named["tables.build_cdf_table"])
    m["tables.build_cdf_table.busy_s"] = busy("tables.build_cdf_table")
    draws = total("tables.sample", "draws")
    m["tables.sample.draws"] = draws
    m["tables.sample.busy_s"] = busy("tables.sample")
    m["tables.sample.ns_per_draw"] = _ratio(1e9 * busy("tables.sample"),
                                            draws)

    oracles = named["tails.is_oracle"]
    samples = total("tails.is_oracle", "samples")
    oracle_busy = busy("tails.is_oracle")
    m["tails.is_oracle.busy_s"] = oracle_busy
    m["tails.is_oracle.hit_fraction"] = _ratio(
        total("tails.is_oracle", "hits"), samples)
    m["tails.is_oracle.ess_ratio"] = _ratio(total("tails.is_oracle", "ess"),
                                            samples)
    sampling = sum(s.duration for s in named["tables.sample"]
                   if any(a.name == "tails.is_oracle" for a in ancestors(s)))
    m["tails.is_oracle.thread_util"] = _ratio(
        sampling, sum(o.attrs.get("threads", 1) * o.duration
                      for o in oracles))

    point = named["conditional.point"]
    point_busy = busy("conditional.point")
    steps = sum(s.attrs.get("steps", 0) + s.attrs.get("burn_in", 0)
                for s in point)
    updates = sum(s.attrs.get("chains", 0) * (s.attrs.get("steps", 0)
                                              + s.attrs.get("burn_in", 0))
                  for s in point)
    m["conditional.point.busy_s"] = point_busy
    m["conditional.point.ms_per_step"] = _ratio(1e3 * point_busy, steps)
    m["conditional.point.chain_updates_per_s"] = _ratio(updates, point_busy)
    m["conditional.point.sum_residual"] = max(
        (s.attrs.get("residual", 0.0) for s in point), default=0.0)
    m["conditional.point.ess_ratio"] = _ratio(
        extras["ess"], total("conditional.point", "rows"))
    m["conditional.pair_step.calls"] = len(named["conditional.pair_step"])
    m["conditional.pair_step.busy_s"] = busy("conditional.pair_step")

    count = total("conditional.exceedance", "count")
    proposals = total("conditional.exceedance", "proposals")
    m["conditional.exceedance.busy_s"] = busy("conditional.exceedance")
    m["conditional.exceedance.proposals"] = proposals
    m["conditional.exceedance.acceptance"] = _ratio(count, proposals)
    m["conditional.exceedance.ess_ratio"] = _ratio(
        total("conditional.exceedance", "ess"), count)
    m["conditional.dlp.above_one"] = extras.get("dlp_above_one", 0)
    m["conditional.marginal_tv.busy_s"] = busy("conditional.marginal_tv")

    m["edgeworth.convolve_oracle.calls"] = len(
        named["edgeworth.convolve_oracle"])
    m["edgeworth.convolve_oracle.busy_s"] = busy("edgeworth.convolve_oracle")
    mh = named["levelsets.mh_sample"]
    m["levelsets.mh_sample.busy_s"] = busy("levelsets.mh_sample")
    m["levelsets.mh_sample.acceptance"] = _ratio(
        sum(s.attrs.get("acceptance", 0.0) for s in mh), len(mh))

    m["densities.build_s"] = extras["densities.build_s"]
    m["setup.import_s"] = extras["setup.import_s"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = 0.0
    for name, value in self_times(spans).items():
        m[f"layer.{name.split('.')[0]}.self_s"] += value
    return m


def self_times(spans) -> dict:
    """Self seconds summed per span name."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = defaultdict(float)
    for s in spans:
        out[s.name] += _self_time(s, children[s.id])
    return dict(out)


def dominant_span(spans) -> tuple[str, float]:
    """(span name, self seconds) of the name with the most self time."""
    return max(self_times(spans).items(), key=lambda kv: kv[1],
               default=("none", 0.0))
