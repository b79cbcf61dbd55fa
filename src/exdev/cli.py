"""Batch command-line driver: one experiment per invocation, config file plus
flag overrides in, JSON summary plus CSV table out.

Exit codes: 0 success, 2 configuration/validation problems, 3 numerical
failures (and anything unexpected).  stderr carries one machine-greppable
line per failure, "ERROR <TAG>: message", and one per warning, "WARNING
<TAG>: message".  Outputs are a deterministic function of (resolved config,
seed): JSON keys are sorted, CSV uses '\\n' terminators and repr floats, and
every report embeds the resolved config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import __version__, SCHEMA_VERSION
from .config import (as_float, as_int, as_int_list, as_seed,
                     density_from_options, load_config, merge_options)
from .conditional import (ConditionDescriptor, dlp_check, epsilon_schedule,
                          exceedance_vs_point_equivalence, marginal_tv,
                          sample_point_conditional, usable_cpus)
from .edgeworth import convolve_oracle, edgeworth_density
from .errors import ExdevError, ValidationError
from .levelsets import (f_catalog, level_set_sampler, positive_marginal,
                        product_ambient, signed_sqrt_marginal)
from .tails import tail_prob, tail_prob_is_oracle
from .tilting import abelian_check, self_neglect_check, tilt_to_mean

__all__ = ["main", "run_experiment"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        raise ValidationError(message)


def _threads(opts: Dict[str, str]) -> int:
    v = as_int(opts, "threads") if "threads" in opts else usable_cpus()
    if v < 1:
        raise ValidationError("threads must be >= 1")
    return v


def _json_ready(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _emit(experiment: str, opts: Dict[str, str], results: dict,
          header: List[str], rows: List[list]) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "seed": as_seed(opts),
        "config": dict(sorted(opts.items())),
        "results": _json_ready(results),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    prefix = opts.get("out", "")
    if prefix:
        parent = os.path.dirname(prefix)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(prefix + ".json", "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(prefix + ".csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
    else:
        sys.stdout.write(text)


def _cell(v) -> str:
    if isinstance(v, (np.floating,)):
        v = float(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# experiments

def _exp_tilt(opts: Dict[str, str]) -> None:
    d = density_from_options(opts)
    t_min = as_float(opts, "t-min")
    t_max = as_float(opts, "t-max")
    count = as_int(opts, "t-count")
    if not (0.0 < t_min < t_max and count >= 2):
        raise ValidationError("need 0 < t-min < t-max and t-count >= 2")
    grid = np.geomspace(t_min, t_max, count)
    rep = abelian_check(d, grid)
    # the +-3/s window needs t well above s^-1; start the diagnostic at 100
    sn = [self_neglect_check(d, float(t)) for t in
          np.geomspace(max(t_min, 100.0), max(t_max, 200.0), 3)]
    results = {
        "density": d.name,
        "final_m_dev": rep.final_m_dev,
        "final_s2_dev": rep.final_s2_dev,
        "max_m_dev": rep.max_m_dev,
        "max_s2_dev": rep.max_s2_dev,
        "final_skew": rep.final_skew,
        "skew_monotone_decreasing": rep.skew_monotone_decreasing,
        "self_neglect_sups": sn,
        "self_neglect_decreasing": all(b < a for a, b in zip(sn, sn[1:])),
    }
    rows = rep.rows()
    header = list(rows[0].keys())
    _emit("tilt", opts, results, header, [list(r.values()) for r in rows])


def _exp_edgeworth(opts: Dict[str, str]) -> None:
    d = density_from_options(opts)
    target = as_float(opts, "mean-target")
    n_list = as_int_list(opts, "n-list")
    td = tilt_to_mean(d, target)
    rows = []
    sup_edge = {}
    sup_gauss = {}
    for n in n_list:
        oracle = convolve_oracle(td, n)
        ev = edgeworth_density(td, n, oracle.x)
        err_e = float(np.max(np.abs(ev.value - oracle.density)))
        err_g = float(np.max(np.abs(ev.gaussian - oracle.density)))
        sup_edge[n] = err_e
        sup_gauss[n] = err_g
        rows.append([n, td.t, td.s, ev.skew_coeff, err_e, err_g])
    shrink = [sup_edge[a] / sup_edge[b] for a, b in zip(n_list, n_list[1:])]
    results = {
        "density": d.name, "t": td.t, "m": td.m, "s": td.s, "mu3": td.mu3,
        "sup_err_edgeworth": {str(k): v for k, v in sup_edge.items()},
        "sup_err_gaussian": {str(k): v for k, v in sup_gauss.items()},
        "shrink_factors": shrink,
    }
    header = ["n", "t", "s", "skew_coeff", "sup_err_edgeworth",
              "sup_err_gaussian"]
    _emit("edgeworth", opts, results, header, rows)


def _exp_tail(opts: Dict[str, str]) -> None:
    d = density_from_options(opts)
    n = as_int(opts, "n")
    a = as_float(opts, "a")
    samples = as_int(opts, "is-samples")
    if samples < 0:
        raise ValidationError("is-samples must be >= 0 (0 skips the oracle)")
    if samples == 0 and "threads" in opts:
        raise ValidationError("threads is read only with is-samples > 0")
    est = tail_prob(d, n, a)
    results = {
        "density": d.name, "n": n, "a": a, "t": est.t, "s": est.s,
        "rate": est.rate, "log_prob": est.log_prob, "prob": est.prob,
        "lambda_n": est.lambda_n, "lambda_ok": est.lambda_ok,
    }
    rows = [[n, a, est.t, est.s, est.rate, est.log_prob, est.lambda_n]]
    header = ["n", "a", "t", "s", "rate", "log_prob", "lambda_n"]
    if samples > 0:
        oracle = tail_prob_is_oracle(d, n, a, samples=samples,
                                     seed=as_seed(opts),
                                     threads=_threads(opts))
        results["oracle"] = {
            "log_prob": oracle.log_prob, "rel_se": oracle.rel_se,
            "ess": oracle.ess, "hit_fraction": oracle.hit_fraction,
            "samples": oracle.samples,
            "log_ratio": est.log_prob - oracle.log_prob,
        }
    _emit("tail", opts, results, header, rows)


def _exp_gibbs_tv(opts: Dict[str, str]) -> None:
    d = density_from_options(opts)
    n_list = as_int_list(opts, "n-list")
    alpha = as_float(opts, "alpha")
    chains = as_int(opts, "chains")
    seed = as_seed(opts)
    burn = as_int(opts, "burn-in") if "burn-in" in opts else None
    stride = as_int(opts, "stride") if "stride" in opts else None
    steps = as_int(opts, "steps") if "steps" in opts else None
    rows = []
    tvs = []
    for n in n_list:
        a = float(n) ** alpha
        cond = ConditionDescriptor("point", n, a)
        sample = sample_point_conditional(d, cond, chains=chains, steps=steps,
                                          burn_in=burn, stride=stride,
                                          seed=seed)
        est = marginal_tv(sample, tilt_to_mean(d, a), seed=seed + 1)
        tvs.append(est.tv)
        rows.append([n, a, est.tv, est.ci_low, est.ci_high, est.bins,
                     est.sample_size])
    results = {
        "density": d.name, "alpha": alpha, "n_list": n_list, "tv": tvs,
        "strictly_decreasing": all(b < a for a, b in zip(tvs, tvs[1:])),
        "final_tv": tvs[-1],
    }
    header = ["n", "a_n", "tv", "ci_low", "ci_high", "bins", "sample_size"]
    _emit("gibbs-tv", opts, results, header, rows)


def _exp_dlp(opts: Dict[str, str]) -> None:
    k = as_float(opts, "k")
    d = density_from_options(opts, also_read=("k",))  # for the schedule
    alpha = as_float(opts, "alpha")
    n_list = as_int_list(opts, "n-list")
    count = as_int(opts, "count")
    delta = as_float(opts, "delta")
    seed = as_seed(opts)
    rows = []
    ests = []
    for n in n_list:
        a = float(n) ** alpha
        window = epsilon_schedule(k, n, a)
        cond = ConditionDescriptor("exceedance", n, a)
        est = dlp_check(d, cond, window, count=count, seed=seed, delta=delta)
        ests.append(est.estimate)
        rows.append([n, a, window.epsilon_n, int(window.feasible),
                     est.estimate, est.se, est.ess])
    results = {
        "k": k, "alpha": alpha, "n_list": n_list, "estimates": ests,
        "nondecreasing": all(b >= a for a, b in zip(ests, ests[1:])),
        "final_estimate": ests[-1],
    }
    header = ["n", "a_n", "epsilon_n", "feasible", "estimate", "se", "ess"]
    _emit("dlp", opts, results, header, rows)


def _exp_levelset(opts: Dict[str, str]) -> None:
    d = density_from_options(opts)
    fname = opts.get("f", "")
    if fname not in ("sumsq", "norm2", "linear", "identity"):
        raise ValidationError("f must be one of identity|sumsq|norm2|linear")
    dim = as_int(opts, "dim")
    a = as_float(opts, "a")
    count = as_int(opts, "count")
    kind = opts.get("marginal", "signed-sqrt" if fname == "sumsq"
                    else "positive")
    if kind not in ("positive", "signed-sqrt"):
        raise ValidationError("marginal must be positive|signed-sqrt")
    marg = signed_sqrt_marginal(d) if kind == "signed-sqrt" \
        else positive_marginal(d)
    ambient = product_ambient(marg, dim)
    f = f_catalog(fname, dim)
    res = level_set_sampler(ambient, f, a, count, seed=as_seed(opts))
    fv = res.f_values
    results = {
        "density": d.name, "f": fname, "dim": dim, "marginal": kind,
        "a": a, "t": res.t,
        "acceptance": res.acceptance, "hit_fraction": res.hit_fraction,
        "f_mean": float(fv.mean()), "f_std": float(fv.std()),
        "epsilon_n": res.window.epsilon_n if res.window else None,
        "window_feasible": res.window.feasible if res.window else None,
    }
    rows = [[fname, dim, a, res.t, res.hit_fraction, float(fv.mean()),
             float(fv.std()), res.acceptance]]
    header = ["f", "dim", "a", "t", "hit_fraction", "f_mean", "f_std",
              "acceptance"]
    _emit("levelset", opts, results, header, rows)


def _exp_equiv(opts: Dict[str, str]) -> None:
    d = density_from_options(opts)
    n = as_int(opts, "n")
    if "a-n" in opts:
        if "alpha" in opts:
            raise ValidationError("alpha is read only without a-n")
        a = as_float(opts, "a-n")
    else:
        opts.setdefault("alpha", "0.35")  # the default, echoed in the report
        a = float(n) ** as_float(opts, "alpha")
    count = as_int(opts, "count")
    td = tilt_to_mean(d, a)
    B = [(a - td.s, a + td.s)]
    rep = exceedance_vs_point_equivalence(d, n, a, B, count=count,
                                          seed=as_seed(opts))
    row = rep.rows[0]
    results = {
        "density": d.name, "n": n, "a_n": a, "s": td.s,
        "interval": [row.lo, row.hi], "p_exceedance": row.p_exceedance,
        "se": row.se, "ref_mass": row.ref_mass, "ratio": row.ratio,
        "ratio_band": [row.ratio_low, row.ratio_high],
        "ess": rep.ess, "acceptance": rep.acceptance,
    }
    rows = [[n, a, row.lo, row.hi, row.p_exceedance, row.se, row.ref_mass,
             row.ratio, row.ratio_low, row.ratio_high]]
    header = ["n", "a_n", "b_lo", "b_hi", "p_exceedance", "se", "ref_mass",
              "ratio", "ratio_low", "ratio_high"]
    _emit("equiv", opts, results, header, rows)


class _Experiment(NamedTuple):
    run: Callable[[Dict[str, str]], None]
    defaults: Dict[str, str]
    flags: Tuple[str, ...]  # read by run, besides _COMMON_FLAGS


# every experiment reads these; seed is in every report (schema v1)
_COMMON_FLAGS = ("config", "out", "seed", "density", "k", "terms")

_EXPERIMENTS: Dict[str, _Experiment] = {
    "tilt": _Experiment(
        _exp_tilt, {"t-min": "10", "t-max": "10000", "t-count": "25"},
        ("t-min", "t-max", "t-count")),
    "edgeworth": _Experiment(
        _exp_edgeworth, {"mean-target": "20", "n-list": "4,16,64"},
        ("mean-target", "n-list")),
    "tail": _Experiment(
        _exp_tail, {"n": "10", "a": "3", "is-samples": "0"},
        ("n", "a", "is-samples", "threads")),
    "gibbs-tv": _Experiment(
        _exp_gibbs_tv, {"n-list": "8,32,128", "alpha": "0.35",
                        "chains": "512"},
        ("n-list", "alpha", "chains", "steps", "burn-in", "stride")),
    "dlp": _Experiment(
        _exp_dlp, {"density": "weibull", "alpha": "0.4",
                   "n-list": "16,64,256", "count": "20000", "delta": "0.1"},
        ("alpha", "n-list", "count", "delta")),
    "levelset": _Experiment(
        _exp_levelset, {"f": "sumsq", "dim": "1", "count": "20000"},
        ("f", "dim", "a", "count", "marginal")),
    "equiv": _Experiment(
        _exp_equiv, {"n": "128", "count": "40000"},
        ("n", "a-n", "alpha", "count")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exdev",
                     description="extreme-deviation numerical laboratory")
    parser.add_argument("--version", action="version",
                        version=f"exdev {__version__} (report schema "
                                f"{SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="experiment")
    for name, exp in _EXPERIMENTS.items():
        # no prefix matching: "dlp --n" must not pass as "--n-list"
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in _COMMON_FLAGS + exp.flags:
            p.add_argument(f"--{flag}", default=None)
    return parser


def run_experiment(experiment: str, flag_values: Dict[str, Optional[str]]) -> None:
    exp = _EXPERIMENTS[experiment]
    config = {}
    if flag_values.get("config"):
        config = load_config(flag_values["config"])
    if "experiment" in config and config["experiment"] != experiment:
        raise ValidationError(
            f"config targets {config['experiment']!r}, invoked {experiment!r}")
    config.pop("experiment", None)
    flags = {k: v for k, v in flag_values.items() if v is not None}
    allowed = _COMMON_FLAGS + exp.flags
    unread = sorted(k for k in {**config, **flags} if k not in allowed)
    if unread:
        raise ValidationError(
            f"{experiment} does not read {', '.join(unread)}")
    opts = merge_options({"seed": "0", **exp.defaults}, config, flags)
    opts.pop("config", None)
    as_seed(opts)  # validate early
    exp.run(opts)


def _warning_line(message, category, filename, lineno, file=None,
                  line=None) -> None:
    tag = getattr(category, "tag", category.__name__)
    sys.stderr.write(f"WARNING {tag}: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "experiment", None):
            raise ValidationError("an experiment subcommand is required")
        flags = {k.replace("_", "-"): v for k, v in vars(args).items()
                 if k != "experiment"}
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            run_experiment(args.experiment, flags)
        return 0
    except ValidationError as exc:
        sys.stderr.write(f"ERROR {exc.tag}: {exc}\n")
        return 2
    except ExdevError as exc:
        sys.stderr.write(f"ERROR {exc.tag}: {exc}\n")
        return 3
    except Exception as exc:  # never panic on bad input
        sys.stderr.write(f"ERROR NUMERIC_FAIL: unexpected: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
