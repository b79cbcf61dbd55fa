"""Outside-in span tracing of exdev's layers.

A Tracer replaces module attributes with span-recording wrappers and puts the
originals back on `uninstall`.  Each wrapper goes where its caller looks the
name up: `tails` binds `build_cdf_table` by from-import, `conditional` binds
`sampler_tilted` the same way, and `tilting` calls its own `cumulants`
through module globals, so those module attributes are what gets replaced.
Nothing under src/ changes, and a process that never installs a tracer runs
the original objects.

Spans are kept in memory.  A span records its name, start and end
(perf_counter seconds), parent span and thread id.  A span opened in a
worker thread with nothing open on that thread (the IS oracle's pool) takes
as parent the innermost span open on the thread that installed the tracer,
which is blocked waiting for the pool at that moment.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _point_attrs(args, kwargs, out):
    return {"chains": out.meta["chains"], "steps": out.meta["steps"],
            "burn_in": out.meta["burn_in"], "residual": out.residual,
            "rows": int(out.coords.shape[0])}


def _exceedance_attrs(args, kwargs, out):
    return {"count": int(out.coords.shape[0]),
            "proposals": out.meta["proposals"], "ess": out.ess}


def _is_oracle_attrs(args, kwargs, out):
    return {"threads": kwargs.get("threads", 1), "samples": out.samples,
            "hits": out.hit_fraction * out.samples, "ess": out.ess}


# (module, attribute, span name, attrs from (args, kwargs, result)).  An
# attribute "Class.method" replaces the method on the class.
TARGETS = (
    ("exdev.densities", "psi", "densities.psi", None),
    ("exdev.quadrature", "moments", "quadrature.moments", None),
    ("exdev.tilting", "cumulants", "tilting.cumulants", None),
    ("exdev.levelsets", "cumulants", "tilting.cumulants", None),
    ("exdev.tilting", "invert_m", "tilting.invert_m", None),
    ("exdev.levelsets", "invert_m", "tilting.invert_m", None),
    ("exdev.tilting", "abelian_check", "tilting.abelian_check", None),
    ("exdev.tilting", "self_neglect_check", "tilting.self_neglect_check",
     None),
    ("exdev.tails", "build_cdf_table", "tables.build_cdf_table", None),
    ("exdev.tables", "CdfTable.sample", "tables.sample",
     lambda args, kwargs, out: {"draws": int(out.size)}),
    ("exdev.tails", "sampler_tilted", "tails.sampler_tilted", None),
    ("exdev.conditional", "sampler_tilted", "tails.sampler_tilted", None),
    ("exdev.tails", "tail_prob", "tails.tail_prob", None),
    ("exdev.tails", "rate_I", "tails.rate_I", None),
    ("exdev.tails", "tail_prob_is_oracle", "tails.is_oracle",
     _is_oracle_attrs),
    ("exdev.conditional", "sample_point_conditional", "conditional.point",
     _point_attrs),
    ("exdev.conditional", "_heat_bath_draw", "conditional.pair_step", None),
    ("exdev.conditional", "sample_exceedance_conditional",
     "conditional.exceedance", _exceedance_attrs),
    ("exdev.conditional", "marginal_tv", "conditional.marginal_tv", None),
    ("exdev.conditional", "dlp_check", "conditional.dlp_check", None),
    ("exdev.conditional", "exceedance_vs_point_equivalence",
     "conditional.equivalence", None),
    ("exdev.edgeworth", "convolve_oracle", "edgeworth.convolve_oracle", None),
    ("exdev.edgeworth", "edgeworth_density", "edgeworth.edgeworth_density",
     None),
    ("exdev.levelsets", "mh_sample", "levelsets.mh_sample",
     lambda args, kwargs, out: {"acceptance": out[2]}),
    ("exdev.levelsets", "level_set_sampler", "levelsets.level_set", None),
)


def resolve(module: str, attr: str):
    """(owner object, attribute name) for a TARGETS entry."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span recorder; `install` patches TARGETS, `uninstall` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = next(reversed(tracer._home_stack), None)
            span = Span(id=next(tracer._ids), name=name, parent=parent,
                        thread=threading.get_ident(),
                        start=time.perf_counter())
            stack.append(span.id)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, attrs in TARGETS:
            owner, key = resolve(module, attr)
            original = getattr(owner, key)
            self._patched.append((owner, key, original))
            setattr(owner, key, self.wrap(name, original, attrs))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)
