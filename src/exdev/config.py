"""Experiment configuration: flat key=value text files, typed coercion
helpers, and density construction from declarative options.

Precedence is defaults < config file < explicit flags; the CLI resolves that
ordering and this module supplies the pieces.  Keys are the long flag names
with dashes; values are plain strings until coerced.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence

from .densities import (ExpTerm, LightTailDensity, LogTerm, PowerTerm,
                        density_from_terms, double_exp, weibull)
from .errors import ConfigMissing, ValidationError

__all__ = [
    "parse_config_text", "load_config", "merge_options", "as_float",
    "as_int", "as_seed", "as_int_list", "density_from_options",
]


def parse_config_text(text: str) -> Dict[str, str]:
    """key = value per line; '#' starts a comment; blank lines ignored."""
    out: Dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {ln}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")
        value = value.strip()
        if not key:
            raise ValidationError(f"config line {ln}: empty key")
        if key in out:
            raise ValidationError(f"config line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str) -> Dict[str, str]:
    if not os.path.exists(path):
        raise ConfigMissing(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def merge_options(defaults: Dict[str, str], config: Dict[str, str],
                  flags: Dict[str, Optional[str]]) -> Dict[str, str]:
    """defaults < config < flags (flags entries with value None are unset)."""
    out = dict(defaults)
    for k, v in config.items():
        out[k] = v
    for k, v in flags.items():
        if v is not None:
            out[k] = v
    return out


# ---------------------------------------------------------------------------
# typed coercion

def as_float(opts: Dict[str, str], key: str) -> float:
    if key not in opts:
        raise ConfigMissing(f"missing required option {key!r}")
    try:
        v = float(opts[key])
    except ValueError:
        raise ValidationError(f"option {key!r}: not a number: {opts[key]!r}")
    if not math.isfinite(v):
        raise ValidationError(f"option {key!r}: must be finite")
    return v


def as_int(opts: Dict[str, str], key: str) -> int:
    if key not in opts:
        raise ConfigMissing(f"missing required option {key!r}")
    try:
        return int(opts[key])
    except ValueError:
        raise ValidationError(f"option {key!r}: not an integer: {opts[key]!r}")


def as_seed(opts: Dict[str, str], key: str = "seed") -> int:
    v = as_int(opts, key)
    if not 0 <= v < 2 ** 64:
        raise ValidationError("seed must be an unsigned 64-bit integer")
    return v


def _split(value: str) -> List[str]:
    return [p for p in (s.strip() for s in value.split(",")) if p]


def as_int_list(opts: Dict[str, str], key: str) -> List[int]:
    if key not in opts:
        raise ConfigMissing(f"missing required option {key!r}")
    try:
        vals = [int(p) for p in _split(opts[key])]
    except ValueError:
        raise ValidationError(f"option {key!r}: not an integer list")
    if not vals:
        raise ValidationError(f"option {key!r}: empty list")
    return vals


# ---------------------------------------------------------------------------
# density construction

def _parse_terms(spec: str) -> Sequence:
    """'power:1:2.5, log:-1.5, exp:0.3679:1' -> exponent term objects."""
    terms = []
    for part in _split(spec):
        bits = part.split(":")
        kind = bits[0].strip().lower()
        try:
            if kind == "power" and len(bits) == 3:
                terms.append(PowerTerm(float(bits[1]), float(bits[2])))
            elif kind == "log" and len(bits) == 2:
                terms.append(LogTerm(float(bits[1])))
            elif kind == "exp" and len(bits) == 3:
                terms.append(ExpTerm(float(bits[1]), float(bits[2])))
            else:
                raise ValidationError(f"bad exponent term {part!r}")
        except ValueError:
            raise ValidationError(f"bad exponent term {part!r}")
    if not terms:
        raise ValidationError("empty exponent term list")
    return terms


def density_from_options(opts: Dict[str, str],
                         also_read: tuple = ()) -> LightTailDensity:
    """Build the density named by opts: weibull (needs k), double-exp, or
    custom (needs terms; its class is read off them).  Refuses a density
    option that neither the density nor the caller (also_read) reads."""
    if "density" not in opts:
        raise ConfigMissing("missing required option 'density'")
    kind = opts["density"].strip().lower().replace("_", "-")
    reads = {"weibull": ("k",), "double-exp": (),
             "custom": ("terms",)}.get(kind)
    if reads is None:
        raise ValidationError(f"unknown density {opts['density']!r}")
    for key in ("k", "terms"):
        if key in opts and key not in reads + also_read:
            raise ValidationError(f"density {kind} does not read {key}")
    if kind == "weibull":
        return weibull(as_float(opts, "k"))
    if kind == "double-exp":
        return double_exp()
    if "terms" not in opts:
        raise ConfigMissing("custom density needs 'terms'")
    return density_from_terms(_parse_terms(opts["terms"]), name="custom")
