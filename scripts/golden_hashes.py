#!/usr/bin/env python3
"""sha256 and values of the golden CLI outputs, to show what a change moves.

Runs twelve experiments from this checkout's src/ in a fresh empty temporary
directory, each with `--out golden/<name>` (the out path is part of the
report), and prints one `<sha256>  <file>` line per output file.  run0-run4
are the five runs of acceptance criterion 11, in order; edge, gtv and lvl
cover the edgeworth, gibbs-tv and levelset experiments; cust and cgtv use a
custom term list (cgtv through the pair sampler with an exp term), dexp the
double-exponential density and sqrt the signed-sqrt level-set marginal.
Run it on two commits and diff the output, or check this checkout against
the committed hashes:

    python3 scripts/golden_hashes.py --check scripts/golden.sha256

which exits 1 and names each file whose hash differs from (or is missing
in) the committed list.  A change that moves output bytes on purpose
updates scripts/golden.sha256 in the same commit.

To see which numbers moved, write the outputs of two checkouts and compare
them field by field:

    python3 scripts/golden_hashes.py --values ../old   # in the old checkout
    python3 scripts/golden_hashes.py --values ../new   # in the new one
    python3 scripts/golden_hashes.py --compare ../old ../new

--compare prints, for each file that differs, every numeric field with the
largest relative change over its values (0 when bit-identical), flags a
changed non-numeric field, names a file or field found in one directory
only, and names the files with no change; it exits 1 when anything
differs.  A CSV field is a column; a JSON field is a key path
with list positions dropped, so `results.tv` covers every entry of the list.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUNS = {
    "run0": ["tilt", "--density", "weibull", "--k", "3", "--t-count", "7"],
    "run1": ["tail", "--density", "weibull", "--k", "2", "--n", "10",
             "--a", "3", "--is-samples", "200000", "--threads", "2"],
    "run2": ["dlp", "--density", "weibull", "--k", "2.5", "--n-list",
             "16,64", "--count", "4000", "--seed", "3"],
    "run3": ["equiv", "--density", "weibull", "--k", "2.5", "--n", "32",
             "--a-n", "3.0", "--count", "8000", "--seed", "1"],
    "run4": ["levelset", "--density", "weibull", "--k", "3", "--a", "5",
             "--count", "4000", "--seed", "2"],
    "edge": ["edgeworth", "--density", "weibull", "--k", "3",
             "--n-list", "4,16"],
    "gtv": ["gibbs-tv", "--density", "weibull", "--k", "2.5", "--n-list",
            "8,16", "--chains", "64", "--steps", "320", "--burn-in", "160"],
    "lvl": ["levelset", "--density", "weibull", "--k", "3", "--f", "linear",
            "--dim", "3", "--a", "8", "--count", "4000", "--seed", "2"],
    "cust": ["tilt", "--density", "custom", "--terms",
             "power:1:1.5,log:-0.5,exp:0.2:0.5", "--t-count", "7"],
    "cgtv": ["gibbs-tv", "--density", "custom", "--terms",
             "power:1:2.5,exp:0.1:0.5", "--n-list", "8", "--chains", "64",
             "--steps", "320", "--burn-in", "160"],
    "dexp": ["tail", "--density", "double-exp", "--n", "10", "--a", "5",
             "--is-samples", "100000", "--threads", "2"],
    "sqrt": ["levelset", "--density", "weibull", "--k", "3", "--f", "norm2",
             "--marginal", "signed-sqrt", "--a", "3", "--count", "4000",
             "--seed", "2"],
}


def run_golden(workdir: Path) -> Path:
    """Run every golden experiment in the empty directory workdir and return
    the directory holding their outputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for name, args in RUNS.items():
        subprocess.run([sys.executable, "-m", "exdev", *args,
                        "--out", f"golden/{name}"],
                       cwd=workdir, env=env, check=True)
    return workdir / "golden"


def golden_hashes() -> dict:
    """{file name: sha256} of the golden outputs of this checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(run_golden(Path(tmp)).iterdir())}


def write_values(dest: Path) -> None:
    """Copy the golden outputs of this checkout into dest."""
    dest.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(run_golden(Path(tmp)).iterdir()):
            shutil.copyfile(path, dest / path.name)


def _fields(path: Path) -> dict:
    """{field: [values]} of one golden CSV or JSON file."""
    if path.suffix == ".csv":
        header, *rows = csv.reader(path.read_text().splitlines())
        return {name: [row[i] for row in rows]
                for i, name in enumerate(header)}
    fields = {}

    def walk(node, name):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{name}.{key}" if name else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, name)
        else:
            fields.setdefault(name, []).append(node)

    walk(json.loads(path.read_text()), "")
    return fields


def _number(value):
    """value as a float, or None when it is not a number."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if old != 0.0 else math.inf


def compare(old_dir: Path, new_dir: Path) -> list:
    """Report lines of a field-by-field comparison of two --values dirs: one
    per field of each file that differs, then one naming the same files."""
    lines, same = [], []
    names = sorted({p.name for p in old_dir.iterdir()}
                   | {p.name for p in new_dir.iterdir()})
    for name in names:
        old_path, new_path = old_dir / name, new_dir / name
        if not (old_path.exists() and new_path.exists()):
            where = old_dir if old_path.exists() else new_dir
            lines.append(f"{name}: only in {where}")
            continue
        if old_path.read_bytes() == new_path.read_bytes():
            same.append(name)
            continue
        old, new = _fields(old_path), _fields(new_path)
        for field in sorted(old.keys() | new.keys()):
            a, b = old.get(field), new.get(field)
            if a is None or b is None:
                where = old_dir if b is None else new_dir
                lines.append(f"{name}: {field} only in {where}")
                continue
            if len(a) != len(b):
                lines.append(f"{name}: {field} has a different shape")
                continue
            pairs = [(_number(x), _number(y)) for x, y in zip(a, b)]
            if any(x is None or y is None for x, y in pairs):
                if a != b:
                    lines.append(f"{name}: {field} changed (not numeric)")
                continue
            worst = max((_relative_change(x, y) for x, y in pairs),
                        default=0.0)
            lines.append(f"{name}: {field} max relative change {worst:.3g}")
    lines.append("unchanged: " + (" ".join(same) if same else "none"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", metavar="FILE",
                      help="compare with the '<sha256>  <file>' lines of "
                           "FILE instead of printing")
    mode.add_argument("--values", metavar="DIR",
                      help="write the golden output files into DIR")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="compare two --values directories field by field")
    args = parser.parse_args(argv)
    if args.values is not None:
        write_values(Path(args.values))
        return 0
    if args.compare is not None:
        lines = compare(*map(Path, args.compare))
        print("\n".join(lines))
        return 1 if len(lines) > 1 else 0  # the last line lists the same
    hashes = golden_hashes()
    if args.check is None:
        for name, digest in hashes.items():
            print(f"{digest}  {name}")
        return 0
    expected = dict(reversed(line.split()) for line in
                    Path(args.check).read_text().splitlines() if line.strip())
    differ = sorted(name for name in expected.keys() | hashes.keys()
                    if expected.get(name) != hashes.get(name))
    for name in differ:
        print(f"DIFFERS {name}: expected {expected.get(name)}, "
              f"got {hashes.get(name)}")
    if differ:
        return 1
    print(f"all {len(hashes)} golden outputs match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
