#!/usr/bin/env python3
"""sha256 of the golden CLI outputs, to show a change keeps them byte-identical.

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
"""

import argparse
import hashlib
import os
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
             "power:1:1.5,log:-0.5,exp:0.2:0.5", "--class", "infinity",
             "--t-count", "7"],
    "cgtv": ["gibbs-tv", "--density", "custom", "--terms",
             "power:1:2.5,exp:0.1:0.5", "--class", "infinity", "--n-list", "8",
             "--chains", "64", "--steps", "320", "--burn-in", "160"],
    "dexp": ["tail", "--density", "double-exp", "--n", "10", "--a", "5",
             "--is-samples", "100000", "--threads", "2"],
    "sqrt": ["levelset", "--density", "weibull", "--k", "3", "--f", "norm2",
             "--marginal", "signed-sqrt", "--a", "3", "--count", "4000",
             "--seed", "2"],
}


def golden_hashes() -> dict:
    """{file name: sha256} of the golden outputs of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNS.items():
            subprocess.run([sys.executable, "-m", "exdev", *args,
                            "--out", f"golden/{name}"],
                           cwd=tmp, env=env, check=True)
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(tmp, "golden").iterdir())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the '<sha256>  <file>' lines of "
                             "FILE instead of printing")
    args = parser.parse_args()
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
