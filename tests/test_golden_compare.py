"""The value diff of scripts/golden_hashes.py: --compare names the one field
that moved, with its largest relative change, and the files that did not."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_hashes.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root: Path, ci_high: str, name: str) -> Path:
    root.mkdir()
    (root / "gtv.csv").write_text(
        "n,tv,ci_low,ci_high,label\n"
        f"8,0.05,0.04,{ci_high},x\n"
        "16,0.03,0.02,0.07,y\n")
    (root / "gtv.json").write_text(json.dumps(
        {"config": {"out": "golden/gtv"},
         "results": {"tv": [0.05, 0.03], "name": name}}))
    (root / "edge.json").write_text(json.dumps({"results": {"x": 1.5}}))
    return root


def test_compare_names_the_changed_field(golden, tmp_path, capsys):
    old = _write(tmp_path / "old", "0.08", "weibull")
    new = _write(tmp_path / "new", "0.1", "weibull")
    assert golden.main(["--compare", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "gtv.csv: ci_high max relative change 0.25",
        "gtv.csv: ci_low max relative change 0",
        "gtv.csv: n max relative change 0",
        "gtv.csv: tv max relative change 0",
        "unchanged: edge.json gtv.json",
    ]


def test_compare_flags_text_and_missing_files(golden, tmp_path, capsys):
    old = _write(tmp_path / "old", "0.08", "weibull")
    new = _write(tmp_path / "new", "0.08", "gamma")
    (new / "edge.json").unlink()
    assert golden.main(["--compare", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"edge.json: only in {old}",
        "gtv.json: results.name changed (not numeric)",
        "gtv.json: results.tv max relative change 0",
        "unchanged: gtv.csv",
    ]


def test_compare_names_a_field_on_one_side_only(golden, tmp_path, capsys):
    old = _write(tmp_path / "old", "0.08", "weibull")
    new = _write(tmp_path / "new", "0.08", "weibull")
    (new / "edge.json").write_text(json.dumps({"results": {"x": 1.5},
                                               "config": {"alpha": "0.35"}}))
    assert golden.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"edge.json: config.alpha only in {new}",
        "edge.json: results.x max relative change 0",
        "unchanged: gtv.csv gtv.json",
    ]


def test_compare_identical_dirs_exit_zero(golden, tmp_path, capsys):
    old = _write(tmp_path / "old", "0.08", "weibull")
    new = _write(tmp_path / "new", "0.08", "weibull")
    assert golden.main(["--compare", str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "unchanged: edge.json gtv.csv gtv.json"]
