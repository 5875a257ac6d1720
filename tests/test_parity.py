"""Tests for the report logic of ``tools/parity.py`` on hand-written output
directories."""
from __future__ import annotations

import hashlib
import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

CSV = "trial,t,dist,loss\n0,0,0.98765432109876543,1.5\n0,10,0.5,1.25\n1,0,0.75,2\n"


def _write(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _one_ulp_up(text: str) -> str:
    return repr(math.nextafter(float(text), math.inf))


@pytest.fixture
def trees(tmp_path: Path) -> tuple[Path, Path]:
    shared = {"a/summary.json": '{"final": 0.5}\n', "a/run1.stdout": "wrote a\nexit 0\n"}
    parent = _write(tmp_path / "parent", {**shared, "a/trajectory.csv": CSV,
                                          "gone.txt": "x\n"})
    moved = _one_ulp_up("0.5")
    change = _write(tmp_path / "change", {**shared, "a/trajectory.csv": CSV.replace(
        "0,10,0.5,", f"0,10,{moved},"), "new.txt": "y\n"})
    return parent, change


def test_one_ulp_in_one_cell_is_named_by_file_line_and_column(trees) -> None:
    parent, change = trees
    report = parity.compare(parent, change)
    assert list(report["differ"]) == ["a/trajectory.csv"]
    entry = report["differ"]["a/trajectory.csv"]
    assert entry["first_line"] == 3
    assert entry["parent_line"] == "0,10,0.5,1.25"
    assert entry["change_line"] == f"0,10,{_one_ulp_up('0.5')},1.25"
    assert list(entry["columns"]) == ["dist"]
    stats = entry["columns"]["dist"]
    assert stats["cells"] == 1
    assert stats["max_abs"] == math.ulp(0.5)
    assert stats["max_rel"] == math.ulp(0.5) / math.nextafter(0.5, 1.0)
    assert "differs: a/trajectory.csv from line 3" in parity.summary(report)
    assert "  dist: 1 cells" in parity.summary(report)


def test_every_file_is_digested_and_one_sided_files_listed(trees) -> None:
    parent, change = trees
    report = parity.compare(parent, change)
    assert report["identical"] == 2
    assert report["only_parent"] == ["gone.txt"] and report["only_change"] == ["new.txt"]
    digest = hashlib.sha256(CSV.encode()).hexdigest()
    assert report["files"]["a/trajectory.csv"]["parent"] == digest
    assert report["files"]["gone.txt"]["change"] is None
    summary = report["files"]["a/summary.json"]
    assert summary["parent"] == summary["change"]


def test_identical_trees_report_nothing_and_exit_zero(tmp_path: Path, capsys) -> None:
    files = {"x/trajectory.csv": CSV, "y.stdout": "exit 0\n"}
    a, b = _write(tmp_path / "a", files), _write(tmp_path / "b", files)
    report_path = tmp_path / "report.json"
    assert parity.main(["--compare", str(a), str(b), "--report", str(report_path)]) == 0
    assert "2 of 2 files identical" in capsys.readouterr().out
    assert report_path.is_file()


def test_one_ulp_in_one_cell_exits_one(tmp_path: Path, capsys) -> None:
    files = {"x/trajectory.csv": CSV, "y.stdout": "exit 0\n"}
    moved = CSV.replace("0,10,0.5,", f"0,10,{_one_ulp_up('0.5')},")
    a = _write(tmp_path / "a", files)
    b = _write(tmp_path / "b", {**files, "x/trajectory.csv": moved})
    report_path = tmp_path / "report.json"
    assert parity.main(["--compare", str(a), str(b), "--report", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert "1 of 2 files identical" in out
    assert "differs: x/trajectory.csv from line 3" in out
    assert report_path.is_file()


def test_a_file_on_one_side_only_exits_one(tmp_path: Path, capsys) -> None:
    files = {"x/trajectory.csv": CSV, "y.stdout": "exit 0\n"}
    a = _write(tmp_path / "a", files)
    b = _write(tmp_path / "b", {**files, "z.stdout": "exit 0\n"})
    assert parity.main(["--compare", str(a), str(b), "--report",
                        str(tmp_path / "report.json")]) == 1
    out = capsys.readouterr().out
    assert "2 of 3 files identical" in out and "only in change: z.stdout" in out


def test_text_file_reports_its_first_differing_line_and_a_non_number_cell(tmp_path) -> None:
    a = _write(tmp_path / "a", {"out.stdout": "wrote x\nfinal 1\nexit 0\n",
                                "h.csv": "t,flag\n0,yes\n1,no\n"})
    b = _write(tmp_path / "b", {"out.stdout": "wrote x\nfinal 2\nexit 0\n",
                                "h.csv": "t,flag\n0,yes\n1,maybe\n"})
    report = parity.compare(a, b)
    assert report["differ"]["out.stdout"]["first_line"] == 2
    assert "columns" not in report["differ"]["out.stdout"]
    flag = report["differ"]["h.csv"]["columns"]["flag"]
    assert flag["cells"] == 1 and math.isnan(flag["max_abs"])
