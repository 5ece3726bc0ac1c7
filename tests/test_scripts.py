"""The scripts under scripts/ run against the library API as it stands."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_truncation_study_gaps_are_small(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "truncation_study.py", "--elements", "2",
                     "--min-depth", "3", "--max-depth", "4")
    rows = [line.split() for line in out.splitlines()[1:-1]]
    assert [int(depth) for depth, _ in rows] == [3, 4]
    assert all(float(gap) < 1e-6 for _, gap in rows)
    assert out.splitlines()[-1].startswith("status: bounded-evidence")


def test_groupoid_zoo_word_maps_hold(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "groupoid_zoo.py").splitlines()
    assert len(lines) == 6
    assert all("kernel=units:True" in line and "injective-off-units:True" in line
               for line in lines)
