"""The scripts under scripts/ run against the library API as it stands."""

import json
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


def test_coaction_probe_certifies_every_entry_on_two(monkeypatch, capsys):
    """`two.cat`'s spectrum model graded by word length mod 2: the seven
    entries of the `coaction` report, each certified, then the effort line."""
    lines = run_script(monkeypatch, capsys, "coaction_probe.py",
                       str(SCRIPTS.parent / "fixtures" / "two.cat"), "--n", "2").splitlines()
    checks = [line.split(": ")[:2] for line in lines[:-1]]
    assert checks == [[name, "certified"] for name in (
        "grading-coaction", "normality", "crossed-product", "duality",
        "approximate-identity", "envelope", "envelope-coaction")]
    assert lines[-1].startswith("wall ") and lines[-1].endswith(" MiB")


def test_thesis_probe_certifies_every_entry(monkeypatch, capsys):
    """The chain 0 → 1 → 2: every `thesis` entry certified, then the effort line."""
    lines = run_script(monkeypatch, capsys, "thesis_probe.py", "--arcs", "0-1", "1-2"
                       ).splitlines()
    checks = [line.split(": ")[:2] for line in lines[:-1]]
    assert [check for check, _ in checks][:2] == ["validation", "hull-closure"]
    assert "envelope-coincidence" in dict(checks)
    assert all(status == "certified" for _, status in checks)
    assert lines[1] == "hull-closure: certified: 15 elements"
    assert lines[-1].startswith("wall ") and lines[-1].endswith(" MiB")


# exit codes of each command over the sorted fixtures: edge.cat, free2.cat,
# kgraph-acyclic.cat, n2.cat, pairgpd.gpd, t2.grad, t3.grad, two.cat; then
# coaction's over the benchmark's upper2-z2 and corner3-z2, upper3-z3, upper2-z4,
# and thesis's over dag19, dag22 and fan, then z2-isotropy, s3 and s3-sub2
CORPUS_EXITS = {
    "validate": "00001110", "hull": "03031110", "ideals": "03031110",
    "boundary": "03031110", "groupoid": "03030110", "envelope": "03031110",
    "coaction": "111110010000", "lcm": "13131111", "thesis": "03031110000333",
}


def test_corpus_reports_cover_every_command_and_fixture(monkeypatch, capsys, tmp_path):
    out = run_script(monkeypatch, capsys, "corpus_reports.py", str(tmp_path))
    exits = {}
    for line in out.splitlines():
        command, fixture, _, code = line.split()
        exits[command] = exits.get(command, "") + code
        doc = json.loads((tmp_path / f"{command}__{fixture}.json").read_text())
        assert doc["exit"] == int(code)
        if code == "1":
            assert doc["stderr"].startswith("error: ")
        else:
            assert doc["command"] == command and doc["fixture"] == fixture
    assert exits == CORPUS_EXITS
    assert len(list(tmp_path.iterdir())) == 82
