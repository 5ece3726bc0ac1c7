"""The batch front-end: exit codes, formats, determinism."""

import json
import os

from catenv.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_thesis_edge_all_certified(capsys):
    code, out, _ = run(capsys, "thesis", fx("edge.cat"))
    assert code == 0
    assert "envelope-coincidence" in out and "rejected" not in out


def test_validate_broken_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "broken.cat"
    bad.write_text("class: graph_path\nobjects: v\ngenerators:\ne v q\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "dangling" in err


def test_validate_planted_cancellation_violation_exits_two(tmp_path, capsys):
    doc = """class: finite_table
objects: u
generators:
c u u
x u u
y u u
z u u
table:
"""
    rows = []
    for a in ("c", "x", "y", "z"):
        for b in ("c", "x", "y", "z"):
            rows.append(f"{a} {b} z")
    bad = tmp_path / "collapse.cat"
    bad.write_text(doc + "\n".join(rows) + "\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert "left cancellation" in out


def test_lcm_n2_exits_three_with_evidence(capsys):
    code, out, _ = run(capsys, "lcm", fx("n2.cat"), "--depth", "4")
    assert code == 3
    assert "bounded-evidence" in out


def test_groupoid_command_on_gpd(capsys):
    code, out, _ = run(capsys, "groupoid", fx("pairgpd.gpd"))
    assert code == 0
    assert "word-map" in out


def test_coaction_command_on_grad(capsys):
    for name in ("t2.grad", "t3.grad"):
        code, out, _ = run(capsys, "coaction", fx(name))
        assert code == 0
        assert "duality" in out and "envelope-coaction" in out


def test_reports_are_deterministic(tmp_path, capsys):
    docs = []
    for i in range(2):
        out_path = tmp_path / f"r{i}.json"
        code, _, _ = run(capsys, "thesis", fx("two.cat"), "--format", "json",
                         "--out", str(out_path))
        assert code == 0
        docs.append(out_path.read_text())
    assert docs[0] == docs[1]
    doc = json.loads(docs[0])
    assert doc["schema"] == "catenv-report/1"
    assert all(e["status"] in ("certified", "rejected", "bounded-evidence")
               for e in doc["entries"])
    assert all("check" in e for e in doc["entries"])
    texts = []
    for i in range(2):
        out_path = tmp_path / f"t{i}.txt"
        run(capsys, "lcm", fx("n2.cat"), "--depth", "3", "--out", str(out_path))
        texts.append(out_path.read_text())
    assert texts[0] == texts[1]


def test_bad_flags_are_input_errors(capsys):
    assert run(capsys, "thesis", fx("edge.cat"), "--depth", "0")[0] == 1
    assert run(capsys, "thesis", fx("edge.cat"), "--tol", "0.5")[0] == 1


def test_thesis_carries_the_lcm_entries(tmp_path, capsys):
    """On a monoid, thesis reports the lcm chain under an `lcm:` prefix."""
    entries = {}
    for command in ("thesis", "lcm"):
        out_path = tmp_path / f"{command}.json"
        run(capsys, command, fx("free2.cat"), "--depth", "4", "--format", "json",
            "--out", str(out_path))
        entries[command] = json.loads(out_path.read_text())["entries"]
    prefixed = [{**e, "check": e["check"].removeprefix("lcm:")}
                for e in entries["thesis"] if e["check"].startswith("lcm:")]
    assert prefixed and prefixed == entries["lcm"]


def test_free2_thesis_is_bounded(capsys):
    code, out, _ = run(capsys, "thesis", fx("free2.cat"), "--depth", "3")
    assert code == 3
