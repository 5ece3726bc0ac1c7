"""The fixture file grammar."""

import os

import pytest

from catenv.cli import main
from catenv.parsing import ParseError, load_path, load_text
from catenv.pipeline import analyze_category

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_shipped_corpus_loads():
    kinds = {}
    for name in os.listdir(FIXTURES):
        kind, obj = load_path(os.path.join(FIXTURES, name))
        kinds[name] = kind
    assert kinds == {"edge.cat": "category", "two.cat": "category",
                     "free2.cat": "category", "n2.cat": "category",
                     "kgraph-acyclic.cat": "category",
                     "pairgpd.gpd": "groupoid",
                     "t2.grad": "graded", "t3.grad": "graded"}


def test_finite_table_document():
    doc = """class: finite_table
objects: u v w
generators:
p v u
q v u
x w v
y w v
m1 w u
m2 w u
table:
p x m1
p y m2
q x m2
q y m1
"""
    kind, pres = load_text(doc)
    assert kind == "category"
    rep = pres.validate()
    assert rep.ok and rep.left_cancellative and rep.right_cancellative \
        and rep.mode == "exhaustive"


def test_groupoid_sub_document():
    doc = """class: groupoid_sub
units: 1 2
arrows:
a12 1 2
a21 2 1
products:
a12 a21 2
a21 a12 1
chosen:
1
2
a21
"""
    kind, pres = load_text(doc)
    assert kind == "category"
    assert analyze_category(pres).exit_code == 0


def test_comments_and_blank_lines_ignored():
    doc = """# header comment
class: free_monoid   # trailing comment

generators:
a
# interleaved comment
b
"""
    kind, pres = load_text(doc)
    assert pres.letters == ("a", "b")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        load_text("class: groupoid\nunits: 1\nproducts:\nbad row here extra\n")
    assert "line 4" in str(err.value)
    with pytest.raises(ParseError):
        load_text("objects: v\n")  # missing class
    with pytest.raises(ParseError):
        load_text("class: mystery\n")


def test_stray_record_rejected():
    with pytest.raises(ParseError) as err:
        load_text("class: free_monoid\nstray record\n")
    assert "line 2" in str(err.value)


def test_unknown_sections_and_fields_rejected(tmp_path, capsys):
    misspelled = tmp_path / "misspelled.cat"
    misspelled.write_text("class: graph_path\nobjects: v w\ngeneratrs:\ne w v\n")
    code = main(["validate", str(misspelled)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert "line 3" in out.err and "generatrs" in out.err
    with pytest.raises(ParseError) as err:
        load_text("class: nk_monoid\nk: 2\ncolors: 3\n")
    assert "line 3" in str(err.value)


def test_repeated_scalar_field_rejected(tmp_path, capsys):
    repeated = tmp_path / "repeated.cat"
    repeated.write_text("class: graph_path\nobjects: v w\nobjects: v\n")
    code = main(["validate", str(repeated)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert "line 3" in out.err and "'objects' given twice" in out.err


@pytest.mark.parametrize("command,doc", [
    ("lcm", "class: free_monoid\ngenerators:\na\na\n"),
    ("validate", "class: graph_path\nobjects: v w\ngenerators:\ne v w\ne w v\n"),
    ("validate", "class: kgraph\nobjects: u\nk: 2\ngenerators:\ne u u 0\ne u u 1\n"),
    ("validate", "class: finite_table\nobjects: u\ngenerators:\nc u u\nc u u\n"
                 "table:\nc c c\n")])
def test_duplicate_generator_names_are_input_errors(tmp_path, capsys, command, doc):
    path = tmp_path / "dup.cat"
    path.write_text(doc)
    code = main([command, str(path)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert "listed twice" in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("command,suffix,doc,line,what", [
    pytest.param("validate", ".cat", "class: finite_table\nobjects: u\ngenerators:\n"
                 "c u u\ntable:\nc c c\nc c u\n", 7, "table row 'c c'", id="table"),
    pytest.param("groupoid", ".gpd", "class: groupoid\nunits: u v\narrows:\ng u v\n"
                 "h v u\ng u v\n", 6, "arrow 'g'", id="arrow"),
    pytest.param("groupoid", ".gpd", "class: groupoid\nunits: u v\narrows:\ng u v\n"
                 "h v u\nproducts:\ng h v\ng h u\n", 8, "product row 'g h'",
                 id="product")])
def test_repeated_rows_rejected(tmp_path, capsys, command, suffix, doc, line, what):
    """A row that repeats an earlier row's key is an input error naming its line,
    instead of replacing the earlier row."""
    path = tmp_path / f"repeated{suffix}"
    path.write_text(doc)
    code = main([command, str(path)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert f"line {line}" in out.err and f"{what} given twice" in out.err


def test_graded_entries_with_imaginary_parts():
    doc = """class: graded_algebra
group: cyclic 2
ambient: 2
generators:
0 0,0,1;1,1,1
1 0,1,0,1
"""
    kind, (group, graded) = load_text(doc)
    assert kind == "graded"
    assert graded.components[1][0][0, 1] == 1j


_GRADED = "class: graded_algebra\ngroup: {group}\nambient: 2\ngenerators:\n{rows}"


@pytest.mark.parametrize("doc,line,what", [
    pytest.param(_GRADED.format(group="cyclic 2", rows=""), 4, "graded_algebra needs generators",
                 id="no-generators"),
    pytest.param(_GRADED.format(group="cyclic 2", rows="0 0,0,1\n0 2,0,1\n"), 6,
                 "entry index 2 must be in [0, 2)", id="index-past-ambient"),
    pytest.param(_GRADED.format(group="cyclic 2", rows="0 -1,0,1\n"), 5,
                 "entry index -1 must be in [0, 2)", id="negative-index"),
    pytest.param(_GRADED.format(group="cyclic", rows="0 0,0,1\n"), 2,
                 "group spec is 'cyclic <order>'", id="cyclic-without-order"),
    pytest.param(_GRADED.format(group="cyclic 0", rows="0 0,0,1\n"), 2,
                 "cyclic order 0 must be at least 1", id="cyclic-zero"),
    pytest.param(_GRADED.format(group="cyclic 2", rows="0 0,0,1;1,1,x\n"), 5,
                 "bad entry '1,1,x'", id="entry-not-a-number"),
    pytest.param(_GRADED.format(group="cyclic 2", rows="0 0,0,0\n"), 4,
                 "every generator is zero: the zero algebra has nothing to grade",
                 id="zero-algebra"),
    pytest.param(_GRADED.format(group="cyclic 2", rows="0 0,0,0\n1 0,1,0;1,0,0.0\n"), 4,
                 "every generator is zero: the zero algebra has nothing to grade",
                 id="zero-rows-in-two-degrees"),
    pytest.param(_GRADED.format(group="cyclic 2", rows="1 0,0,1\n"), 4,
                 "A_1·A_1 escapes A_0", id="product-leaves-its-degree"),
    pytest.param(_GRADED.format(group="cyclic 2", rows="0 0,0,1\n1 0,0,2\n"), 4,
                 "components are not in direct sum", id="components-overlap"),
    pytest.param(_GRADED.format(group="cyclic 2", rows="0 0,0,1;1,1,1\n1 0,0,1;1,1,1.00001\n"),
                 4, "components are not in direct sum", id="components-nearly-overlap")])
def test_malformed_graded_documents_are_input_errors(tmp_path, capsys, doc, line, what):
    """Each is one `error:` line naming the line, exit 1: no traceback, no
    entry read at a wrapped index, no misleading message."""
    path = tmp_path / "bad.grad"
    path.write_text(doc)
    code = main(["coaction", str(path)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.splitlines() == [f"error: line {line}: {what}"]


def test_a_zero_generator_beside_nonzero_ones_loads(tmp_path, capsys):
    """Only the zero algebra is refused: t2 with a zero generator in degree 1
    added loads, and `coaction` certifies every entry."""
    doc = _GRADED.format(group="cyclic 2", rows="0 0,0,1\n0 1,1,1\n1 0,1,1\n1 1,0,0\n")
    _, (_, graded) = load_text(doc)
    assert len(graded.basis) == 4 and not graded.basis[-1].any()
    path = tmp_path / "t2-zero.grad"
    path.write_text(doc)
    code = main(["coaction", str(path)])
    out = capsys.readouterr().out
    assert code == 0 and "rejected" not in out and "normality" in out
