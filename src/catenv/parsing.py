"""Fixture file formats.

All files are UTF-8 and line oriented. `#` starts a comment. A line of the form
`key: value` is a scalar field; a line `key:` with no value opens a section that
collects the following non-header lines. Sections hold one record per line with
whitespace-separated fields.

Category files (.cat):
    class: graph_path | free_monoid | nk_monoid | kgraph | finite_table | groupoid_sub
    objects: <labels>                  (when the class has named objects)
    k: <int>                           (nk_monoid, kgraph)
    generators:                        graph_path:   name dom tgt
                                       free_monoid:  name
                                       kgraph:       name dom tgt color
                                       finite_table: name dom tgt
    table:                             finite_table: c d cd
    squares:                           kgraph: e f f2 e2   (meaning e·f = f2·e2,
                                       colors of e, e2 below those of f, f2)
    units: / arrows: / products: / chosen:   groupoid_sub ambient data

Groupoid files (.gpd):
    class: groupoid
    units: <labels>
    arrows:                            name source range
    products:                          g h gh     (unit products implied)

Graded-algebra files (.grad):
    class: graded_algebra
    group: cyclic <n>                  (n >= 1)
    ambient: <matrix size>             (>= 1)
    generators:                        <degree> i,j,re[,im];i,j,re[,im];...
                                       (at least one row, not all zero;
                                        0 <= i, j < size; the degree
                                        components in direct sum, with
                                        A_g·A_h ⊆ A_gh, or the error
                                        names the generators: line)

A field or section that the document's class does not read is an error, so a
misspelled header cannot silently drop its records; so is a field given twice,
or a table row, arrow or product row given twice, which would otherwise keep
only its last value.
"""

from __future__ import annotations

import numpy as np

from .categories import (FiniteTable, FreeMonoid, GraphPath, GroupoidSub,
                         KGraph, MalformedPresentation, NkMonoid)
from .coactions import FiniteGroup, GradedAlgebra, GradingInvalid
from .gpd import FiniteGroupoid


# class -> (scalar fields, sections) that its loader reads, besides `class`
_READS = {
    "graph_path": ({"objects"}, {"generators"}),
    "free_monoid": (set(), {"generators"}),
    "nk_monoid": ({"k"}, set()),
    "kgraph": ({"objects", "k"}, {"generators", "squares"}),
    "finite_table": ({"objects"}, {"generators", "table"}),
    "groupoid_sub": ({"units"}, {"arrows", "products", "chosen"}),
    "groupoid": ({"units"}, {"arrows", "products"}),
    "graded_algebra": ({"group", "ambient"}, {"generators"}),
}


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _read_document(text: str):
    """(scalars, sections, headers); headers lists (lineno, key, is_section)."""
    scalars: dict[str, str] = {}
    sections: dict[str, list[tuple[int, list[str]]]] = {}
    headers: list[tuple[int, str, bool]] = []
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line and line.split(":", 1)[0].strip().isidentifier():
            key, value = (part.strip() for part in line.split(":", 1))
            if value:
                if key in scalars:
                    raise ParseError(f"field {key!r} given twice", lineno)
                scalars[key] = value
                current = None
            else:
                current = key
                sections.setdefault(key, [])
            headers.append((lineno, key, not value))
            continue
        if current is None:
            raise ParseError(f"stray record {line!r} outside any section", lineno)
        sections[current].append((lineno, line.split()))
    return scalars, sections, headers


def _check_unique(rows, width, what):
    """A section row whose first `width` fields repeat an earlier row's is an
    error naming its line, so a later row cannot silently replace an earlier."""
    seen = set()
    for lineno, row in rows:
        key = tuple(row[:width])
        if key in seen:
            raise ParseError(f"{what} {' '.join(key)!r} given twice", lineno)
        seen.add(key)


def _require(scalars, key, lineno=None):
    if key not in scalars:
        raise ParseError(f"missing field {key!r}", lineno)
    return scalars[key]


def load_text(text: str):
    """Parse a fixture document; returns (kind, object)."""
    scalars, sections, headers = _read_document(text)
    cls = _require(scalars, "class")
    if cls not in _READS:
        raise ParseError(f"unknown class {cls!r}")
    fields, known_sections = _READS[cls]
    for lineno, key, is_section in headers:
        if key not in (known_sections if is_section else fields | {"class"}):
            kind = "section" if is_section else "field"
            raise ParseError(f"class {cls} has no {kind} {key!r}", lineno)
    try:
        if cls == "graph_path":
            return "category", GraphPath(
                objects=tuple(_require(scalars, "objects").split()),
                edges=[(r[0], r[1], r[2]) for _, r in sections.get("generators", [])])
        if cls == "free_monoid":
            letters = [r[0] for _, r in sections.get("generators", [])]
            if not letters:
                raise ParseError("free_monoid needs generators")
            return "category", FreeMonoid(tuple(letters))
        if cls == "nk_monoid":
            return "category", NkMonoid(int(_require(scalars, "k")))
        if cls == "kgraph":
            return "category", KGraph(
                objects=tuple(_require(scalars, "objects").split()),
                edges=[(r[0], r[1], r[2], int(r[3]))
                       for _, r in sections.get("generators", [])],
                squares=[tuple(r) for _, r in sections.get("squares", [])],
                k=int(scalars.get("k", "2")))
        if cls == "finite_table":
            _check_unique(sections.get("table", []), 2, "table row")
            return "category", FiniteTable(
                objects=tuple(_require(scalars, "objects").split()),
                element_endpoints=[(r[0], (r[1], r[2]))
                                   for _, r in sections.get("generators", [])],
                table={(r[0], r[1]): r[2] for _, r in sections.get("table", [])})
        if cls == "groupoid_sub":
            ambient = _groupoid_from_sections(scalars, sections)
            chosen = [r[0] for _, r in sections.get("chosen", [])]
            return "category", GroupoidSub(ambient, chosen)
        if cls == "groupoid":
            return "groupoid", _groupoid_from_sections(scalars, sections)
        line_of = {key: lineno for lineno, key, _ in headers}
        return "graded", _graded_from_sections(scalars, sections, line_of)
    except (MalformedPresentation, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc)) from exc


def _groupoid_from_sections(scalars, sections) -> FiniteGroupoid:
    units = _require(scalars, "units").split()
    _check_unique(sections.get("arrows", []), 1, "arrow")
    _check_unique(sections.get("products", []), 2, "product row")
    arrows = {r[0]: (r[1], r[2]) for _, r in sections.get("arrows", [])}
    elements = list(units) + list(arrows)
    source = {u: u for u in units}
    range_ = {u: u for u in units}
    for name, (src, rng) in arrows.items():
        source[name] = src
        range_[name] = rng
    unit_set = set(units)
    product = {}
    for g in elements:
        for h in elements:
            if source[g] != range_[h]:
                continue
            if g in unit_set:
                product[(g, h)] = h
            elif h in unit_set:
                product[(g, h)] = g
    for lineno, row in sections.get("products", []):
        if len(row) != 3:
            raise ParseError("product rows are 'g h gh'", lineno)
        g, h, gh = row
        for x in (g, h, gh):
            if x not in source:
                raise ParseError(f"unknown element {x!r}", lineno)
        product[(g, h)] = gh
    return FiniteGroupoid.from_labels(elements, source, range_, product, units=tuple(units))


def _integer(token, what, lineno, low=None, high=None):
    """token as an int in [low, high), else a ParseError naming the line."""
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not an integer", lineno) from None
    if (low is not None and value < low) or (high is not None and value >= high):
        bounds = f"at least {low}" if high is None else f"in [{low}, {high})"
        raise ParseError(f"{what} {value} must be {bounds}", lineno)
    return value


def _graded_from_sections(scalars, sections, line_of):
    spec = _require(scalars, "group").split()
    if spec[0] != "cyclic":
        raise ParseError(f"unsupported group spec {' '.join(spec)!r}", line_of["group"])
    if len(spec) != 2:
        raise ParseError("group spec is 'cyclic <order>'", line_of["group"])
    group = FiniteGroup.cyclic(_integer(spec[1], "cyclic order", line_of["group"], 1))
    dim = _integer(_require(scalars, "ambient"), "ambient", line_of["ambient"], 1)
    rows = sections.get("generators", [])
    if not rows:
        raise ParseError("graded_algebra needs generators", line_of.get("generators"))
    components: dict = {}
    for lineno, row in rows:
        if len(row) != 2:
            raise ParseError("generator rows are '<degree> <entries>'", lineno)
        degree = _integer(row[0], "degree", lineno) % len(group)
        mat = np.zeros((dim, dim), dtype=complex)
        for chunk in row[1].split(";"):
            parts = chunk.split(",")
            if len(parts) not in (3, 4):
                raise ParseError(f"bad entry {chunk!r}", lineno)
            i, j = (_integer(x, "entry index", lineno, 0, dim) for x in parts[:2])
            try:
                re, im = float(parts[2]), float(parts[3]) if len(parts) == 4 else 0.0
            except ValueError:
                raise ParseError(f"bad entry {chunk!r}", lineno) from None
            mat[i, j] = re + 1j * im
        components.setdefault(degree, []).append(mat)
    if not any(m.any() for ms in components.values() for m in ms):
        raise ParseError("every generator is zero: the zero algebra has nothing to grade",
                         line_of["generators"])
    try:
        return group, GradedAlgebra(group, components)
    except GradingInvalid as exc:
        raise ParseError(str(exc), line_of["generators"]) from None


def load_path(path):
    with open(path, encoding="utf-8") as fh:
        return load_text(fh.read())
