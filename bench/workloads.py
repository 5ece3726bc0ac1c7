"""Workload definitions and seeded input generators.

Every operation is one ``catenv`` command line on one text input. Generated
inputs are written as fixture text under the run's work directory, never under
``fixtures/``. The seed draws names, listing order, grading automorphisms and
dense coefficients; the shape of each generated input is fixed, so its cost
and its verdicts do not depend on the seed.

Run as a script, this module is the benchmark's set-up step: it imports
catenv and writes one workload's inputs.
"""

from __future__ import annotations

import argparse
import math
import random
import string
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

# -- generators ---------------------------------------------------------------


def _names(rng: random.Random, count: int, taken=()) -> list[str]:
    """Distinct three-letter lowercase names, none of them in ``taken``."""
    out: list[str] = []
    seen = set(taken)
    while len(out) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def path_count(n_objects: int, arcs) -> int:
    """Morphisms of the path category of an acyclic graph, identities included."""
    out_arcs: dict[int, list[int]] = {v: [] for v in range(n_objects)}
    for a, b in arcs:
        out_arcs[a].append(b)
    memo: dict[int, int] = {}

    def paths_from(v):
        if v not in memo:
            memo[v] = sum(1 + paths_from(w) for w in out_arcs[v])
        return memo[v]

    return n_objects + sum(paths_from(v) for v in range(n_objects))


def graph_path_text(rng: random.Random, n_objects: int, arcs) -> str:
    """A ``graph_path`` document for the graph with arcs a → b on objects 0..n-1.

    The seed draws object and edge names and the order in which objects and
    edges are listed; the graph itself is ``arcs``.
    """
    objects = _names(rng, n_objects)
    edges = _names(rng, len(arcs), taken=objects)
    listed = list(objects)
    rng.shuffle(listed)
    rows = [f"{name} {objects[a]} {objects[b]}" for name, (a, b) in zip(edges, arcs)]
    rng.shuffle(rows)
    return ("class: graph_path\n"
            f"objects: {' '.join(listed)}\n"
            "generators:\n" + "".join(row + "\n" for row in rows))


def layered_dag_arcs(layers) -> list[tuple[int, int]]:
    """Every arc from each layer to the next; objects numbered layer by layer."""
    starts = [sum(layers[:i]) for i in range(len(layers))]
    return [(starts[i] + a, starts[i + 1] + b)
            for i in range(len(layers) - 1)
            for a in range(layers[i]) for b in range(layers[i + 1])]


def _coefficient(rng: random.Random) -> str:
    re = rng.choice((-1, 1)) * rng.uniform(0.5, 1.5)
    im = rng.uniform(-1.0, 1.0)
    return f"{re:.4f},{im:.4f}"


def graded_text(rng: random.Random, order: int, dim: int, units) -> str:
    """A ``graded_algebra`` document: the span of the matrix units ``units``
    (upper triangular, diagonal included) graded by ℤ/order.

    E_ij has degree u·(j − i) mod order for a seeded unit u of ℤ/order, which
    is a grading because (j − i) adds under multiplication of matrix units.
    Each degree component of k matrix units gets k dense generators, the r-th
    a seeded combination of units r..k-1 with a nonzero leading coefficient,
    so the generators stay independent.
    """
    u = rng.choice([x for x in range(1, order) if math.gcd(x, order) == 1])
    components: dict[int, list[tuple[int, int]]] = {}
    for i, j in units:
        components.setdefault(u * (j - i) % order, []).append((i, j))
    rows = []
    for degree in sorted(components):
        comp = components[degree]
        for r in range(len(comp)):
            chunks = [f"{i},{j},{_coefficient(rng)}" for i, j in comp[r:]]
            rows.append(f"{degree} {';'.join(chunks)}")
    return ("class: graded_algebra\n"
            f"group: cyclic {order}\n"
            f"ambient: {dim}\n"
            "generators:\n" + "".join(row + "\n" for row in rows))


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    key: str            # golden-report key, the same for every seed
    argv: tuple         # catenv command line
    largest: bool = False


@dataclass(frozen=True)
class Fixture:
    """A shipped fixture, used verbatim."""
    name: str


@dataclass(frozen=True)
class PathCategory:
    """A generated ``graph_path`` input: arcs a → b on objects 0..n-1."""
    n_objects: int
    arcs: tuple


@dataclass(frozen=True)
class Grading:
    """A generated ``graded_algebra`` input; see ``graded_text``."""
    order: int
    dim: int
    units: tuple


UPPER2 = ((0, 0), (1, 1), (0, 1))
CORNER3 = ((0, 0), (1, 1), (2, 2), (0, 1))

# key -> (command, input, extra arguments, largest?)
WORKLOADS = {
    # matrixrep + envelope dominate: finite inputs, operator algebras of dim 10-35
    "thesis-finite": {
        "thesis:edge": ("thesis", Fixture("edge.cat"), (), False),
        "thesis:two": ("thesis", Fixture("two.cat"), (), False),
        "thesis:kgraph-acyclic": ("thesis", Fixture("kgraph-acyclic.cat"), (), True),
        "thesis:chain2": ("thesis", PathCategory(3, ((0, 1), (1, 2))), (), False),
        "thesis:star3": ("thesis", PathCategory(4, ((1, 0), (2, 0), (3, 0))), (), False),
        "thesis:parallel3": ("thesis", PathCategory(2, ((0, 1),) * 3), (), False),
    },
    # germs + gpd dominate; no matrices are built
    "germs-dag": {
        "groupoid:dag15-chain": ("groupoid", PathCategory(5, ((0, 1), (1, 2), (2, 3), (3, 4))),
                                 (), False),
        "groupoid:dag16-layers1121": ("groupoid",
                                      PathCategory(5, tuple(layered_dag_arcs((1, 1, 2, 1)))),
                                      (), False),
        "groupoid:dag18-chain-skip": ("groupoid",
                                      PathCategory(5, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 4))),
                                      (), True),
    },
    # hull closure that never reaches a fixpoint; every verdict is bounded evidence
    "window-infinite": {
        "thesis:free2-d6": ("thesis", Fixture("free2.cat"), ("--depth", "6"), False),
        "thesis:free2-d7": ("thesis", Fixture("free2.cat"), ("--depth", "7"), False),
        "thesis:free2-d8": ("thesis", Fixture("free2.cat"), ("--depth", "8"), True),
        "thesis:n2-d6": ("thesis", Fixture("n2.cat"), ("--depth", "6"), False),
        "thesis:n2-d7": ("thesis", Fixture("n2.cat"), ("--depth", "7"), False),
        "thesis:n2-d8": ("thesis", Fixture("n2.cat"), ("--depth", "8"), False),
        "lcm:n2": ("lcm", Fixture("n2.cat"), (), False),
    },
    # the only workload that reaches coactions; dense graded generators
    "coaction-graded": {
        "coaction:t2": ("coaction", Fixture("t2.grad"), (), False),
        "coaction:t3": ("coaction", Fixture("t3.grad"), (), True),
        "coaction:upper2-z2": ("coaction", Grading(2, 2, UPPER2), (), False),
        "coaction:corner3-z2": ("coaction", Grading(2, 3, CORNER3), (), False),
    },
}


def _input_text(source, rng: random.Random) -> str:
    if isinstance(source, PathCategory):
        return graph_path_text(rng, source.n_objects, source.arcs)
    if isinstance(source, Grading):
        return graded_text(rng, source.order, source.dim, source.units)
    raise TypeError(source)


def prepare(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's generated inputs under ``workdir``; return its ops.

    Each generated input gets its own stream derived from the seed and its key,
    so adding an input does not change the others.
    """
    ops = []
    inputs = workdir / "inputs" / workload
    inputs.mkdir(parents=True, exist_ok=True)
    for key, (command, source, extra, largest) in WORKLOADS[workload].items():
        if isinstance(source, Fixture):
            path = FIXTURES / source.name
            if not path.is_file():
                raise FileNotFoundError(f"missing fixture {path}")
        else:
            rng = random.Random(f"{seed}:{key}")
            suffix = ".grad" if isinstance(source, Grading) else ".cat"
            path = inputs / (key.replace(":", "_") + suffix)
            path.write_text(_input_text(source, rng), encoding="utf-8")
        ops.append(Op(key, (command, str(path), *extra), largest))
    return ops


def import_catenv():
    """Import catenv from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "catenv" / "__init__.py").is_file():
        raise ImportError(f"no catenv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import catenv
    import catenv.cli
    if Path(catenv.__file__).resolve().parent != (SRC / "catenv").resolve():
        raise ImportError(f"catenv imported from {catenv.__file__}, not {SRC}")
    return catenv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Set up one workload: import catenv, "
                                 "write the generated inputs.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    import_catenv()
    prepare(args.workload, args.seed, args.workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
