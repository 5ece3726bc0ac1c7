#!/usr/bin/env python3
"""Write the report of every command on every shipped fixture, one file per run,
the ``coaction`` report on four generated dense gradings, and the ``thesis``
report on three generated path categories and three generated groupoid
subcategories with isotropy.

Usage: python scripts/corpus_reports.py OUTDIR [--depth N]

Each run calls the command line in process with ``--format json`` and writes
``OUTDIR/<command>__<fixture>.json``: the report with its ``fixture`` cut to
the file's basename, or, when the command refuses the input (exit 1), the exit
code and the standard error. The generated gradings are the benchmark's own
coaction-graded inputs at seed 0 (upper2-z2, corner3-z2), written by its
``prepare``, and two more shapes from its ``graded_text`` (upper3-z3,
upper2-z4), each on a stream seeded by its name, so they are the same on every
run. The path categories (dag19, dag22, fan) are written by the benchmark's
``graph_path_text`` on a stream seeded by the name too; their hull closures
have 100, 135 and 57 elements, more than any shipped fixture's. The groupoid
subcategories (z2-isotropy, s3, s3-sub2) are written by ``groupoid_sub_text``:
the transitive groupoid on units 1, 2 with isotropy ℤ/2, S₃ as a one-unit
groupoid, and the subcategory of the transitive groupoid on 1, 2 with
isotropy S₃ that holds the arrows 1 → 2 and both isotropy groups. Their
spectrum covers come from the numerical block decomposition. The reports
carry no checkout path, so the trees written from two checkouts compare with
one ``diff -r``. Prints one line per run with its exit code. BLAS runs on one
thread unless the environment sets ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS``.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the test suite: with a thread per CPU, any concurrent
# load slows the numerical work by up to two orders of magnitude
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from catenv.cli import COMMANDS, main as cli_main  # noqa: E402  after the thread cap
from catenv.gpd import transitive_groupoid  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
FIXDIR = os.path.join(ROOT, "fixtures")
sys.path.append(ROOT)
from bench.workloads import (CORNER3, UPPER2, Grading, graded_text, graph_path_text,  # noqa: E402
                             prepare)

# gradings beyond the benchmark's: all of upper triangular M_3 over ℤ/3, and M_2's over ℤ/4
EXTRA_GRADINGS = {
    "upper3-z3": Grading(3, 3, CORNER3 + ((0, 2), (1, 2))),
    "upper2-z4": Grading(4, 2, UPPER2),
}

# path categories for thesis, as (objects, arcs a → b): the chain 0 → … → 4 with
# the arc 1 → 3, then also 2 → 4, and a fan
CHAIN = ((0, 1), (1, 2), (2, 3), (3, 4))
EXTRA_CATEGORIES = {
    "dag19": (5, CHAIN + ((1, 3),)),
    "dag22": (5, CHAIN + ((1, 3), (2, 4))),
    "fan": (6, ((0, 1), (1, 2), (1, 3), (1, 4), (0, 5))),
}

# S₃ as the permutations of 012 written as strings, with (ab)(i) = a(b(i))
S3 = ["".join(map(str, p)) for p in itertools.permutations(range(3))]
S3_MUL = {(a, b): "".join(a[int(i)] for i in b) for a in S3 for b in S3}
Z2_MUL = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}

# groupoid subcategories for thesis, as (units, isotropy group, its unit, whether
# to keep the arrow (p, h, q): q → p); one with isotropy on two units, one
# group, and a subcategory that is not a groupoid
EXTRA_GROUPOIDS = {
    "z2-isotropy": ((1, 2), Z2_MUL, "0", lambda p, q: True),
    "s3": ((1,), S3_MUL, "012", lambda p, q: True),
    "s3-sub2": ((1, 2), S3_MUL, "012", lambda p, q: q <= p),
}


def groupoid_sub_text(g, chosen) -> str:
    """A ``groupoid_sub`` document for the subcategory ``chosen`` of the finite
    groupoid ``g``: every element named by its label's parts joined by ``_``,
    the products of non-units listed, those with a unit implied."""
    def name(x):
        return "_".join(map(str, x)) if isinstance(x, tuple) else str(x)

    arrows = [x for x in g.elements if not g.is_unit(x)]
    rows = [f"{name(x)} {name(y)} {name(g.mul(x, y))}"
            for x in arrows for y in arrows if g.composable(x, y)]
    return ("class: groupoid_sub\n"
            f"units: {' '.join(name(u) for u in g.elements if g.is_unit(u))}\n"
            "arrows:\n"
            + "".join(f"{name(x)} {name(g.source[x])} {name(g.range[x])}\n" for x in arrows)
            + "products:\n" + "".join(row + "\n" for row in rows)
            + "chosen:\n" + "".join(name(x) + "\n" for x in g.elements if x in chosen))


def extra_groupoid_sub(name) -> str:
    """The ``groupoid_sub`` document of ``EXTRA_GROUPOIDS[name]``."""
    units, mul, unit, keep = EXTRA_GROUPOIDS[name]
    g = transitive_groupoid(units, sorted({h for h, _ in mul}), mul, unit)
    return groupoid_sub_text(g, {(p, h, q) for p, h, q in g.elements if keep(p, q)})


def run(command, path, depth):
    """(exit code, document) of one command line run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, path, "--depth", str(depth), "--format", "json"])
    if code == 1:
        return code, {"exit": code, "stderr": err.getvalue()}
    doc = json.loads(out.getvalue())
    doc["fixture"] = os.path.basename(doc["fixture"])
    return code, doc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("outdir")
    ap.add_argument("--depth", type=int, default=3)
    args = ap.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)

    def write(command, path):
        code, doc = run(command, path, args.depth)
        fixture = os.path.basename(path)
        with open(os.path.join(args.outdir, f"{command}__{fixture}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"{command} {fixture} exit {code}")

    for command in COMMANDS:
        for fixture in sorted(os.listdir(FIXDIR)):
            write(command, os.path.join(FIXDIR, fixture))
    with tempfile.TemporaryDirectory() as tmp:
        for op in prepare("coaction-graded", 0, Path(tmp)):
            if op.argv[1].startswith(tmp):  # skip the shipped fixtures
                write("coaction", op.argv[1])
        for name, g in EXTRA_GRADINGS.items():
            path = os.path.join(tmp, f"{name}.grad")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(graded_text(random.Random(name), g.order, g.dim, g.units))
            write("coaction", path)
        for name, (n, arcs) in EXTRA_CATEGORIES.items():
            path = os.path.join(tmp, f"{name}.cat")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(graph_path_text(random.Random(name), n, arcs))
            write("thesis", path)
        for name in EXTRA_GROUPOIDS:
            path = os.path.join(tmp, f"{name}.cat")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(extra_groupoid_sub(name))
            write("thesis", path)


if __name__ == "__main__":
    main()
