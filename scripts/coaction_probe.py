#!/usr/bin/env python3
"""Run the ``coaction`` report on a category's spectrum model, graded by word length.

Usage: python scripts/coaction_probe.py [CAT] [--n N]

The graded algebra is spanned by the morphism maps 1_{[c, Ω(𝔡(c)𝔠)]} of the
category's germ model over its spectrum
(``GermModel.operator_algebra_generators``), c in degree len(c.word) mod N of
ℤ/N. Without CAT the category is DAG19, the path category of the chain
0 → 1 → 2 → 3 → 4 with the arc 1 → 3, written by the benchmark's
``graph_path_text`` on ``random.Random(0)``, and N defaults to 3. The command
line's ``_coaction_report`` runs on that grading unchanged, with the
``coaction`` command's defaults (``REPORT_ARGS``). The script prints
its entries, one line each, then the report's wall time and the process's
peak RSS. BLAS runs on one thread unless the environment sets
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``.
"""

import argparse
import os
import random
import resource
import sys
import time

# one BLAS thread, as in the test suite: with a thread per CPU, any concurrent
# load slows the numerical work by up to two orders of magnitude
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from catenv import cli  # noqa: E402  after the thread cap
from catenv.coactions import FiniteGroup, GradedAlgebra  # noqa: E402
from catenv.matrixrep import GermModel  # noqa: E402
from catenv.parsing import load_path, load_text  # noqa: E402
from catenv.pipeline import analyze_category  # noqa: E402
from catenv.report import Report  # noqa: E402

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from bench.workloads import graph_path_text  # noqa: E402

DAG19 = (5, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 3)))
REPORT_ARGS = argparse.Namespace(levels=None, tol=1e-9, seed=0)


def word_length_grading(pres, n) -> GradedAlgebra:
    """The spectrum model's morphism maps, c in degree len(c.word) mod n."""
    ctx = analyze_category(pres, stop_after="groupoid").context
    model = GermModel(ctx["groupoid_omega"], ctx["closure"])
    components = {}
    for c, m in model.operator_algebra_generators():
        components.setdefault(len(c.word) % n, []).append(m)
    return GradedAlgebra(FiniteGroup.cyclic(n), components)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("cat", nargs="?", help="a .cat fixture (default: DAG19)")
    ap.add_argument("--n", type=int, default=3, help="order of the cyclic group")
    args = ap.parse_args(argv)
    if args.cat is None:
        kind, pres = load_text(graph_path_text(random.Random(0), *DAG19))
    else:
        kind, pres = load_path(args.cat)
    if kind != "category":
        ap.error(f"{args.cat} is not a category fixture")
    graded = word_length_grading(pres, args.n)
    report = Report("coaction", args.cat or "DAG19", {})
    start = time.perf_counter()
    cli._coaction_report((graded.group, graded), REPORT_ARGS, report)
    wall = time.perf_counter() - start
    for entry in report.entries:
        print(f"{entry.check}: {entry.status}: {entry.detail}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"wall {wall:.2f} s, peak RSS {peak:.0f} MiB")


if __name__ == "__main__":
    main()
