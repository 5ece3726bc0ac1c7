#!/usr/bin/env python3
"""Run ``thesis`` on a generated path category and print its entries.

Usage: python scripts/thesis_probe.py [--layers L1 L2 ... | --arcs A-B ...] [--objects N]

The category is the ``graph_path`` the benchmark's ``graph_path_text`` writes
on ``random.Random(0)``: with ``--layers``, on the arcs of
``layered_dag_arcs`` (``--layers 1 4 4 1`` is L1441), with ``--arcs``, on the
arcs a → b given as ``a-b`` (``--arcs 0-1 1-2 2-3 3-4 4-5 1-3 2-4`` is
DAG6x). Objects are 0..N-1, N the largest object named plus one unless
``--objects`` says more. Without either, the category is DAG19, the chain
0 → 1 → 2 → 3 → 4 with the arc 1 → 3. The script prints the entries of
``pipeline.analyze_category``, one line each, then its wall time and the
process's peak RSS. BLAS runs on one thread unless the environment sets
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

from catenv.parsing import load_text  # noqa: E402  after the thread cap
from catenv.pipeline import analyze_category  # noqa: E402

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from bench.workloads import graph_path_text, layered_dag_arcs  # noqa: E402

DAG19 = ((0, 1), (1, 2), (2, 3), (3, 4), (1, 3))


def arc(text):
    a, _, b = text.partition("-")
    return int(a), int(b)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    given = ap.add_mutually_exclusive_group()
    given.add_argument("--layers", type=int, nargs="+", help="layer sizes of a layered DAG")
    given.add_argument("--arcs", type=arc, nargs="+", help="arcs a-b")
    ap.add_argument("--objects", type=int, default=0, help="at least this many objects")
    args = ap.parse_args(argv)
    arcs = layered_dag_arcs(args.layers) if args.layers else args.arcs or DAG19
    n = max(args.objects, 1 + max(max(a, b) for a, b in arcs))
    _, pres = load_text(graph_path_text(random.Random(0), n, arcs))
    start = time.perf_counter()
    result = analyze_category(pres)
    wall = time.perf_counter() - start
    for entry in result.entries:
        print(f"{entry.check}: {entry.status}: {entry.detail}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"wall {wall:.2f} s, peak RSS {peak:.0f} MiB")


if __name__ == "__main__":
    main()
