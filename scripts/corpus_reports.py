#!/usr/bin/env python3
"""Write the report of every command on every shipped fixture, one file per run.

Usage: python scripts/corpus_reports.py OUTDIR [--depth N]

Each run calls the command line in process with ``--format json`` and writes
``OUTDIR/<command>__<fixture>.json``: the report with its ``fixture`` cut to
the file's basename, or, when the command refuses the input (exit 1), the exit
code and the standard error. The reports carry no checkout path, so the trees
written from two checkouts compare with one ``diff -r``. Prints one line per
run with its exit code. BLAS runs on one thread unless the environment sets
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``.
"""

import argparse
import contextlib
import io
import json
import os

# one BLAS thread, as in the test suite: with a thread per CPU, any concurrent
# load slows the numerical work by up to two orders of magnitude
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from catenv.cli import COMMANDS, main as cli_main  # noqa: E402  after the thread cap

FIXDIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def run(command, fixture, depth):
    """(exit code, document) of one command line run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, os.path.join(FIXDIR, fixture), "--depth", str(depth),
                         "--format", "json"])
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
    for command in COMMANDS:
        for fixture in sorted(os.listdir(FIXDIR)):
            code, doc = run(command, fixture, args.depth)
            path = os.path.join(args.outdir, f"{command}__{fixture}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            print(f"{command} {fixture} exit {code}")


if __name__ == "__main__":
    main()
