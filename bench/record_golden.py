#!/usr/bin/env python3
"""Record ``golden.json``: the normal-form report of every benchmark operation.

    python3 bench/record_golden.py

Run it only when a verdict is meant to change; the benchmark fails any
operation whose outcome differs from the recorded one. The normal form does
not depend on the workload seed, so one seed serves every run.
"""

from __future__ import annotations

import json
import sys

import golden
import run
import workloads

SEED = 0


def main() -> int:
    workloads.import_catenv()
    import catenv.cli

    run.OUT.mkdir(exist_ok=True)
    out = {}
    for workload in workloads.WORKLOADS:
        out[workload] = {}
        for op in workloads.prepare(workload, SEED, run.OUT):
            _, code, text, error = run.run_op(catenv.cli.main, op)
            if error is not None:
                print(f"{op.key}: {error}", file=sys.stderr)
                return 1
            out[workload][op.key] = golden.normal_form(code, json.loads(text))
            print(f"{workload} {op.key}: exit {code}", file=sys.stderr)
    golden.GOLDEN_PATH.write_text(golden.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
