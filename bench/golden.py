"""Golden reports: the expected outcome of every operation, and the comparison.

An operation fails when it raises, when its exit code differs from the golden
one, or when any entry's check, status or non-float data differs. A float in
an entry's data passes when it is within the report's ``tol`` of the golden
value, so a faster engine may move a 1e-16 deviation but not a verdict.

Generated inputs are relabelled by the seed, and block order among blocks of
equal size follows a seeded random element, so comparisons use a normal form
that does not depend on either: block-size lists are sorted, and a mask of
block indices becomes the sorted sizes of the blocks it selects.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# data keys holding indices into the size-sorted spectrum-algebra block list
_MASK_KEYS = ("mask", "kernel_mask", "shilov_mask")


def normal_form(exit_code: int, report: dict) -> dict:
    """The parts of a command's outcome that a golden pins: its exit code and,
    from its ``catenv-report/1`` document, each entry's check, status and data."""
    blocks = None
    for entry in report["entries"]:
        if entry["check"] == "block-structure":
            blocks = entry["data"]["omega_blocks"]
    entries = []
    for entry in report["entries"]:
        data = {}
        for key, value in sorted(entry.get("data", {}).items()):
            if key in _MASK_KEYS:
                value = sorted(blocks[i] for i in value)
            elif isinstance(value, list):
                value = sorted(value)
            data[key] = value
        entries.append({"check": entry["check"], "status": entry["status"],
                        "data": data})
    return {"exit": exit_code, "tol": report["config"]["tol"],
            "entries": entries}


def differences(expected: dict, got: dict) -> list[str]:
    """Human-readable mismatches between two normal forms; empty when they agree."""
    out = []
    if expected["exit"] != got["exit"]:
        out.append(f"exit {got['exit']} != {expected['exit']}")
    want, have = expected["entries"], got["entries"]
    if [e["check"] for e in want] != [e["check"] for e in have]:
        out.append(f"checks {[e['check'] for e in have]} != {[e['check'] for e in want]}")
        return out
    tol = expected["tol"]
    for w, h in zip(want, have):
        if w["status"] != h["status"]:
            out.append(f"{w['check']}: status {h['status']} != {w['status']}")
        if set(w["data"]) != set(h["data"]):
            out.append(f"{w['check']}: data keys {sorted(h['data'])} != {sorted(w['data'])}")
            continue
        for key, value in w["data"].items():
            other = h["data"][key]
            if isinstance(value, float) and isinstance(other, (int, float)) \
                    and not isinstance(other, bool):
                if abs(other - value) > tol:
                    out.append(f"{w['check']}.{key}: {other} not within {tol} of {value}")
            elif other != value:
                out.append(f"{w['check']}.{key}: {other!r} != {value!r}")
    return out


def dumps(goldens: dict) -> str:
    """``golden.json`` text: one line per operation, so a diff shows which changed."""
    lines = []
    for workload in sorted(goldens):
        ops = [f"    {json.dumps(key)}: {json.dumps(form, sort_keys=True)}"
               for key, form in sorted(goldens[workload].items())]
        lines.append(f"  {json.dumps(workload)}: {{\n" + ",\n".join(ops) + "\n  }")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)
