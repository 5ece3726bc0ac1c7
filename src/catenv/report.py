"""Report entries, the exit-code rule, and the plain-text and JSON reports.

Every verdict (pipeline stage, LCM chain or command line) is one ``Entry``;
``exit_code`` scores any list of them. Reports are deterministic for a fixed
config: seeded numerics, ordered entries, no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = "catenv-report/1"


@dataclass
class Entry:
    """One verdict. ``witness`` backs a rejection for callers and is never
    serialized; ``data`` is serialized only when nonempty."""

    check: str
    status: str          # "certified" | "rejected" | "bounded-evidence"
    detail: str = ""
    data: dict = field(default_factory=dict)
    witness: object = None

    def as_dict(self):
        out = {"check": self.check, "status": self.status, "detail": self.detail}
        if self.data:
            out["data"] = self.data
        return out


def exit_code(entries) -> int:
    """2 on any rejection (or unknown status), else 3 on any bounded evidence,
    else 0 when everything is certified."""
    statuses = {e.status for e in entries}
    if statuses - {"certified", "bounded-evidence"}:
        return 2
    return 3 if "bounded-evidence" in statuses else 0


@dataclass
class Report:
    command: str
    fixture: str
    config: dict
    entries: list[Entry] = field(default_factory=list)

    def add(self, check, status, detail=""):
        self.entries.append(Entry(check, status, detail))

    def extend(self, entries):
        self.entries.extend(entries)

    @property
    def exit_code(self) -> int:
        return exit_code(self.entries)

    def as_json(self) -> str:
        doc = {"schema": SCHEMA, "command": self.command, "fixture": self.fixture,
               "config": self.config,
               "entries": [e.as_dict() for e in self.entries],
               "exit": self.exit_code}
        return json.dumps(doc, indent=2, sort_keys=True, default=_jsonable) + "\n"

    def as_text(self) -> str:
        lines = [f"{self.command} {self.fixture}"]
        cfg = " ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
        lines.append(f"config: {cfg}")
        lines.append("-" * 72)
        for e in self.entries:
            lines.append(f"[{e.status:>16}] {e.check}: {e.detail}")
            if e.data:
                lines.append(f"{'':18} {json.dumps(e.data, sort_keys=True, default=_jsonable)}")
        lines.append("-" * 72)
        lines.append(f"exit: {self.exit_code}")
        return "\n".join(lines) + "\n"


def _jsonable(x):
    if isinstance(x, (set, frozenset)):
        return sorted(x, key=str)
    if hasattr(x, "tolist"):
        return x.tolist()
    return str(x)
