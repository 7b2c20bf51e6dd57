"""Rewrite the golden CLI artifacts from the manifests beside them.

Each directory here holds one `manifest.json` and the files that
`spinfridge <kind> --manifest manifest.json` writes for it; the tier-1 test
`tests/test_golden.py` reruns every manifest and compares the files byte
for byte. Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py [case ...]

with no case names to rewrite every case; an unknown case name exits 2
before any file is touched. Each case prints the files it wrote, then
every file whose bytes changed with the number of lines that moved
(`verify`'s `duration_s` aside, as the gate reads it). Regenerate only for
a change that moves bytes on purpose, and quote those lines in CHANGES.md
with why the new values are right: the gate exists to make such moves
visible, not to absorb them.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from spinfridge import cli

GOLDEN = Path(__file__).resolve().parent
# `verify` reports each oracle's wall time, the one field no rerun repeats.
_DURATION = re.compile(r'"duration_s": [^,\n]*')


def cases() -> list[Path]:
    return sorted(p.parent for p in GOLDEN.glob("*/manifest.json"))


def run_case(case: Path, out: Path) -> int:
    """Run `case`'s manifest through the CLI entry point into `out`."""
    manifest = case / "manifest.json"
    kind = json.loads(manifest.read_text(encoding="utf-8"))["kind"]
    return cli.main([kind, "--manifest", str(manifest), "--out", str(out)])


def lines(name: str, data: bytes) -> list[str]:
    """A golden file's lines as the gate compares them."""
    text = data.decode("utf-8")
    if name == "oracle_verdicts.json":
        text = _DURATION.sub('"duration_s": null', text)
    return text.splitlines()


def moved(name: str, old: bytes | None, new: bytes | None) -> str | None:
    """How a file's bytes changed (None if they did not): its lines moved,
    counted position by position, or that it is new or gone."""
    if old == new:
        return None
    if old is None or new is None:
        return f"{name}: {'new' if old is None else 'gone'}"
    a, b = lines(name, old), lines(name, new)
    count = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return f"{name}: {count} of {len(a)} lines moved"


def main(names: list[str]) -> int:
    known = cases()
    unknown = [name for name in names if name not in {c.name for c in known}]
    if unknown:
        print(f"unknown golden cases: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [c for c in known if not names or c.name in names]
    for case in chosen:
        before = {p.name: p.read_bytes() for p in case.iterdir()}
        for old in case.iterdir():
            if old.name != "manifest.json":
                old.unlink()
        if run_case(case, case) != 0:
            print(f"{case.name}: the CLI failed", file=sys.stderr)
            return 1
        after = {p.name: p.read_bytes() for p in case.iterdir()}
        print(f"{case.name}: {sorted(after)}")
        for name in sorted(before.keys() | after.keys()):
            change = moved(name, before.get(name), after.get(name))
            if change:
                print(f"  {case.name}/{change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
