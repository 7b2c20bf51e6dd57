"""Rewrite the golden CLI artifacts from the manifests beside them.

Each directory here holds one `manifest.json` and the files that
`spinfridge <kind> --manifest manifest.json` writes for it; the tier-1 test
`tests/test_golden.py` reruns every manifest and compares the files byte
for byte. Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py [case ...]

with no case names to rewrite every case; an unknown case name exits 2
before any file is touched. Regenerate only for a change
that moves bytes on purpose, and list in CHANGES.md each file that moved,
how many lines moved and why the new values are right: the gate exists to
make such moves visible, not to absorb them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spinfridge import cli

GOLDEN = Path(__file__).resolve().parent


def cases() -> list[Path]:
    return sorted(p.parent for p in GOLDEN.glob("*/manifest.json"))


def run_case(case: Path, out: Path) -> int:
    """Run `case`'s manifest through the CLI entry point into `out`."""
    manifest = case / "manifest.json"
    kind = json.loads(manifest.read_text(encoding="utf-8"))["kind"]
    return cli.main([kind, "--manifest", str(manifest), "--out", str(out)])


def main(names: list[str]) -> int:
    known = cases()
    unknown = [name for name in names if name not in {c.name for c in known}]
    if unknown:
        print(f"unknown golden cases: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [c for c in known if not names or c.name in names]
    for case in chosen:
        for old in case.iterdir():
            if old.name != "manifest.json":
                old.unlink()
        if run_case(case, case) != 0:
            print(f"{case.name}: the CLI failed", file=sys.stderr)
            return 1
        print(f"{case.name}: {sorted(p.name for p in case.iterdir())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
