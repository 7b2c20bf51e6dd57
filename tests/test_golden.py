"""Byte gate: the CLI writes the committed golden artifacts unchanged."""

from __future__ import annotations

import shutil

from golden import regenerate
from golden.regenerate import cases, run_case


def _lines(path) -> list[str]:
    return regenerate.lines(path.name, path.read_bytes())


def test_cli_artifacts_match_golden_bytes(tmp_path):
    """Every manifest under tests/golden/ rerun through `cli.main` writes
    its committed files byte for byte (`verify`: all but `duration_s`).

    The files pin this machine's BLAS rounding: another BLAS build, or a
    change that reorders a sum, may move last digits. Such a move is
    regenerated on purpose (tests/golden/regenerate.py) and listed in
    CHANGES.md; the compare is never loosened.
    """
    mismatches = []
    for case in cases():
        out = tmp_path / case.name
        code = run_case(case, out)
        if code != 0:
            mismatches.append(f"{case.name}: the CLI exited {code}")
            continue
        want = sorted(p.name for p in case.iterdir()
                      if p.name != "manifest.json")
        got = sorted(p.name for p in out.iterdir())
        if got != want:
            mismatches.append(f"{case.name}: wrote {got}, golden has {want}")
            continue
        for name in want:
            old, new = _lines(case / name), _lines(out / name)
            if old == new:
                continue
            line = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                        min(len(old), len(new)))
            golden, now = (rows[line] if line < len(rows) else "<end of file>"
                           for rows in (old, new))
            mismatches.append(f"{case.name}/{name} line {line + 1}:\n"
                              f"  golden: {golden}\n  now:    {now}")
    assert not mismatches, "\n".join(mismatches)


def _snapshot() -> dict:
    """Every golden file's bytes and modification time."""
    return {p: (p.read_bytes(), p.stat().st_mtime_ns)
            for case in cases() for p in case.iterdir()}


def test_unknown_case_names_touch_nothing(tmp_path, monkeypatch, capsys):
    """A case name that names no golden directory exits 2, naming it,
    before any file is deleted or rewritten, also beside a known name."""
    before = _snapshot()
    assert regenerate.main(["no_such_case"]) == 2
    assert "no_such_case" in capsys.readouterr().err
    assert _snapshot() == before

    shutil.copytree(regenerate.GOLDEN / "verify", tmp_path / "verify")
    monkeypatch.setattr(regenerate, "GOLDEN", tmp_path)
    copied = _snapshot()
    assert regenerate.main(["verify", "verfy"]) == 2
    assert "verfy" in capsys.readouterr().err
    assert _snapshot() == copied


def test_regeneration_reports_what_moved(tmp_path, monkeypatch, capsys):
    """On a copy: a regenerated case names each file whose bytes changed
    and how many lines moved, and leaves the committed files alone."""
    before, committed = _snapshot(), regenerate.GOLDEN
    shutil.copytree(committed / "cool_window", tmp_path / "cool_window")
    monkeypatch.setattr(regenerate, "GOLDEN", tmp_path)
    csv = tmp_path / "cool_window" / "fig3.csv"
    rows = csv.read_text(encoding="utf-8").splitlines(keepends=True)
    rows[5] = rows[5].replace("e-01", "e-02")
    csv.write_text("".join(rows) + "3,99,0.0\n", encoding="utf-8")
    assert regenerate.main(["cool_window"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["cool_window: ['fig2a.csv', 'fig3.csv', 'manifest.json']",
                   f"  cool_window/fig3.csv: 2 of {len(rows) + 1} lines "
                   f"moved"]
    assert csv.read_bytes() == (committed / "cool_window" / "fig3.csv"
                                ).read_bytes()
    monkeypatch.undo()
    assert _snapshot() == before
