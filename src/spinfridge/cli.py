"""Command-line runner: manifests in, deterministic CSV/JSON artifacts out.

Five experiment kinds, one per subcommand:

* cool         -- cooling runs over a list of probe sizes (or bath
                  temperatures); emits fig2a.csv (efficiency per step) and
                  fig3.csv (distance to the pseudo-thermal target).
* sweep        -- one protocol config swept over dephasing rates (fig4.csv)
                  or partial-swap strengths (fig5.csv), grid points run in
                  parallel, rows ordered by grid value. With the default
                  waiting policy the per-step waits are optimized once on
                  the noise-free configuration and replayed identically on
                  every grid point, so the sweep compares like with like.
* thermometry  -- repeated finite-shot temperature estimates of the
                  pseudo-thermalized probe; emits thermometry.csv.
* nv-coupling  -- dipolar coefficient/coupling tables for listed geometry
                  pairs (nv_couplings.csv) plus an exact chain-yield report.
* verify       -- runs the four randomized structural oracles and writes
                  their JSON verdicts.

Every artifact embeds the package version, the manifest's SHA-256, and the
seed, so identical (manifest, seed, version) triples produce byte-identical
files. Exit codes: 0 success, 1 oracle/experiment failure, 2 manifest or
configuration error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import SwapSpec
from .errors import ManifestError, SpinFridgeError
from .nv import (
    DIAMOND_BOND_AXES,
    DipolarPair,
    chain_yield,
    dipolar_coefficients,
    nv_nv_effective_hamiltonian,
    nv_p1_coupling,
)
from .oracles import run_all_oracles
from .protocol import (ProtocolConfig, estimate_temperature,
                       ideal_waiting_schedule, run_protocol)

log = logging.getLogger("spinfridge")

SCHEMA_VERSION = 1
KINDS = ("cool", "thermometry", "sweep", "nv-coupling", "verify")

_RAD_PER_KHZ = 2.0 * math.pi * 1e3


def _fmt(x: float) -> str:
    """Canonical 12-significant-digit float serialization for CSV cells."""
    return f"{float(x):.11e}"


def _khz(rad_per_s: float) -> float:
    return rad_per_s / _RAD_PER_KHZ


# --------------------------------------------------------------------------
# manifest handling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Manifest:
    """Parsed and validated run manifest plus provenance for headers."""

    data: dict
    sha256: str

    @property
    def kind(self) -> str:
        return self.data["kind"]

    @property
    def seed(self) -> int:
        return int(self.data.get("seed", 0))

    @property
    def out_dir(self) -> str | None:
        return self.data.get("out")

    def config(self) -> dict:
        return dict(self.data.get("config", {}))


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ManifestError(
            f"{path}: field 'schema_version' is {version!r}; this tool "
            f"(v{__version__}) requires {SCHEMA_VERSION}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ManifestError(
            f"{path}: field 'kind' is {kind!r}; expected one of {KINDS}")
    _checked_seed(data.get("seed", 0), f"{path}: field 'seed'")
    known = {"schema_version", "kind", "seed", "out", "config"}
    extra = sorted(set(data) - known)
    if extra:
        raise ManifestError(f"{path}: unknown top-level fields {extra}")
    if data.get("out") is not None:
        _checked(data["out"], str, "out")
    _checked(data.get("config", {}), dict, "config")
    return Manifest(data, digest)


def _checked_seed(value, name: str) -> int:
    """`value` if it is an unsigned 64-bit integer, else a ManifestError
    naming `name`: the one rule for the manifest seed and `--seed`."""
    if not isinstance(value, int) or isinstance(value, bool) \
            or not 0 <= value < 2 ** 64:
        raise ManifestError(
            f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return value


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def _checked(value, kind: type, name: str):
    """`value` if it is of the manifest `kind`, else a ManifestError naming
    `name`. No field takes a JSON boolean, which is neither an integer nor
    a number; a number field takes any other number a float can hold and
    returns a float."""
    number = kind is float and isinstance(value, int)
    if isinstance(value, bool) \
            or not (number or isinstance(value, kind)) \
            or number and abs(value) > sys.float_info.max:
        raise ManifestError(
            f"'{name}' must be {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _take(cfg: dict, field: str, kind: type, default=None, *,
          nullable: bool = False):
    """Pop `field` from a manifest section, checked to be of `kind`: an
    absent field gives `default`, a null one None where `nullable`."""
    if field not in cfg:
        return default
    value = cfg.pop(field)
    return None if value is None and nullable else _checked(value, kind, field)


def _take_list(cfg: dict, field: str, kind: type, default=None):
    """Pop the list `field`, every entry checked to be of `kind`."""
    items = _take(cfg, field, list, default)
    return items if items is None else [
        _checked(v, kind, f"{field}[{i}]") for i, v in enumerate(items)]


def _swept_axis(cfg: dict, where: str, **axes: type) -> tuple[str, list]:
    """Pop the swept axis of a `where` config: exactly one of the list
    fields `axes` (name -> entry kind), non-empty and without duplicates.
    Returns its name and values."""
    found = {name: values for name, kind in axes.items()
             if (values := _take_list(cfg, name, kind)) is not None}
    if len(found) != 1:
        raise ManifestError(
            f"{where} config needs exactly one of "
            f"{' or '.join(map(repr, axes))} (the swept axis)")
    (name, values), = found.items()
    if not values:
        raise ManifestError(f"{where} axis '{name}' is empty")
    if len(set(values)) != len(values):
        raise ManifestError(f"{where} axis '{name}' has duplicate values")
    return name, values


def _reject_unknown(cfg: dict, where: str):
    if cfg:
        raise ManifestError(
            f"unknown fields {sorted(cfg)} in manifest section '{where}'")


def _swap_from_manifest(entry: dict | None) -> SwapSpec:
    if entry is None:
        return SwapSpec.perfect()
    entry = dict(entry)
    mode = _take(entry, "mode", str, "perfect")
    try:
        if mode == "perfect":
            _reject_unknown(entry, "swap")
            return SwapSpec.perfect()
        if mode == "partial":
            strength = _take(entry, "interaction_strength", float)
            _reject_unknown(entry, "swap")
            if strength is None:
                raise ManifestError(
                    "swap mode 'partial' requires 'interaction_strength'")
            return SwapSpec.partial(strength)
    except SpinFridgeError as exc:
        raise ManifestError(f"invalid 'swap' section: {exc}") from exc
    raise ManifestError(f"unknown swap mode {mode!r}")


def _protocol_config(cfg: dict, where: str = "config") -> ProtocolConfig:
    cfg = dict(cfg)
    kwargs = {field: _take(cfg, field, kind) for field, kind in (
        ("probe_size", int),
        ("bath_beta_tilde", float),
        ("coupling", float),
        ("dephasing_rate", float),
        ("steps", int),
        ("waiting_policy", str),
        ("fixed_jtau", float),
    ) if field in cfg}
    if "probe_beta_tildes" in cfg:
        temps = _take(cfg, "probe_beta_tildes", list)
        kwargs["probe_beta_tildes"] = tuple(
            math.inf if t in ("inf", None) else
            _checked(t, float, f"probe_beta_tildes[{i}]")
            for i, t in enumerate(temps))
    if "tau_schedule" in cfg:
        kwargs["tau_schedule"] = tuple(_take_list(cfg, "tau_schedule", float))
    if "swap" in cfg:
        kwargs["swap"] = _swap_from_manifest(
            _take(cfg, "swap", dict, nullable=True))
    _reject_unknown(cfg, where)
    try:
        return ProtocolConfig(**kwargs)
    except TypeError as exc:
        raise ManifestError(f"incomplete '{where}' section: {exc}") from exc
    except SpinFridgeError as exc:
        raise ManifestError(f"invalid '{where}' section: {exc}") from exc


# --------------------------------------------------------------------------
# artifact writing
# --------------------------------------------------------------------------

def _write_csv(path: Path, manifest: Manifest, seed: int,
               columns: list[str], rows: list[list]) -> None:
    lines = [f"# spinfridge {__version__}",
             f"# manifest sha256={manifest.sha256}", f"# seed={seed}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else
            str(cell) if isinstance(cell, int) else _fmt(cell)
            for cell in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    log.info("wrote %s (%d rows)", path, len(rows))


def _write_json(path: Path, manifest: Manifest, seed: int, payload) -> None:
    document = {
        "meta": {
            "tool": f"spinfridge {__version__}",
            "manifest_sha256": manifest.sha256,
            "seed": seed,
        },
        "result": payload,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    log.info("wrote %s", path)


# --------------------------------------------------------------------------
# experiment kinds
# --------------------------------------------------------------------------

def _run_cool(manifest: Manifest, out: Path, seed: int) -> int:
    cfg = manifest.config()
    key, axis = _swept_axis(cfg, "cool", probe_sizes=int,
                            bath_beta_tildes=float)
    field = {"probe_sizes": "probe_size",
             "bath_beta_tildes": "bath_beta_tilde"}[key]
    configs = [_protocol_config({**cfg, field: v}) for v in axis]

    eta_rows: list[list] = []
    dist_rows: list[list] = []
    for value, pcfg in sorted(zip(axis, configs), key=lambda p: p[0]):
        log.info("cool run: axis value %s", value)
        report = run_protocol(pcfg)
        eta_rows += [[value, r.index, r.eta] for r in report.records]
        dist_rows.append([value, 0, report.initial_distance])
        dist_rows += [[value, r.index, r.distance_to_pseudothermal]
                      for r in report.records]
    _write_csv(out / "fig2a.csv", manifest, seed, ["N", "k", "eta_k"],
               eta_rows)
    _write_csv(out / "fig3.csv", manifest, seed,
               ["N_or_T", "k", "trace_distance"], dist_rows)
    return 0


def _sweep_point(point: tuple) -> list[list] | SpinFridgeError:
    """The rows of one (grid value, ProtocolConfig) point, or the
    SpinFridgeError its run raised."""
    value, pcfg = point
    try:
        report = run_protocol(pcfg)
    except SpinFridgeError as exc:
        return exc
    drops = report.cumulative_entropy_drop
    return [[value, r.index, r.eta, float(total), r.probe_entropy,
             r.distance_to_pseudothermal]
            for r, total in zip(report.records, drops)]


def _run_sweep(manifest: Manifest, out: Path, seed: int, threads: int) -> int:
    if threads < 0:
        raise ManifestError("--threads must be >= 0")
    cfg = manifest.config()
    key, grid = _swept_axis(cfg, "sweep", dephasing_rates=float,
                            swap_strengths=float)
    gamma = key == "dephasing_rates"
    base_swap = {} if gamma else _take(cfg, "swap", dict, {})
    base = _protocol_config(cfg)

    # Build and check every point before spending any compute on the grid.
    points = []
    for value in sorted(grid):
        try:
            pcfg = replace(base, dephasing_rate=value) if gamma else replace(
                base, swap=_swap_from_manifest({
                    **base_swap, "mode": "partial",
                    "interaction_strength": value}))
        except SpinFridgeError as exc:
            raise ManifestError(
                f"invalid 'sweep point {value}' section: {exc}") from exc
        points.append((value, pcfg))

    # A comparison sweep must wait at the same moments on every grid point,
    # so the default per-step optimization is resolved once on the
    # noise-free configuration and replayed as a fixed schedule. Manifests
    # that pin 'fixed' (or an explicit schedule) are left untouched.
    if base.waiting_policy == "optimized":
        schedule = ideal_waiting_schedule(base)
        points = [(value, replace(pcfg, waiting_policy="schedule",
                                  tau_schedule=schedule))
                  for value, pcfg in points]

    workers = threads if threads > 0 else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(points)))
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers)
          if workers > 1 else contextlib.nullcontext()) as pool:
        outcomes = list((pool.map if pool else map)(_sweep_point, points))

    failed = [(value, exc) for (value, _), exc in zip(points, outcomes)
              if isinstance(exc, SpinFridgeError)]
    rows = [row for result in outcomes if isinstance(result, list)
            for row in result]
    _write_csv(out / ("fig4.csv" if gamma else "fig5.csv"), manifest, seed,
               ["gamma" if gamma else "J_I", "k", "eta_k", "dS_total",
                "S_probe", "trace_distance"], rows)
    for value, exc in failed:
        print(f"sweep point {value} failed: {exc}", file=sys.stderr)
    return 1 if failed else 0


def _run_thermometry(manifest: Manifest, out: Path, seed: int) -> int:
    cfg = manifest.config()
    repetitions = _take(cfg, "repetitions", int, 1)
    shots = _take(cfg, "shots_per_site", int, 1000, nullable=True)
    if repetitions < 1:
        raise ManifestError("'repetitions' must be >= 1")
    if shots is not None and shots < 1:
        raise ManifestError("'shots_per_site' must be >= 1 (null: exact "
                            "populations)")
    cfg.setdefault("steps", 30)
    pcfg = _protocol_config(cfg)
    log.info("thermometry: pseudo-thermalizing for %d steps", pcfg.steps)
    report = run_protocol(pcfg)
    probe = report.final_probe
    truth = pcfg.bath_beta_tilde
    rep_seeds = np.random.default_rng(seed).integers(2 ** 63,
                                                     size=repetitions)
    rows: list[list] = []
    for rep in range(repetitions):
        result = estimate_temperature(probe, shots_per_site=shots,
                                      seed=int(rep_seeds[rep]))
        err = result.beta_tilde - truth
        covered = (not result.boundary and not result.inverted
                   and abs(err) <= 3.0 * result.stderr)
        rows.append([rep, result.beta_tilde, result.stderr, err,
                     int(covered)])
    _write_csv(out / "thermometry.csv", manifest, seed,
               ["rep", "beta_tilde_est", "stderr", "error", "covered_3sigma"],
               rows)
    return 0


def _axis_from_manifest(entry, field: str) -> np.ndarray:
    if isinstance(entry, str):
        if entry not in DIAMOND_BOND_AXES:
            raise ManifestError(
                f"'{field}' names unknown axis {entry!r}; known: "
                f"{sorted(DIAMOND_BOND_AXES)}")
        return DIAMOND_BOND_AXES[entry]
    if isinstance(entry, list) and len(entry) == 3:
        return np.asarray([_checked(v, float, field) for v in entry])
    raise ManifestError(f"'{field}' must be a 3-vector or a named axis")


def _exact_decimal(fraction) -> str:
    """Finite decimal string of a dyadic rational (denominator 2^k)."""
    value = Decimal(fraction.numerator) / Decimal(fraction.denominator)
    return format(value.normalize(), "f")


def _run_nv_coupling(manifest: Manifest, out: Path, seed: int) -> int:
    cfg = manifest.config()
    pairs = _take_list(cfg, "pairs", dict, [])
    yield_length = _take(cfg, "yield_chain_length", int, nullable=True)
    _reject_unknown(cfg, "config")
    summary: dict = {"pairs": len(pairs)}
    if yield_length is not None:
        try:
            fraction = chain_yield(yield_length)
        except SpinFridgeError as exc:
            raise ManifestError(f"'yield_chain_length': {exc}") from exc
        summary["chain_yield"] = {
            "length": yield_length,
            "fraction": f"{fraction.numerator}/{fraction.denominator}",
            "decimal": _exact_decimal(fraction),
        }

    rows: list[list] = []
    for i, entry in enumerate(pairs):
        entry = dict(entry)
        pos1 = _take_list(entry, "position1_nm", float)
        pos2 = _take_list(entry, "position2_nm", float)
        if pos1 is None or pos2 is None or len(pos1) != 3 or len(pos2) != 3:
            raise ManifestError(
                f"pair {i}: 'position1_nm'/'position2_nm' must be "
                "3-vectors in nm")
        z1, z2 = (_axis_from_manifest(entry.pop(f, None), f"pair {i}: {f}")
                  for f in ("z_axis1", "z_axis2"))
        gauge = _take(entry, "gauge", str, "lab-x")
        _reject_unknown(entry, f"pair {i}")
        try:
            pair = DipolarPair.from_positions(pos1, pos2, z1, z2, gauge=gauge)
        except SpinFridgeError as exc:
            raise ManifestError(f"pair {i}: {exc}") from exc
        coeffs = dipolar_coefficients(pair)
        probe = nv_p1_coupling(pair)
        chain = nv_nv_effective_hamiltonian(pair)
        rows.append([
            i, pair.r_nm, coeffs.q, coeffs.g_plus, coeffs.g_minus,
            coeffs.h_plus, coeffs.h_minus,
            _khz(probe["ising_strength"]),
            _khz(probe["hhcp_flipflop_strength"]),
            _khz(chain["xx_yy_coeff"]),
            _khz(chain["zz_coeff"]),
            _khz(chain["xy_antisym_coeff"]),
            _khz(chain["heisenberg_strength"]),
        ])
    _write_csv(out / "nv_couplings.csv", manifest, seed,
               ["pair", "r_nm", "q", "g_plus", "g_minus", "h_plus", "h_minus",
                "ising_khz", "hhcp_flipflop_khz", "xx_yy_khz", "zz_khz",
                "xy_antisym_khz", "heisenberg_khz"],
               rows)
    _write_json(out / "nv_summary.json", manifest, seed, summary)
    return 0


def _run_verify(manifest: Manifest, out: Path, seed: int) -> int:
    _reject_unknown(manifest.config(), "config")
    verdicts = run_all_oracles(seed=seed)
    payload = [v.to_json() for v in verdicts]
    _write_json(out / "oracle_verdicts.json", manifest, seed, payload)
    failed = [v for v in verdicts if not v.passed]
    for v in verdicts:
        status = "pass" if v.passed else "FAIL"
        print(f"{v.name}: {status} ({v.trials} trials, {v.duration_s:.1f}s)")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

_DEFAULT_VERIFY_MANIFEST = {
    "schema_version": SCHEMA_VERSION,
    "kind": "verify",
    "seed": 20260814,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfridge",
        description="Spin-chain refrigerator simulations, thermometry, "
                    "dipolar coupling tables, and structural verification.",
    )
    parser.add_argument("--version", action="version",
                        version=f"spinfridge {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' manifest")
        p.add_argument("--manifest", default=None,
                       help="path to the JSON run manifest"
                            + (" (optional)" if kind == "verify" else ""))
        p.add_argument("--out", default=None,
                       help="output directory (overrides the manifest)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (overrides the manifest)")
        if kind == "sweep":
            p.add_argument("--threads", type=int, default=1,
                           help="parallel workers; 0 = auto (default: 1)")
        p.add_argument("--verbose", action="store_true",
                       help="log progress to stderr")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.manifest is not None:
            manifest = load_manifest(args.manifest)
        elif args.kind == "verify":
            raw = json.dumps(_DEFAULT_VERIFY_MANIFEST, sort_keys=True)
            manifest = Manifest(dict(_DEFAULT_VERIFY_MANIFEST),
                                hashlib.sha256(raw.encode()).hexdigest())
        else:
            raise ManifestError(f"'{args.kind}' requires --manifest")
        if manifest.kind != args.kind:
            raise ManifestError(
                f"manifest kind {manifest.kind!r} does not match "
                f"subcommand {args.kind!r}")
        seed = manifest.seed if args.seed is None \
            else _checked_seed(args.seed, "--seed")
        out = Path(args.out if args.out is not None
                   else (manifest.out_dir or "."))

        if args.kind == "cool":
            return _run_cool(manifest, out, seed)
        if args.kind == "sweep":
            return _run_sweep(manifest, out, seed, args.threads)
        if args.kind == "thermometry":
            return _run_thermometry(manifest, out, seed)
        if args.kind == "nv-coupling":
            return _run_nv_coupling(manifest, out, seed)
        return _run_verify(manifest, out, seed)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except SpinFridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
