"""Properties every benchmark result must have, checked outside the timing.

Each function returns a list of problems; an empty list means the result
passed. The properties come from the method, not from stored output:

* no emitted qubit is hotter than the bath (eta_k >= -1e-9);
* a polarized probe with a perfect swap emits a pure qubit (eta_1 = 1);
* the run's entropy accounting passes;
* total sigma^z excitation is conserved: what the final probe and the
  emitted qubits hold equals what the initial probe and the K bath qubits
  brought in;
* with coherent optimized waits, the optimizer's predicted temperature is
  the temperature the round then emits;
* an independent replay (reference.py) reproduces eta_k;
* the randomized cooling oracle passes, and fails when told to start every
  probe hotter than the bath.
"""

from __future__ import annotations

import math

import numpy as np

from spinfridge import entropy_accounting

NEVER_HEATS_TOL = 1e-9
FIRST_ETA_TOL = 1e-9
EXCITATION_TOL = 1e-9
PREDICTION_TOL = 1e-9
REFERENCE_TOL = 1e-8


def excited_population(beta_tilde: float) -> float:
    """p1 of a qubit at beta_tilde, where p1/p0 = exp(beta_tilde)."""
    return 1.0 if math.isinf(beta_tilde) else 1.0 / (1.0 + math.exp(-beta_tilde))


def emitted_population(record) -> float:
    """p1 of an emitted qubit, from its recorded ratio p1/p0."""
    ratio = record.population_ratio
    return 1.0 if math.isinf(ratio) else ratio / (1.0 + ratio)


def total_excitation(state) -> float:
    """Sum over sites of p1: the expected number of spins in |1>."""
    diag = np.real(np.diag(state.matrix))
    counts = np.array([bin(i).count("1") for i in range(diag.size)])
    return float(diag @ counts)


def protocol_problems(report, *, check_prediction: bool) -> list[str]:
    cfg = report.config
    records = report.records
    problems = []
    if len(records) != cfg.steps:
        problems.append(f"{len(records)} rounds recorded for {cfg.steps}")
    for r in records:
        if not r.eta >= -NEVER_HEATS_TOL:
            problems.append(f"round {r.index} heats: eta = {r.eta!r}")
    polarized = all(math.isinf(b) for b in cfg.probe_beta_tildes)
    if records and polarized and cfg.swap.mode == "perfect" \
            and abs(records[0].eta - 1.0) > FIRST_ETA_TOL:
        problems.append(f"first round of a polarized probe emits "
                        f"eta = {records[0].eta!r}, not 1")
    audit = entropy_accounting(report)
    if not audit.passed:
        problems.append(f"entropy accounting fails at round {audit.offending_step}")

    brought = sum(excited_population(b) for b in cfg.probe_beta_tildes) \
        + len(records) * excited_population(cfg.bath_beta_tilde)
    held = total_excitation(report.final_probe) + sum(
        emitted_population(r.qubit_out) for r in records)
    if abs(held - brought) > EXCITATION_TOL:
        problems.append(f"excitation not conserved: {held!r} held, "
                        f"{brought!r} brought in")

    if check_prediction:
        for r in records:
            if r.predicted is None:
                problems.append(f"round {r.index} has no predicted temperature")
                continue
            a, b = r.predicted.beta_tilde, r.qubit_out.beta_tilde
            same = a == b if math.isinf(a) or math.isinf(b) \
                else abs(a - b) <= PREDICTION_TOL
            if not same:
                problems.append(f"round {r.index}: predicted beta {a!r}, "
                                f"emitted {b!r}")
    return problems


def reference_problems(report, rounds: int) -> list[str]:
    """Replay the first rounds' own waits independently and compare eta_k."""
    from reference import replay_etas  # scipy.sparse stays out of set-up

    cfg = report.config
    window_strength = cfg.swap.interaction_strength \
        if cfg.swap.mode == "partial" else None
    records = report.records[:rounds]
    expected = replay_etas(
        probe_size=cfg.probe_size, coupling=cfg.coupling,
        bath_beta=cfg.bath_beta_tilde, dephasing=cfg.dephasing_rate,
        window_strength=window_strength,
        waits_jtau=[r.wait_jtau for r in records],
        probe_betas=cfg.probe_beta_tildes)
    return [f"round {r.index}: eta {r.eta!r}, independent replay {e!r}"
            for r, e in zip(records, expected)
            if not abs(r.eta - e) <= REFERENCE_TOL]


def oracle_problems(result, trials: int) -> list[str]:
    problems = []
    if not result.passed:
        problems.append(f"cooling oracle failed: {result.witness}")
    if result.trials != trials:
        problems.append(f"oracle ran {result.trials} trials of {trials}")
    margin = result.details.get("min_margin")
    if margin is None or not margin >= -NEVER_HEATS_TOL:
        problems.append(f"oracle min_margin {margin!r} < -{NEVER_HEATS_TOL}")
    return problems


def negative_control_problems(result) -> list[str]:
    if result.passed:
        return ["oracle passed probes that start hotter than the bath"]
    return []
