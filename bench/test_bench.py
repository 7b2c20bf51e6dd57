"""The benchmark's own tests: its checks catch tampered results, its
independent replay agrees with the package, and its tracer counts and
restores what it wraps.

    python3 -m pytest bench/
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spinfridge as sf
from spinfridge import protocol, states

import checks
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent

SMALL_RUNS = {
    "ideal_optimized": sf.ProtocolConfig(probe_size=3, bath_beta_tilde=0.2,
                                         steps=6),
    "dephased_fixed": sf.ProtocolConfig(probe_size=3, bath_beta_tilde=0.2,
                                        steps=4, dephasing_rate=0.5,
                                        waiting_policy="fixed"),
    "partial_window": sf.ProtocolConfig(probe_size=3, bath_beta_tilde=0.2,
                                        steps=5, swap=sf.SwapSpec.partial(5.0),
                                        waiting_policy="schedule",
                                        tau_schedule=(0.4, 2.9, 1.3, 0.0, 2.2)),
}


@pytest.fixture(scope="module")
def reports():
    return {name: sf.run_protocol(cfg) for name, cfg in SMALL_RUNS.items()}


@pytest.fixture
def ideal(reports):
    return reports["ideal_optimized"]


def tamper_record(report, index: int, **changes):
    records = list(report.records)
    records[index] = dataclasses.replace(records[index], **changes)
    return dataclasses.replace(report, records=tuple(records))


@pytest.mark.parametrize("name", SMALL_RUNS)
def test_untampered_runs_pass(reports, name):
    report = reports[name]
    assert checks.protocol_problems(
        report, check_prediction=name == "ideal_optimized") == []
    assert checks.reference_problems(report, rounds=report.config.steps) == []


def test_heating_round_is_caught(ideal):
    bad = tamper_record(ideal, 2, eta=-1e-6)
    assert any("heats" in p for p in
               checks.protocol_problems(bad, check_prediction=False))


def test_impure_first_emission_is_caught(ideal):
    bad = tamper_record(ideal, 0, eta=0.99)
    assert any("first round" in p for p in
               checks.protocol_problems(bad, check_prediction=False))


def test_wrong_excitation_count_is_caught(ideal):
    # A final probe at the bath temperature holds less excitation than the
    # polarized start minus what the emitted qubits carried away.
    bath = sf.thermal_product_state([0.2] * ideal.config.probe_size)
    bad = dataclasses.replace(ideal, final_probe=bath)
    assert any("excitation" in p for p in
               checks.protocol_problems(bad, check_prediction=False))


def test_colder_emission_breaks_excitation_count(ideal):
    record = ideal.records[3]
    colder = sf.TemperatureRecord.from_beta(record.qubit_out.beta_tilde + 1e-3)
    bad = tamper_record(ideal, 3, qubit_out=colder)
    assert any("excitation" in p for p in
               checks.protocol_problems(bad, check_prediction=False))


def test_entropy_violation_is_caught(ideal):
    bad = tamper_record(ideal, 4, probe_entropy=ideal.records[3].probe_entropy)
    assert any("entropy" in p for p in
               checks.protocol_problems(bad, check_prediction=False))


def test_wrong_prediction_is_caught(ideal):
    record = ideal.records[2]
    off = sf.TemperatureRecord.from_beta(record.qubit_out.beta_tilde + 1e-6)
    bad = tamper_record(ideal, 2, predicted=off)
    assert checks.protocol_problems(bad, check_prediction=False) == []
    assert any("predicted" in p for p in
               checks.protocol_problems(bad, check_prediction=True))


@pytest.mark.parametrize("field, shift", [("eta", 1e-6), ("wait_jtau", 0.05)])
def test_reference_catches_wrong_round(ideal, field, shift):
    bad = tamper_record(ideal, 2, **{field: getattr(ideal.records[2], field)
                                     + shift})
    problems = checks.reference_problems(bad, rounds=ideal.config.steps)
    assert problems and problems[0].startswith("round 3:")


def test_oracle_checks():
    good = sf.oracle_always_cools(trials=4, seed=5)
    assert checks.oracle_problems(good, 4) == []
    assert checks.oracle_problems(good, 5) != []
    failed = dataclasses.replace(good, passed=False, witness={"trial": 0})
    assert checks.oracle_problems(failed, 4) != []
    hot = dataclasses.replace(good, details={"min_margin": -1e-6})
    assert checks.oracle_problems(hot, 4) != []
    control = sf.oracle_always_cools(trials=4, seed=5, inject_violation=True)
    assert checks.negative_control_problems(control) == []
    assert checks.negative_control_problems(good) != []


def test_partial_window_schedule_comes_from_the_seed():
    first = workloads.draw_schedule(7, 40)
    assert first == workloads.draw_schedule(7, 40)
    assert first != workloads.draw_schedule(8, 40)
    assert all(0.0 <= t <= workloads.PROBE_SIZE for t in first)


def test_tracer_counts_layers_and_restores_bindings():
    original = states.partial_trace
    cfg = SMALL_RUNS["ideal_optimized"]
    with Tracer() as tracer:
        assert protocol.partial_trace is not original
        report = sf.run_protocol(cfg)
    assert protocol.partial_trace is original
    assert states.partial_trace is original
    totals = tracer.layer_totals()
    assert totals["protocol.cool_step"][0] == cfg.steps
    assert totals["states.partial_trace"][0] == 2 * cfg.steps
    assert totals["protocol.optimize_waiting_time"][0] == cfg.steps
    assert totals["dynamics.LindbladGenerator.from_network"][0] == 1
    # cool_step's children are attach, swap, two traces, ...; its self time
    # is what is left, so the layers never add up to more than the run.
    wall = max(end for _, _, end, _ in tracer.spans) - \
        min(start for _, start, _, _ in tracer.spans)
    assert sum(s for _, s in totals.values()) <= wall + 1e-9
    assert report.records == sf.run_protocol(cfg).records


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None], ["inner", 1.0, 4.0, 0],
                    ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 3.0, 1]]
    totals = tracer.layer_totals()
    assert totals["outer"] == (1, pytest.approx(6.0))
    assert totals["inner"] == (2, pytest.approx(3.0))
    assert totals["leaf"] == (1, pytest.approx(1.0))


def test_rkf45_counters_are_summed():
    cfg = SMALL_RUNS["dephased_fixed"]
    with Tracer() as tracer:
        sf.run_protocol(cfg)
    assert tracer.layer_totals()["integrate.rkf45"][0] > 0
    assert tracer.counters["integrate.rkf45.steps"] > 0


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle_cools",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
