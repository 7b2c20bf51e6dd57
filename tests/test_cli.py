"""Command-line runner: manifests, artifacts, determinism, exit codes."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spinfridge
from spinfridge import (DomainError, IntegrationError, OracleResult,
                        __version__, thermal_product_state)
from spinfridge.cli import main


def write_manifest(path, **fields):
    body = {"schema_version": 1, **fields}
    path.write_text(json.dumps(body, indent=1), encoding="utf-8")
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return header, body[0].split(","), [ln.split(",") for ln in body[1:]]


@pytest.fixture
def cool_manifest(tmp_path):
    return write_manifest(
        tmp_path / "cool.json",
        kind="cool",
        seed=5,
        out=str(tmp_path / "out"),
        config={"probe_sizes": [3, 2], "bath_beta_tilde": 0.2, "steps": 2},
    )


class TestManifestValidation:
    def test_invalid_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        assert main(["cool", "--manifest", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_wrong_schema_version(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path / "m.json", kind="cool", config={})
        data = json.loads(manifest.read_text())
        data["schema_version"] = 99
        manifest.write_text(json.dumps(data))
        assert main(["cool", "--manifest", str(manifest)]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", kind="anneal",
                                  config={})
        assert main(["cool", "--manifest", str(manifest)]) == 2

    def test_kind_mismatch(self, cool_manifest):
        assert main(["sweep", "--manifest", str(cool_manifest)]) == 2

    def test_missing_manifest_file(self, tmp_path):
        assert main(["cool", "--manifest", str(tmp_path / "none.json")]) == 2

    def test_manifest_required_except_verify(self):
        assert main(["cool"]) == 2

    def test_unknown_config_field(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path / "m.json", kind="cool", out=str(tmp_path),
            config={"probe_sizes": [2], "bath_beta_tilde": 0.2, "stepz": 1})
        assert main(["cool", "--manifest", str(manifest)]) == 2
        assert "stepz" in capsys.readouterr().err

    def test_unknown_integrator_field(self, tmp_path, capsys):
        # The protocol has no integrator settings: its dephased waits run at
        # the integrator's defaults, so the section is an unknown field.
        manifest = write_manifest(
            tmp_path / "m.json", kind="cool", out=str(tmp_path / "out"),
            config={"probe_sizes": [2], "bath_beta_tilde": 0.2, "steps": 1,
                    "integrator": {"rel_tol": 1e-9}})
        assert main(["cool", "--manifest", str(manifest)]) == 2
        assert "'integrator'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("window_dephasing_rate", 0.3), ("dephase_qubit", True)])
    def test_retired_swap_keys_rejected(self, tmp_path, capsys, key, value):
        # A partial swap is J_I alone: the window's rate and couplings are
        # the probe's, and the qubit does not dephase.
        manifest = write_manifest(
            tmp_path / "m.json", kind="cool", out=str(tmp_path / "out"),
            config={"probe_sizes": [2], "bath_beta_tilde": 0.2, "steps": 1,
                    "swap": {"mode": "partial", "interaction_strength": 5.0,
                             key: value}})
        assert main(["cool", "--manifest", str(manifest)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, field", [
        ({"grid_spacing": 0.01}, "grid_spacing"),
        ({"bath_beta_tilde": 1e-16}, "too hot"),
        ({"dephasing_rate": math.nan}, "dephasing rate"),
        ({"swap": {"mode": "partial", "interaction_strength": 5.0,
                   "window_dephasing_rate": 0.3}}, "window_dephasing_rate"),
        ({"swap": {"mode": "partial", "interaction_strength": 5.0,
                   "dephase_qubit": False}}, "dephase_qubit"),
        ({"dephasing_rate": 0.3, "optimize_with_ideal": False},
         "optimize_with_ideal"),
    ])
    def test_bad_values_rejected_before_running(self, tmp_path, capsys,
                                                extra, field):
        # Python's json reads NaN and Infinity. Each value must fail
        # validation: a non-finite rate would fail only at run time, and a
        # bath whose populations round to 1/2 has no temperature to cool
        # towards. Waits always come from the coherent scan over a fixed
        # grid, so there is neither a switch to a dissipative scan nor a
        # grid spacing; a window takes the probe's rate and never dephases
        # the qubit, so it has no settings of its own but J_I.
        manifest = write_manifest(
            tmp_path / "m.json", kind="cool", out=str(tmp_path),
            config={"probe_sizes": [2], "bath_beta_tilde": 0.2, "steps": 1,
                    **extra})
        assert main(["cool", "--manifest", str(manifest)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "fig2a.csv").exists()

    def test_bad_seed_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", kind="cool", seed=-1,
                                  config={})
        assert main(["cool", "--manifest", str(manifest)]) == 2

    def test_physics_validation_maps_to_exit_2(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.json", kind="cool", out=str(tmp_path),
            config={"probe_sizes": [2], "bath_beta_tilde": -0.5, "steps": 1})
        assert main(["cool", "--manifest", str(manifest)]) == 2


_NV_PAIR = {"position1_nm": [0, 0, 0], "position2_nm": [25.0, 0, 0],
            "z_axis1": [0, 0, 1], "z_axis2": [0, 0, 1]}
_BASE_CONFIGS = {
    "cool": {"probe_sizes": [2], "bath_beta_tilde": 0.2, "steps": 1},
    "sweep": {"dephasing_rates": [0.0], "probe_size": 2,
              "bath_beta_tilde": 0.2, "steps": 1},
    "thermometry": {"probe_size": 2, "bath_beta_tilde": 0.2, "steps": 1},
    "nv-coupling": {"pairs": [_NV_PAIR]},
    "verify": {},
}


class TestManifestFieldKinds:
    """Every manifest value is read through one checked helper: a wrong
    kind exits 2 naming the field, and nothing is written."""

    def rejected(self, tmp_path, capsys, kind, config, field):
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path / "m.json", kind=kind, out=str(out),
            config={**_BASE_CONFIGS[kind], **config})
        assert main([kind, "--manifest", str(manifest)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, config, field", [
        ("cool", {"steps": "two"}, "steps"),
        ("cool", {"steps": 2.7}, "steps"),
        ("cool", {"steps": True}, "steps"),
        ("cool", {"probe_sizes": ["a"]}, "probe_sizes[0]"),
        ("cool", {"probe_sizes": [True]}, "probe_sizes[0]"),
        ("thermometry", {"repetitions": "x"}, "repetitions"),
        ("thermometry", {"shots_per_site": 10.9}, "shots_per_site"),
        ("nv-coupling", {"yield_chain_length": "x"}, "yield_chain_length"),
    ])
    def test_integers(self, tmp_path, capsys, kind, config, field):
        self.rejected(tmp_path, capsys, kind, config, field)

    @pytest.mark.parametrize("kind, config, field", [
        ("cool", {"bath_beta_tilde": "0.2"}, "bath_beta_tilde"),
        ("cool", {"bath_beta_tilde": 10 ** 400}, "bath_beta_tilde"),
        ("cool", {"probe_beta_tildes": [True, 0.2]}, "probe_beta_tildes[0]"),
        ("cool", {"tau_schedule": ["x"], "waiting_policy": "schedule"},
         "tau_schedule[0]"),
        ("cool", {"fixed_jtau": "1", "waiting_policy": "fixed"},
         "fixed_jtau"),
        ("cool", {"swap": {"mode": "partial", "interaction_strength": "5"}},
         "interaction_strength"),
        ("nv-coupling",
         {"pairs": [{**_NV_PAIR, "position2_nm": [25, "a", 0]}]},
         "position2_nm"),
    ])
    def test_numbers(self, tmp_path, capsys, kind, config, field):
        self.rejected(tmp_path, capsys, kind, config, field)

    @pytest.mark.parametrize("kind, config, field", [
        ("cool", {"probe_sizes": 3}, "probe_sizes"),
        ("sweep", {"dephasing_rates": 0.3}, "dephasing_rates"),
        ("nv-coupling", {"pairs": {"0": _NV_PAIR}}, "pairs"),
    ])
    def test_lists(self, tmp_path, capsys, kind, config, field):
        self.rejected(tmp_path, capsys, kind, config, field)

    def test_config_must_be_an_object(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "schema_version": 1, "kind": "verify",
            "out": str(tmp_path / "out"), "config": [1]}))
        assert main(["verify", "--manifest", str(manifest)]) == 2
        assert "config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, config, field", [
        ("nv-coupling", {"yield_chain_length": 0}, "yield_chain_length"),
        ("verify", {"trials": 5}, "trials"),
        ("sweep", {"dephasing_rates": [0.1, 0.1]}, "duplicate"),
    ])
    def test_nothing_written_on_rejection(self, tmp_path, capsys, kind,
                                          config, field):
        self.rejected(tmp_path, capsys, kind, config, field)

    def test_valid_values_still_read(self, tmp_path):
        # JSON integers are numbers, and a null shot count means the exact
        # expectation values.
        manifest = write_manifest(
            tmp_path / "m.json", kind="thermometry", out=str(tmp_path / "o"),
            config={"probe_size": 2, "bath_beta_tilde": 1, "steps": 1,
                    "repetitions": 2, "shots_per_site": None})
        assert main(["thermometry", "--manifest", str(manifest)]) == 0
        _, _, rows = read_rows(tmp_path / "o" / "thermometry.csv")
        assert len(rows) == 2 and rows[0][1] == rows[1][1]

    @staticmethod
    def refuse_to_run(monkeypatch):
        import spinfridge.cli as cli

        def refuse(*_args, **_kwargs):
            raise AssertionError("ran with an invalid input")

        monkeypatch.setattr(cli, "run_protocol", refuse)
        monkeypatch.setattr(cli, "run_all_oracles", refuse)

    @pytest.mark.parametrize("shots", [0, -5])
    def test_shot_count_range_checked_before_running(self, tmp_path, capsys,
                                                     monkeypatch, shots):
        self.refuse_to_run(monkeypatch)
        self.rejected(tmp_path, capsys, "thermometry",
                      {"shots_per_site": shots}, "shots_per_site")

    @pytest.mark.parametrize("kind", ["verify", "cool", "thermometry"])
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_flag_follows_the_manifest_rule(self, tmp_path, capsys,
                                                 monkeypatch, kind, seed):
        # --seed takes the manifest seed's rule (an unsigned 64-bit
        # integer), checked before anything runs or is written.
        self.refuse_to_run(monkeypatch)
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path / "m.json", kind=kind,
                                  out=str(out), config=_BASE_CONFIGS[kind])
        assert main([kind, "--manifest", str(manifest),
                     "--seed", str(seed)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


class TestCoolRuns:
    def test_artifacts_and_first_step_purity(self, cool_manifest, tmp_path):
        assert main(["cool", "--manifest", str(cool_manifest)]) == 0
        header, columns, rows = read_rows(tmp_path / "out" / "fig2a.csv")
        assert columns == ["N", "k", "eta_k"]
        assert header[0] == f"# spinfridge {__version__}"
        assert header[2] == "# seed=5"
        # rows sorted by N, k; first step of the ideal protocol is exact
        assert [(r[0], r[1]) for r in rows] == [
            ("2", "1"), ("2", "2"), ("3", "1"), ("3", "2")]
        for row in rows:
            if row[1] == "1":
                assert float(row[2]) == pytest.approx(1.0, abs=1e-9)

        _, dist_columns, dist_rows = read_rows(tmp_path / "out" / "fig3.csv")
        assert dist_columns == ["N_or_T", "k", "trace_distance"]
        # includes the k=0 baseline and contracts toward the target
        per_n = {}
        for value, k, d in dist_rows:
            per_n.setdefault(value, []).append(float(d))
        for distances in per_n.values():
            assert distances == sorted(distances, reverse=True)

    def test_byte_identical_reruns(self, cool_manifest, tmp_path):
        assert main(["cool", "--manifest", str(cool_manifest)]) == 0
        first = (tmp_path / "out" / "fig2a.csv").read_bytes()
        assert main(["cool", "--manifest", str(cool_manifest)]) == 0
        assert (tmp_path / "out" / "fig2a.csv").read_bytes() == first

    def test_out_flag_overrides_manifest(self, cool_manifest, tmp_path):
        other = tmp_path / "elsewhere"
        assert main(["cool", "--manifest", str(cool_manifest),
                     "--out", str(other)]) == 0
        assert (other / "fig2a.csv").exists()

    def test_temperature_axis(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.json", kind="cool", out=str(tmp_path / "o"),
            config={"bath_beta_tildes": [0.5, 0.2], "probe_size": 2,
                    "steps": 1})
        assert main(["cool", "--manifest", str(manifest)]) == 0
        _, _, rows = read_rows(tmp_path / "o" / "fig2a.csv")
        assert [r[0] for r in rows] == [
            "2.00000000000e-01", "5.00000000000e-01"]

    @pytest.mark.parametrize("bath", [745.0, 1e300])
    def test_bath_past_exp_overflow(self, tmp_path, bath):
        manifest = write_manifest(
            tmp_path / "m.json", kind="cool", out=str(tmp_path / "o"),
            config={"probe_sizes": [3], "bath_beta_tilde": bath, "steps": 2})
        assert main(["cool", "--manifest", str(manifest)]) == 0
        _, _, rows = read_rows(tmp_path / "o" / "fig2a.csv")
        assert [float(r[2]) for r in rows] == [1.0, 1.0]

    def test_both_axes_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.json", kind="cool", out=str(tmp_path),
            config={"probe_sizes": [2], "bath_beta_tildes": [0.2],
                    "steps": 1})
        assert main(["cool", "--manifest", str(manifest)]) == 2

    @pytest.mark.parametrize("axis, config", [
        ("probe_sizes", {"probe_sizes": [2, 2], "bath_beta_tilde": 0.2}),
        ("bath_beta_tildes", {"bath_beta_tildes": [0.2, 0.5, 0.2],
                              "probe_size": 2}),
    ])
    def test_duplicate_axis_values_rejected(self, tmp_path, capsys,
                                            monkeypatch, axis, config):
        # A repeated value would run twice and write its rows twice; it is
        # refused, naming the axis, before any run or output directory.
        import spinfridge.cli as cli

        def refuse(*_args, **_kwargs):
            raise AssertionError("ran a duplicated axis")

        monkeypatch.setattr(cli, "run_protocol", refuse)
        manifest = write_manifest(
            tmp_path / "m.json", kind="cool", out=str(tmp_path / "o"),
            config={**config, "steps": 1})
        assert main(["cool", "--manifest", str(manifest)]) == 2
        assert axis in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSweeps:
    def sweep_manifest(self, tmp_path, **config):
        base = {"probe_size": 2, "bath_beta_tilde": 0.2, "steps": 2}
        return write_manifest(tmp_path / "sweep.json", kind="sweep", seed=9,
                              out=str(tmp_path / "out"),
                              config={**base, **config})

    def test_dephasing_grid_sorted(self, tmp_path):
        manifest = self.sweep_manifest(tmp_path,
                                       dephasing_rates=[0.5, 0.0, 0.1])
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        _, columns, rows = read_rows(tmp_path / "out" / "fig4.csv")
        assert columns == ["gamma", "k", "eta_k", "dS_total", "S_probe",
                           "trace_distance"]
        gammas = [float(r[0]) for r in rows]
        assert gammas == sorted(gammas)
        assert len(rows) == 6  # 3 grid points x 2 steps

    def test_parallel_execution_matches_serial(self, tmp_path):
        manifest = self.sweep_manifest(tmp_path,
                                       dephasing_rates=[0.0, 0.2])
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        serial = (tmp_path / "out" / "fig4.csv").read_bytes()
        assert main(["sweep", "--manifest", str(manifest),
                     "--threads", "2"]) == 0
        assert (tmp_path / "out" / "fig4.csv").read_bytes() == serial

    def test_swap_strength_grid(self, tmp_path):
        manifest = self.sweep_manifest(tmp_path, swap_strengths=[20.0, 5.0])
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        _, columns, rows = read_rows(tmp_path / "out" / "fig5.csv")
        assert columns[0] == "J_I"
        assert [r[0] for r in rows[:2]] == ["5.00000000000e+00"] * 2

    def test_grid_points_share_the_ideal_schedule(self, tmp_path):
        # The noise-free grid point of a replayed sweep must coincide with
        # a standalone optimized run of the same configuration.
        manifest = self.sweep_manifest(tmp_path, dephasing_rates=[0.3, 0.0])
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        _, _, sweep_rows = read_rows(tmp_path / "out" / "fig4.csv")
        clean = [r for r in sweep_rows if float(r[0]) == 0.0]

        cool = write_manifest(
            tmp_path / "cool.json", kind="cool", seed=9,
            out=str(tmp_path / "cool_out"),
            config={"probe_sizes": [2], "bath_beta_tilde": 0.2, "steps": 2})
        assert main(["cool", "--manifest", str(cool)]) == 0
        _, _, cool_rows = read_rows(tmp_path / "cool_out" / "fig2a.csv")
        assert [r[2] for r in clean] == [r[2] for r in cool_rows]

    def test_fixed_policy_sweep_is_not_rescheduled(self, tmp_path):
        manifest = self.sweep_manifest(tmp_path, dephasing_rates=[0.0],
                                       waiting_policy="fixed",
                                       fixed_jtau=0.5)
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        assert (tmp_path / "out" / "fig4.csv").exists()

    def test_empty_grid_is_a_config_error(self, tmp_path):
        manifest = self.sweep_manifest(tmp_path, dephasing_rates=[])
        assert main(["sweep", "--manifest", str(manifest)]) == 2

    def test_non_finite_rate_rejected_before_any_point_runs(self, tmp_path):
        manifest = self.sweep_manifest(tmp_path,
                                       dephasing_rates=[0.1, math.nan])
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert not (tmp_path / "out" / "fig4.csv").exists()

    def test_bad_point_rejected_before_the_ideal_schedule(
            self, tmp_path, monkeypatch, capsys):
        # Every grid point is built and checked before the noise-free
        # schedule runs; the error names the point.
        import spinfridge.cli as cli

        def refuse(*_args, **_kwargs):
            raise AssertionError("ran the ideal schedule")

        monkeypatch.setattr(cli, "ideal_waiting_schedule", refuse)
        manifest = self.sweep_manifest(tmp_path,
                                       dephasing_rates=[0.1, math.nan])
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "sweep point nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failing_point_keeps_the_other_rows(self, tmp_path, monkeypatch,
                                                capsys, threads):
        # Serial and pooled points run through one ordered map: a point's
        # error is reported and the other points' rows are written as a
        # clean run writes them. The pool forks, so the patched run
        # reaches its workers; a DomainError survives pickling.
        import spinfridge.cli as cli
        manifest = self.sweep_manifest(tmp_path,
                                       dephasing_rates=[0.2, 0.1, 0.0])
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        _, _, clean = read_rows(tmp_path / "out" / "fig4.csv")
        real_run = cli.run_protocol

        def failing(cfg, initial_probe=None):
            if cfg.dephasing_rate == 0.1:
                raise DomainError("no run at 0.1")
            return real_run(cfg, initial_probe)

        monkeypatch.setattr(cli, "run_protocol", failing)
        assert main(["sweep", "--manifest", str(manifest),
                     "--threads", threads]) == 1
        _, _, rows = read_rows(tmp_path / "out" / "fig4.csv")
        assert rows == [r for r in clean if float(r[0]) != 0.1]
        assert len(rows) == 4
        assert "sweep point 0.1 failed: no run at 0.1" \
            in capsys.readouterr().err

    def test_duplicate_grid_rejected(self, tmp_path):
        manifest = self.sweep_manifest(tmp_path,
                                       dephasing_rates=[0.1, 0.1])
        assert main(["sweep", "--manifest", str(manifest)]) == 2

    def test_threads_is_a_sweep_option(self, tmp_path, cool_manifest, capsys):
        # Only a sweep has a pool to size; a negative size is refused
        # before any point runs.
        with pytest.raises(SystemExit) as exc:
            main(["cool", "--manifest", str(cool_manifest), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        manifest = self.sweep_manifest(tmp_path, dephasing_rates=[0.0])
        assert main(["sweep", "--manifest", str(manifest),
                     "--threads", "-1"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threads_env_is_not_read(self, tmp_path, monkeypatch):
        # --threads (default 1) is the only way to size the pool.
        monkeypatch.setenv("SPINFRIDGE_THREADS", "many")
        manifest = self.sweep_manifest(tmp_path, dephasing_rates=[0.0])
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        assert (tmp_path / "out" / "fig4.csv").exists()


class TestIntegrationFailure:
    """An integration failure is a `SpinFridgeError`: it exits 1 and prints
    its message, which carries t, step and error ratio."""

    def failing_run(self, cfg, initial_probe=None):
        raise IntegrationError("step size underflow", t=0.125, step=1e-9,
                               ratio=3.5)

    MESSAGE = "step size underflow (t=0.125, step=1e-09, error ratio=3.5)"

    def test_cool_exits_1(self, cool_manifest, monkeypatch, capsys):
        import spinfridge.cli as cli
        monkeypatch.setattr(cli, "run_protocol", self.failing_run)
        assert main(["cool", "--manifest", str(cool_manifest)]) == 1
        assert f"error: {self.MESSAGE}" in capsys.readouterr().err

    def test_sweep_exits_1(self, tmp_path, monkeypatch, capsys):
        import spinfridge.cli as cli
        monkeypatch.setattr(cli, "run_protocol", self.failing_run)
        manifest = write_manifest(
            tmp_path / "sweep.json", kind="sweep", seed=9,
            out=str(tmp_path / "out"),
            config={"probe_size": 2, "bath_beta_tilde": 0.2, "steps": 2,
                    "dephasing_rates": [0.0, 0.3]})
        assert main(["sweep", "--manifest", str(manifest),
                     "--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert f"sweep point 0.0 failed: {self.MESSAGE}" in err
        assert f"sweep point 0.3 failed: {self.MESSAGE}" in err

    def test_pooled_sweep_reports_the_failing_point(self, tmp_path,
                                                    monkeypatch, capsys):
        # The error travels back from a pool worker by pickle; the other
        # point still runs and writes its rows.
        import spinfridge.cli as cli
        real_run = cli.run_protocol

        def failing(cfg, initial_probe=None):
            if cfg.dephasing_rate == 0.3:
                self.failing_run(cfg)
            return real_run(cfg, initial_probe)

        monkeypatch.setattr(cli, "run_protocol", failing)
        manifest = write_manifest(
            tmp_path / "sweep.json", kind="sweep", seed=9,
            out=str(tmp_path / "out"),
            config={"probe_size": 2, "bath_beta_tilde": 0.2, "steps": 2,
                    "dephasing_rates": [0.0, 0.3]})
        assert main(["sweep", "--manifest", str(manifest),
                     "--threads", "2"]) == 1
        err = capsys.readouterr().err
        assert f"sweep point 0.3 failed: {self.MESSAGE}" in err
        assert "sweep point 0.0" not in err
        _, _, rows = read_rows(tmp_path / "out" / "fig4.csv")
        assert {float(r[0]) for r in rows} == {0.0}


class TestThermometry:
    def test_columns_and_coverage_flag(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "t.json", kind="thermometry", seed=3,
            out=str(tmp_path / "out"),
            config={"probe_size": 2, "bath_beta_tilde": 0.2, "steps": 3,
                    "shots_per_site": 400, "repetitions": 4})
        assert main(["thermometry", "--manifest", str(manifest)]) == 0
        _, columns, rows = read_rows(tmp_path / "out" / "thermometry.csv")
        assert columns == ["rep", "beta_tilde_est", "stderr", "error",
                           "covered_3sigma"]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        for row in rows:
            assert row[4] in ("0", "1")

    def test_seed_flag_changes_samples(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "t.json", kind="thermometry", seed=3,
            out=str(tmp_path / "out"),
            config={"probe_size": 1, "bath_beta_tilde": 0.3, "steps": 2,
                    "shots_per_site": 50, "repetitions": 1})
        assert main(["thermometry", "--manifest", str(manifest)]) == 0
        first = (tmp_path / "out" / "thermometry.csv").read_text()
        assert main(["thermometry", "--manifest", str(manifest),
                     "--seed", "77"]) == 0
        second = (tmp_path / "out" / "thermometry.csv").read_text()
        assert first != second
        assert "# seed=77" in second


class TestNvCoupling:
    def manifest(self, tmp_path):
        return write_manifest(
            tmp_path / "nv.json", kind="nv-coupling",
            out=str(tmp_path / "out"),
            config={
                "yield_chain_length": 6,
                "pairs": [{
                    "position1_nm": [0, 0, 0],
                    "position2_nm": [25.0, 0, 0],
                    "z_axis1": [0, 0, 1],
                    "z_axis2": [0, 0, 1],
                }],
            })

    def test_coupling_table_and_yield(self, tmp_path):
        assert main(["nv-coupling", "--manifest",
                     str(self.manifest(tmp_path))]) == 0
        _, columns, rows = read_rows(tmp_path / "out" / "nv_couplings.csv")
        assert columns[:3] == ["pair", "r_nm", "q"]
        # perpendicular collinear geometry at 25 nm: the field-axis coupling
        # is J0/r^3 = (2 pi) 52e6 / 25^3 rad/s = 3.328 kHz exactly.
        row = rows[0]
        assert float(row[2]) == pytest.approx(-1.0, abs=1e-12)
        ising_khz = float(row[columns.index("ising_khz")])
        assert ising_khz == pytest.approx(52e6 / 25.0 ** 3 / 1e3, rel=1e-12)

        summary = json.loads(
            (tmp_path / "out" / "nv_summary.json").read_text())
        chain = summary["result"]["chain_yield"]
        assert chain == {"length": 6, "fraction": "3/128",
                         "decimal": "0.0234375"}

    def test_named_axes_accepted(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "nv.json", kind="nv-coupling",
            out=str(tmp_path / "out"),
            config={"pairs": [{
                "position1_nm": [0, 0, 0], "position2_nm": [0, 0, 25.0],
                "z_axis1": "111", "z_axis2": "111"}]})
        assert main(["nv-coupling", "--manifest", str(manifest)]) == 0
        _, columns, rows = read_rows(tmp_path / "out" / "nv_couplings.csv")
        # the magic-angle geometry: q = 0
        assert abs(float(rows[0][2])) < 1e-12

    def test_unknown_axis_name_rejected(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path / "nv.json", kind="nv-coupling", out=str(tmp_path),
            config={"pairs": [{
                "position1_nm": [0, 0, 0], "position2_nm": [0, 0, 25.0],
                "z_axis1": "groundhog", "z_axis2": "111"}]})
        assert main(["nv-coupling", "--manifest", str(manifest)]) == 2
        assert "groundhog" in capsys.readouterr().err

    def test_coincident_pair_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "nv.json", kind="nv-coupling", out=str(tmp_path),
            config={"pairs": [{
                "position1_nm": [1, 2, 3], "position2_nm": [1, 2, 3],
                "z_axis1": "111", "z_axis2": "111"}]})
        assert main(["nv-coupling", "--manifest", str(manifest)]) == 2


class TestVerify:
    def canned(self, passed: bool):
        return [OracleResult("canned", passed, 5, 0.01, None)]

    def test_exit_zero_when_oracles_pass(self, tmp_path, monkeypatch):
        import spinfridge.cli as cli
        monkeypatch.setattr(cli, "run_all_oracles",
                            lambda seed: self.canned(True))
        assert main(["verify", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "oracle_verdicts.json").read_text())
        assert doc["result"][0]["passed"] is True
        assert doc["meta"]["seed"] == 20260814

    def test_exit_one_when_an_oracle_fails(self, tmp_path, monkeypatch):
        import spinfridge.cli as cli
        monkeypatch.setattr(cli, "run_all_oracles",
                            lambda seed: self.canned(False))
        assert main(["verify", "--out", str(tmp_path)]) == 1

    def test_seed_flag_reaches_the_oracles(self, tmp_path, monkeypatch):
        import spinfridge.cli as cli
        seen = {}

        def spy(seed):
            seen["seed"] = seed
            return self.canned(True)

        monkeypatch.setattr(cli, "run_all_oracles", spy)
        assert main(["verify", "--out", str(tmp_path), "--seed", "123"]) == 0
        assert seen["seed"] == 123


def readme_manifests() -> list[dict]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [json.loads(block) for block in re.findall(
        r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)]


class TestReadmeManifests:
    ARTIFACTS = {"cool": ["fig2a.csv", "fig3.csv"], "sweep": ["fig4.csv"],
                 "thermometry": ["thermometry.csv"],
                 "nv-coupling": ["nv_couplings.csv", "nv_summary.json"]}

    def test_examples_pass_validation_and_run(self, tmp_path, monkeypatch):
        # Every example manifest in README.md must be accepted and write its
        # artifacts. The protocol is stubbed out, as in TestIntegrationFailure,
        # so the N = 10 examples cost nothing; nv-coupling runs for real.
        import spinfridge.cli as cli
        runs = []

        def stub_run(cfg, initial_probe=None):
            runs.append(cfg)
            return SimpleNamespace(
                records=(), initial_distance=0.0,
                cumulative_entropy_drop=np.zeros(0),
                final_probe=thermal_product_state(cfg.probe_beta_tildes))

        monkeypatch.setattr(cli, "run_protocol", stub_run)
        monkeypatch.setattr(cli, "ideal_waiting_schedule",
                            lambda cfg: (1.0,) * cfg.steps)
        manifests = readme_manifests()
        assert sorted(m["kind"] for m in manifests) == sorted(self.ARTIFACTS)
        for i, manifest in enumerate(manifests):
            kind, out = manifest["kind"], tmp_path / f"out{i}"
            path = tmp_path / f"m{i}.json"
            path.write_text(json.dumps(manifest), encoding="utf-8")
            runs.clear()
            assert main([kind, "--manifest", str(path), "--out", str(out)]) \
                == 0, kind
            for name in self.ARTIFACTS[kind]:
                assert (out / name).exists()
            assert bool(runs) == (kind != "nv-coupling")


class TestRuntimeDependencies:
    def test_simulations_never_load_scipy(self, cool_manifest):
        # numpy is the only runtime dependency. A fresh interpreter runs a
        # dephased window protocol, an oracle and a CLI run, so no import
        # made by another test counts.
        script = f"""
import sys
sys.path.insert(0, {str(Path(spinfridge.__file__).parent.parent)!r})
import spinfridge as sf
from spinfridge import cli
sf.run_protocol(sf.ProtocolConfig(probe_size=3, bath_beta_tilde=0.2, steps=3,
                                  dephasing_rate=0.3,
                                  swap=sf.SwapSpec.partial(5.0)))
sf.oracle_always_cools(trials=2)
assert cli.main(["cool", "--manifest", {str(cool_manifest)!r}]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
        done = subprocess.run([sys.executable, "-c", script], check=True,
                              capture_output=True, text=True, timeout=300)
        assert done.stdout.splitlines()[-1] == "[]"
