"""Randomized structural oracles: positive runs and negative controls."""

from __future__ import annotations

import numpy as np
import pytest

from spinfridge import (
    DomainError,
    OracleResult,
    SpinNetwork,
    cool_step,
    oracle_always_cools,
    oracle_entropy_bounds,
    oracle_majorization,
    oracle_stationary_state,
    random_channel_sample,
    thermal_product_state,
)

from spinfridge.oracles import _sector_spectra

from conftest import count_calls, random_blocked_state


class TestOracleResult:
    def test_truthiness(self):
        good = OracleResult("x", True, 1, 0.0, None)
        bad = OracleResult("x", False, 1, 0.0, {"trial": 3})
        assert good and not bad

    def test_to_json_is_plain_data(self):
        import json
        res = OracleResult("cooling", True, 10, 1.234567, None,
                           details={"min_margin": 0.5})
        payload = res.to_json()
        json.dumps(payload)  # must not raise
        assert payload["name"] == "cooling"
        assert payload["duration_s"] == 1.235


class TestChannelSamples:
    def test_sample_is_trace_preserving(self, rng):
        # One round of the sample keeps the next probe's trace and emits a
        # normalized qubit.
        sample = random_channel_sample(rng, probe_size=2)
        probe, qubit, _ = cool_step(thermal_product_state([1.0, 2.0]), 0.4,
                                    sample.gen, sample.swap, sample.tau)
        for state in (probe, qubit):
            total = sum(float(np.trace(b).real) for b in state.blocks)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_params_are_serializable(self, rng):
        import json
        sample = random_channel_sample(rng, probe_size=3)
        json.dumps(sample.params)

    @pytest.mark.parametrize("seed, params", [
        (0, {"probe_size": 2, "couplings": {"1,2": 0.2739233746429086},
             "anisotropies": {"1,2": 0.5395734275277406}, "gamma": 0.0,
             "tau": 0.03305527105705819, "swap": "partial J_I=62.99"}),
        (1, {"probe_size": 2, "couplings": {"1,2": 0.023643249400513433},
             "anisotropies": {"1,2": 1.9009273926518706}, "gamma": 0.0,
             "tau": 1.8972988942744877, "swap": "perfect"}),
        (2, {"probe_size": 2, "couplings": {"1,2": -0.4767757315013672},
             "anisotropies": {"1,2": 0.5969822868282466},
             "gamma": 0.0919159421350969, "tau": 1.200201051931308,
             "swap": "partial J_I=1.353"}),
    ])
    def test_params_are_the_drawn_round(self, seed, params):
        # A witness quotes `params`, read off the round it describes; these
        # are the draws' plain values, key order included.
        import json
        sample = random_channel_sample(np.random.default_rng(seed), 2)
        assert json.dumps(sample.params) == json.dumps(params)

    def test_one_window_build_per_partial_sample(self, monkeypatch):
        # The window whose hypotheses a sample checks is the one its rounds
        # apply, so each partial-swap sample builds exactly one.
        from spinfridge import dynamics, oracles, protocol
        samples = []
        draw = oracles.random_channel_sample

        def kept(*args, **kwargs):
            samples.append(draw(*args, **kwargs))
            return samples[-1]

        monkeypatch.setattr(oracles, "random_channel_sample", kept)
        calls = count_calls(monkeypatch, [
            (module, "window_generator")
            for module in (dynamics, oracles, protocol)])
        assert oracle_always_cools(trials=100)
        partial = sum(s.swap.mode == "partial" for s in samples)
        assert (len(samples), partial) == (100, 62)
        assert calls["window_generator"] == partial

    @pytest.mark.parametrize("seed", [0, 2])   # coherent, dephased window
    def test_rounds_apply_the_checked_window(self, monkeypatch, seed):
        from spinfridge import oracles, protocol
        built, evolved, routed, checked = [], [], [], []

        def spy(fn, log, entry):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                log.append(entry(args, out))
                return out
            return wrapped

        monkeypatch.setattr(oracles, "window_generator", spy(
            oracles.window_generator, built, lambda args, out: out))
        monkeypatch.setattr(oracles, "evolve_exact", spy(
            oracles.evolve_exact, evolved, lambda args, out: args[1]))
        monkeypatch.setattr(oracles, "_window_route", spy(
            oracles._window_route, routed, lambda args, out: (args[0], out)))
        monkeypatch.setattr(oracles, "_check_window_unitary", spy(
            oracles._check_window_unitary, checked, lambda args, out: args[0]))
        sample = random_channel_sample(np.random.default_rng(seed), 2)
        (window,) = built
        ((route_of, route),) = routed
        assert route_of is window
        # A dephased window's z-conservation and unitality checks each ran
        # its channel; a coherent one's quadrants, the map its rounds apply,
        # were checked as one unitary per sector instead.
        assert sum(g is window for g in evolved) == (2 if seed else 0)
        assert [r is route for r in checked] == ([] if seed else [True])

        calls = count_calls(monkeypatch, [(protocol, "window_generator")])
        probe = thermal_product_state([1.0, 2.0])
        for _ in range(2):
            probe, _, _ = cool_step(probe, 0.4, sample.gen, sample.swap,
                                    sample.tau)
        assert calls["window_generator"] == 0

        def rebuilt():
            raise AssertionError("the round built another window")

        assert sample.gen._memo("window", sample.swap, rebuilt) is route


    def test_a_non_unitary_window_is_refused(self, monkeypatch):
        # Scaling one quadrant of the coherent window that the rounds would
        # apply by 1.01 breaks M_L^dag M_L = I in that joint sector, and the
        # sample names it.
        from spinfridge import oracles
        route = oracles._window_route

        def scaled(*args):
            out = route(*args)
            out[1][0][0] = 1.01 * out[1][0][0]
            return out

        monkeypatch.setattr(oracles, "_window_route", scaled)
        with pytest.raises(DomainError, match="L = 1 is not unitary"):
            random_channel_sample(np.random.default_rng(0), 2)


class TestAlwaysCools:
    def test_small_battery_passes(self):
        result = oracle_always_cools(trials=25, max_sites=3, seed=7)
        assert result.passed
        assert result.trials == 25
        assert result.witness is None
        assert result.details["min_margin"] >= -1e-9

    def test_injected_violation_is_caught(self):
        result = oracle_always_cools(trials=10, max_sites=3, seed=7,
                                     inject_violation=True)
        assert not result.passed
        witness = result.witness
        assert witness is not None
        assert witness["beta_tilde_out"] < witness["bath_beta_tilde"] - 1e-9
        assert "channel" in witness and "trial" in witness


class TestStationaryState:
    def test_default_chain_passes(self):
        result = oracle_stationary_state(seed=3)
        assert result.passed
        assert result.details["worst_fixed_point_distance"] <= 1e-8
        assert result.details["max_perturbed_displacement"] > 1e-6

    def test_six_site_chain_passes(self):
        # A seven-site joint register, past the old dense-Liouvillian cap.
        result = oracle_stationary_state(
            net=SpinNetwork.uniform_chain(6, 1.0), seed=3)
        assert result.passed
        assert result.details["worst_fixed_point_distance"] <= 1e-8
        assert result.details["max_perturbed_displacement"] > 1e-6


    @pytest.mark.parametrize("bath", [0.0, np.inf])
    def test_bath_equal_to_its_double_refused(self, bath):
        # There 2 beta_tilde = beta_tilde, so the perturbed probe is the
        # bath and the displacement check could never pass.
        with pytest.raises(DomainError):
            oracle_stationary_state(bath_beta_tilde=bath)


class TestEntropyBounds:
    def test_standard_battery_passes(self):
        result = oracle_entropy_bounds()
        assert result.passed
        assert result.trials == 5


class TestMajorization:
    def test_small_battery_passes(self):
        result = oracle_majorization(trials=40, max_sites=3, seed=11)
        assert result.passed
        # dephasing with Gamma > 0 must have produced strict mixing
        assert result.details["max_strict_dominance"] > 0.0

    def test_non_unital_reset_is_caught(self):
        result = oracle_majorization(trials=40, max_sites=3, seed=11,
                                     negative_control=True)
        assert not result.passed
        assert result.witness is not None


class TestExactRoute:
    def test_oracles_never_call_the_integrator(self, monkeypatch):
        from spinfridge import dynamics
        calls = []
        original = dynamics.rkf45

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(dynamics, "rkf45", counted)
        assert oracle_always_cools(trials=20, max_sites=3)
        assert oracle_stationary_state()
        assert oracle_majorization(trials=40, max_sites=3)
        assert calls == []

    def test_oracles_run_the_shipped_round(self, monkeypatch):
        # Both theorem oracles run cool_step, and neither the attach, swap
        # and trace route nor the integrator.
        from spinfridge import dynamics, integrate, oracles, protocol
        names = ("cool_step", "attach_thermal_qubit", "perfect_swap",
                 "partial_swap", "rkf45")
        calls = count_calls(monkeypatch, [
            (module, name) for module in (dynamics, integrate, oracles,
                                          protocol)
            for name in names if hasattr(module, name)])
        assert oracle_always_cools(trials=20, max_sites=3)
        cooling_rounds = calls["cool_step"]
        assert oracle_stationary_state()
        assert 0 < cooling_rounds < calls["cool_step"]
        assert [calls[name] for name in names[1:]] == [0, 0, 0, 0]

    def test_eight_site_probes_pass_and_controls_fail(self):
        assert oracle_always_cools(trials=10, max_sites=8, seed=7)
        assert oracle_stationary_state(net=SpinNetwork.uniform_chain(8, 1.0),
                                       seed=3)
        assert oracle_majorization(trials=10, max_sites=8, seed=11)
        assert not oracle_always_cools(trials=10, max_sites=8, seed=7,
                                       inject_violation=True)
        assert not oracle_majorization(trials=10, max_sites=8, seed=11,
                                       negative_control=True)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_empty_runs_rejected(self, trials):
        # An empty run would pass with min_margin = inf, which to_json
        # writes as the invalid JSON token Infinity.
        with pytest.raises(DomainError, match="trials"):
            oracle_always_cools(trials=trials)
        with pytest.raises(DomainError, match="trials"):
            oracle_majorization(trials=trials)

    def test_no_reports_rejected(self):
        with pytest.raises(DomainError, match="report"):
            oracle_entropy_bounds(reports=[])

    @pytest.mark.parametrize("max_sites", [1, 0, -3])
    def test_fewer_than_two_sites_rejected(self, max_sites):
        with pytest.raises(DomainError, match="max_sites"):
            oracle_always_cools(trials=1, max_sites=max_sites)
        with pytest.raises(DomainError, match="max_sites"):
            oracle_majorization(trials=1, max_sites=max_sites)


class TestSectorSpectrum:
    def test_from_blocked_state(self, rng):
        state = random_blocked_state(rng, 3)
        spectra = _sector_spectra(state)
        assert len(spectra) == 4
        total = sum(sum(s) for s in spectra)
        assert total == pytest.approx(1.0, abs=1e-10)
        for s in spectra:
            assert list(s) == sorted(s, reverse=True)

    def test_thermal_state_spectra_are_flat(self):
        state = thermal_product_state([0.5] * 3)
        for s in _sector_spectra(state):
            assert max(s) == pytest.approx(min(s), abs=1e-14)
