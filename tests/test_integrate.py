"""Adaptive RKF4(5) integrator: accuracy, dense output, failure modes."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinfridge import DomainError, IntegrationError, IntegratorConfig
from spinfridge.integrate import rkf45


def exp_decay(rate: float):
    return lambda t, y: -rate * y


class TestConfig:
    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.rel_tol == 1e-9
        assert cfg.abs_tol == 1e-11
        assert cfg.initial_step == 1e-3
        assert cfg.max_step == 0.1

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0},
        {"abs_tol": -1e-9},
        {"initial_step": 0.0},
        {"max_step": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            IntegratorConfig(**kwargs)


class TestAccuracy:
    def test_exponential_decay(self):
        res = rkf45(exp_decay(1.0), np.array([1.0 + 0j]), 5.0,
                    IntegratorConfig())
        assert abs(res.y[0] - math.exp(-5.0)) < 1e-9 * math.exp(-5.0) + 1e-11
        assert res.steps_taken > 0

    def test_oscillator_phase_and_norm(self):
        # y' = i*omega*y rotates without changing |y|.
        omega = 3.0
        res = rkf45(lambda t, y: 1j * omega * y, np.array([1.0 + 0j]), 4.0,
                    IntegratorConfig())
        # global error ~ number of steps x local tolerance
        assert abs(abs(res.y[0]) - 1.0) < 1e-8
        assert abs(res.y[0] - np.exp(1j * omega * 4.0)) < 1e-7

    def test_matrix_valued_state(self):
        # d/dt rho = -i[H, rho] with H = diag(0, 1): phases on off-diagonals.
        h = np.diag([0.0, 1.0])
        rho0 = np.full((2, 2), 0.5, dtype=complex)

        def rhs(t, rho):
            return -1j * (h @ rho - rho @ h)

        res = rkf45(rhs, rho0, 2.0, IntegratorConfig())
        assert abs(res.y[0, 1] - 0.5 * np.exp(1j * 2.0)) < 1e-8

    def test_tighter_tolerance_is_more_accurate(self):
        loose = rkf45(exp_decay(2.0), np.array([1.0 + 0j]), 3.0,
                      IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8))
        tight = rkf45(exp_decay(2.0), np.array([1.0 + 0j]), 3.0,
                      IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13))
        truth = math.exp(-6.0)
        assert abs(tight.y[0] - truth) <= abs(loose.y[0] - truth)

    def test_nonautonomous_rhs(self):
        # y' = t*y  ->  y(T) = exp(T^2/2).
        res = rkf45(lambda t, y: t * y, np.array([1.0 + 0j]), 2.0,
                    IntegratorConfig())
        assert abs(res.y[0] - math.exp(2.0)) < 1e-7


class TestDenseOutput:
    def test_samples_land_exactly(self):
        times = [0.5, 1.25, 3.0]
        res = rkf45(exp_decay(1.0), np.array([1.0 + 0j]), 3.0,
                    IntegratorConfig(), t_eval=times)
        assert [t for t, _ in res.samples] == times
        for t, y in res.samples:
            assert abs(y[0] - math.exp(-t)) < 1e-9

    def test_samples_and_result_own_their_memory(self):
        # The stages share one buffer; no sample, nor the result, may alias
        # it or each other (the last sample lands on the end point).
        rng = np.random.default_rng(3)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = -0.5j * (b + b.conj().T)  # y' = a y is unitary: |y| stays O(1)
        y0 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        times = [0.4, 0.9, 1.5]
        res = rkf45(lambda t, y: a @ y, y0, 1.5, IntegratorConfig(),
                    t_eval=times)
        assert [t for t, _ in res.samples] == times
        for t, y in res.samples:
            assert np.abs(y - expm(t * a) @ y0).max() < 1e-8
        arrays = [y for _, y in res.samples] + [res.y]
        for p, q in itertools.combinations(arrays, 2):
            assert not np.shares_memory(p, q)
        before = [y.copy() for _, y in res.samples]
        res.y[...] = 0.0
        for (_, y), kept in zip(res.samples, before):
            assert np.array_equal(y, kept)

    def test_time_zero_sample(self):
        res = rkf45(exp_decay(1.0), np.array([2.0 + 0j]), 1.0,
                    IntegratorConfig(), t_eval=[0.0, 1.0])
        assert res.samples[0][0] == 0.0
        assert res.samples[0][1][0] == 2.0

    def test_zero_duration(self):
        res = rkf45(exp_decay(1.0), np.array([1.0 + 0j]), 0.0,
                    IntegratorConfig(), t_eval=[0.0])
        assert res.y[0] == 1.0
        assert len(res.samples) == 1

    def test_out_of_range_eval_rejected(self):
        with pytest.raises(DomainError):
            rkf45(exp_decay(1.0), np.array([1.0 + 0j]), 1.0,
                  IntegratorConfig(), t_eval=[2.0])

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            rkf45(exp_decay(1.0), np.array([1.0 + 0j]), -1.0,
                  IntegratorConfig())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFailureModes:
    def test_non_finite_state_raises(self):
        def blow_up(t, y):
            return y * np.nan

        with pytest.raises(IntegrationError) as err:
            rkf45(blow_up, np.array([1.0 + 0j]), 1.0, IntegratorConfig())
        assert err.value.t is not None

    def test_error_carries_step_diagnostics(self):
        try:
            rkf45(lambda t, y: y * np.inf, np.array([1.0 + 0j]), 1.0,
                  IntegratorConfig())
        except IntegrationError as exc:
            assert hasattr(exc, "t")
            assert hasattr(exc, "step")
            assert hasattr(exc, "ratio")
        else:
            pytest.fail("expected IntegrationError")
