"""Adaptive RKF4(5) integrator: accuracy, step counts, failure modes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinfridge import (DomainError, IntegrationError, IntegratorConfig,
                        LindbladGenerator, SpinNetwork, SwapSpec, cool_step,
                        dynamics, evolve, thermal_product_state)
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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "initial_step",
                                      "max_step"])
    def test_non_finite_rejected(self, name, value):
        # A NaN tolerance makes every error ratio NaN, so the controller
        # would grow the step on each rejection until the step budget.
        with pytest.raises(DomainError, match=name):
            IntegratorConfig(**{name: value})


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


class TestStepCounts:
    """The step sequence is pinned: a change to the tableau, the controller
    or the error norm shows up here before it shows up in an artifact."""

    @staticmethod
    def forced(t, y):
        return (3j - 0.5) * y + np.cos(t) * y

    @pytest.mark.parametrize("cfg, taken, rejected", [
        (IntegratorConfig(), 310, 0),
        (IntegratorConfig(initial_step=0.5, max_step=1.0), 309, 3),
    ])
    def test_fixed_problem(self, cfg, taken, rejected):
        res = rkf45(self.forced, np.array([1.0 + 0j, 0.5j]), 4.0, cfg)
        assert (res.steps_taken, res.steps_rejected) == (taken, rejected)

    def test_dephased_fixed_protocol(self, monkeypatch):
        # The dephased_fixed benchmark configuration at N = 3, with each
        # fixed J*tau = 1 wait integrated by `evolve` and the round's swap
        # then run with no further wait.
        counts = []

        def counting(*args, **kwargs):
            res = rkf45(*args, **kwargs)
            counts.append((res.steps_taken, res.steps_rejected))
            return res

        monkeypatch.setattr(dynamics, "rkf45", counting)
        gen = LindbladGenerator.from_network(SpinNetwork.uniform_chain(3, 1.0),
                                             0.5)
        probe = thermal_product_state([math.inf] * 3)
        for _ in range(8):
            probe, _, _ = cool_step(evolve(probe, gen, 1.0), 0.2, gen,
                                    SwapSpec.perfect(), 0.0)
        assert len(counts) == 26
        assert tuple(map(sum, zip(*counts))) == (1811, 0)


class TestDenseOutput:
    """Only the end state is returned; it must own its memory."""

    def test_result_owns_its_memory(self):
        # The state and the stages share one buffer per integration; the
        # result must be a copy, not a view that keeps all nine rows alive.
        rng = np.random.default_rng(3)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = -0.5j * (b + b.conj().T)  # y' = a y is unitary: |y| stays O(1)
        y0 = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        res = rkf45(lambda t, y: a @ y, y0, 1.5, IntegratorConfig())
        assert np.abs(res.y - expm(1.5 * a) @ y0).max() < 1e-8
        assert res.y.flags.owndata and res.y.shape == y0.shape
        assert not np.shares_memory(res.y, y0)

    def test_zero_duration(self):
        res = rkf45(exp_decay(1.0), np.array([1.0 + 0j]), 0.0,
                    IntegratorConfig())
        assert res.y[0] == 1.0
        assert res.steps_taken == res.steps_rejected == 0

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            rkf45(exp_decay(1.0), np.array([1.0 + 0j]), -1.0,
                  IntegratorConfig())

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(DomainError):
            rkf45(exp_decay(1.0), np.array([1.0 + 0j]), duration,
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

    def test_error_survives_pickling(self):
        # A sweep's pool returns a point's error by pickle.
        import pickle
        err = IntegrationError("x", t=0.1, step=1e-9, ratio=3.5)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is IntegrationError
        assert str(back) == str(err) == \
            "x (t=0.1, step=1e-09, error ratio=3.5)"
        assert (back.t, back.step, back.ratio) == (0.1, 1e-9, 3.5)
