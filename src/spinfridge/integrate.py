"""Adaptive Runge-Kutta-Fehlberg 4(5) on complex arrays.

Classic Fehlberg tableau. The error estimate is the embedded 4th/5th-order
difference measured entrywise, err = max |y5 - y4| / (abs_tol + rel_tol*|y5|),
and the 5th-order solution is the one propagated (local extrapolation) --
that is what keeps the global error at J*t = 10 below the 1e-8 acceptance
bound with the default tolerances.

y and the stages k1..k6 share one buffer per integration: each stage
argument, and y5 with the embedded error y5 - y4, is one real product of
h-scaled tableau rows with the buffer's float view, written into two
scratch rows of the same buffer.

The integrator returns the end state only (no dense output) and knows
nothing about quantum mechanics; dynamics.py feeds it density-matrix
right-hand sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError

# Fehlberg nodes and stage coefficients.
_C = np.array([0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2])
_A = (  # rows for k2..k6
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
# Tableau rows over the buffer [y, k1..k6]: k2..k6's arguments, y5, y5 - y4.
_ROWS = np.zeros((7, 7))
_ROWS[:5, 1:6] = [a + (0.0,) * (5 - len(a)) for a in _A]
_ROWS[5:, 1:] = _B5, _B5 - _B4

_SAFETY = 0.9
# The propagated (5th-order) solution accrues global error well below the
# embedded estimate only if each step keeps a margin under the requested
# tolerance; 1/4 buys a ~4x accuracy cushion for ~1.4x the steps.
_ERR_MARGIN = 0.25
_MIN_SHRINK = 0.2
_MAX_GROW = 5.0
_MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step limits for the adaptive integrator.

    The step fields are in the same time units as the durations passed to
    evolve(); the defaults assume J*t-like dimensionless time of order one.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    initial_step: float = 1e-3
    max_step: float = 0.1

    def __post_init__(self):
        # NaN compares False both ways, so each bound is checked positively:
        # a NaN tolerance would make every error ratio NaN, and the
        # controller would grow h on each rejection until the step budget.
        for name in ("rel_tol", "abs_tol", "initial_step", "max_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and > 0, got {value}")


@dataclass
class IntegrationResult:
    y: np.ndarray
    steps_taken: int
    steps_rejected: int


def rkf45(rhs: Callable[[float, np.ndarray], np.ndarray],
          y0: np.ndarray,
          duration: float,
          cfg: IntegratorConfig) -> IntegrationResult:
    """Integrate dy/dt = rhs(t, y) from t=0 to t=duration."""
    if not (math.isfinite(duration) and duration >= 0):
        raise DomainError(f"duration must be finite and >= 0, got {duration}")
    buf = np.empty((9,) + np.shape(y0), dtype=complex)  # y, k1..k6, 2 scratch
    buf[0] = y0
    flat = buf.reshape(9, -1).view(float)
    y = buf[0]  # the current state; accepted steps overwrite it in place
    scale, ratios = np.empty(np.shape(y0)), np.empty(np.shape(y0))

    t = 0.0
    h = min(cfg.initial_step, cfg.max_step, duration)
    taken = rejected = 0
    h_floor = max(1e-14 * duration, 5e-292)

    while duration - t > h_floor:  # an fp-level remainder counts as the end
        h = min(h, cfg.max_step, duration - t)
        if h <= h_floor:
            raise IntegrationError("step-size underflow", t=t, step=h, ratio=np.inf)

        coef = h * _ROWS
        coef[:6, 0] = 1.0  # the weight of y; 0 in the error row
        buf[1] = rhs(t, y)
        for i in range(1, 6):
            np.matmul(coef[i - 1, :i + 1], flat[:i + 1], out=flat[7])
            buf[i + 1] = rhs(t + _C[i] * h, buf[7])
        np.matmul(coef[5:], flat[:7], out=flat[7:])
        y5, err = buf[7], buf[8]

        if not np.all(np.isfinite(y5)):
            raise IntegrationError("non-finite state", t=t, step=h, ratio=np.inf)

        np.abs(y5, out=scale)  # scale = margin (abs_tol + rel_tol |y5|)
        scale *= cfg.rel_tol
        scale += cfg.abs_tol
        scale *= _ERR_MARGIN
        ratio = float(np.divide(np.abs(err, out=ratios), scale, out=ratios).max())

        if ratio <= 1.0:
            taken += 1
            t += h
            y[...] = y5
        else:
            rejected += 1
        if taken + rejected > _MAX_STEPS:
            raise IntegrationError("step budget exhausted", t=t, step=h,
                                   ratio=ratio)
        factor = _SAFETY * ratio ** -0.2 if ratio > 0 else _MAX_GROW
        h = h * min(_MAX_GROW, max(_MIN_SHRINK, factor))

    return IntegrationResult(y.copy(), taken, rejected)
