"""Exception hierarchy.

Everything raised on purpose by this package derives from SpinFridgeError, so
callers (notably the CLI) can map failures onto exit codes without fishing
through numpy internals.
"""

from __future__ import annotations


class SpinFridgeError(Exception):
    """Base class for all package errors."""


class DomainError(SpinFridgeError, ValueError):
    """An argument is outside the operation's domain (bad site, negative
    temperature parameter, zero separation, ...)."""


class InvalidStateError(SpinFridgeError, ValueError):
    """A density matrix violates its invariants (non-Hermitian, trace != 1,
    or an eigenvalue below the -1e-10 floor)."""


class SectorMixingError(SpinFridgeError, ValueError):
    """Inter-sector coherence present where the blocked form requires exact
    zeros ("sector mixing present")."""


class NotDiagonalError(SpinFridgeError, ValueError):
    """A reduced qubit carries coherence above tolerance, so no temperature
    can be read off it ("not sigma^z-diagonal")."""


class PopulationInversionError(SpinFridgeError, ValueError):
    """p1 < p0: the qubit is population-inverted and has no non-negative
    dimensionless inverse temperature."""


class IntegrationError(SpinFridgeError, RuntimeError):
    """Adaptive integration failed (step-size underflow or non-finite state).

    Carries diagnostics: the time reached, the last step size tried, and the
    last error ratio, so failures can be reported and replayed.
    """

    def __init__(self, message: str, *, t: float, step: float, ratio: float):
        super().__init__(
            f"{message} (t={t:.6g}, step={step:.3g}, error ratio={ratio:.3g})"
        )
        self.t = t
        self.step = step
        self.ratio = ratio


class ManifestError(SpinFridgeError, ValueError):
    """A run manifest failed schema validation; message names the field."""
