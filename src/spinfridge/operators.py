"""Hermitian observables and the Pauli toolbox.

Conventions: site 1 is the most significant bit of the computational basis
index, |0> sorts before |1>, and sigma^z = |0><0| - |1><1| (so |1> is the
ground state of the qubit Hamiltonian and the fully polarized cold state is
|1...1>).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .registers import SpinRegister
from .states import HERMITICITY_TOL

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


@dataclass(frozen=True)
class Observable:
    """A Hermitian matrix tied to a register."""

    register: SpinRegister
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.register.dim, self.register.dim):
            raise DomainError(
                f"matrix shape {m.shape} does not match register dimension "
                f"{self.register.dim}"
            )
        dev = float(np.abs(m - m.conj().T).max())
        if dev > HERMITICITY_TOL:
            raise DomainError(f"not Hermitian: max deviation {dev:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def zero(cls, register: SpinRegister) -> "Observable":
        return cls(register, np.zeros((register.dim, register.dim), dtype=complex))


def site_operator(register: SpinRegister, label: int, op: np.ndarray) -> np.ndarray:
    """Embed a single-qubit operator at the given site of the register."""
    i = register.labels.index(label) if label in register.labels else None
    if i is None:
        raise DomainError(f"site {label} not in register {register.labels}")
    mats = [IDENTITY_2] * register.count
    mats[i] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out
