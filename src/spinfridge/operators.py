"""The Pauli toolbox: Pauli matrices and their embedding at one site of a
register, the Kronecker-built reference for the sector-block Hamiltonians.

Conventions: site 1 is the most significant bit of the computational basis
index, |0> sorts before |1>, and sigma^z = |0><0| - |1><1| (so |1> is the
ground state of the qubit Hamiltonian and the fully polarized cold state is
|1...1>).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .registers import SpinRegister

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


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
