"""An independent replay of the cooling protocol, for checking the package.

Nothing here calls into `spinfridge`. The chain Hamiltonian is assembled
from Kronecker products of Pauli matrices, split into excitation sectors by
popcount, and states are plain dense matrices over the 2^N computational
basis with site 1 as the most significant bit. Coherent waits and swap
windows use each sector block's eigendecomposition; dephased waits use
`scipy.sparse.linalg.expm_multiply` on each sector's vectorized Liouvillian

    L X = -i (H_l X - X H_l) + Gamma (W_l o X - N X),  W_l[a, b] = s_a . s_b,

where s_a holds the sigma^z signs of basis state a. A perfect swap with a
fresh bath qubit is replayed through its closed form: the emitted qubit is
the end spin's marginal and the next probe is chi(bath) (x) Tr_1(rho).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

_PAULIS = (
    sparse.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex)),
    sparse.csr_matrix(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    sparse.csr_matrix(np.array([[1, 0], [0, -1]], dtype=complex)),
)
_SECTOR_LEAK_TOL = 1e-12


def heisenberg(n_sites: int, bonds) -> sparse.csr_matrix:
    """sum over (i, j, J) in `bonds` of J sigma_i . sigma_j; site 0 is the MSB."""
    h = sparse.csr_matrix((1 << n_sites, 1 << n_sites), dtype=complex)
    for i, j, coupling in bonds:
        for pauli in _PAULIS:
            factors = [sparse.identity(2, dtype=complex, format="csr")] * n_sites
            factors[i] = factors[j] = pauli
            term = factors[0]
            for f in factors[1:]:
                term = sparse.kron(term, f, format="csr")
            h = h + coupling * term
    return h


def popcounts(n_sites: int) -> np.ndarray:
    return np.array([bin(i).count("1") for i in range(1 << n_sites)])


class SectorDynamics:
    """Evolution under one z-conserving Hamiltonian, one sector at a time."""

    def __init__(self, h: sparse.csr_matrix, n_sites: int):
        self.n_sites = n_sites
        counts = popcounts(n_sites)
        self.mask = counts[:, None] != counts[None, :]
        self.sectors = []
        for l in range(n_sites + 1):
            idx = np.nonzero(counts == l)[0]
            block = h[idx][:, idx]
            if abs(h[idx][:, np.nonzero(counts != l)[0]]).sum() > 0:
                raise ValueError(f"Hamiltonian mixes sector {l}")
            w, v = np.linalg.eigh(block.toarray())
            signs = 1 - 2 * ((idx[:, None] >> np.arange(n_sites)) & 1)
            self.sectors.append((idx, block, w, v, signs @ signs.T))

    def _blocks(self, rho: np.ndarray):
        leak = np.abs(rho[self.mask]).max(initial=0.0)
        if leak > _SECTOR_LEAK_TOL:
            raise ValueError(f"state has inter-sector coherence {leak:.3e}")
        for idx, block, w, v, weights in self.sectors:
            sub = rho[np.ix_(idx, idx)]
            if sub.any():
                yield idx, sub, block, w, v, weights

    def evolve(self, rho: np.ndarray, t: float, gamma: float = 0.0) -> np.ndarray:
        out = np.zeros_like(rho)
        for idx, sub, block, w, v, weights in self._blocks(rho):
            if gamma == 0:
                u = (v * np.exp(-1j * w * t)) @ v.conj().T
                new = u @ sub @ u.conj().T
            else:
                d = len(idx)
                eye = sparse.identity(d, dtype=complex, format="csr")
                dephasing = (weights - self.n_sites).ravel().astype(float)
                liouvillian = (
                    -1j * (sparse.kron(block, eye) - sparse.kron(eye, block.T))
                    + gamma * sparse.diags(dephasing))
                new = expm_multiply(liouvillian.tocsr() * t,
                                    sub.ravel()).reshape(d, d)
            out[np.ix_(idx, idx)] = new
        return out


def thermal_qubit(beta: float) -> np.ndarray:
    p1 = 1.0 if math.isinf(beta) else 1.0 / (1.0 + math.exp(-beta))
    return np.diag([1.0 - p1, p1]).astype(complex)


def efficiency(bath_beta: float, qubit: np.ndarray) -> float:
    """eta = 1 - bath/out for the emitted qubit's diagonal."""
    p0, p1 = qubit[0, 0].real, qubit[1, 1].real
    if p0 <= 0:
        return 1.0
    out_beta = math.log(p1 / p0)
    return 0.0 if out_beta == bath_beta else 1.0 - bath_beta / out_beta


def replay_etas(*, probe_size: int, coupling: float, bath_beta: float,
                dephasing: float, window_strength: float | None,
                waits_jtau, probe_betas) -> list[float]:
    """eta of each round, waiting the given J*tau values in turn.

    `window_strength` None means a perfect swap; otherwise the qubit and
    the end spin couple at J_I for pi/(4 J_I) under the chain's own
    Hamiltonian, without dephasing on the qubit.
    """
    if window_strength is not None and dephasing:
        raise ValueError("dephased swap windows are not replayed")
    n = probe_size
    chain = [(i, i + 1, coupling) for i in range(n - 1)]
    probe_dyn = SectorDynamics(heisenberg(n, chain), n)
    chi = thermal_qubit(bath_beta)
    rho = np.ones((1, 1), dtype=complex)
    for beta in probe_betas:
        rho = np.kron(rho, thermal_qubit(beta))
    if window_strength is not None:
        window = [(0, 1, window_strength)] + [(i + 1, j + 1, c) for i, j, c in chain]
        window_dyn = SectorDynamics(heisenberg(n + 1, window), n + 1)
        window_time = math.pi / (4.0 * window_strength)
    half = 1 << (n - 1)
    etas = []
    for jtau in waits_jtau:
        rho = probe_dyn.evolve(rho, jtau / coupling, dephasing)
        if window_strength is None:
            split = rho.reshape(2, half, 2, half)
            qubit = np.einsum("iaja->ij", split)
            rho = np.kron(chi, np.einsum("aiaj->ij", split))
        else:
            joint = window_dyn.evolve(np.kron(chi, rho), window_time)
            split = joint.reshape(2, 1 << n, 2, 1 << n)
            qubit = np.einsum("iaja->ij", split)
            rho = np.einsum("aiaj->ij", split)
        etas.append(efficiency(bath_beta, qubit))
    return etas
