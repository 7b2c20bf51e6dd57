"""Density matrices over spin registers, and the handful of functionals the
cooling protocol needs from them.

Temperatures are handled exclusively through the dimensionless combination
beta_tilde = (level splitting)/(k_B T) in [0, +inf]: 0 is infinite
temperature (maximally mixed), +inf is zero temperature (ground state |1>,
since sigma^z = |0><0| - |1><1| makes |1> the lower level). Populations obey
p1/p0 = exp(beta_tilde). Entropies are in nats.

States exist in two representations:

* dense -- a full 2^N x 2^N matrix;
* sector-blocked -- one dense block per excitation sector l (the number of
  spins in |1>), valid only when every inter-sector coherence of the dense
  equivalent is exactly zero by construction.

The blocked form is the protocol's working representation, because every
generator on its path conserves total spin-z: the largest block of a 10-spin
probe is C(10,5) = 252 instead of 1024, blocks evolve independently, and the
partial trace maps blocks to blocks one traced-out site at a time. A dense
matrix is materialized only on request (`matrix`, `to_dense`) or for states
carrying inter-sector coherence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import sectors
from .errors import (
    DomainError,
    InvalidStateError,
    NotDiagonalError,
    PopulationInversionError,
    SectorMixingError,
)
from .registers import SpinRegister

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
INTERSECTOR_TOL = 1e-12
COHERENCE_TOL = 1e-9


# --------------------------------------------------------------------------
# temperatures
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TemperatureRecord:
    """A dimensionless inverse temperature.

    beta_tilde >= 0 always; the protocol never produces population inversion
    from valid inputs, so a negative value is an error, not a record.
    """

    beta_tilde: float

    def __post_init__(self):
        b = self.beta_tilde
        if math.isnan(b) or b < 0:
            raise DomainError(f"beta_tilde must be in [0, +inf], got {b}")

    @classmethod
    def from_beta(cls, beta_tilde: float) -> "TemperatureRecord":
        return cls(beta_tilde)

    @property
    def population_ratio(self) -> float:
        """p1/p0 = exp(beta_tilde), +inf at zero temperature."""
        return _safe_exp(self.beta_tilde)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# --------------------------------------------------------------------------
# the state type
# --------------------------------------------------------------------------

class QuantumState:
    """Immutable density matrix, dense or sector-blocked.

    Construct through :meth:`from_dense` / :meth:`from_blocks` (or the helper
    functions in this module); the constructor validates Hermiticity
    (1e-12), unit trace (1e-10) and the eigenvalue floor (>= -1e-10).
    """

    __slots__ = ("register", "_dense", "_blocks")

    def __init__(self, register: SpinRegister, *, dense=None, blocks=None):
        self._store(register, dense, blocks, copy=True)
        self._validate()

    @classmethod
    def _adopt(cls, register: SpinRegister, *, dense=None,
               blocks=None) -> "QuantumState":
        """Wrap arrays an internal caller has just built, unvalidated and
        uncopied. They are made read-only in place, so the caller must hold
        no other reference it means to write through."""
        state = cls.__new__(cls)
        state._store(register, dense, blocks, copy=False)
        return state

    def _store(self, register: SpinRegister, dense, blocks, copy: bool):
        if (dense is None) == (blocks is None):
            raise DomainError("exactly one of dense/blocks must be given")
        self.register = register
        if dense is not None:
            dense = np.asarray(dense, dtype=complex)
            if dense.shape != (register.dim, register.dim):
                raise DomainError(
                    f"matrix shape {dense.shape} does not match register "
                    f"dimension {register.dim}"
                )
            if copy:
                dense = dense.copy()
            dense.setflags(write=False)
            self._dense = dense
            self._blocks = None
        else:
            n = register.count
            bases = sectors.sector_bases(n)
            if len(blocks) != n + 1:
                raise DomainError(f"expected {n + 1} sector blocks, got {len(blocks)}")
            clean = []
            for l, block in enumerate(blocks):
                b = np.asarray(block, dtype=complex)
                d = len(bases[l])
                if b.shape != (d, d):
                    raise DomainError(
                        f"sector {l} block has shape {b.shape}, expected {(d, d)}"
                    )
                if copy:
                    b = b.copy()
                b.setflags(write=False)
                clean.append(b)
            self._dense = None
            self._blocks = tuple(clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, matrix, register: SpinRegister | None = None
                   ) -> "QuantumState":
        matrix = np.asarray(matrix, dtype=complex)
        if register is None:
            n = int(round(math.log2(matrix.shape[0])))
            register = SpinRegister.of_size(n)
        return cls(register, dense=matrix)

    @classmethod
    def from_blocks(cls, blocks, register: SpinRegister | None = None
                    ) -> "QuantumState":
        if register is None:
            register = SpinRegister.of_size(len(blocks) - 1)
        return cls(register, blocks=blocks)

    # -- representation ----------------------------------------------------

    @property
    def is_blocked(self) -> bool:
        return self._blocks is not None

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix (materialized on demand for blocked states)."""
        if self._dense is not None:
            return self._dense
        dense = sectors.scatter_blocks(self._blocks, self.register.count)
        dense.setflags(write=False)
        return dense

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        if self._blocks is None:
            raise DomainError("state is dense; call sector_decompose first")
        return self._blocks

    def to_dense(self) -> "QuantumState":
        if self._dense is not None:
            return self
        return QuantumState._adopt(self.register, dense=self.matrix)

    # -- invariants --------------------------------------------------------

    def _iter_matrices(self) -> Iterable[np.ndarray]:
        if self._dense is not None:
            yield self._dense
        else:
            yield from self._blocks

    def _validate(self):
        herm = max(float(np.abs(m - m.conj().T).max())
                   for m in self._iter_matrices())
        if herm > HERMITICITY_TOL:
            raise InvalidStateError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = sum(float(np.trace(m).real) for m in self._iter_matrices())
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"trace is {tr!r}, not 1")
        lo = min(float(np.linalg.eigvalsh(m).min())
                 for m in self._iter_matrices())
        if lo < EIGENVALUE_FLOOR:
            raise InvalidStateError(f"eigenvalue {lo:.3e} below floor {EIGENVALUE_FLOOR}")

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, ascending, concatenated over sectors if blocked."""
        return np.sort(np.concatenate(
            [np.linalg.eigvalsh(m) for m in self._iter_matrices()]))


# --------------------------------------------------------------------------
# constructions
# --------------------------------------------------------------------------

def thermal_qubit(beta_tilde: float) -> QuantumState:
    """Single-spin Gibbs state diag(p0, p1), p1/p0 = exp(beta_tilde).

    beta_tilde = 0 is maximally mixed; +inf is the pure ground state |1>.
    """
    p0, p1 = thermal_populations(beta_tilde)
    return QuantumState.from_dense(np.diag([p0, p1]), SpinRegister.of_size(1))


def thermal_populations(beta_tilde: float) -> tuple[float, float]:
    if math.isnan(beta_tilde) or beta_tilde < 0:
        raise DomainError(f"beta_tilde must be in [0, +inf], got {beta_tilde}")
    p0 = 1.0 / (1.0 + _safe_exp(beta_tilde))  # 0 past exp's overflow
    return p0, 1.0 - p0


def thermal_product_state(beta_tildes: Sequence[float]) -> QuantumState:
    """Blocked product of single-site thermal states, diagonal and
    non-negative by construction, so it is not validated.

    Identical sites get bit-identical diagonal entries inside each sector
    (powers rather than order-dependent products), so stationary states are
    exact fixed points at floating-point level.
    """
    betas = list(beta_tildes)
    n = len(betas)
    pops = np.array([thermal_populations(b) for b in betas])  # (n, 2)
    uniform = all(b == betas[0] for b in betas)
    blocks = []
    for l in range(n + 1):
        signs = sectors.spin_signs(n, l)  # +1 for |0>
        if uniform:
            p0, p1 = pops[0]
            diag = np.full(signs.shape[0], p0 ** (n - l) * p1 ** l)
        else:
            bits = ((1 - signs) / 2).astype(int)  # (dim, n)
            diag = np.ones(signs.shape[0])
            for s in range(n):
                diag = diag * pops[s, bits[:, s]]
        blocks.append(np.diag(diag).astype(complex))
    return QuantumState._adopt(SpinRegister.of_size(n), blocks=blocks)


# --------------------------------------------------------------------------
# functionals
# --------------------------------------------------------------------------

def partial_trace(state: QuantumState, keep) -> QuantumState:
    """Reduced state on the sites in `keep` (labels are preserved)."""
    sub = state.register.subset(keep)
    if sub.labels == state.register.labels:
        return state
    if state.is_blocked:
        return _partial_trace_blocked(state, sub)
    return _partial_trace_dense(state, sub)


def _partial_trace_dense(state: QuantumState, sub: SpinRegister) -> QuantumState:
    n = state.register.count
    labels = state.register.labels
    keep_idx = [labels.index(l) for l in sub.labels]
    env_idx = [i for i in range(n) if i not in keep_idx]
    t = state.matrix.reshape((2,) * (2 * n))
    perm = keep_idx + env_idx + [n + i for i in keep_idx] + [n + i for i in env_idx]
    dk, de = 1 << len(keep_idx), 1 << len(env_idx)
    t = t.transpose(perm).reshape(dk, de, dk, de)
    reduced = np.trace(t, axis1=1, axis2=3)
    return QuantumState._adopt(sub, dense=reduced)


def _partial_trace_blocked(state: QuantumState, sub: SpinRegister) -> QuantumState:
    """Trace out the dropped sites one at a time, least significant first.

    Dropping only sites after column i leaves site i at column i, so its
    bit position in the shrinking register is (count - 1 - i). A one-site
    marginal is diagonal: it recurses on block diagonals, same additions.
    """
    labels, diagonal = state.register.labels, sub.count == 1
    blocks = [b.diagonal() for b in state.blocks] if diagonal else state.blocks
    n = len(labels)
    for i in reversed(range(len(labels))):
        if labels[i] not in sub.labels:
            blocks = _trace_out_bit(blocks, n, n - 1 - i)
            n -= 1
    return QuantumState._adopt(sub, blocks=[b.reshape(1, 1) for b in blocks]
                               if diagonal else blocks)


def _trace_out_bit(blocks, n: int, bit: int) -> list[np.ndarray]:
    """Sector blocks of n - 1 sites after tracing out the site at `bit`.

    Reduced block l = B_l[z, z] + B_{l+1}[o, o], where z picks the sector-l
    states with the bit clear and o the sector-(l+1) states with it set.
    Deleting the bit maps either pick, in order, onto the ascending sector-l
    basis of n - 1 sites, so no reindexing is needed; 1-D diagonals likewise.
    """
    bases = sectors.sector_bases(n)
    out = []
    for l in range(n):
        z = np.flatnonzero(((bases[l] >> bit) & 1) == 0)
        o = np.flatnonzero((bases[l + 1] >> bit) & 1)
        a, b = blocks[l], blocks[l + 1]
        out.append(a[z] + b[o] if a.ndim == 1
                   else a[np.ix_(z, z)] + b[np.ix_(o, o)])
    return out


def von_neumann_entropy(state: QuantumState) -> float:
    """-sum lambda ln lambda in nats, with 0 ln 0 = 0."""
    return spectrum_entropy(state.eigenvalues())


def spectrum_entropy(vals: np.ndarray) -> float:
    """Entropy of an ascending spectrum, the [-1e-10, 0) floor read as 0;
    raises below the floor."""
    if vals.size and vals[0] < EIGENVALUE_FLOOR:
        raise InvalidStateError(
            f"eigenvalue {vals[0]:.3e} below floor {EIGENVALUE_FLOOR}"
        )
    pos = vals[vals > 0]
    return float(-(pos * np.log(pos)).sum())


def binary_entropy(beta_tilde: float) -> float:
    """Entropy of a single thermal qubit at the given beta_tilde, in nats."""
    p0, p1 = thermal_populations(beta_tilde)
    s = 0.0
    for p in (p0, p1):
        if p > 0:
            s -= p * math.log(p)
    return s


def trace_distance(a: QuantumState, b: QuantumState) -> float:
    """Half the trace norm of a - b. Requires identical registers."""
    if a.register.labels != b.register.labels:
        raise DomainError(
            f"register mismatch: {a.register.labels} vs {b.register.labels}"
        )
    if a.is_blocked and b.is_blocked:
        total = 0.0
        for x, y in zip(a.blocks, b.blocks):
            total += float(np.abs(np.linalg.eigvalsh(x - y)).sum())
        return 0.5 * total
    vals = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.abs(vals).sum())


def temperature_of(qubit: QuantumState) -> TemperatureRecord:
    """Read beta_tilde = ln(p1/p0) off a single-spin state.

    The state must be sigma^z-diagonal to within 1e-9 and must not
    be population-inverted (p1 >= p0, with 1e-12 round-off slack).
    """
    if qubit.register.count != 1:
        raise DomainError("temperature_of expects a single-spin state")
    m = qubit.matrix
    off = abs(m[0, 1])
    if off > COHERENCE_TOL:
        raise NotDiagonalError(
            f"not sigma^z-diagonal: |coherence| = {off:.3e} > {COHERENCE_TOL:.1e}"
        )
    p0, p1 = float(m[0, 0].real), float(m[1, 1].real)
    for p in (p0, p1):
        if p < EIGENVALUE_FLOOR:
            raise InvalidStateError(f"population {p:.3e} below floor")
    return TemperatureRecord(_beta_of_populations(p0, p1))


def _beta_of_populations(p0: float, p1: float) -> float:
    """beta_tilde = ln(p1/p0) of populations clamped at 0; p1 may fall
    below p0 by 1e-12 of round-off, which reads as 0."""
    p0, p1 = max(p0, 0.0), max(p1, 0.0)
    if p1 < p0 - 1e-12:
        raise PopulationInversionError(
            f"population inversion: p1 = {p1!r} < p0 = {p0!r}"
        )
    if p0 <= 0.0:
        return math.inf
    return max(math.log(p1 / p0), 0.0)


# --------------------------------------------------------------------------
# sector decomposition
# --------------------------------------------------------------------------

def sector_decompose(state: QuantumState) -> QuantumState:
    """Blocked form of a dense state; inter-sector coherence must be <= 1e-12."""
    if state.is_blocked:
        return state
    n = state.register.count
    leak = sectors.max_intersector_coherence(state.matrix, n)
    if leak > INTERSECTOR_TOL:
        raise SectorMixingError(
            f"sector mixing present: max inter-sector |entry| = {leak:.3e}"
        )
    blocks = sectors.gather_blocks(state.matrix, n)
    return QuantumState._adopt(state.register, blocks=blocks)


def reduced_site_populations(state: QuantumState) -> np.ndarray:
    """Per-site (p0, p1) populations, shape (N, 2).

    For blocked states this is a pure diagonal read-out; for dense states it
    is the same sum over computational-basis populations.
    """
    n = state.register.count
    if state.is_blocked:
        p1 = np.zeros(n)
        for l in range(n + 1):
            diag = np.real(np.diag(state.blocks[l]))
            bits = (1 - sectors.spin_signs(n, l)) / 2  # (dim, n)
            p1 += diag @ bits
    else:
        diag = np.real(np.diag(state.matrix))
        bits = (1 - sectors.dense_spin_signs(n)) / 2
        p1 = diag @ bits
    p1 = np.clip(p1, 0.0, 1.0)
    return np.stack([1.0 - p1, p1], axis=1)
