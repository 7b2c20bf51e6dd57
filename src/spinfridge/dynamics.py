"""Hamiltonians, the dephasing master equation, and swap channels.

The generator implemented throughout is

    d rho / dt = i [rho, H] + Gamma * sum_n (sz_n rho sz_n - rho),

with H built from XXZ-type pair couplings J_nm (Delta_nm anisotropies), all
of which commute with the total spin-z. That conservation law is what the
whole module is built on: a generator holds its Hamiltonian as one block per
excitation sector, a blocked state stays blocked, each block evolves on its
own, and per-site dephasing collapses to one Hadamard product per block (see
sectors.py). Generators are assembled sector by sector from a SpinNetwork,
the partial-swap window included; a dense 2^N Hamiltonian is built (and
cached) only when `evolve` integrates a dense state.

Two evolution routes:

* evolve_exact() -- exact, on the sector blocks rho_l of a state with no
                    inter-sector coherence, returned blocked: phases in
                    the sector eigenbases at Gamma = 0, a batched
                    Chebyshev expansion of the block Liouvillian's
                    exponential in matrix form at Gamma > 0 (Tal-Ezer &
                    Kosloff), at any register size. Waits and dephased
                    windows use it; a coherent window round applies the
                    wait's phases itself.
* evolve()       -- adaptive RKF4(5) over the state's own blocks, keeping
                    its form; the independent reference the exact route
                    is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import sectors
from .errors import DomainError, IntegrationError
from .integrate import IntegratorConfig, rkf45
from .operators import PAULIS, site_operator
from .registers import SpinRegister
from .states import QuantumState, sector_decompose, trace_distance

CHANNEL_CHECK_TOL = 1e-9


# --------------------------------------------------------------------------
# networks and Hamiltonians
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinNetwork:
    """Pairwise XXZ couplings on a register.

    couplings maps ordered pairs (n, m), n < m, to J_nm (angular-frequency
    units); anisotropies maps the same keys to the dimensionless Delta_nm
    multiplying the zz term (missing keys default to 1).
    """

    register: SpinRegister
    couplings: dict[tuple[int, int], float]
    anisotropies: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        labels = set(self.register.labels)
        for (n, m), j in self.couplings.items():
            if n >= m:
                raise DomainError(f"coupling key ({n},{m}) must have n < m")
            if n not in labels or m not in labels:
                raise DomainError(f"coupling ({n},{m}) outside register {labels}")
            if not math.isfinite(j):
                raise DomainError(f"coupling J[{n},{m}] = {j} is not finite")
        for (n, m), delta in self.anisotropies.items():
            if (n, m) not in self.couplings:
                raise DomainError(f"anisotropy for absent coupling {(n, m)}")
            if not math.isfinite(delta):
                raise DomainError(f"anisotropy Delta[{n},{m}] = {delta} is not finite")

    @classmethod
    def uniform_chain(cls, count: int, coupling: float) -> "SpinNetwork":
        """Nearest-neighbour chain, J_{n,n+1} = J, Delta = 1."""
        reg = SpinRegister.of_size(count)
        pairs = {(n, n + 1): coupling for n in range(1, count)}
        return cls(reg, pairs, {k: 1.0 for k in pairs})

    def delta(self, key: tuple[int, int]) -> float:
        return self.anisotropies.get(key, 1.0)


def xxz_network_hamiltonian(net: SpinNetwork) -> np.ndarray:
    """H = sum_nm J_nm (Delta_nm sz sz + sx sx + sy sy), dense and built by
    Kronecker products: the reference the sector blocks are checked against."""
    reg = net.register
    h = np.zeros((reg.dim, reg.dim), dtype=complex)
    for (n, m), j in net.couplings.items():
        delta = net.delta((n, m))
        for axis, weight in (("x", 1.0), ("y", 1.0), ("z", delta)):
            h += j * weight * (
                site_operator(reg, n, PAULIS[axis])
                @ site_operator(reg, m, PAULIS[axis])
            )
    return h


def blocked_xxz_hamiltonian(net: SpinNetwork) -> list[np.ndarray]:
    """Per-sector blocks of the XXZ Hamiltonian, built combinatorially and
    float64: every entry is real.

    zz terms are diagonal (spin-sign products); the xx+yy pair gives the hop
    <..0_n 1_m..|H|..1_n 0_m..> = 2 J_nm, set for all couplings at once.
    """
    reg, n_spins = net.register, net.register.count
    j = np.array(list(net.couplings.values()))
    zz = j * np.array([net.delta(k) for k in net.couplings])
    pa, pb = np.array([[reg.bit_position(s) for s in k] for k in net.couplings],
                      dtype=np.int64).reshape(-1, 2).T
    blocks = []
    for l, basis in enumerate(sectors.sector_bases(n_spins)):
        signs = sectors.spin_signs(n_spins, l)  # column n - 1 - p for bit p
        diagonal = np.zeros(len(basis))
        for c in range(len(j)):
            diagonal += zz[c] * signs[:, n_spins - 1 - pa[c]] \
                * signs[:, n_spins - 1 - pb[c]]
        block = np.diag(diagonal)
        c, src = np.nonzero((basis >> pa[:, None] & 1) > (basis >> pb[:, None] & 1))
        dst = np.searchsorted(basis, basis[src] - (1 << pa[c]) + (1 << pb[c]))
        block[dst, src] += 2.0 * j[c]
        block[src, dst] += 2.0 * j[c]
        blocks.append(block)
    return blocks


# --------------------------------------------------------------------------
# the Lindblad generator
# --------------------------------------------------------------------------

class LindbladGenerator:
    """An XXZ network's Hamiltonian plus per-site sigma^z dephasing at rate
    Gamma >= 0, built only by `from_network`.

    The Hamiltonian is held as its real sector blocks, which is all the
    blocked routes read; `hamiltonian` scatters them into a dense matrix on
    first use (only `evolve` on a dense state needs it). Built from
    a network, H conserves the total spin-z exactly, which every guarantee
    the package checks assumes.

    Every site dephases except label 0, the thermal qubit (see
    registers.py), which stays coherent during a swap window. `network` is
    the SpinNetwork a generator was built from; a partial swap's window is
    that network plus the qubit-target hop, at the same rate
    (`window_generator`).

    Instances are immutable by convention and cache their eigendecompositions
    and scan arrays, so reuse the same generator across protocol steps. The
    cache keeps one entry per kind (`_memo`), each reading H alone, and the
    dephased route's data one entry per sector (`_sector_dephasing`); both
    belong to this generator, so keys carry no rate.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("build a LindbladGenerator with "
                        "LindbladGenerator.from_network(net, rate)")

    @classmethod
    def from_network(cls, net: SpinNetwork, dephasing_rate: float = 0.0
                     ) -> "LindbladGenerator":
        """Build from the network's sector blocks (exact z-conservation by
        construction, no dense matrix), keeping `net`."""
        if not math.isfinite(dephasing_rate) or dephasing_rate < 0:
            raise DomainError(f"dephasing rate must be >= 0, got {dephasing_rate}")
        gen = cls.__new__(cls)
        gen.register = net.register
        gen.dephasing_rate = float(dephasing_rate)
        gen.network = net
        gen._blocks = blocked_xxz_hamiltonian(net)
        gen._cache, gen._sector_cache = {}, {}
        return gen

    @property
    def hamiltonian(self) -> np.ndarray:
        """Dense H (float64, read-only), scattered from the sector blocks on
        first use."""
        h = self._memo("dense", None, lambda: sectors.scatter_blocks(
            self._blocks, self.register.count))
        h.setflags(write=False)
        return h

    # -- caches ------------------------------------------------------------

    def hamiltonian_blocks(self) -> list[np.ndarray]:
        """Sector blocks of H, l = 0..N, float64 (an XXZ network's entries
        are real), so their eigenvectors are real."""
        return self._blocks

    def block_eigensystems(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self._memo("block_eig", None,
                          lambda: [np.linalg.eigh(b) for b in self._blocks])

    def _dephasing(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Gamma (W - n), the dissipator's Hadamard factor between the bases
        whose per-site spin signs are the rows of `rows` and of `cols`:
        W = s_rows s_cols^T over the n dephased sites: all but label 0,
        whose signs are column 0 when it is present."""
        if self.register.labels[0] == 0:
            rows, cols = rows[:, 1:], cols[:, 1:]
        return self.dephasing_rate * (rows @ cols.T - rows.shape[1])

    def _sector_dephasing(self, l: int) -> tuple[np.ndarray, float, float, float]:
        """What `_dephased_action` reads of sector l: i (G - mu), mu, the
        spread d[-1] - d[0] of the sector's eigenvalues and max|G - mu|, for
        G = `_dephasing` on the sector and mu its mean. Kept per sector up
        to `_PADDED_ENTRIES`."""
        if l not in self._sector_cache:
            d, _ = self.block_eigensystems()[l]
            signs = sectors.spin_signs(self.register.count, l)
            g = self._dephasing(signs, signs)
            g -= (mu := g.mean())
            entry = (1j * g, mu, d[-1] - d[0], np.abs(g).max())
            if g.size > _PADDED_ENTRIES:
                return entry
            self._sector_cache[l] = entry
        return self._sector_cache[l]

    def _memo(self, kind: str, key, build: Callable[[], object]):
        """The value `build` gives for `key`, kept as the one entry of its
        kind: a protocol run reads one scan grid and one probe at a time, so
        a new key replaces the entry. Keys compare with ==, which is
        identity for states."""
        entry = self._cache.get(kind)
        if entry is None or entry[0] != key:
            entry = self._cache[kind] = (key, build())
        return entry[1]

    def _rotated(self, state: QuantumState) -> list[np.ndarray | None]:
        """u_l^dag rho_l u_l per block of a blocked state (None if zero), kept
        for the last (read-only) state object: the scan and its wait share it."""
        return self._memo("rotated", state, lambda: [
            _sandwich(u.T, b, u) if b.any() else None
            for (_, u), b in zip(self.block_eigensystems(), state.blocks)])

    def blocked_propagators(self, duration: float) -> list[np.ndarray]:
        """Per-sector unitaries exp(-i H_l t). No round reads them: a coherent
        window's round reads `protocol._window_route`'s quadrants instead."""
        return [(u * np.exp(-1j * d * duration)) @ u.T
                for d, u in self.block_eigensystems()]


def _sandwich(left, x, right):
    """left @ x @ right for real factors, through complex x's float view."""
    return _times(right.T, _times(left, x).T).T


# --------------------------------------------------------------------------
# time evolution
# --------------------------------------------------------------------------

def _dense_rhs(gen: LindbladGenerator) -> Callable[[float, np.ndarray], np.ndarray]:
    """The master equation on dense 2^N matrices (the reference route)."""
    return _block_rhs(gen, gen.hamiltonian,
                      sectors.dense_spin_signs(gen.register.count))


def _block_rhs(gen: LindbladGenerator, h_l: np.ndarray, signs: np.ndarray
               ) -> Callable[[float, np.ndarray], np.ndarray]:
    """-i [H_l, y] + Gamma (W - n) o y on the basis whose per-site spin signs
    are the rows of `signs`, with `gen`'s rate. The real H_l multiplies
    y's float view: half a complex product. The result is a buffer the next
    call overwrites (`rkf45` copies it)."""
    g = gen._dephasing(signs, signs) if gen.dephasing_rate > 0 else None
    m, d = np.empty(h_l.shape, complex), np.empty(h_l.shape, complex)

    def rhs(_t, y):
        y = np.ascontiguousarray(y, dtype=complex)
        np.matmul(h_l, y.view(float), out=m.view(float))
        # For Hermitian y, (H y)^dag = y H, so one product gives both sides
        # of the commutator, i (m^dag - m): Hermitian to the last bit.
        np.conjugate(m.T, out=d)
        d[...] -= m
        d[...] *= 1j
        if g is not None:
            d[...] += np.multiply(g, y, out=m)
        return d

    return rhs


_TRACE_DRIFT_TOL = 1e-9


def _repair_positivity(blocks: list[np.ndarray], cfg: IntegratorConfig,
                       duration: float) -> list[np.ndarray]:
    """Project integrator output back onto physical states.

    Adaptive stepping leaves the result off the positive cone by an amount
    set by the tolerances; for near-pure states that shows up as slightly
    negative eigenvalues. Dips within a tolerance-scaled budget are clamped
    to zero and the global trace renormalized; larger dips (or trace drift
    past 1e-9) mean the integration itself went wrong and raise.
    """
    budget = 100.0 * (cfg.abs_tol + cfg.rel_tol)
    total = sum(float(np.trace(b).real) for b in blocks)
    if abs(total - 1.0) > _TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"trace drifted to {total!r} during integration",
            t=duration, step=math.nan, ratio=abs(total - 1.0))
    repaired = []
    for block in blocks:
        if not block.any():
            repaired.append(block)
            continue
        vals, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
        dip = float(vals[0])
        if dip < -budget:
            raise IntegrationError(
                f"eigenvalue {dip:.3e} exceeds the positivity budget "
                f"{-budget:.3e}", t=duration, step=math.nan, ratio=-dip)
        if dip < 0.0:
            block = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
        repaired.append(block)
    norm = sum(float(np.trace(b).real) for b in repaired)
    return [b / norm for b in repaired]


def evolve(state: QuantumState, gen: LindbladGenerator, duration: float,
           cfg: IntegratorConfig | None = None) -> QuantumState:
    """Adaptive RKF4(5) integration of the master equation, returning the
    input's form.

    One loop runs over the state's Hermitian blocks: a blocked state's
    sector blocks (`_block_rhs`), or a dense state's matrix as one block
    (`_dense_rhs`). Zero blocks stay zero; the results then go through
    `_repair_positivity`.
    """
    if gen.register.labels != state.register.labels:
        raise DomainError("generator and state registers do not match")
    if not (math.isfinite(duration) and duration >= 0):
        raise DomainError(f"duration must be finite and >= 0, got {duration}")
    cfg = cfg or IntegratorConfig()

    def rhs(l):
        if not state.is_blocked:
            return _dense_rhs(gen)
        return _block_rhs(gen, gen.hamiltonian_blocks()[l],
                          sectors.spin_signs(gen.register.count, l))

    blocks = state.blocks if state.is_blocked else [state.matrix]
    out = [rkf45(rhs(l), 0.5 * (b + b.conj().T), duration, cfg).y if b.any()
           else np.zeros_like(b) for l, b in enumerate(blocks)]
    out = _repair_positivity(out, cfg, duration)
    if state.is_blocked:
        return QuantumState._adopt(state.register, blocks=out)
    return QuantumState._adopt(state.register, dense=out[0])


_STEP_GROWTH = 8 * math.log(2)  # t max|G - mu| of one Chebyshev step
# Largest zero-padded stack (blocks x rows x cols) run as one batch. On
# blocked states at Gamma = 0.5, t = 1, 2 vCPUs and 2 BLAS threads, padding
# was 1.7-8x faster than one block per call up to 2,800 entries (six sites,
# 7 x 20 x 20), tied at 9,800 (seven) and 3.7x slower at 44,100 (eight).
_PADDED_ENTRIES = 5000


def _chebyshev_weights(x: float, count: int) -> np.ndarray:
    """c_k J_k(x) for k < count (c_0 = 1, else 2), by Miller's backward
    recurrence J_(k-1) = (2k/x) J_k - J_(k+1) from well past count and 2x,
    rescaled before it overflows and normalised by J_0 + 2 sum J_2k = 1."""
    if not x:
        return np.eye(1, count).ravel()
    start = max(count, int(2 * x)) + 16
    j = [0.0] * (start + 2)
    j[start] = 1.0
    for k in range(start, 0, -1):
        j[k - 1] = 2 * k / x * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j = [v * 1e-250 for v in j]
    weights = np.array(j[:count]) / (j[0] + 2 * math.fsum(j[2::2]))
    weights[1:] *= 2
    return weights


def _dephased_action(gen: LindbladGenerator, blocks: dict[int, np.ndarray],
                     duration: float) -> list[np.ndarray]:
    """exp(t L) rho_l for each sector block l -> rho_l.

    L(X) = -i [H_l, X] + G_l o X with G_l = `gen._dephasing` on sector l.
    The blocks are stacked zero-padded (L keeps the padding zero; a stack
    past `_PADDED_ENTRIES` goes one block per call), each shifted by the
    mean mu of its G: L - mu = -i K, K(y) = H y - (H y)^dag + i (G - mu) o y
    on a Hermitian y, one batched product. Each of s steps of t max|G - mu|
    <= ln 2^8 sums the Chebyshev series of Tal-Ezer & Kosloff, J. Chem.
    Phys. 81, 3967 (1984), sum_k c_k J_k(t S) V_k with V_0 = X, V_1 = -i
    K(X)/S and V_(k+1) = -2i K(V_k)/S + V_(k-1), where every V_k stays
    Hermitian. S, the largest spread max D_l - min D_l of the sector
    eigenvalues or max|G - mu| in the stack (both cached per sector,
    `_sector_dephasing`), puts K's field of values in S ([-1, 1] + i [-1,
    1]); the split keeps the damping from letting a term outgrow the step's
    result by much more than 2^8. A step ends, past k = t S, once two
    successive terms fall below 2^-53 of the partial sum, in largest entries
    over the stack (the sum's is reduced only when a running upper bound on
    it lets the rule hold). The blocks are made Hermitian both ways.
    """
    k, h = len(blocks), gen.hamiltonian_blocks()
    dims = [len(h[l]) for l in blocks]
    dim = max(dims)
    if k > 1 and k * dim * dim > _PADDED_ENTRIES:
        return [y for item in blocks.items()
                for y in _dephased_action(gen, dict([item]), duration)]
    h_l = np.zeros((k, dim, dim))
    ig, x, scratch = np.zeros((3, k, dim, dim), dtype=complex)  # i (G - mu), X
    mu, spread, damping = np.empty((3, k))
    for i, ((l, block), d) in enumerate(zip(blocks.items(), dims)):
        ig[i, :d, :d], mu[i], spread[i], damping[i] = gen._sector_dephasing(l)
        h_l[i, :d, :d] = h[l]
        x[i, :d, :d] = 0.5 * (block + block.conj().T)

    def scaled_k(y, scale):
        """scale * K(y) = scale * (H y - (H y)^dag + i (G - mu) o y)."""
        d = _times(h_l, y)
        d -= d.conj().swapaxes(1, 2)
        d += np.multiply(ig, y, out=scratch)
        d *= scale
        return d

    s = max(spread.max(), damping.max())
    steps = max(1, math.ceil(duration * damping.max() / _STEP_GROWTH))
    dt = duration / steps
    arg = dt * s  # 0 only if K = 0 or t = 0: the series is X alone
    weights = _chebyshev_weights(arg, int(2 * arg) + 32)  # more on demand
    s = s or 1.0
    total = x
    for _ in range(steps):
        v, w = 0.0, total  # V_(n-1), V_n at n = 0
        last = abs(weights[0]) * float(np.abs(w).max())
        reach = last * (1.0 + 1e-12)
        total = weights[0] * w
        n = 0
        while True:
            n += 1
            if n == len(weights):
                weights = _chebyshev_weights(arg, 2 * n)
            u = scaled_k(w, (-2j if n > 1 else -1j) / s)
            u += v
            v, w = w, u
            now = abs(weights[n]) * float(np.abs(w).max())
            total += np.multiply(w, weights[n], out=scratch)
            reach = (reach + now) * (1.0 + 1e-12)  # >= max|total| despite rounding
            if n > arg and last + now <= 2.0 ** -53 * reach:
                reach = float(np.abs(total).max())
                if last + now <= 2.0 ** -53 * reach:
                    break
            last = now
        total *= np.exp(dt * mu)[:, None, None]
    return [0.5 * (y[:d, :d] + y[:d, :d].conj().T) for d, y in zip(dims, total)]


def _times(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a @ y for a real `a` and complex y, also over stacks, through y's
    float view."""
    return (a @ np.ascontiguousarray(y).view(float)).view(complex)


def evolve_exact(state: QuantumState, gen: LindbladGenerator,
                 duration: float) -> QuantumState:
    """Exact propagation of every nonzero sector block rho_l, returned
    blocked.

    The state is decomposed first (`sector_decompose`): a dense one with
    inter-sector coherence raises `SectorMixingError` before anything
    evolves. At Gamma = 0, rho_l -> u_l (Phi_l o u_l^dag rho_l u_l) u_l^dag
    (H_l = u_l D_l u_l^dag, Phi_l = e^{-i D_l t} (e^{-i D_l t})^dag), the
    rotations memoized for the scan (`gen._rotated`). At Gamma > 0 the
    blocks take the Chebyshev action of their Liouvillian
    (`_dephased_action`), at any register size. Dephasing only runs
    forward, so a negative duration raises at Gamma > 0; at Gamma = 0 it is
    the backward unitary. Zero blocks are skipped.
    """
    if gen.register.labels != state.register.labels:
        raise DomainError("generator and state registers do not match")
    if not math.isfinite(duration):
        raise DomainError(f"duration must be finite, got {duration}")
    if gen.dephasing_rate > 0 and duration < 0:
        raise DomainError(f"dephased duration must be >= 0, got {duration}")
    state = sector_decompose(state)
    blocks = {l: b for l, b in enumerate(state.blocks) if b.any()}
    if gen.dephasing_rate == 0:
        rotated, eigs = gen._rotated(state), gen.block_eigensystems()

        def propagate(l):
            d, u = eigs[l]
            phases = np.exp(-1j * d * duration)
            return _sandwich(u, np.outer(phases, phases.conj()) * rotated[l], u.T)
        out = [propagate(l) for l in blocks]
    else:
        out = _dephased_action(gen, blocks, duration)
    new = dict(zip(blocks, out))
    return QuantumState._adopt(state.register, blocks=[
        new.get(l, np.zeros_like(b)) for l, b in enumerate(state.blocks)])


# --------------------------------------------------------------------------
# swaps
# --------------------------------------------------------------------------

def perfect_swap(state: QuantumState, i: int, j: int) -> QuantumState:
    """Exchange two sites by conjugating with SWAP (a basis permutation)."""
    reg = state.register
    if i not in reg.labels or j not in reg.labels:
        raise DomainError(f"sites ({i},{j}) not both in register {reg.labels}")
    if i == j:
        raise DomainError("swap needs two distinct sites")
    n = reg.count
    bi, bj = reg.bit_position(i), reg.bit_position(j)
    if state.is_blocked:
        positions = sectors.sector_positions(n)
        out = []
        for l, block in enumerate(state.blocks):
            basis = sectors.sector_bases(n)[l]
            swapped = _swap_bits(basis, bi, bj)
            perm = positions[swapped]
            out.append(block[np.ix_(perm, perm)])
        return QuantumState._adopt(reg, blocks=out)
    idx = _swap_bits(np.arange(reg.dim), bi, bj)
    return QuantumState._adopt(reg, dense=state.matrix[np.ix_(idx, idx)])


def _swap_bits(values: np.ndarray, bi: int, bj: int) -> np.ndarray:
    bit_i = (values >> bi) & 1
    bit_j = (values >> bj) & 1
    out = values & ~(1 << bi) & ~(1 << bj)
    return out | (bit_j << bi) | (bit_i << bj)


@dataclass(frozen=True)
class SwapSpec:
    """How the probe exchanges its target spin with the external qubit.

    mode "perfect": instantaneous SWAP.
    mode "partial": a rectangular window of Heisenberg coupling of strength
    J_I between qubit (site 0) and target (site 1), lasting pi/(4 J_I) --
    exactly a SWAP up to phases when nothing else acts. The probe keeps
    evolving under its own generator during the window: its couplings act
    and its sites dephase at its rate, the qubit does not
    (`window_generator`). So J_I is the only setting of a window.
    """

    mode: str
    interaction_strength: float | None = None

    def __post_init__(self):
        if self.mode not in ("perfect", "partial"):
            raise DomainError(f"unknown swap mode {self.mode!r}")
        if self.mode == "perfect" and self.interaction_strength is not None:
            raise DomainError(f"a perfect swap takes no J_I, got "
                              f"{self.interaction_strength}")
        if self.mode == "partial":
            j = self.interaction_strength
            if j is None or not math.isfinite(j) or j <= 0:
                raise DomainError(f"partial swap needs J_I > 0, got {j}")

    @classmethod
    def perfect(cls) -> "SwapSpec":
        return cls(mode="perfect")

    @classmethod
    def partial(cls, interaction_strength: float) -> "SwapSpec":
        return cls(mode="partial", interaction_strength=interaction_strength)

    @property
    def window_duration(self) -> float:
        if self.mode != "partial":
            return 0.0
        return math.pi / (4.0 * self.interaction_strength)


def window_generator(probe: SpinNetwork, dephasing_rate: float,
                     spec: SwapSpec) -> LindbladGenerator:
    """The Lindblad generator active during a partial-swap window, on the
    joint register (0,) + the probe's labels: the qubit-target hop
    J_I sigma_0 . sigma_1 followed by the probe network's couplings,
    dephased at `dephasing_rate` on every site but the qubit. `probe` and
    the rate are a probe generator's `network` and `dephasing_rate`."""
    if spec.mode != "partial":
        raise DomainError("window generator only exists for partial swaps")
    labels = probe.register.labels
    if labels[0] == 0 or 1 not in labels:
        raise DomainError(f"probe sites {labels} must hold the target site 1 "
                          f"and leave site 0 to the qubit")
    return LindbladGenerator.from_network(SpinNetwork(
        SpinRegister((0,) + labels),
        {(0, 1): spec.interaction_strength, **probe.couplings},
        {(0, 1): 1.0, **probe.anisotropies}), dephasing_rate)


def partial_swap(joint_state: QuantumState, gen: LindbladGenerator,
                 spec: SwapSpec) -> QuantumState:
    """Finite-duration swap: evolve qubit+probe exactly for pi/(4 J_I)
    under the window of the probe generator `gen` (`window_generator`).
    Site 0 must be the qubit, site 1 the target."""
    window = window_generator(gen.network, gen.dephasing_rate, spec)
    return evolve_exact(joint_state, window, spec.window_duration)


# --------------------------------------------------------------------------
# channel-property checkers
# --------------------------------------------------------------------------

@dataclass
class CheckResult:
    """Boolean witness for a channel property check: it passes exactly when
    it holds no counterexample."""

    deviation: float
    counterexample: QuantumState | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def __bool__(self) -> bool:
        return self.passed


def _random_blocked_state(rng: np.random.Generator, register: SpinRegister
                          ) -> QuantumState:
    """A random state with no inter-sector coherence: one Ginibre block
    g g^dag per sector, all scaled by one total trace."""
    blocks = []
    for basis in sectors.sector_bases(register.count):
        d = len(basis)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        blocks.append(g @ g.conj().T)
    total = sum(np.trace(b).real for b in blocks)
    return QuantumState._adopt(register, blocks=[b / total for b in blocks])


def _sector_weights(state: QuantumState) -> np.ndarray:
    """tr(rho_l) for every sector l, read off either form's diagonal."""
    if state.is_blocked:
        return np.array([np.trace(b).real for b in state.blocks])
    return np.bincount(sectors.popcounts(state.register.count),
                       weights=np.diag(state.matrix).real)


def conserves_z_excitation(channel: Callable[[QuantumState], QuantumState],
                           register: SpinRegister, trials: int,
                           seed: int = 0) -> CheckResult:
    """Check each sector's weight tr(rho_l) is kept to 1e-9 on random
    blocked states (`_random_blocked_state`); first failure wins. On such
    states, conserving the z-excitation is keeping every sector's weight."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        state = _random_blocked_state(rng, register)
        dev = float(np.abs(_sector_weights(channel(state))
                           - _sector_weights(state)).max())
        worst = max(worst, dev)
        if dev > CHANNEL_CHECK_TOL:
            return CheckResult(dev, state)
    return CheckResult(worst)


def is_unital(channel: Callable[[QuantumState], QuantumState],
              register: SpinRegister) -> CheckResult:
    """Check the maximally mixed state is a fixed point to 1e-9. I/d has no
    inter-sector coherence, so it goes in as one I/d block per sector, and
    a blocked output is compared block by block."""
    eye = QuantumState._adopt(register, blocks=[
        np.eye(len(basis), dtype=complex) / register.dim
        for basis in sectors.sector_bases(register.count)])
    dev = trace_distance(eye, channel(eye))
    return CheckResult(dev, None if dev <= CHANNEL_CHECK_TOL else eye)
