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

* evolve_exact() -- exact, on the coherence blocks X_lm (rows in sector l,
                    columns in sector m): phases in the sector eigenbases
                    at Gamma = 0, a batched Taylor action of the block
                    Liouvillian in matrix form at Gamma > 0, at any
                    register size. Waits and dephased windows use it; a
                    coherent window round applies the wait's phases itself.
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
from .states import QuantumState, trace_distance

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
    dephased route's data one entry per coherence block (`_pair_dephasing`);
    both belong to this generator, so keys carry no rate.
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
        gen._cache, gen._pairs = {}, {}
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

    def _pair_dephasing(self, l: int, m: int) -> tuple[np.ndarray, float, float]:
        """What `_dephased_action` reads of the coherence block (l, m): i (G -
        mu), mu and spread + max|G - mu|, for G = `_dephasing` between the
        sectors and mu its mean. Kept per pair up to `_PADDED_ENTRIES`."""
        if (l, m) not in self._pairs:
            (d_l, _), (d_m, _) = (self.block_eigensystems()[s] for s in (l, m))
            g = self._dephasing(*(sectors.spin_signs(self.register.count, s)
                                  for s in (l, m)))
            g -= (mu := g.mean())
            entry = (1j * g, mu, max(d_l[-1] - d_m[0], d_m[-1] - d_l[0])
                     + np.abs(g).max())
            if g.size > _PADDED_ENTRIES:
                return entry
            self._pairs[l, m] = entry
        return self._pairs[l, m]

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


# Taylor degree of the dephased action and the largest step norm it covers
# to double precision: theta_55 of Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
# 488 (2011), Table 3.1, as tabulated in scipy's expm_multiply.
_TAYLOR_DEGREE = 55
_TAYLOR_THETA = 9.9
# Largest zero-padded stack (blocks x rows x cols) run as one batch. At
# Gamma = 0.5 on 2 vCPUs, padding was 1.4-5x faster up to 2,800 entries, tied
# at 11,200, and 1.5-2x slower from 9,800 (6x at an N = 10 window's 2.56e6).
_PADDED_ENTRIES = 5000


def _dephased_action(gen: LindbladGenerator,
                     blocks: dict[tuple[int, int], np.ndarray],
                     duration: float) -> list[np.ndarray]:
    """exp(t L) X_lm for each coherence block (l, m) -> X_lm.

    L(X) = -i (H_l X - X H_m) + G_lm o X with G_lm = `gen._dephasing`. The
    blocks are stacked zero-padded (L keeps the padding zero; a stack past
    `_PADDED_ENTRIES` goes one block per call), each shifted by the mean mu
    of its G, and advanced by s steps of a truncated Taylor series, one
    batched product per side and term; diagonal blocks stay Hermitian and
    need one. A step ends once two successive terms fall below 2^-53 of the
    partial sum, in largest entries over the stack (the sum's is reduced
    only when a running upper bound on it lets the rule hold). s follows
    from the norm bound t (spread + max|G - mu|) <= s theta_55, where the
    spread max(max D_l - min D_m, max D_m - min D_l) of the sector
    eigenvalues bounds the commutator; both are cached per pair
    (`_pair_dephasing`). Diagonal blocks are made Hermitian both ways.
    """
    k, h = len(blocks), gen.hamiltonian_blocks()
    shapes = [(len(h[l]), len(h[m])) for l, m in blocks]
    rows, cols = (max(d) for d in zip(*shapes))
    if k > 1 and k * rows * cols > _PADDED_ENTRIES:
        return [y for item in blocks.items()
                for y in _dephased_action(gen, dict([item]), duration)]
    h_l = np.zeros((k, rows, rows))
    h_m = np.zeros((k, cols, cols))  # H_m^T
    ig, x = np.zeros((2, k, rows, cols), dtype=complex)  # i (G - mu), X
    mu, bound = np.empty(k), np.empty(k)
    for i, ((l, m), block) in enumerate(blocks.items()):
        dl, dm = shapes[i]
        ig[i, :dl, :dm], mu[i], bound[i] = gen._pair_dephasing(l, m)
        h_l[i, :dl, :dl], h_m[i, :dm, :dm] = h[l], h[m].T
        x[i, :dl, :dm] = 0.5 * (block + block.conj().T) if l == m else block
    # Diagonal blocks stay Hermitian, so X H_l = (H_l X)^dag: one product.
    hermitian = all(l == m for l, m in blocks)

    def term_after(y, scale):
        """scale * i L(y) = scale * (H_l y - y H_m + i G o y)."""
        hy = _times(h_l, y)
        yh = hy.conj() if hermitian else _times(h_m, y.swapaxes(1, 2))
        d = hy - yh.swapaxes(1, 2)
        d += ig * y
        d *= scale
        return d

    steps = max(1, math.ceil(abs(duration) * bound.max() / _TAYLOR_THETA))
    dt = duration / steps
    total = x
    for _ in range(steps):
        term, last = total, float(np.abs(total).max())
        total, reach = total.copy(), last
        for j in range(1, _TAYLOR_DEGREE + 1):
            term = term_after(term, -1j * dt / j)
            total += term
            now = float(np.abs(term).max())
            reach = (reach + now) * (1.0 + 1e-12)  # >= max|total| despite rounding
            if last + now <= 2.0 ** -53 * reach:
                reach = float(np.abs(total).max())
                if last + now <= 2.0 ** -53 * reach:
                    break
            last = now
        total *= np.exp(dt * mu)[:, None, None]
    return [0.5 * (y[:dl, :dm] + y[:dl, :dm].conj().T) if l == m
            else y[:dl, :dm].copy()
            for (l, m), (dl, dm), y in zip(blocks, shapes, total)]


def _times(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a @ y for a real `a` and complex y, also over stacks, through y's
    float view."""
    return (a @ np.ascontiguousarray(y).view(float)).view(complex)


def evolve_exact(state: QuantumState, gen: LindbladGenerator,
                 duration: float) -> QuantumState:
    """Exact propagation of every nonzero coherence block X_lm.

    At Gamma = 0, X_lm -> u_l (Phi_lm o u_l^dag X_lm u_m) u_m^dag (H_l =
    u_l D_l u_l^dag, Phi_lm = e^{-i D_l t} (e^{-i D_m t})^dag; a blocked
    state's rotations are memoized for the scan). At Gamma > 0 the blocks
    take the Taylor action of their Liouvillian (`_dephased_action`), at
    any register size. Dephasing only runs forward, so a negative duration
    raises at Gamma > 0; at Gamma = 0 it is the backward unitary. A blocked
    state has the blocks l = m; a dense one every pair l <= m, with X_ml =
    X_lm^dag, copied out of one sector-order permutation of its matrix (BLAS
    rounds products over a strided view apart). Zero blocks are skipped.
    """
    if gen.register.labels != state.register.labels:
        raise DomainError("generator and state registers do not match")
    if not math.isfinite(duration):
        raise DomainError(f"duration must be finite, got {duration}")
    if gen.dephasing_rate > 0 and duration < 0:
        raise DomainError(f"dephased duration must be >= 0, got {duration}")
    if state.is_blocked:
        blocks = {(l, l): b for l, b in enumerate(state.blocks)}
    else:
        bases = sectors.sector_bases(state.register.count)
        order, edges = np.concatenate(bases), np.cumsum([0] + list(map(len, bases)))
        spans = [slice(a, b) for a, b in zip(edges, edges[1:])]
        rho = state.matrix[np.ix_(order, order)]
        blocks = {(l, m): rho[a, b].copy() for l, a in enumerate(spans)
                  for m, b in enumerate(spans) if m >= l}
    blocks = {lm: x for lm, x in blocks.items() if x.any()}
    if gen.dephasing_rate == 0:
        eigs = gen.block_eigensystems()
        phases = [np.exp(-1j * d * duration) for d, _ in eigs]
        rotated = gen._rotated(state) if state.is_blocked else None

        def propagate(l, m, x):
            (_, u_l), (_, u_m) = eigs[l], eigs[m]
            a = rotated[l] if rotated else _sandwich(u_l.T, x, u_m)
            phi = np.outer(phases[l], phases[m].conj())
            return _sandwich(u_l, phi * a, u_m.T)
        out = [propagate(l, m, x) for (l, m), x in blocks.items()]
    else:
        out = _dephased_action(gen, blocks, duration)

    if state.is_blocked:
        new = dict(zip((l for l, _ in blocks), out))
        return QuantumState._adopt(state.register, blocks=[
            new.get(l, np.zeros_like(b)) for l, b in enumerate(state.blocks)])
    ordered = np.zeros_like(rho)
    for (l, m), y in zip(blocks, out):
        ordered[spans[l], spans[m]] = y
        if m != l:
            ordered[spans[m], spans[l]] = y.conj().T
    dense = np.empty_like(rho)
    dense[np.ix_(order, order)] = ordered
    return QuantumState._adopt(state.register, dense=dense)


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


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def conserves_z_excitation(channel: Callable[[QuantumState], QuantumState],
                           register: SpinRegister, trials: int,
                           seed: int = 0) -> CheckResult:
    """Check sum_n <sz_n> is preserved on random states to 1e-9; first
    failure wins."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    signs = sectors.dense_spin_signs(register.count)
    total = signs.sum(axis=1)
    worst = 0.0
    for _ in range(trials):
        state = QuantumState._adopt(register,
                                    dense=_random_density(rng, register.dim))
        before = float(np.real(np.diag(state.matrix)) @ total)
        after_state = channel(state)
        after = float(np.real(np.diag(after_state.matrix)) @ total)
        dev = abs(after - before)
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
