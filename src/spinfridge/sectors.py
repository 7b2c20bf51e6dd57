"""Excitation-sector bookkeeping.

The total spin-z operator splits the N-spin Hilbert space into sectors with a
fixed number l of spins in |1>; sector l has dimension C(N, l). Everything in
the package that exploits this block structure (states, Hamiltonians, the
dephasing superoperator) goes through the tables below. Bases are the
ascending computational-basis integers of fixed popcount, so blocked and
dense representations agree index-by-index without extra sorting rules.

One identity does a lot of heavy lifting: in ANY basis of sigma^z product
eigenstates, per-site dephasing acts entrywise,

    sum_n sz_n rho sz_n = W o rho,   W[i, j] = s_i . s_j,

where s_i in {+-1}^N collects the spin signs of basis state i. So the
dissipator is Gamma * (W o rho - N rho): one Hadamard product, no per-site
operator conjugations.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """Popcount of every n-bit integer, shape (2**n,)."""
    counts = np.zeros(1 << n, dtype=np.int64)
    for bit in range(n):
        counts += (np.arange(1 << n) >> bit) & 1
    counts.setflags(write=False)
    return counts


@lru_cache(maxsize=None)
def sector_bases(n: int) -> tuple[np.ndarray, ...]:
    """For each l = 0..n, the ascending basis integers with popcount l."""
    counts = popcounts(n)
    out = []
    for l in range(n + 1):
        basis = np.nonzero(counts == l)[0].astype(np.int64)
        basis.setflags(write=False)
        out.append(basis)
    return tuple(out)


@lru_cache(maxsize=None)
def sector_positions(n: int) -> np.ndarray:
    """Position of each basis integer inside its own sector, shape (2**n,)."""
    pos = np.zeros(1 << n, dtype=np.int64)
    for basis in sector_bases(n):
        pos[basis] = np.arange(len(basis))
    pos.setflags(write=False)
    return pos


@lru_cache(maxsize=None)
def spin_signs(n: int, l: int) -> np.ndarray:
    """Per-site sigma^z signs of sector-l basis states, shape (C(n,l), n).

    Column order follows register order: column 0 is the first (most
    significant) site. Bit 0 means |0> means sign +1.
    """
    basis = sector_bases(n)[l]
    shifts = np.arange(n - 1, -1, -1)
    bits = (basis[:, None] >> shifts[None, :]) & 1
    signs = (1 - 2 * bits).astype(np.float64)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=None)
def dense_spin_signs(n: int) -> np.ndarray:
    """Per-site sigma^z signs of every computational-basis state."""
    shifts = np.arange(n - 1, -1, -1)
    bits = (np.arange(1 << n)[:, None] >> shifts[None, :]) & 1
    signs = (1 - 2 * bits).astype(np.float64)
    signs.setflags(write=False)
    return signs


def max_intersector_coherence(matrix: np.ndarray, n: int) -> float:
    """Largest |entry| of `matrix` connecting two different sectors."""
    counts = popcounts(n)
    same = counts[:, None] == counts[None, :]
    off = np.abs(matrix)[~same]
    return float(off.max())


def gather_blocks(matrix: np.ndarray, n: int) -> list[np.ndarray]:
    """Slice the sector-diagonal blocks out of a dense matrix."""
    return [matrix[np.ix_(b, b)].copy() for b in sector_bases(n)]


def scatter_blocks(blocks, n: int) -> np.ndarray:
    """Inverse of gather_blocks: place blocks back on a dense zero matrix
    of the blocks' dtype."""
    dense = np.zeros((1 << n, 1 << n), dtype=np.result_type(*blocks))
    for basis, block in zip(sector_bases(n), blocks):
        dense[np.ix_(basis, basis)] = block
    return dense
