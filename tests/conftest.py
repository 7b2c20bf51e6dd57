"""Shared fixtures: seeded RNGs, small random-state builders, a call
counter, and the spin-1 dipolar projection that independently checks the
NV module."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from spinfridge import (
    DipolarPair,
    LindbladGenerator,
    QuantumState,
    SpinNetwork,
    SpinRegister,
)
from spinfridge.dynamics import _random_blocked_state

# Spin-1 operators in the local |m_s = +1, 0, -1> basis.
_SPIN1 = (
    np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2),
    np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2),
    np.diag([1.0, 0.0, -1.0]).astype(complex),
)
# Local basis indices of the qubit states |0> (s_z = +1/2) and |-1> (-1/2).
_QUBIT_LEVELS = (1, 2)


def spin1_dipolar_projection(pair: DipolarPair) -> tuple[float, complex]:
    """Project the two-defect spin-1 dipolar Hamiltonian onto {0, -1}^2.

    H = -(J0/r^3) sum_ab S1_a M_ab S2_b with M = 3 r r^T - 1, where each
    lab component S_a = x_a S_x + y_a S_y + z_a S_z is built on that spin's
    frame. Restricted to the local {|0>, |-1>} pair, with |0> -> s_z = +1/2,
    the 4x4 block carries
        zz:        the s_z s_z coefficient, tr(H_4 sigma_z sigma_z);
        flip-flop: 2 <0,-1|H|-1,0>, which for a spin-1/2 form
                   a (sx sx + sy sy) + c (sx sy - sy sx) equals a + i c.
    Returned in rad/s, as (zz, flip-flop).
    """
    m = 3.0 * np.outer(pair.r_hat, pair.r_hat) - np.eye(3)

    def lab_components(frame):
        return [frame.x_axis[a] * _SPIN1[0] + frame.y_axis[a] * _SPIN1[1]
                + frame.z_axis[a] * _SPIN1[2] for a in range(3)]

    s1, s2 = lab_components(pair.frame1), lab_components(pair.frame2)
    h = -pair.radial_prefactor * sum(
        m[a, b] * np.kron(s1[a], s2[b]) for a in range(3) for b in range(3))
    keep = [3 * i + j for i in _QUBIT_LEVELS for j in _QUBIT_LEVELS]
    h4 = h[np.ix_(keep, keep)]
    sigma_z = np.diag([1.0, -1.0])
    zz = float(np.trace(h4 @ np.kron(sigma_z, sigma_z)).real)
    return zz, complex(2.0 * h4[1, 2])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Ginibre-random density matrix (full rank, strictly positive)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_dense_state(rng: np.random.Generator, n: int) -> QuantumState:
    return QuantumState(SpinRegister.of_size(n),
                        dense=random_density(rng, 1 << n))


def random_blocked_state(rng: np.random.Generator, n: int) -> QuantumState:
    """Random state with no inter-sector coherence (block-diagonal) on
    sites 1..n."""
    return _random_blocked_state(rng, SpinRegister.of_size(n))


def random_network_generator(rng: np.random.Generator, n: int, gamma: float,
                             with_qubit: bool = False) -> LindbladGenerator:
    """All-to-all XXZ network with random couplings and anisotropies, on
    sites 1..n, or 0..n-1 `with_qubit` (site 0 does not dephase)."""
    reg = SpinRegister(tuple(range(n))) if with_qubit \
        else SpinRegister.of_size(n)
    pairs = [(a, b) for i, a in enumerate(reg.labels)
             for b in reg.labels[i + 1:]]
    net = SpinNetwork(reg, {p: float(rng.uniform(-1, 1)) for p in pairs},
                      {p: float(rng.uniform(0, 2)) for p in pairs})
    return LindbladGenerator.from_network(net, gamma)


def count_calls(monkeypatch, targets) -> Counter:
    """Count calls to each (module, name) binding for the test's duration."""
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls
