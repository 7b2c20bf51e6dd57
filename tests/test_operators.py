"""The dense Hamiltonian, site embeddings, swap matrices, spin-network
Hamiltonians."""

from __future__ import annotations

import numpy as np
import pytest

from spinfridge import (
    DomainError,
    LindbladGenerator,
    QuantumState,
    SpinRegister,
    perfect_swap,
    xxz_network_hamiltonian,
)
from spinfridge.dynamics import SpinNetwork, blocked_xxz_hamiltonian
from spinfridge.operators import PAULIS, site_operator
from spinfridge.sectors import dense_spin_signs, scatter_blocks


def total_sz(register: SpinRegister) -> np.ndarray:
    """Diagonal of sum_n sigma^z_n over the register's basis."""
    return dense_spin_signs(register.count).sum(axis=1)


def swapped(matrix: np.ndarray, i: int, j: int) -> np.ndarray:
    """SWAP_ij M SWAP_ij, through perfect_swap on an unvalidated state."""
    n = int(np.log2(matrix.shape[0]))
    state = QuantumState._adopt(SpinRegister.of_size(n), dense=matrix)
    return perfect_swap(state, i, j).matrix


class TestObservable:
    def test_matrix_is_readonly(self):
        # A generator's dense H is memoized, so it is shared read-only, and
        # real: it is scattered from the network's float64 sector blocks.
        net = SpinNetwork.uniform_chain(3, 1.0)
        gen = LindbladGenerator.from_network(net, 0.3)
        h = gen.hamiltonian
        assert h.dtype == np.float64 and gen.hamiltonian is h
        with pytest.raises(ValueError):
            h[0, 0] = 1.0
        np.testing.assert_allclose(h, xxz_network_hamiltonian(net), atol=1e-12)


class TestSiteOperator:
    def test_first_label_is_most_significant(self):
        reg = SpinRegister.of_size(2)
        sz1 = site_operator(reg, 1, PAULIS["z"])
        np.testing.assert_allclose(sz1, np.diag([1, 1, -1, -1]))
        sz2 = site_operator(reg, 2, PAULIS["z"])
        np.testing.assert_allclose(sz2, np.diag([1, -1, 1, -1]))

    def test_unknown_site_rejected(self):
        with pytest.raises(DomainError):
            site_operator(SpinRegister.of_size(2), 5, PAULIS["x"])

    def test_total_sz_diagonal(self):
        reg = SpinRegister.of_size(2)
        np.testing.assert_allclose(total_sz(reg), [2, 0, 0, -2])


class TestSwapMatrices:
    def test_permutation_exchanges_bits(self):
        # |01> (index 1) <-> |10> (index 2)
        proj = np.diag([0, 1, 0, 0]).astype(complex)
        np.testing.assert_array_equal(swapped(proj, 1, 2),
                                      np.diag([0, 0, 1, 0]))

    def test_unitary_is_permutation_matrix(self):
        # SWAP_13 maps every basis projector onto a basis projector, and
        # distinct ones onto distinct ones.
        images = []
        for k in range(8):
            proj = np.zeros((8, 8), dtype=complex)
            proj[k, k] = 1.0
            out = swapped(proj, 1, 3)
            assert set(out.ravel()) <= {0.0, 1.0}
            assert np.count_nonzero(out) == 1
            images.append(int(np.argmax(np.diag(out).real)))
        assert sorted(images) == list(range(8))

    def test_conjugation_swaps_site_operators(self):
        reg = SpinRegister.of_size(2)
        sx1 = site_operator(reg, 1, PAULIS["x"])
        sx2 = site_operator(reg, 2, PAULIS["x"])
        np.testing.assert_allclose(swapped(sx1, 1, 2), sx2, atol=1e-15)


class TestSpinNetwork:
    def test_uniform_chain_pairs(self):
        net = SpinNetwork.uniform_chain(4, 2.5)
        assert set(net.couplings) == {(1, 2), (2, 3), (3, 4)}
        assert all(j == 2.5 for j in net.couplings.values())
        assert all(net.delta(k) == 1.0 for k in net.couplings)

    def test_reversed_pair_rejected(self):
        reg = SpinRegister.of_size(3)
        with pytest.raises(DomainError):
            SpinNetwork(reg, {(2, 1): 1.0})

    def test_pair_outside_register_rejected(self):
        reg = SpinRegister.of_size(2)
        with pytest.raises(DomainError):
            SpinNetwork(reg, {(1, 5): 1.0})

    def test_anisotropy_without_coupling_rejected(self):
        reg = SpinRegister.of_size(2)
        with pytest.raises(DomainError):
            SpinNetwork(reg, {(1, 2): 1.0}, {(1, 3): 0.5})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["coupling", "anisotropy"])
    def test_non_finite_value_rejected(self, field, value):
        # A non-finite anisotropy used to pass and make every block NaN.
        reg = SpinRegister.of_size(2)
        couplings = {(1, 2): value if field == "coupling" else 1.0}
        deltas = {(1, 2): value if field == "anisotropy" else 1.0}
        name = "J" if field == "coupling" else "Delta"
        with pytest.raises(DomainError, match=rf"{name}\[1,2\]"):
            SpinNetwork(reg, couplings, deltas)

    def test_missing_anisotropy_defaults_to_one(self):
        net = SpinNetwork(SpinRegister.of_size(2), {(1, 2): 1.0})
        assert net.delta((1, 2)) == 1.0


class TestHamiltonians:
    def test_two_site_heisenberg_spectrum(self):
        # sigma.sigma on two spins: triplet at +J (x3), singlet at -3J.
        j = 1.7
        h = xxz_network_hamiltonian(SpinNetwork.uniform_chain(2, j))
        eigs = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(eigs, [-3 * j, j, j, j], atol=1e-12)

    def test_two_site_xx_spectrum(self):
        # Delta = 0 kills the zz term: spectrum {0, 0, +-2J}.
        j = 0.9
        net = SpinNetwork(SpinRegister.of_size(2), {(1, 2): j}, {(1, 2): 0.0})
        eigs = np.sort(np.linalg.eigvalsh(xxz_network_hamiltonian(net)))
        np.testing.assert_allclose(eigs, [-2 * j, 0, 0, 2 * j], atol=1e-12)

    def test_hamiltonian_commutes_with_total_sz(self):
        net = SpinNetwork(
            SpinRegister.of_size(3),
            {(1, 2): 1.0, (1, 3): 0.4, (2, 3): -0.7},
            {(1, 2): 0.3, (2, 3): 1.9},
        )
        h = xxz_network_hamiltonian(net)
        sz = np.diag(total_sz(net.register).astype(complex))
        comm = h @ sz - sz @ h
        assert np.abs(comm).max() < 1e-12

    def test_blocked_matches_dense(self):
        net = SpinNetwork(
            SpinRegister.of_size(4),
            {(1, 2): 1.0, (2, 3): 0.5, (3, 4): 2.0, (1, 4): -0.3},
            {(1, 2): 0.0, (3, 4): 1.5},
        )
        dense = xxz_network_hamiltonian(net)
        blocks = blocked_xxz_hamiltonian(net)
        assert all(b.dtype == np.float64 for b in blocks)
        np.testing.assert_allclose(scatter_blocks(blocks, 4), dense, atol=1e-12)
