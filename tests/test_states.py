"""Registers, thermal states, entropies, distances, sector decomposition."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import pytest

import spinfridge as sf
from spinfridge import (
    DomainError,
    InvalidStateError,
    NotDiagonalError,
    PopulationInversionError,
    QuantumState,
    SectorMixingError,
    SpinRegister,
    TemperatureRecord,
    binary_entropy,
    partial_trace,
    reduced_site_populations,
    sector_decompose,
    temperature_of,
    thermal_populations,
    thermal_product_state,
    thermal_qubit,
    trace_distance,
    von_neumann_entropy,
)

from spinfridge.states import _partial_trace_dense, _trace_out_bit

from conftest import random_blocked_state, random_dense_state


def kron_of(factors):
    """Dense Kronecker product of states, in list order."""
    return functools.reduce(np.kron, (f.matrix for f in factors))


# --------------------------------------------------------------------------
# registers
# --------------------------------------------------------------------------

class TestSpinRegister:
    def test_of_size_labels(self):
        assert SpinRegister.of_size(3).labels == (1, 2, 3)
        assert SpinRegister.of_size(1).labels == (1,)

    def test_with_qubit_labels(self):
        assert SpinRegister.with_qubit(2).labels == (0, 1, 2)

    def test_dim(self):
        assert SpinRegister.of_size(4).dim == 16

    def test_first_label_is_most_significant_bit(self):
        reg = SpinRegister.of_size(3)
        assert reg.bit_position(1) == 2
        assert reg.bit_position(3) == 0

    @pytest.mark.parametrize("labels", [(), (1, 1), (2, 1), (-1, 0)])
    def test_invalid_labels_rejected(self, labels):
        with pytest.raises(DomainError):
            SpinRegister(labels)

    def test_size_must_be_positive(self):
        with pytest.raises(DomainError):
            SpinRegister.of_size(0)


# --------------------------------------------------------------------------
# temperatures
# --------------------------------------------------------------------------

class TestTemperatureRecord:
    def test_from_beta_roundtrip(self):
        rec = TemperatureRecord.from_beta(0.3)
        assert rec.beta_tilde == 0.3
        assert rec.population_ratio == pytest.approx(math.exp(0.3), rel=1e-15)

    def test_zero_temperature(self):
        rec = TemperatureRecord.from_beta(math.inf)
        assert math.isinf(rec.beta_tilde)
        assert math.isinf(rec.population_ratio)

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainError):
            TemperatureRecord.from_beta(-0.1)


class TestThermalStates:
    def test_populations_sum_to_one(self):
        p0, p1 = thermal_populations(0.7)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-15)
        assert p1 / p0 == pytest.approx(math.exp(0.7), rel=1e-14)

    def test_larger_beta_means_more_polarized(self):
        # beta_tilde is omega/(k_B T): larger values are colder.
        assert thermal_populations(2.0)[1] > thermal_populations(0.5)[1]

    def test_infinite_beta_is_pure(self):
        assert thermal_populations(math.inf) == (0.0, 1.0)
        qubit = thermal_qubit(math.inf)
        assert von_neumann_entropy(qubit) == pytest.approx(0.0, abs=1e-14)

    def test_past_exp_overflow_is_pure(self):
        # exp overflows past 709.78; below, p0 keeps 1/(1 + exp) to the bit.
        for beta in (710.0, 745.0, 1e300):
            assert thermal_populations(beta) == (0.0, 1.0)
        assert thermal_product_state([745.0, 1e300]).blocks[2][0, 0] == 1.0
        for beta in (0.0, 3.0, 40.0, 709.0):
            assert thermal_populations(beta)[0] == 1.0 / (1.0 + math.exp(beta))

    def test_zero_beta_is_maximally_mixed(self):
        qubit = thermal_qubit(0.0)
        np.testing.assert_allclose(qubit.matrix, np.eye(2) / 2, atol=1e-15)

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainError):
            thermal_populations(-0.2)

    def test_temperature_roundtrip(self):
        rec = temperature_of(thermal_qubit(1.3))
        assert rec.beta_tilde == pytest.approx(1.3, abs=1e-12)

    def test_product_matches_kron(self):
        via_kron = QuantumState.from_dense(
            kron_of([thermal_qubit(0.4), thermal_qubit(1.1)]),
            SpinRegister.of_size(2))
        via_thermal = thermal_product_state([0.4, 1.1])
        assert trace_distance(via_kron, via_thermal) < 1e-14

    def test_thermal_product_is_blocked(self):
        state = thermal_product_state([0.3, 0.3, 0.3])
        assert state.is_blocked
        assert len(state.blocks) == 4

    def test_thermal_product_skips_validation(self, monkeypatch):
        betas = [0.3, 1.1, math.inf, 0.3]

        def refuse(state):
            raise AssertionError("thermal product was validated")

        monkeypatch.setattr(QuantumState, "_validate", refuse)
        state = thermal_product_state(betas)
        monkeypatch.undo()
        # the validating constructor accepts the same blocks, and they are
        # the blocks of the dense Kronecker product
        validated = QuantumState.from_blocks(state.blocks, state.register)
        kron = sector_decompose(QuantumState.from_dense(
            kron_of([thermal_qubit(b) for b in betas]),
            SpinRegister.of_size(len(betas))))
        for block, check, want in zip(state.blocks, validated.blocks,
                                      kron.blocks):
            assert np.array_equal(block, check)
            assert np.array_equal(block, want)
            assert not block.flags.writeable
        with pytest.raises(DomainError):
            thermal_product_state([0.3, -0.5])

    def test_uniform_thermal_sector_entries_are_bit_identical(self):
        # Within a sector every basis state carries p0^(n-l) p1^l; the
        # uniform builder must produce exactly equal diagonal entries so
        # that stationarity checks hold at floating-point level.
        state = thermal_product_state([0.9] * 4)
        for block in state.blocks:
            diag = np.diag(block).real
            assert np.all(diag == diag[0])


# --------------------------------------------------------------------------
# the state container
# --------------------------------------------------------------------------

class TestQuantumState:
    def test_dense_blocked_roundtrip(self, rng):
        state = random_blocked_state(rng, 3)
        back = sector_decompose(state.to_dense())
        assert trace_distance(state, back) < 1e-14

    def test_trace_validation(self):
        reg = SpinRegister.of_size(1)
        with pytest.raises(InvalidStateError):
            QuantumState(reg, dense=np.diag([0.7, 0.7]))

    def test_hermiticity_validation(self):
        reg = SpinRegister.of_size(1)
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError):
            QuantumState(reg, dense=m)

    def test_negative_eigenvalue_validation(self):
        reg = SpinRegister.of_size(1)
        with pytest.raises(InvalidStateError):
            QuantumState(reg, dense=np.diag([1.5, -0.5]))

    def test_eigenvalues_sum_to_one(self, rng):
        state = random_dense_state(rng, 2)
        assert state.eigenvalues().sum() == pytest.approx(1.0, abs=1e-12)

    def test_adopt_keeps_arrays_and_freezes_them(self, rng):
        # Internal callers hand over arrays they just built; the public
        # constructor keeps copying.
        state = random_blocked_state(rng, 2)
        blocks = [b.copy() for b in state.blocks]
        dense = state.to_dense().matrix.copy()
        adopted = QuantumState._adopt(state.register, blocks=blocks)
        assert all(a is b for a, b in zip(adopted.blocks, blocks))
        assert not any(b.flags.writeable for b in blocks)
        whole = QuantumState._adopt(state.register, dense=dense)
        assert whole.matrix is dense and not dense.flags.writeable
        fresh = np.eye(4, dtype=complex) / 4
        assert QuantumState(state.register, dense=fresh).matrix is not fresh
        assert fresh.flags.writeable


# --------------------------------------------------------------------------
# partial trace and site populations
# --------------------------------------------------------------------------

class TestPartialTrace:
    def test_product_state_factors_recovered(self):
        joint = thermal_product_state([0.3, 1.2])
        site1 = partial_trace(joint, keep=(1,))
        site2 = partial_trace(joint, keep=(2,))
        assert temperature_of(site1).beta_tilde == pytest.approx(0.3, abs=1e-12)
        assert temperature_of(site2).beta_tilde == pytest.approx(1.2, abs=1e-12)

    def test_blocked_and_dense_routes_agree(self, rng):
        # Every proper keep subset, on probe registers 1..N and on a joint
        # register 0..N (the protocol's qubit-plus-probe layout).
        states = [random_blocked_state(rng, n) for n in range(2, 6)]
        joint = random_blocked_state(rng, 4)
        states.append(QuantumState(SpinRegister.with_qubit(3),
                                   blocks=joint.blocks))
        for state in states:
            labels = state.register.labels
            dense = state.to_dense()
            for size in range(1, len(labels)):
                for keep in itertools.combinations(labels, size):
                    a = partial_trace(state, keep)
                    b = partial_trace(dense, keep)
                    assert a.is_blocked
                    assert a.register.labels == keep
                    assert trace_distance(a, b) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_site_marginal_matches_the_whole_block_recursion(self, rng, n):
        # A one-site marginal recurses on the block diagonals only; it must
        # give the bits of tracing whole blocks out one site at a time.
        state = random_blocked_state(rng, n)
        labels = state.register.labels
        for site in labels:
            blocks, count = state.blocks, n
            for i in reversed(range(n)):
                if labels[i] != site:
                    blocks = _trace_out_bit(blocks, count, count - 1 - i)
                    count -= 1
            got = partial_trace(state, keep=(site,))
            assert got.is_blocked and got.register.labels == (site,)
            assert all(np.array_equal(a, b)
                       for a, b in zip(got.blocks, blocks))
            dense = _partial_trace_dense(state.to_dense(),
                                         state.register.subset((site,)))
            assert np.abs(got.matrix - dense.matrix).max() <= 1e-15

    def test_keep_everything_is_identity(self, rng):
        state = random_dense_state(rng, 2)
        assert partial_trace(state, keep=(1, 2)) is state

    def test_unknown_label_rejected(self):
        state = thermal_product_state([0.5, 0.5])
        with pytest.raises(DomainError):
            partial_trace(state, keep=(7,))

    def test_reduced_site_populations(self):
        state = thermal_product_state([0.2, 1.5, 0.7])
        pops = reduced_site_populations(state)
        assert pops.shape == (3, 2)
        for row, beta in zip(pops, [0.2, 1.5, 0.7]):
            p0, p1 = thermal_populations(beta)
            assert row[0] == pytest.approx(p0, abs=1e-12)
            assert row[1] == pytest.approx(p1, abs=1e-12)


# --------------------------------------------------------------------------
# entropies and distances
# --------------------------------------------------------------------------

class TestEntropy:
    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == pytest.approx(math.log(2), abs=1e-14)
        assert binary_entropy(math.inf) == pytest.approx(0.0, abs=1e-14)

    def test_binary_entropy_formula(self):
        p0, p1 = thermal_populations(0.2)
        expected = -p0 * math.log(p0) - p1 * math.log(p1)
        assert binary_entropy(0.2) == pytest.approx(expected, rel=1e-14)
        # the value the acceptance sweeps rely on, in nats
        assert binary_entropy(0.2) == pytest.approx(0.6881720699190963,
                                                    abs=1e-15)

    def test_entropy_additive_on_products(self):
        joint = thermal_product_state([0.4, 0.9])
        expected = binary_entropy(0.4) + binary_entropy(0.9)
        assert von_neumann_entropy(joint) == pytest.approx(expected, abs=1e-12)

    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(thermal_product_state([math.inf] * 3)) \
            == pytest.approx(0.0, abs=1e-12)


class TestTraceDistance:
    def test_identity(self, rng):
        state = random_dense_state(rng, 2)
        assert trace_distance(state, state) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry(self, rng):
        a, b = random_dense_state(rng, 2), random_dense_state(rng, 2)
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a),
                                                     abs=1e-14)

    def test_range(self, rng):
        for _ in range(20):
            a, b = random_dense_state(rng, 3), random_blocked_state(rng, 3)
            d = trace_distance(a, b)
            assert -1e-14 <= d <= 1.0 + 1e-12

    def test_pure_vs_thermal_qubit(self):
        # D(|1><1|, chi(beta)) collapses to the ground-state deficit p0.
        p0, _ = thermal_populations(0.8)
        d = trace_distance(thermal_qubit(math.inf), thermal_qubit(0.8))
        assert d == pytest.approx(p0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        reg = SpinRegister.of_size(1)
        up = QuantumState(reg, dense=np.diag([1.0, 0.0]))
        down = QuantumState(reg, dense=np.diag([0.0, 1.0]))
        assert trace_distance(up, down) == pytest.approx(1.0, abs=1e-14)


# --------------------------------------------------------------------------
# excitation sectors
# --------------------------------------------------------------------------

class TestSectors:
    def test_decompose_rejects_mixing(self):
        reg = SpinRegister.of_size(2)
        plus = np.full((4, 4), 0.25, dtype=complex)  # |++><++|, coherent
        with pytest.raises(SectorMixingError):
            sector_decompose(QuantumState(reg, dense=plus))

    def test_sector_sizes_are_binomial(self, rng):
        state = random_blocked_state(rng, 4)
        assert [len(b) for b in state.blocks] == [1, 4, 6, 4, 1]


# --------------------------------------------------------------------------
# temperature readout guards
# --------------------------------------------------------------------------

class TestTemperatureOf:
    def test_rejects_multi_site(self):
        with pytest.raises(DomainError):
            temperature_of(thermal_product_state([0.3, 0.3]))

    def test_rejects_coherence(self):
        reg = SpinRegister.of_size(1)
        plus = QuantumState(reg, dense=np.full((2, 2), 0.5, dtype=complex))
        with pytest.raises(NotDiagonalError):
            temperature_of(plus)

    def test_rejects_population_inversion(self):
        reg = SpinRegister.of_size(1)
        hot = QuantumState(reg, dense=np.diag([0.8, 0.2]))
        with pytest.raises(PopulationInversionError):
            temperature_of(hot)

    def test_all_exports_resolve(self):
        for name in sf.__all__:
            assert getattr(sf, name) is not None
