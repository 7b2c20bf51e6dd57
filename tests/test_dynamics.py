"""Lindblad evolution (exact, adaptive, blocked), swaps, channel checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from spinfridge import (
    DomainError,
    IntegratorConfig,
    LindbladGenerator,
    QuantumState,
    SectorMixingError,
    SpinNetwork,
    SpinRegister,
    SwapSpec,
    conserves_z_excitation,
    evolve,
    evolve_exact,
    is_unital,
    partial_swap,
    partial_trace,
    perfect_swap,
    thermal_product_state,
    trace_distance,
    von_neumann_entropy,
    window_generator,
    xxz_network_hamiltonian,
)
from spinfridge import dynamics, sectors
from spinfridge.dynamics import _block_rhs, _dense_rhs, _dephased_action
from spinfridge.integrate import rkf45
from spinfridge.operators import PAULIS, site_operator

from conftest import (
    random_blocked_state,
    random_dense_state,
    random_network_generator,
)


def chain_generator(n: int, gamma: float = 0.0,
                    coupling: float = 1.0) -> LindbladGenerator:
    return LindbladGenerator.from_network(
        SpinNetwork.uniform_chain(n, coupling), gamma)


class TestGeneratorConstruction:
    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            chain_generator(2, -0.1)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_site_zero_never_dephases(self, adaptive):
        # H = 0 on sites 0..2, where label 0 is the thermal qubit.
        gamma, t = 0.7, 0.9
        reg = SpinRegister.with_qubit(2)
        gen = LindbladGenerator.from_network(SpinNetwork(reg, {}), gamma)
        decay = math.exp(-2.0 * gamma * t)
        if not adaptive:
            # The pure sector-1 state (|a> + |b>)/sqrt 2, a = |0_0 1_1 0_2>
            # and b = |1_0 0_1 0_2>: a and b differ on sites 0 and 1, so the
            # coherence decays as e^(-2 Gamma t), as e^(-4 Gamma t) if site
            # 0 dephased.
            a, b = 0b010, 0b100
            rho = np.zeros((8, 8), dtype=complex)
            rho[np.ix_([a, b], [a, b])] = 0.5
            out = evolve_exact(QuantumState(reg, dense=rho), gen, t)
            assert abs(out.matrix[a, b] - 0.5 * decay) < 1e-14
            return
        # |+> on each site (the adaptive route's dense form: the state
        # carries inter-sector coherence): every coherence decays as
        # e^(-2 Gamma t) except the thermal qubit's, which label 0 keeps.
        plus = QuantumState(reg, dense=np.full((8, 8), 1 / 8, dtype=complex))
        out = evolve(plus, gen, t)
        for site, factor in ((0, 1.0), (1, decay), (2, decay)):
            coherence = partial_trace(out, keep=(site,)).matrix[0, 1]
            assert abs(coherence - 0.5 * factor) < 1e-9

    def test_from_network_blocks_match_dense(self):
        gen = chain_generator(3)
        blocks = gen.hamiltonian_blocks()
        assert [len(b) for b in blocks] == [1, 3, 3, 1]
        assert all(b.dtype == np.float64 for b in blocks)
        dense = xxz_network_hamiltonian(SpinNetwork.uniform_chain(3, 1.0))
        np.testing.assert_allclose(gen.hamiltonian, dense, atol=1e-12)

    def test_sector_mixing_hamiltonian_rejected(self):
        # A generator is built from a network only, so no matrix, sector
        # mixing or not, is taken as a Hamiltonian.
        # Called with no argument it fails at the call, not at first use.
        reg = SpinRegister.of_size(2)
        with pytest.raises(TypeError, match="from_network"):
            LindbladGenerator(site_operator(reg, 1, PAULIS["x"]))
        with pytest.raises(TypeError, match="from_network"):
            LindbladGenerator()


class TestApplyGenerator:
    """The dense right-hand side, d(rho)/dt = i[rho, H] + dissipator."""

    def test_rhs_is_traceless(self, rng):
        gen = chain_generator(3, 0.4)
        state = random_dense_state(rng, 3)
        rhs = _dense_rhs(gen)(0.0, state.matrix)
        assert abs(np.trace(rhs)) < 1e-12

    def test_rhs_is_antihermitian_free(self, rng):
        # d(rho)/dt must stay Hermitian.
        gen = chain_generator(2, 0.9)
        state = random_dense_state(rng, 2)
        rhs = _dense_rhs(gen)(0.0, state.matrix)
        assert np.abs(rhs - rhs.conj().T).max() < 1e-12

    def test_thermal_product_is_stationary(self):
        # chi^(x)N commutes with an XXZ chain and with sigma^z dephasing.
        gen = chain_generator(3, 0.6)
        state = thermal_product_state([0.8] * 3)
        rhs = _dense_rhs(gen)(0.0, state.matrix)
        assert np.abs(rhs).max() < 1e-13


class TestBlockRhs:
    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_matches_textbook_master_equation(self, rng, dense, gamma):
        # Sector l = 4 of eight sites (d = 70) with a random real symmetric
        # H_l, or the dense route on all 2^8 states with the chain's H.
        n, l = 8, 4
        gen = chain_generator(n, gamma)
        if dense:
            signs, h = sectors.dense_spin_signs(n), gen.hamiltonian
        else:
            signs = sectors.spin_signs(n, l)
            a = rng.normal(size=(len(signs),) * 2)
            h = a + a.T
        d = len(signs)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = 0.5 * (x + x.conj().T)
        w = signs @ signs.T
        rhs = _dense_rhs(gen) if dense else _block_rhs(gen, h, signs)
        got = rhs(0.0, rho)
        expected = -1j * (h @ rho - rho @ h) + gamma * (w * rho - n * rho)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
        assert np.array_equal(got, got.conj().T)


def plain_taylor_action(gen, blocks, tau, degree=55, theta=9.9):
    """The dephased action as first written, kept as an independent
    reference: a truncated Taylor series of degree <= 55 in steps of
    tau * bound <= 9.9, the sector data built on every call, and both
    exact max-|.| reductions taken on every term."""
    n, h, eigs = gen.register.count, gen.hamiltonian_blocks(), \
        gen.block_eigensystems()
    dims = [len(h[l]) for l in blocks]
    k, dim = len(blocks), max(dims)
    if k > 1 and k * dim * dim > dynamics._PADDED_ENTRIES:
        return [y for item in blocks.items()
                for y in plain_taylor_action(gen, dict([item]), tau)]
    h_l = np.zeros((k, dim, dim))
    ig, x = (np.zeros((k, dim, dim), complex) for _ in range(2))
    mu, bound = np.empty(k), np.empty(k)
    for i, ((l, block), d) in enumerate(zip(blocks.items(), dims)):
        signs, d_l = sectors.spin_signs(n, l), eigs[l][0]
        g = gen._dephasing(signs, signs)
        mu[i] = g.mean()
        g -= mu[i]
        h_l[i, :d, :d] = h[l]
        ig[i, :d, :d] = 1j * g
        x[i, :d, :d] = 0.5 * (block + block.conj().T)
        bound[i] = d_l[-1] - d_l[0] + np.abs(g).max()
    steps = max(1, math.ceil(tau * bound.max() / theta))
    dt, total = tau / steps, x
    for _ in range(steps):
        term, last = total, float(np.abs(total).max())
        total = total.copy()
        for j in range(1, degree + 1):
            hy = dynamics._times(h_l, term)
            d = hy - hy.conj().swapaxes(1, 2)
            d += ig * term
            d *= -1j * dt / j
            term = d
            total += term
            now = float(np.abs(term).max())
            if last + now <= 2.0 ** -53 * float(np.abs(total).max()):
                break
            last = now
        total *= np.exp(dt * mu)[:, None, None]
    return [0.5 * (y[:d, :d] + y[:d, :d].conj().T)
            for d, y in zip(dims, total)]


def block_liouvillian(gen, l):
    """The Liouvillian of sector block l on its row-major vec form:
    -i (H_l (x) I - I (x) H_l^T) + diag(G_l)."""
    n, h = gen.register.count, gen.hamiltonian_blocks()[l]
    signs = sectors.spin_signs(n, l)
    g = gen._dephasing(signs, signs)
    eye = np.eye(len(h))
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + np.diag(g.ravel())


class TestEvolveExact:
    @staticmethod
    def gap_to_tight_rkf45(rng, n, subset, gamma, tau):
        # Random blocked states fill every sector block; the reference
        # integrates their dense matrix. A subset register holds site 0,
        # which does not dephase.
        gen = random_network_generator(rng, n, gamma, with_qubit=subset)
        state = dynamics._random_blocked_state(rng, gen.register)
        exact = evolve_exact(state, gen, tau).matrix
        tight = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
        reference = rkf45(_dense_rhs(gen), state.matrix, tau, tight).y
        return np.abs(exact - reference).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("subset", [False, True])
    def test_dephased_matches_tight_rkf45_on_coherent_states(
            self, rng, n, subset):
        assert self.gap_to_tight_rkf45(rng, n, subset, 0.7, 1.3) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("subset", [False, True])
    def test_dephased_matches_tight_rkf45_at_tau_n(self, rng, n, subset):
        # Gamma = 1 and J tau = N: several Chebyshev steps on the larger
        # registers.
        assert self.gap_to_tight_rkf45(rng, n, subset, 1.0, float(n)) <= 1e-12

    @pytest.mark.parametrize("gamma, norm", [
        *(pytest.param(0.005, norm, id=str(norm))
          for norm in (0.0, 1e-3, 1.0, 30.0, 300.0, 1000.0)),
        *(pytest.param(1.0, norm, id=f"split-{norm}")
          for norm in (150.0, 400.0))])
    def test_taylor_exponential_matches_scipy(self, rng, gamma, norm):
        from scipy.linalg import expm
        # The Chebyshev action on sector block 2 of a four-site register
        # against scipy's expm of its vec-form Liouvillian, with tau scaled
        # so that tau ||L||_1 = norm. At Gamma = 0.005 the damping is weak,
        # so exp(tau L) X stays of order one even at the largest norm. At
        # Gamma = 1, tau max|G - mu| is several times ln 2^8, so the wait
        # splits into several Chebyshev steps; G vanishes on the diagonal,
        # so the result stays of order one there too.
        n, l = 4, 2
        gen = random_network_generator(rng, n, gamma)
        liouvillian = block_liouvillian(gen, l)
        tau = norm / np.abs(liouvillian).sum(axis=0).max()
        if gamma == 1.0:
            g = liouvillian.diagonal().real
            assert tau * np.abs(g - g.mean()).max() > 3 * math.log(2 ** 8)
        shape = (len(gen.hamiltonian_blocks()[l]),) * 2
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x += x.conj().T
        got, = _dephased_action(gen, {l: x}, tau)
        expected = (expm(tau * liouvillian) @ x.ravel()).reshape(x.shape)
        assert np.abs(got - expected).max() <= 1e-13 * max(1.0, norm)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    @pytest.mark.parametrize("kind", ["blocked", "dense"])
    def test_action_matches_the_block_exponential(self, rng, n, gamma, kind):
        # The stacked action, with its cached sectors, one S per stack and
        # its step split, against each block alone: scipy's expm of the
        # block's vec-form Liouvillian up to four sites (to 1e-13), and
        # tight RKF45 at five and six (to 1e-12), on the block's own master
        # equation or, for the state's dense form (which `evolve_exact`
        # decomposes), on the whole matrix.
        from scipy.linalg import expm
        gen = random_network_generator(rng, n, gamma)
        h, bases = gen.hamiltonian_blocks(), sectors.sector_bases(n)
        state = random_blocked_state(rng, n)
        blocks = dict(enumerate(state.blocks))
        tight = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
        for tau in (0.37, float(n)):
            if kind == "dense":
                got = evolve_exact(state.to_dense(), gen, tau).blocks
            else:
                got = _dephased_action(gen, blocks, tau)
            if n > 4 and kind == "dense":
                dense = rkf45(_dense_rhs(gen), state.matrix, tau, tight).y
            for (l, x), y in zip(blocks.items(), got):
                if n <= 4:
                    want = (expm(tau * block_liouvillian(gen, l))
                            @ x.ravel()).reshape(x.shape)
                    assert np.abs(y - want).max() <= 1e-13
                    continue
                want = dense[np.ix_(bases[l], bases[l])] if kind == "dense" \
                    else rkf45(_block_rhs(gen, h[l], sectors.spin_signs(n, l)),
                               x, tau, tight).y
                assert np.abs(y - want).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    @pytest.mark.parametrize("kind", ["blocked", "dense"])
    def test_action_matches_the_plain_taylor_loop(self, rng, n, gamma, kind):
        # The Chebyshev action against a second series on the same stacks:
        # the plain Taylor loop the action was first written as, which
        # builds every sector afresh and takes both exact reductions on
        # every term. The two expansions differ, so they agree to rounding,
        # not to the bit. The dense kind enters through `evolve_exact` as
        # the state's dense form.
        gen = random_network_generator(rng, n, gamma)
        state = random_blocked_state(rng, n)
        blocks = dict(enumerate(state.blocks))
        for tau in (0.37, float(n)):
            got = evolve_exact(state.to_dense(), gen, tau).blocks \
                if kind == "dense" else _dephased_action(gen, blocks, tau)
            expected = plain_taylor_action(gen, blocks, tau)
            assert len(got) == len(expected) == len(blocks)
            assert max(np.abs(a - b).max()
                       for a, b in zip(got, expected)) <= 1e-13

    def test_weights_are_extended_before_the_stop_rule_holds(
            self, rng, monkeypatch):
        # A step that runs past the Bessel weights it was given gets more:
        # no term cap ends a step before its stop rule holds.
        gen = random_network_generator(rng, 4, 1.0)
        state = random_blocked_state(rng, 4)
        want = evolve_exact(state, gen, 3.0)
        counts, weights = [], dynamics._chebyshev_weights
        monkeypatch.setattr(dynamics, "_chebyshev_weights", lambda x, count: (
            counts.append(count) or weights(x, count)[:None if counts[1:] else 3]))
        got = evolve_exact(state, gen, 3.0)
        assert counts[0] > 3 and len(counts) > 1
        assert trace_distance(got, want) <= 1e-15

    def test_pairs_are_cached_on_the_generator(self, rng, monkeypatch):
        # A second call reads every sector from the generator's cache and
        # gives the bits of a fresh generator, for a blocked state and for
        # a coherence-free dense one; blocks past _PADDED_ENTRIES are not
        # kept.
        gen = random_network_generator(rng, 4, 0.5)
        fresh = LindbladGenerator.from_network(gen.network, 0.5)
        states = (random_blocked_state(rng, 4).to_dense(),
                  random_blocked_state(rng, 4))
        first = [evolve_exact(s, gen, 1.3) for s in states]
        calls, original = [], LindbladGenerator._dephasing
        monkeypatch.setattr(LindbladGenerator, "_dephasing",
                            lambda self, *a: calls.append(a) or original(self, *a))
        second = [evolve_exact(s, gen, 1.3) for s in states]
        assert not calls
        monkeypatch.undo()
        for one, two, s in zip(first, second, states):
            expected = evolve_exact(s, fresh, 1.3).matrix
            assert np.array_equal(one.matrix, expected)
            assert np.array_equal(two.matrix, expected)
        chain = chain_generator(10, 0.5)
        evolve_exact(thermal_product_state([0.3] * 10), chain, 0.1)
        sizes = [math.comb(10, l) ** 2 for l in range(11)]
        assert set(chain._sector_cache) == {
            l for l, size in enumerate(sizes) if size <= dynamics._PADDED_ENTRIES}

    def test_stack_above_the_padding_cut_matches_tight_rkf45(self, rng):
        # Eight sites, 9 blocks padded to 70 x 70: past _PADDED_ENTRIES, so
        # each block takes the Chebyshev action on its own.
        gen = random_network_generator(rng, 8, 0.5)
        assert 9 * 70 * 70 > dynamics._PADDED_ENTRIES
        state = random_blocked_state(rng, 8)
        exact = evolve_exact(state, gen, 1.0)
        tight = evolve(state, gen, 1.0,
                       IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15))
        assert exact.is_blocked
        assert max(np.abs(a - b).max() for a, b
                   in zip(exact.blocks, tight.blocks)) <= 1e-12

    def test_dephased_blocked_state_stays_hermitian_and_blocked(self, rng):
        # Ten sites, past any dense-Liouvillian size: sector 5 has 252
        # states. The blocked route keeps every block exactly Hermitian.
        gen = chain_generator(10, 0.5)
        state = thermal_product_state([0.3] * 10)
        out = evolve_exact(state, gen, 1.0)
        assert out.is_blocked
        assert all(np.array_equal(b, b.conj().T) for b in out.blocks)
        assert sum(np.trace(b).real for b in out.blocks) == pytest.approx(
            1.0, abs=1e-13)
        # A uniform thermal product is a function of the total sigma^z: it
        # commutes with H and is diagonal, so it is a fixed point.
        assert trace_distance(out, state) < 1e-13

    @pytest.mark.parametrize("dense", [False, True])
    def test_negative_duration_only_runs_the_unitary_backward(self, rng,
                                                              dense):
        # At Gamma = 0 a negative duration undoes a positive one; dephasing
        # only runs forward, so the dephased route raises like `evolve`,
        # for a blocked state and for its dense form.
        state = random_blocked_state(rng, 3)
        state = state.to_dense() if dense else state
        unitary = random_network_generator(rng, 3, 0.0)
        back = evolve_exact(evolve_exact(state, unitary, 1.7), unitary, -1.7)
        assert trace_distance(back, state) < 1e-13
        dephased = random_network_generator(rng, 3, 0.5)
        for route in (evolve_exact, evolve):
            with pytest.raises(DomainError):
                route(state, dephased, -2.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_rejected(self, gamma, duration):
        state = thermal_product_state([0.3, 1.0, 2.0])
        with pytest.raises(DomainError):
            evolve_exact(state, chain_generator(3, gamma), duration)

    def test_dephased_composition(self, rng):
        gen = random_network_generator(rng, 3, 0.4)
        for state in (random_blocked_state(rng, 3).to_dense(),
                      random_blocked_state(rng, 3)):
            one = evolve_exact(evolve_exact(state, gen, 0.8), gen, 1.1)
            two = evolve_exact(state, gen, 1.9)
            assert trace_distance(one, two) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("chain", [False, True])
    def test_eigenbasis_route_matches_sector_unitaries(self, rng, n, chain):
        # The reference is U_l X_l U_l^dag with U_l = exp(-i H_l tau) from
        # a complex eigh of each block, applied to each block of a blocked
        # state and to a coherence-free dense state at once through the
        # direct sum of the U_l. The uniform chain's degenerate spectra
        # leave the eigenbases free.
        gen = chain_generator(n) if chain \
            else random_network_generator(rng, n, 0.0)
        eigs = [np.linalg.eigh(b.astype(complex))
                for b in gen.hamiltonian_blocks()]
        for tau in (0.0, 0.7, 2.9, 10.0):
            units = [(u * np.exp(-1j * d * tau)) @ u.conj().T for d, u in eigs]
            blocked = random_blocked_state(rng, n)
            got = evolve_exact(blocked, gen, tau)
            for u, x, y in zip(units, blocked.blocks, got.blocks):
                assert np.abs(y - u @ x @ u.conj().T).max() <= 1e-13
            dense = random_blocked_state(rng, n).to_dense()
            full = sectors.scatter_blocks(units, n)
            expected = full @ dense.matrix @ full.conj().T
            got = evolve_exact(dense, gen, tau).matrix
            assert np.abs(got - expected).max() <= 1e-13

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_coherence_free_dense_state_is_its_blocked_twin(self, rng, gamma):
        # A dense state with no inter-sector coherence is decomposed on
        # entry: its result is its blocked twin's, bit for bit, and blocked.
        gen = random_network_generator(rng, 4, gamma)
        blocked = random_blocked_state(rng, 4)
        dense = QuantumState(blocked.register, dense=blocked.matrix)
        got, want = (evolve_exact(s, gen, 1.3) for s in (dense, blocked))
        assert got.is_blocked
        assert all(np.array_equal(a, b) for a, b in zip(got.blocks, want.blocks))

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_inter_sector_coherence_raises_before_evolving(
            self, rng, monkeypatch, gamma):
        gen = random_network_generator(rng, 3, gamma)

        def evolved(*_args):
            raise AssertionError("the state was evolved")

        monkeypatch.setattr(dynamics, "_dephased_action", evolved)
        monkeypatch.setattr(LindbladGenerator, "_rotated", evolved)
        with pytest.raises(SectorMixingError):
            evolve_exact(random_dense_state(rng, 3), gen, 0.9)

    def test_scan_cache_leaves_the_dephased_route_alone(self, rng):
        # The waiting-time scan caches its eigenbasis rotation and grid
        # tables on the dephased generator itself; none of them may leak
        # into the dephased route.
        from spinfridge.protocol import _exact_population_curve
        gen = random_network_generator(rng, 3, 0.5)
        fresh = LindbladGenerator.from_network(gen.network, 0.5)
        unitary = LindbladGenerator.from_network(gen.network)
        state = random_blocked_state(rng, 3)
        times = np.arange(31) * 0.1
        before = evolve_exact(state, gen, 1.2)
        curve = _exact_population_curve(state, gen, times)
        after = evolve_exact(state, gen, 1.2)
        expected = evolve_exact(state, fresh, 1.2)
        for got in (before, after):
            assert all(np.array_equal(a, b)
                       for a, b in zip(got.blocks, expected.blocks))
        assert np.array_equal(curve,
                              _exact_population_curve(state, unitary, times))
        assert trace_distance(after, evolve_exact(state, unitary, 1.2)) > 1e-3

    def test_preserves_entropy(self, rng):
        gen = chain_generator(3)
        state = random_blocked_state(rng, 3)
        out = evolve_exact(state, gen, 2.7)
        assert von_neumann_entropy(out) == pytest.approx(
            von_neumann_entropy(state), abs=1e-10)

    def test_composition(self, rng):
        gen = chain_generator(3)
        state = random_blocked_state(rng, 3)
        one = evolve_exact(evolve_exact(state, gen, 1.1), gen, 0.6)
        two = evolve_exact(state, gen, 1.7)
        assert trace_distance(one, two) < 1e-12


class TestEvolveAdaptive:
    def test_matches_exact_on_coherent_chain(self, rng):
        gen = chain_generator(3)
        state = random_blocked_state(rng, 3)
        via_rkf = evolve(state, gen, 3.0)
        via_exp = evolve_exact(state, gen, 3.0)
        assert trace_distance(via_rkf, via_exp) < 1e-8

    def test_single_site_dephasing_analytic(self):
        # With H = 0 the off-diagonal obeys rho01(t) = rho01(0) e^(-2 Gamma t).
        gamma, t = 0.7, 0.9
        reg = SpinRegister.of_size(1)
        gen = LindbladGenerator.from_network(SpinNetwork(reg, {}), gamma)
        plus = QuantumState(reg, dense=np.full((2, 2), 0.5, dtype=complex))
        out = evolve(plus, gen, t)
        expected = 0.5 * math.exp(-2.0 * gamma * t)
        assert abs(out.matrix[0, 1] - expected) < 1e-9

    def test_blocked_route_matches_dense_route(self, rng):
        gen = chain_generator(3, 0.5)
        state = random_blocked_state(rng, 3)
        blocked = evolve(state, gen, 2.0)
        dense = rkf45(_dense_rhs(gen), state.to_dense().matrix, 2.0,
                      IntegratorConfig()).y
        assert trace_distance(
            blocked, QuantumState(state.register, dense=dense)) < 1e-8

    def test_dense_input_stays_dense(self, rng):
        # A dense state without inter-sector coherence is integrated as one
        # dense block: the output keeps the input's form and matches the
        # blocked route at tight tolerances.
        gen = chain_generator(3, 0.5)
        state = random_blocked_state(rng, 3)
        tight = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
        dense = evolve(state.to_dense(), gen, 2.0, tight)
        blocked = evolve(state, gen, 2.0, tight)
        assert not dense.is_blocked and blocked.is_blocked
        assert np.abs(dense.matrix - blocked.to_dense().matrix).max() <= 1e-12

    def test_register_mismatch_rejected(self, rng):
        gen = chain_generator(3)
        with pytest.raises(DomainError):
            evolve(random_dense_state(rng, 2), gen, 1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration_rejected(self, duration):
        state = thermal_product_state([0.3, 1.0, 2.0])
        with pytest.raises(DomainError):
            evolve(state, chain_generator(3, 0.5), duration)

    def test_dephasing_decreases_purity_never_entropy(self, rng):
        gen = chain_generator(3, 0.8)
        state = random_blocked_state(rng, 3)
        out = evolve(state, gen, 1.5)
        assert von_neumann_entropy(out) >= von_neumann_entropy(state) - 1e-9


class TestPerfectSwap:
    def test_exchanges_reduced_states(self):
        state = thermal_product_state([0.3, 2.0])
        swapped = perfect_swap(state, 1, 2)
        from spinfridge import partial_trace, temperature_of
        assert temperature_of(partial_trace(swapped, (1,))).beta_tilde \
            == pytest.approx(2.0, abs=1e-12)
        assert temperature_of(partial_trace(swapped, (2,))).beta_tilde \
            == pytest.approx(0.3, abs=1e-12)

    def test_blocked_matches_dense(self, rng):
        state = random_blocked_state(rng, 3)
        a = perfect_swap(state, 1, 3)
        b = perfect_swap(state.to_dense(), 1, 3)
        assert trace_distance(a, b) < 1e-13

    def test_involution(self, rng):
        state = random_dense_state(rng, 3)
        back = perfect_swap(perfect_swap(state, 2, 3), 2, 3)
        assert trace_distance(state, back) < 1e-14

    def test_same_site_rejected(self, rng):
        with pytest.raises(DomainError):
            perfect_swap(random_dense_state(rng, 2), 1, 1)

    def test_absent_site_rejected(self, rng):
        with pytest.raises(DomainError):
            perfect_swap(random_dense_state(rng, 2), 1, 9)


class TestSwapSpec:
    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            SwapSpec(mode="instant")

    def test_perfect_takes_no_strength(self):
        with pytest.raises(DomainError):
            SwapSpec("perfect", 5.0)
        assert SwapSpec.perfect().interaction_strength is None

    def test_partial_needs_positive_strength(self):
        for bad in (0.0, -1.0, math.inf, None):
            with pytest.raises(DomainError):
                SwapSpec(mode="partial", interaction_strength=bad)

    def test_negative_window_rate_rejected(self):
        # A window's rate is its probe generator's, validated as any rate.
        with pytest.raises(DomainError):
            window_generator(SpinNetwork.uniform_chain(2, 1.0), -0.1,
                             SwapSpec.partial(5.0))

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_window_rate_rejected(self, rate):
        with pytest.raises(DomainError):
            window_generator(SpinNetwork.uniform_chain(2, 1.0), rate,
                             SwapSpec.partial(5.0))

    def test_window_duration(self):
        assert SwapSpec.partial(4.0).window_duration \
            == pytest.approx(math.pi / 16.0, rel=1e-15)
        assert SwapSpec.perfect().window_duration == 0.0


class TestPartialSwap:
    def qubit_probe_state(self, beta_qubit: float, n: int) -> QuantumState:
        probe = thermal_product_state([math.inf] * n)
        from spinfridge import attach_thermal_qubit
        return attach_thermal_qubit(probe, beta_qubit)

    def test_bare_window_is_an_exact_swap(self):
        # With no probe couplings the window is a resonant pi/2 pulse: a
        # perfect swap at any interaction strength (the duration just
        # shrinks).
        state = self.qubit_probe_state(0.4, 2)
        ideal = perfect_swap(state, 0, 1)
        bare = LindbladGenerator.from_network(
            SpinNetwork(SpinRegister.of_size(2), {}))
        for strength in (2.0, 50.0):
            out = partial_swap(state, bare, SwapSpec.partial(strength))
            assert trace_distance(out, ideal) < 1e-12

    def test_strong_coupling_approaches_perfect(self):
        # A competing probe Hamiltonian degrades the swap; raising the
        # interaction strength shortens the window and restores it.
        state = self.qubit_probe_state(0.4, 2)
        ideal = perfect_swap(state, 0, 1)
        dist = {
            j: trace_distance(
                partial_swap(state, chain_generator(2), SwapSpec.partial(j)),
                ideal)
            for j in (2.0, 20.0, 200.0)
        }
        assert dist[200.0] < dist[20.0] < dist[2.0]
        assert dist[200.0] < 3e-3  # error falls off roughly as 1/J_I

    def test_background_changes_outcome(self):
        # The probe's own couplings act during a finite window.
        state = self.qubit_probe_state(0.4, 2)
        bare = partial_swap(state, chain_generator(2, coupling=0.0),
                            SwapSpec.partial(3.0))
        dressed = partial_swap(state, chain_generator(2),
                               SwapSpec.partial(3.0))
        assert trace_distance(bare, dressed) > 1e-6

    @pytest.mark.parametrize("dephased", [False, True])
    def test_window_blocks_match_dense_construction(self, rng, dephased):
        # J_I sigma_0 . sigma_1 + I (x) H_probe, built by Kronecker products
        # here, against the sector blocks the window generator assembles;
        # the window dephases every probe site at the probe's rate, not the
        # qubit.
        rate = 0.3 if dephased else 0.0
        probe = SpinRegister.of_size(3)
        pairs = [(1, 2), (1, 3), (2, 3)]
        net = SpinNetwork(
            probe, {p: float(rng.uniform(-1, 1)) for p in pairs},
            {p: float(rng.uniform(0, 2)) for p in pairs})
        j_i = 4.3
        joint = SpinRegister.with_qubit(3)
        hop = sum(site_operator(joint, 0, PAULIS[a])
                  @ site_operator(joint, 1, PAULIS[a]) for a in "xyz")
        dense = j_i * hop + np.kron(np.eye(2), xxz_network_hamiltonian(net))
        gen = window_generator(net, rate, SwapSpec.partial(j_i))
        for a, b in zip(gen.hamiltonian_blocks(),
                        sectors.gather_blocks(dense, 4)):
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)
        assert gen.register == joint and gen.dephasing_rate == rate
        signs = sectors.dense_spin_signs(4)
        probe_signs = signs[:, 1:]
        assert np.array_equal(gen._dephasing(signs, signs),
                              rate * (probe_signs @ probe_signs.T - 3))

    def test_window_generator_requires_qubit_slot(self):
        # The probe must leave site 0 to the qubit and hold the target 1.
        spec = SwapSpec.partial(5.0)
        for reg in (SpinRegister.with_qubit(2), SpinRegister((2, 3))):
            with pytest.raises(DomainError):
                window_generator(SpinNetwork(reg, {}), 0.0, spec)


class TestChannelChecks:
    def test_swap_channel_passes_both(self):
        reg = SpinRegister.with_qubit(2)
        gen = LindbladGenerator.from_network(
            SpinNetwork(reg, {(1, 2): 1.0}, {(1, 2): 1.0}), 0.4)

        def channel(state):
            return perfect_swap(evolve(state, gen, 0.7), 0, 1)

        assert conserves_z_excitation(channel, reg, trials=3, seed=5)
        assert is_unital(channel, reg)

    def test_unitality_input_stays_blocked(self):
        # I/d has no inter-sector coherence, so the channel sees one I/d
        # block per sector; blocked and dense outputs are both compared.
        reg = SpinRegister.with_qubit(3)
        seen = []

        def channel(state):
            seen.append(state)
            return state if len(seen) == 1 else state.to_dense()

        assert is_unital(channel, reg)
        assert is_unital(channel, reg)
        first = seen[0]
        assert first.is_blocked
        for block in first.blocks:
            np.testing.assert_array_equal(
                block, np.eye(len(block)) / reg.dim)

    def test_z_check_input_is_blocked(self):
        # The z-check draws random blocked states, so the channel sees no
        # inter-sector coherence; each sector's weight is read off a blocked
        # or a dense output alike.
        reg = SpinRegister.with_qubit(3)
        seen = []

        def channel(state):
            seen.append(state)
            return state if len(seen) % 2 else state.to_dense()

        assert conserves_z_excitation(channel, reg, trials=4, seed=3)
        assert len(seen) == 4
        assert all(s.is_blocked and s.register == reg for s in seen)

    def test_reset_channel_fails_both(self):
        reg = SpinRegister.of_size(2)
        cold = thermal_product_state([math.inf] * 2)

        def reset(_state):
            return cold

        z_check = conserves_z_excitation(reset, reg, trials=5, seed=1)
        assert not z_check.passed
        assert z_check.counterexample is not None
        assert not is_unital(reset, reg).passed

    def test_trials_must_be_positive(self):
        reg = SpinRegister.of_size(1)
        with pytest.raises(DomainError):
            conserves_z_excitation(lambda s: s, reg, trials=0)
