"""Cooling protocol: config validation, waiting-time optimization, full
runs, entropy bookkeeping, finite-shot thermometry."""

from __future__ import annotations

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from spinfridge import (
    DomainError,
    IntegratorConfig,
    LindbladGenerator,
    PopulationInversionError,
    ProtocolConfig,
    QuantumState,
    SectorMixingError,
    SpinNetwork,
    SpinRegister,
    SwapSpec,
    attach_thermal_qubit,
    binary_entropy,
    cool_step,
    default_grid,
    entropy_accounting,
    estimate_temperature,
    evolve,
    evolve_exact,
    ideal_waiting_schedule,
    optimize_waiting_time,
    partial_swap,
    partial_trace,
    perfect_swap,
    run_protocol,
    temperature_of,
    thermal_populations,
    thermal_product_state,
    trace_distance,
    von_neumann_entropy,
    window_generator,
)
from spinfridge import dynamics, protocol, sectors
from spinfridge.protocol import _exact_population_curve

from conftest import (count_calls, random_blocked_state,
                      random_network_generator)

BAD_COUPLINGS = [0.0, -1.0, math.nan, math.inf]
TIGHT = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)


def chain_generator(n: int, gamma: float = 0.0) -> LindbladGenerator:
    return LindbladGenerator.from_network(
        SpinNetwork.uniform_chain(n, 1.0), gamma)


def cold_mixed_probe(rng, n: int) -> QuantumState:
    """A blocked probe colder than any bath used here, with coherences
    inside each sector: 0.8 chi(2.0)^n + 0.2 (random blocked state)."""
    cold = thermal_product_state([2.0] * n)
    return QuantumState.from_blocks(
        [0.8 * a + 0.2 * b for a, b in
         zip(cold.blocks, random_blocked_state(rng, n).blocks)],
        cold.register)


def mp_sector_propagators(mp, h, gamma, dephased, t):
    """(basis, exp(t L)) per excitation sector of the dense Hamiltonian h,
    in mp arithmetic: L(X) = -i[H, X] + G o X on the vec form X[j, k] ->
    j + d k, with G_jk = -2 Gamma (number of sites in the bit mask
    `dephased` where j and k differ)."""
    dim = len(h)
    out = []
    for l in range(dim.bit_length()):
        b = [i for i in range(dim) if bin(i).count("1") == l]
        d = len(b)
        big = mp.zeros(d * d, d * d)
        for j in range(d):
            for k in range(d):
                r = j + d * k
                big[r, r] = -2 * gamma * bin((b[j] ^ b[k]) & dephased).count("1")
                for m in range(d):
                    big[r, m + d * k] += mp.mpc(0, -h[b[j], b[m]].real)
                    big[r, j + d * m] += mp.mpc(0, h[b[m], b[k]].real)
        out.append((b, mp.expm(mp.mpf(t) * big)))
    return out


def mp_propagate(mp, rho, propagators):
    """Apply `mp_sector_propagators` to the sector blocks of the dense mp
    matrix rho in place (rho has no inter-sector coherence)."""
    for b, e in propagators:
        d = len(b)
        y = e * mp.matrix([rho[b[j], b[k]] for k in range(d)
                           for j in range(d)])
        for j in range(d):
            for k in range(d):
                rho[b[j], b[k]] = y[j + d * k]


class TestProtocolConfig:
    def test_defaults(self):
        cfg = ProtocolConfig(3, 0.2)
        assert cfg.probe_beta_tildes == (math.inf,) * 3
        assert cfg.swap.mode == "perfect"
        assert cfg.steps == 40
        assert cfg.waiting_policy == "optimized"

    def test_bath_entropy(self):
        cfg = ProtocolConfig(2, 0.2)
        assert cfg.bath_entropy == pytest.approx(binary_entropy(0.2),
                                                 abs=1e-15)

    def test_probe_hotter_than_bath_rejected(self):
        with pytest.raises(DomainError):
            ProtocolConfig(2, 0.5, probe_beta_tildes=(0.5, 0.3))

    def test_probe_at_bath_accepted(self):
        cfg = ProtocolConfig(2, 0.5, probe_beta_tildes=(0.5, 0.5))
        assert cfg.probe_beta_tildes == (0.5, 0.5)

    @pytest.mark.parametrize("kwargs", [
        {"probe_size": 0, "bath_beta_tilde": 0.2},
        {"probe_size": 2, "bath_beta_tilde": 0.0},
        {"probe_size": 2, "bath_beta_tilde": math.inf},
        {"probe_size": 2, "bath_beta_tilde": 0.2, "coupling": 0.0},
        {"probe_size": 2, "bath_beta_tilde": 0.2, "dephasing_rate": -1.0},
        {"probe_size": 2, "bath_beta_tilde": 0.2, "dephasing_rate": math.nan},
        {"probe_size": 2, "bath_beta_tilde": 0.2, "dephasing_rate": math.inf},
        {"probe_size": 2, "bath_beta_tilde": 0.2, "steps": -1},
        {"probe_size": 2, "bath_beta_tilde": 0.2, "waiting_policy": "random"},
        {"probe_size": 2, "bath_beta_tilde": 0.2, "fixed_jtau": math.nan},
        {"probe_size": 2, "bath_beta_tilde": 0.2,
         "probe_beta_tildes": (0.9,)},
        {"probe_size": 2, "bath_beta_tilde": 0.2,
         "waiting_policy": "schedule"},
        {"probe_size": 2, "bath_beta_tilde": 0.2, "steps": 3,
         "waiting_policy": "schedule", "tau_schedule": (1.0, 2.0)},
        {"probe_size": 2, "bath_beta_tilde": 0.2, "steps": 2,
         "waiting_policy": "schedule", "tau_schedule": (1.0, -0.5)},
        {"probe_size": 2, "bath_beta_tilde": 0.2, "steps": 2,
         "tau_schedule": (1.0, 2.0)},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            ProtocolConfig(**kwargs)


class TestDefaultGrid:
    def test_span_and_spacing(self):
        grid = default_grid(3)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(3.0, abs=1e-12)
        assert len(grid) == 301
        assert np.allclose(np.diff(grid), 0.01)


class TestAttachThermalQubit:
    def test_joint_register(self):
        probe = thermal_product_state([0.5, 0.5])
        joint = attach_thermal_qubit(probe, 0.2)
        assert joint.register.labels == (0, 1, 2)

    def test_reduced_states_preserved(self):
        probe = thermal_product_state([0.7, 1.4])
        joint = attach_thermal_qubit(probe, 0.2)
        qubit = partial_trace(joint, keep=(0,))
        rest = partial_trace(joint, keep=(1, 2))
        assert temperature_of(qubit).beta_tilde == pytest.approx(0.2,
                                                                 abs=1e-12)
        assert trace_distance(rest, probe) < 1e-13

    def test_blocked_assembly_matches_dense(self, rng):
        probe = random_blocked_state(rng, 3)
        blocked = attach_thermal_qubit(probe, 0.4)
        dense = attach_thermal_qubit(probe.to_dense(), 0.4)
        assert blocked.is_blocked
        assert trace_distance(blocked, dense) < 1e-13

    def test_qubit_slot_must_be_free(self):
        probe = thermal_product_state([0.5])
        joint = attach_thermal_qubit(probe, 0.2)
        with pytest.raises(DomainError):
            attach_thermal_qubit(joint, 0.2)


class TestOptimizeWaitingTime:
    def post_first_swap_probe(self, n: int = 2, bath: float = 0.2):
        """Probe after round 1 of the ideal protocol: site 1 holds chi(bath),
        the rest stay fully polarized."""
        return thermal_product_state([bath] + [math.inf] * (n - 1))

    def test_pure_probe_ties_resolve_to_time_zero(self):
        # A fully polarized probe is stationary: every grid time ties, the
        # earliest (J*tau = 0) must win.
        probe = thermal_product_state([math.inf] * 2)
        jtau, predicted = optimize_waiting_time(probe, chain_generator(2))
        assert jtau == 0.0
        assert math.isinf(predicted.beta_tilde)

    def test_two_site_optimum(self):
        # Round-2 optimum of the ideal N=2 run: a perfect polarization
        # revival would need J*tau = pi/4 ~ 0.785; the 0.01 grid gives 0.79.
        probe = self.post_first_swap_probe()
        jtau, predicted = optimize_waiting_time(probe, chain_generator(2))
        assert jtau == pytest.approx(0.79, abs=1e-12)
        assert predicted.beta_tilde == pytest.approx(10.1744342, abs=1e-6)

    def test_ideal_scan_ignores_dephasing(self):
        # The scan never reads the rate, so the two agree to the last bit.
        probe = self.post_first_swap_probe()
        clean = optimize_waiting_time(probe, chain_generator(2))
        noisy = optimize_waiting_time(probe, chain_generator(2, 0.8))
        assert noisy == clean

    def test_coupling_rescales_physical_time(self):
        probe = self.post_first_swap_probe()
        gen2 = LindbladGenerator.from_network(
            SpinNetwork.uniform_chain(2, 2.0))
        jtau, predicted = optimize_waiting_time(probe, gen2, coupling=2.0)
        assert jtau == pytest.approx(0.79, abs=1e-12)
        assert predicted.beta_tilde == pytest.approx(10.1744342, abs=1e-6)

    @pytest.mark.parametrize("grid", [[], [0.2, 0.1], [-0.5, 0.0],
                                      [0.0, 1.0, 2.0, math.inf],
                                      [0.0, math.nan, 1.0, 2.0]])
    def test_bad_grids_rejected(self, grid):
        probe = self.post_first_swap_probe()
        with pytest.raises(DomainError):
            optimize_waiting_time(probe, chain_generator(2), grid)

    def test_register_mismatch_rejected(self):
        probe = thermal_product_state([math.inf] * 3)
        with pytest.raises(DomainError):
            optimize_waiting_time(probe, chain_generator(2))

    @pytest.mark.parametrize("coupling", BAD_COUPLINGS)
    def test_bad_coupling_rejected(self, coupling):
        with pytest.raises(DomainError, match="coupling"):
            optimize_waiting_time(self.post_first_swap_probe(),
                                  chain_generator(2), coupling=coupling)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("network", [False, True])
    def test_real_scan_matches_complex_phase_sum(self, rng, n, network):
        # The reference is the complex double sum over eigenpairs from a
        # complex eigh of each block: sum_jt v_jt (c @ conj(v))_jt with
        # v = exp(-i D t), c = a o P^T, a = u^dag rho u, P = u^dag diag(b) u,
        # on the chain or on a random all-to-all XXZ network.
        gen = random_network_generator(rng, n, 0.0) if network \
            else chain_generator(n)
        probe = random_blocked_state(rng, n)
        times = default_grid(n)
        expected = np.zeros(times.size)
        for h, block, basis in zip(gen.hamiltonian_blocks(), probe.blocks,
                                   sectors.sector_bases(n)):
            d, u = np.linalg.eigh(h.astype(complex))
            bits = ((basis >> (n - 1)) & 1).astype(float)
            c = (u.conj().T @ block @ u) * (u.conj().T @ (bits[:, None] * u)).T
            v = np.exp(-1j * np.outer(d, times))
            expected += np.einsum("jt,jt->t", v, c @ v.conj()).real
        curve = _exact_population_curve(probe, gen, times)
        # the scan skips (-inf) only times provably out of the maximum's
        # tie set
        exact = np.isfinite(curve)
        assert np.abs(curve[exact] - expected[exact]).max() <= 1e-14
        assert np.all(expected[~exact] < expected.max() - 1e-12)
        assert np.argmax(curve) == np.argmax(expected)

    def test_scan_arrays_are_cached_on_the_generator(self):
        probe = self.post_first_swap_probe(n=4)
        times = np.arange(81) * 0.05
        fresh = _exact_population_curve(probe, chain_generator(4), times)
        gen = chain_generator(4, 0.5)
        cold = _exact_population_curve(probe, gen, times)
        entry = gen._cache["scan"]
        assert entry[0] == times.tobytes()
        warm = _exact_population_curve(probe, gen, times)
        assert np.array_equal(cold, fresh) and np.array_equal(warm, fresh)
        # a second scan on the same grid reads the entry, no rebuild
        assert gen._cache["scan"] is entry
        # the cache keeps one grid: a new grid replaces it, and the old grid
        # is rebuilt
        other = times + 0.01
        _exact_population_curve(probe, gen, other)
        assert gen._cache["scan"][0] == other.tobytes()
        _exact_population_curve(probe, gen, times)
        assert gen._cache["scan"][0] == times.tobytes()
        assert gen._cache["scan"] is not entry


def full_scan(probe, gen, grid):
    """The full-grid scan the certified one must reproduce: p1 at every grid
    time by the real phase sum, then the earliest time within 1e-12 of the
    maximum. Returns (index, p1 there, curve)."""
    n = probe.register.count
    times = np.asarray(grid, dtype=float)
    t = times.size
    curve = np.zeros(t)
    for (d, u), block, basis in zip(gen.block_eigensystems(), probe.blocks,
                                    sectors.sector_bases(n)):
        bits = ((basis >> (n - 1)) & 1).astype(float)
        c = (u.conj().T @ block @ u) * (u.conj().T @ (bits[:, None] * u)).T
        cs = np.hstack([np.cos(np.outer(d, times)),
                        np.sin(np.outer(d, times))])
        both = np.einsum("jt,jt->t", cs, c.real @ cs)
        curve += both[:t] + both[t:] + 2 * np.einsum(
            "jt,jt->t", cs[:, t:], c.imag @ cs[:, :t])
    index = int(np.argmax(curve >= curve.max() - 1e-12))
    return index, curve[index], curve


def random_grid(rng, kind: str, n: int, size: int | None = None):
    """The default grid, a dense random one, or a sparse random one whose
    coarse points sit about 0.9 apart, where the curvature term decides."""
    if kind == "uniform":
        grid = default_grid(n)
        return grid if size is None else grid[:size]
    low, high, most = (0.001, 0.05, 700) if kind == "random" \
        else (0.02, 0.2, 100)
    size = int(rng.integers(1, most)) if size is None else size
    return np.cumsum(rng.uniform(low, high, size)) - low


class TestCertifiedScan:
    """The coarse-to-fine scan evaluates only the grid times its curvature
    bound cannot rule out, and must pick the full scan's wait."""

    @pytest.mark.parametrize("kind", ["chain", "network"])
    @pytest.mark.parametrize("grid_kind", ["uniform", "random", "sparse"])
    def test_wait_matches_full_scan(self, rng, kind, grid_kind):
        for _ in range(12):
            n = int(rng.integers(2, 9))
            gen = random_network_generator(rng, n, 0.0) if kind == "network" \
                else chain_generator(n)
            probe = random_blocked_state(rng, n)
            grid = random_grid(rng, grid_kind, n)
            index, p1, curve = full_scan(probe, gen, grid)
            if p1 < 0.5:
                with pytest.raises(PopulationInversionError):
                    optimize_waiting_time(probe, gen, grid)
            else:
                jtau, predicted = optimize_waiting_time(probe, gen, grid)
                assert jtau == grid[index]
                assert predicted.beta_tilde == pytest.approx(
                    math.log(p1 / (1 - p1)), rel=1e-13)
            # the certificate: exact where evaluated (BLAS may round a
            # column subset differently), and every skipped time lies below
            # the maximum by more than the tie tolerance
            pruned = _exact_population_curve(probe, gen, grid)
            exact = np.isfinite(pruned)
            assert np.abs(pruned[exact] - curve[exact]).max() <= 1e-14
            assert np.all(curve[~exact] < curve.max() - 1e-12)

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("grid_kind", ["uniform", "random"])
    def test_tiny_grids(self, rng, size, grid_kind):
        for kind in ("chain", "network"):
            gen = random_network_generator(rng, 4, 0.0) if kind == "network" \
                else chain_generator(4)
            probe = cold_mixed_probe(rng, 4)
            grid = random_grid(rng, grid_kind, 4, size)
            index, _, _ = full_scan(probe, gen, grid)
            assert optimize_waiting_time(probe, gen, grid)[0] == grid[index]

    @pytest.mark.parametrize("kind", ["chain", "network"])
    def test_stationary_probe_is_evaluated_everywhere(self, rng, kind):
        # A uniform thermal product commutes with H: p1 is flat, every grid
        # time ties with the maximum, so none may be skipped.
        for n in (2, 4, 6):
            gen = random_network_generator(rng, n, 0.0) if kind == "network" \
                else chain_generator(n)
            probe = thermal_product_state([0.3] * n)
            pruned = _exact_population_curve(probe, gen, default_grid(n))
            assert np.isfinite(pruned).all()

    def test_population_inversion_still_raises(self):
        # Sites excited with probability 0.1-0.3: under the XX chain the end
        # spin's excitation stays a mixture of these, below 1/2 throughout.
        n = 4
        excited = np.array([0.1, 0.2, 0.3, 0.2])
        blocks = []
        for basis in sectors.sector_bases(n):
            bits = (basis[:, None] >> np.arange(n - 1, -1, -1)) & 1
            diag = np.prod(np.where(bits, excited, 1 - excited), axis=1)
            blocks.append(np.diag(diag).astype(complex))
        probe = QuantumState.from_blocks(blocks, SpinRegister.of_size(n))
        with pytest.raises(PopulationInversionError):
            optimize_waiting_time(probe, chain_generator(n))

    @pytest.mark.parametrize("delta, earlier", [(5e-7, True), (1e-6, False)])
    def test_near_tie_resolves_by_the_tolerance(self, delta, earlier):
        # The two-site revival peaks at J*tau = pi/4 and 3pi/4 with equal
        # height. Slightly off the first peak, the first time falls short of
        # the second by 1.8 delta^2: 4.5e-13 ties (the earlier time wins),
        # 1.8e-12 does not. Both times sit between coarse points.
        probe = thermal_product_state([0.2, math.inf])
        gen = chain_generator(2)
        first, second = math.pi / 4 + delta, 3 * math.pi / 4
        grid = np.sort(np.concatenate([np.arange(301) * 0.01,
                                       [first, second]]))
        _, _, curve = full_scan(probe, gen, grid)
        i, j = np.searchsorted(grid, [first, second])
        assert i % protocol._SCAN_STRIDE and j % protocol._SCAN_STRIDE
        assert np.argmax(curve) == j
        assert (0 < curve[j] - curve[i] < 1e-12) == earlier
        jtau, _ = optimize_waiting_time(probe, gen, grid)
        assert jtau == (first if earlier else second)

    def test_cached_table_holds_the_coarse_columns_only(self):
        # N = 10: 1,001 grid times, so the full scan's table had 2,002
        # cos/sin columns (16 MiB); the coarse pass keeps one in every m.
        n = 10
        gen = chain_generator(n)
        probe = thermal_product_state([0.2] + [math.inf] * (n - 1))
        optimize_waiting_time(probe, gen)
        tables = [cs for _, cs in gen._cache["scan"][1]]
        m = protocol._SCAN_STRIDE
        assert max(cs.shape[1] for cs in tables) \
            <= 2 * math.ceil(1001 / m) + 2
        assert sum(cs.nbytes for cs in tables) < 2 * 2 ** 20


class TestCoolStep:
    def test_stationary_probe_emits_at_bath(self):
        # Several of these cases read the emitted beta_tilde a rounding bit
        # away from the bath; eta must still be exactly zero.
        for n in (2, 3, 4, 5):
            probe = thermal_product_state([0.2] * n)
            gen = chain_generator(n)
            for tau in (0.0, 0.7, 1.3, 2.9):
                next_probe, qubit, record = cool_step(
                    probe, 0.2, gen, SwapSpec.perfect(), tau=tau)
                assert record.qubit_out.beta_tilde == pytest.approx(
                    0.2, abs=1e-12)
                assert record.eta == 0.0
                assert trace_distance(next_probe, probe) < 1e-12

    def test_pure_probe_first_step(self):
        probe = thermal_product_state([math.inf] * 2)
        _, qubit, record = cool_step(
            probe, 0.2, chain_generator(2), SwapSpec.perfect(), tau=0.0)
        assert math.isinf(record.qubit_out.beta_tilde)
        assert record.eta == 1.0
        assert record.qubit_entropy_drop == pytest.approx(
            binary_entropy(0.2), abs=1e-12)

    def test_negative_tau_rejected(self):
        probe = thermal_product_state([0.2])
        with pytest.raises(DomainError):
            cool_step(probe, 0.2, chain_generator(1), SwapSpec.perfect(), -1.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        probe = thermal_product_state([0.3, 1.0, 2.0])
        with pytest.raises(DomainError):
            cool_step(probe, 0.2, chain_generator(3), SwapSpec.perfect(), tau)

    @pytest.mark.parametrize("coupling", BAD_COUPLINGS)
    def test_bad_coupling_rejected(self, coupling):
        probe = thermal_product_state([0.3, 1.0, 2.0])
        with pytest.raises(DomainError, match="coupling"):
            cool_step(probe, 0.2, chain_generator(3), SwapSpec.perfect(),
                      0.5, coupling=coupling)

    def test_unset_window_rate_is_the_generators(self):
        # A window dephases at the waits' rate, whether the round is called
        # directly or by run_protocol: both give the same bits, at the
        # 30-digit eta of the dephased round, which a round at rate 0 misses
        # by more than 1e-6.
        n = 3
        probe = thermal_product_state([2.0] * n)
        _, _, direct = cool_step(
            probe, 0.2, chain_generator(n, 0.5), SwapSpec.partial(5.0), 0.7)
        report = run_protocol(ProtocolConfig(
            n, 0.2, dephasing_rate=0.5, probe_beta_tildes=(2.0,) * n,
            swap=SwapSpec.partial(5.0), steps=1, waiting_policy="fixed",
            fixed_jtau=0.7))
        run = report.records[0]
        assert direct.eta == run.eta
        assert abs(run.eta - 0.89242140930555662040) <= 1e-13
        _, _, coherent = cool_step(
            probe, 0.2, chain_generator(n), SwapSpec.partial(5.0), 0.7)
        assert abs(coherent.eta - run.eta) > 1e-6
        assert direct.probe_entropy == run.probe_entropy
        assert direct.distance_to_pseudothermal \
            == run.distance_to_pseudothermal

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("strength", [1.7, 5.0])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_direct_round_is_run_protocols(self, n, strength, gamma):
        # The window is the probe generator's, so a direct round and
        # run_protocol's record the same bits: probe couplings, rate and
        # all. (With the window stated apart from the generator, a direct
        # N = 3, J_I = 5 round at Gamma = 0 left the couplings out and read
        # eta = 0.9973175757749004 against the run's 0.9627622064383512.)
        swap = SwapSpec.partial(strength)
        _, _, direct = cool_step(thermal_product_state([math.inf] * n), 0.2,
                                 chain_generator(n, gamma), swap, 0.7)
        report = run_protocol(ProtocolConfig(
            n, 0.2, dephasing_rate=gamma, swap=swap, steps=1,
            waiting_policy="fixed", fixed_jtau=0.7))
        assert replace(direct, index=1) == report.records[0]

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_window_is_kept_on_the_generator(self, monkeypatch, gamma):
        # Rounds on one generator build its window once and keep what they
        # read of it: a coherent window's quadrants B[q'][q] per joint
        # sector L (probe sectors L - q' by L - q, zero-size past either
        # end), or a dephased window's generator. A new swap replaces the
        # entry.
        calls = count_calls(monkeypatch, ((protocol, "window_generator"),))
        gen = chain_generator(3, gamma)
        probe = thermal_product_state([2.0] * 3)
        for strength in (5.0, 5.0, 5.0, 1.7):
            probe, _, _ = cool_step(probe, 0.2, gen,
                                    SwapSpec.partial(strength), 0.7)
        assert calls["window_generator"] == 2
        key, kept = gen._cache["window"]
        assert key == SwapSpec.partial(1.7)
        if gamma:
            assert isinstance(kept, LindbladGenerator)
        else:
            sizes = (1, 3, 3, 1, 0)  # C(3, l); sizes[-1] is l = -1's
            assert [[[b.shape for b in row] for row in quads]
                    for quads in kept] == [
                [[(sizes[big_l - r], sizes[big_l - c]) for c in (0, 1)]
                 for r in (0, 1)] for big_l in range(5)]

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_site_reset_matches_attach_swap_trace(self, rng, n, gamma,
                                                  dense):
        # A perfect swap plus the detach re-prepares site 1 in chi(bath).
        # Reference: the explicit joint register, swapped and traced.
        bath, tau = 0.3, 0.7
        probe = cold_mixed_probe(rng, n)
        if dense:
            probe = probe.to_dense()
        gen = chain_generator(n, gamma)
        next_probe, qubit, record = cool_step(probe, bath, gen,
                                              SwapSpec.perfect(), tau)

        waited = evolve_exact(probe, gen, tau)
        swapped = perfect_swap(attach_thermal_qubit(waited, bath), 0, 1)
        ref_probe = partial_trace(swapped, keep=probe.register.labels)
        ref_qubit = partial_trace(swapped, keep=(0,))
        assert next_probe.register == ref_probe.register
        assert qubit.register == ref_qubit.register
        assert np.abs(next_probe.matrix - ref_probe.matrix).max() <= 1e-15
        assert np.abs(qubit.matrix - ref_qubit.matrix).max() <= 1e-15
        assert record.probe_entropy == pytest.approx(
            von_neumann_entropy(ref_probe), abs=1e-13)
        assert record.distance_to_pseudothermal == pytest.approx(
            trace_distance(ref_probe, thermal_product_state([bath] * n)),
            abs=1e-13)

    @staticmethod
    def joint_register_round(probe, bath, gen, spec, tau):
        """Reference round: wait as `cool_step` waits (`evolve_exact`),
        attach, evolve the joint register (a dephased window by RKF45 at
        rel_tol 1e-13), two partial traces."""
        waited = evolve_exact(probe, gen, tau) if tau else probe
        joint = attach_thermal_qubit(waited, bath)
        if gen.dephasing_rate:
            swapped = evolve(joint, window_generator(
                gen.network, gen.dephasing_rate, spec),
                spec.window_duration, TIGHT)
        else:
            swapped = partial_swap(joint, gen, spec)
        return (partial_trace(swapped, keep=probe.register.labels),
                partial_trace(swapped, keep=(0,)))

    @pytest.mark.parametrize("strength", [1.7, 5.0, 20.0])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_window_round_matches_joint_register(self, rng, n, strength):
        # A coherent window on a blocked probe is applied as Kraus blocks on
        # the probe's sectors; the joint register is the reference.
        bath = 0.3
        gen = chain_generator(n)
        spec = SwapSpec.partial(strength)
        mixed = cold_mixed_probe(rng, n)
        reference = thermal_product_state([bath] * n)
        for probe in (thermal_product_state([0.7] * n), mixed):
            for tau in (0.0, 0.7, 2.9):
                next_probe, qubit, record = cool_step(probe, bath, gen, spec,
                                                      tau)
                ref_probe, ref_qubit = self.joint_register_round(
                    probe, bath, gen, spec, tau)
                assert next_probe.is_blocked and qubit.is_blocked
                assert next_probe.register == ref_probe.register
                assert qubit.register == ref_qubit.register
                for got, want in zip(next_probe.blocks + qubit.blocks,
                                     ref_probe.blocks + ref_qubit.blocks):
                    assert np.abs(got - want).max() <= 1e-14
                assert record.probe_entropy == pytest.approx(
                    von_neumann_entropy(ref_probe), abs=1e-13)
                assert record.distance_to_pseudothermal == pytest.approx(
                    trace_distance(ref_probe, reference), abs=1e-13)

        # A dephased window evolves the joint sector blocks exactly; the
        # reference is the joint register under tight RKF45.
        dephased = chain_generator(n, 0.3)
        next_probe, qubit, record = cool_step(mixed, bath, dephased, spec, 0.7)
        ref_probe, ref_qubit = self.joint_register_round(
            mixed, bath, dephased, spec, 0.7)
        assert next_probe.is_blocked and qubit.is_blocked
        for got, want in zip(next_probe.blocks + qubit.blocks,
                             ref_probe.blocks + ref_qubit.blocks):
            assert np.abs(got - want).max() <= 1e-12
        assert record.probe_entropy == pytest.approx(
            von_neumann_entropy(ref_probe), abs=1e-12)

    @pytest.mark.parametrize("strength", [1.7, 5.0])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_window_round_on_empty_sectors_matches_joint_register(
            self, monkeypatch, n, strength):
        # A polarized probe fills sector 0 only and each round adds at most
        # one excitation, so its first rounds skip the empty sectors: no
        # product and no eigvalsh on them. The joint register is the
        # reference, round after round.
        bath, gen, spec = 0.3, chain_generator(n), SwapSpec.partial(strength)
        zero_spectra = []
        eigvalsh = np.linalg.eigvalsh

        def spying(b):
            # the emitted qubit's 1 x 1 blocks reach eigvalsh through
            # von_neumann_entropy, and a qubit can be exactly polarized
            zero_spectra.append(len(b) > 1 and not b.any())
            return eigvalsh(b)

        probe = thermal_product_state([math.inf] * n)
        for tau in (0.0, 0.7, 2.9):
            ref_probe, ref_qubit = self.joint_register_round(
                probe, bath, gen, spec, tau)
            monkeypatch.setattr(np.linalg, "eigvalsh", spying)
            next_probe, qubit, record = cool_step(probe, bath, gen, spec, tau)
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
            for got, want in zip(next_probe.blocks + qubit.blocks,
                                 ref_probe.blocks + ref_qubit.blocks):
                assert np.abs(got - want).max() <= 1e-14
            assert record.probe_entropy == pytest.approx(
                von_neumann_entropy(ref_probe), abs=1e-13)
            if tau == 0.0:  # round 1 fills sectors 0 and 1 only
                assert sum(not b.any() for b in next_probe.blocks) == n - 1
            probe = next_probe
        assert zero_spectra and not any(zero_spectra)

    def test_window_round_matches_extended_precision(self, rng):
        # One window round on a three-site probe, with exp(-i t H_w) and both
        # partial traces taken in 30-digit arithmetic on the dense 16 x 16
        # joint register.
        mp = mpmath.mp.clone()
        mp.dps = 30
        n, bath = 3, 0.3
        net = SpinNetwork.uniform_chain(n, 1.0)
        spec = SwapSpec.partial(5.0)
        probe = cold_mixed_probe(rng, n)
        h = dynamics.xxz_network_hamiltonian(SpinNetwork(
            SpinRegister.with_qubit(n), {(0, 1): 5.0, **net.couplings}))
        w = mp.expm(-1j * mp.mpf(spec.window_duration) * mp.matrix(
            [[mp.mpc(complex(x)) for x in row] for row in h]))
        p0, p1 = thermal_populations(bath)
        rho = np.kron(np.diag([p0, p1]), probe.matrix)
        joint = w * mp.matrix(rho.tolist()) * w.H
        dim = 1 << n
        want_probe = np.array([[complex(joint[i, j] + joint[dim + i, dim + j])
                                for j in range(dim)] for i in range(dim)])
        want_p1 = float(mp.re(sum(joint[dim + i, dim + i]
                                  for i in range(dim))))

        gen = chain_generator(n)
        kraus_probe, kraus_qubit, _ = cool_step(probe, bath, gen, spec, 0.0)
        ref_probe, ref_qubit = self.joint_register_round(probe, bath, gen,
                                                         spec, 0.0)
        for got_probe, got_qubit in ((kraus_probe, kraus_qubit),
                                     (ref_probe, ref_qubit)):
            assert np.abs(got_probe.matrix - want_probe).max() <= 1e-14
            assert abs(got_qubit.matrix[1, 1] - want_p1) <= 1e-14

    def test_dephased_window_rounds_match_extended_precision(self, rng):
        # Three rounds of a three-site probe at fixed J tau = 1, dephased at
        # Gamma = 0.3, each ending in a J_I = 5 window, replayed in 30-digit
        # arithmetic: the wait by the exponential of each probe sector's
        # Liouvillian, the window by that of each sector of the dense
        # 4-site joint register (at most 36 x 36; the qubit, the most
        # significant bit, does not dephase), then both partial traces.
        # Every route is exact, so the next probe and the emitted qubit hold
        # to 1e-13 round after round.
        mp = mpmath.mp.clone()
        mp.dps = 30
        n, bath, gamma, tau = 3, 0.3, 0.3, 1.0
        dim = 1 << n
        net = SpinNetwork.uniform_chain(n, 1.0)
        spec = SwapSpec.partial(5.0)
        wait = mp_sector_propagators(
            mp, dynamics.xxz_network_hamiltonian(net), gamma, dim - 1, tau)
        window = mp_sector_propagators(mp, dynamics.xxz_network_hamiltonian(
            SpinNetwork(SpinRegister.with_qubit(n),
                        {(0, 1): 5.0, **net.couplings})),
            gamma, dim - 1, spec.window_duration)
        p1 = mp.exp(bath) / (1 + mp.exp(bath))
        pops = (1 - p1, p1)

        gen = chain_generator(n, gamma)
        probe = cold_mixed_probe(rng, n)
        rho = mp.matrix([[mp.mpc(complex(x)) for x in row]
                         for row in probe.matrix])
        for _ in range(3):
            probe, qubit, _ = cool_step(probe, bath, gen, spec, tau)
            mp_propagate(mp, rho, wait)
            joint = mp.zeros(2 * dim, 2 * dim)
            for a, p in enumerate(pops):
                for i in range(dim):
                    for j in range(dim):
                        joint[a * dim + i, a * dim + j] = p * rho[i, j]
            mp_propagate(mp, joint, window)
            rho = mp.matrix([[joint[i, j] + joint[dim + i, dim + j]
                              for j in range(dim)] for i in range(dim)])
            want_probe = np.array([[complex(x) for x in row]
                                   for row in rho.tolist()])
            want_p1 = float(mp.re(sum(joint[dim + i, dim + i]
                                      for i in range(dim))))
            assert np.abs(probe.matrix - want_probe).max() <= 1e-13
            assert abs(qubit.matrix[1, 1] - want_p1) <= 1e-13


SWAPS = {"perfect": SwapSpec.perfect(), "partial": SwapSpec.partial(5.0)}


class TestSectorBlockedRounds:
    """A round's state is sector-blocked: dense probes are decomposed on
    entry, and inter-sector coherence is rejected before anything evolves."""

    @staticmethod
    def coherent_probe(pair: tuple[int, int]) -> QuantumState:
        """chi(2.0)^3 with a 1e-3 coherence between two basis states of
        different sectors; still a valid state."""
        rho = thermal_product_state([2.0] * 3).matrix.copy()
        i, j = pair
        rho[i, j] = rho[j, i] = 1e-3
        return QuantumState.from_dense(rho)

    @pytest.mark.parametrize("pair", [(0, 1), (0, 3)],
                             ids=["adjacent", "two_apart"])
    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("swap", SWAPS.values(), ids=SWAPS.keys())
    def test_intersector_coherence_rejected_before_evolution(
            self, monkeypatch, pair, gamma, swap):
        # |000> is sector 0, |001> sector 1 and |011> sector 2.
        probe = self.coherent_probe(pair)
        calls = count_calls(monkeypatch, (
            (protocol, "evolve_exact"), (dynamics, "evolve_exact"),
            (dynamics, "evolve")))
        with pytest.raises(SectorMixingError):
            cool_step(probe, 0.2, chain_generator(3, gamma), swap, 0.7)
        policies = ({}, {"waiting_policy": "fixed"},
                    {"waiting_policy": "schedule", "tau_schedule": (0.7,)})
        for policy in policies:
            cfg = ProtocolConfig(probe_size=3, bath_beta_tilde=0.2, steps=1,
                                 dephasing_rate=gamma, swap=swap, **policy)
            with pytest.raises(SectorMixingError):
                run_protocol(cfg, initial_probe=probe)
        assert sum(calls.values()) == 0

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("swap", SWAPS.values(), ids=SWAPS.keys())
    @pytest.mark.parametrize("n", range(1, 6))
    def test_dense_probe_matches_its_blocked_twin(self, rng, n, gamma, swap):
        # A coherence-free dense probe is decomposed on entry, so it takes
        # the blocked twin's route bit for bit.
        probe = cold_mixed_probe(rng, n)
        gen = chain_generator(n, gamma)
        for tau in (0.0, 0.7):
            blocked = cool_step(probe, 0.3, gen, swap, tau)
            dense = cool_step(probe.to_dense(), 0.3, gen, swap, tau)
            for got, want in zip(dense[:2], blocked[:2]):
                assert got.is_blocked and got.register == want.register
                assert all(np.array_equal(a, b)
                           for a, b in zip(got.blocks, want.blocks))
            assert dense[2] == blocked[2]
        cfg = ProtocolConfig(probe_size=n, bath_beta_tilde=0.3, steps=3,
                             dephasing_rate=gamma, swap=swap)
        blocked = run_protocol(cfg, initial_probe=probe)
        dense = run_protocol(cfg, initial_probe=probe.to_dense())
        assert dense.records == blocked.records
        assert (dense.initial_probe_entropy, dense.initial_distance) == \
            (blocked.initial_probe_entropy, blocked.initial_distance)
        assert all(np.array_equal(a, b) for a, b in
                   zip(dense.final_probe.blocks, blocked.final_probe.blocks))


class TestRunProtocol:
    @pytest.mark.parametrize("swap", [SwapSpec.perfect(),
                                      SwapSpec.partial(5.0)])
    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_protocol_path_stays_blocked(self, monkeypatch, swap, gamma):
        # Every generator and state on the protocol path is sector-blocked;
        # the one dense matrix built is the emitted qubit's 2x2 read-out.
        largest = []
        scatter = sectors.scatter_blocks

        def recording(blocks, n):
            largest.append(n)
            return scatter(blocks, n)

        monkeypatch.setattr(sectors, "scatter_blocks", recording)
        cfg = ProtocolConfig(probe_size=6, bath_beta_tilde=0.2, steps=2,
                             dephasing_rate=gamma, swap=swap)
        report = run_protocol(cfg)
        assert len(report.records) == 2
        assert largest and max(largest) <= 1

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_perfect_swap_run_builds_no_joint_register(self, monkeypatch,
                                                        gamma):
        calls = count_calls(monkeypatch, ((dynamics, "perfect_swap"),
                                          (protocol, "attach_thermal_qubit"),
                                          (protocol, "partial_trace"),
                                          (dynamics, "rkf45")))
        # a perfect_swap bound into the protocol module is counted too
        monkeypatch.setattr(protocol, "perfect_swap", dynamics.perfect_swap,
                            raising=False)
        cfg = ProtocolConfig(probe_size=5, bath_beta_tilde=0.2, steps=6,
                             dephasing_rate=gamma)
        run_protocol(cfg)
        assert calls["perfect_swap"] == calls["attach_thermal_qubit"] == 0
        assert calls["partial_trace"] == 2 * cfg.steps
        # every wait is exact, dephased or not
        assert calls["rkf45"] == 0

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_window_run_builds_no_joint_register(self, monkeypatch, gamma):
        # A coherent window is applied as Kraus blocks on the probe; a
        # dephased one evolves the joint sector blocks exactly. Neither
        # attaches, swaps or traces a register.
        calls = count_calls(monkeypatch, (
            (protocol, "attach_thermal_qubit"), (dynamics, "partial_swap"),
            (protocol, "partial_trace"), (dynamics, "rkf45")))
        cfg = ProtocolConfig(probe_size=5, bath_beta_tilde=0.2, steps=6,
                             dephasing_rate=gamma, swap=SwapSpec.partial(5.0))
        run_protocol(cfg)
        assert calls["attach_thermal_qubit"] == calls["partial_swap"] == 0
        assert calls["partial_trace"] == 0
        # every wait is exact, dephased or not
        assert calls["rkf45"] == 0

    def test_coherent_window_run_makes_no_evolve_exact_call(self,
                                                            monkeypatch):
        # A coherent window and the wait before it are one Kraus map on
        # the rotated probe: no round evolves, rotates back or builds the
        # window's sector unitaries.
        calls = count_calls(monkeypatch, (
            (protocol, "evolve_exact"), (dynamics, "evolve_exact"),
            (LindbladGenerator, "blocked_propagators")))
        cfg = ProtocolConfig(probe_size=5, bath_beta_tilde=0.2, steps=6,
                             swap=SwapSpec.partial(5.0),
                             waiting_policy="fixed")
        report = run_protocol(cfg)
        assert len(report.records) == cfg.steps
        assert calls["evolve_exact"] == calls["blocked_propagators"] == 0

    def test_ideal_run_rotates_once_per_round(self, monkeypatch):
        # The scan rotates each probe into the eigenbasis; the wait that
        # follows reads the same rotation (a zero wait skips evolve_exact).
        returned = []
        rotated = LindbladGenerator._rotated

        def spying(gen, state):
            returned.append(rotated(gen, state))
            return returned[-1]

        monkeypatch.setattr(LindbladGenerator, "_rotated", spying)
        cfg = ProtocolConfig(probe_size=5, bath_beta_tilde=0.2, steps=6)
        report = run_protocol(cfg)
        waits = sum(r.wait_jtau > 0 for r in report.records)
        assert waits >= cfg.steps - 1
        assert len(returned) == cfg.steps + waits
        assert len({id(r) for r in returned}) == cfg.steps

    def test_equal_state_is_rotated_afresh(self, rng):
        gen = chain_generator(4)
        state = random_blocked_state(rng, 4)
        twin = QuantumState.from_blocks(state.blocks, state.register)
        first = gen._rotated(state)
        assert gen._rotated(state) is first
        again = gen._rotated(twin)
        assert again is not first
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert gen._rotated(state) is not first

    def test_dephased_waits_never_read_the_memo(self, monkeypatch):
        # At Gamma > 0 the waits take the Chebyshev action, not the rotation
        # memo; only the coherent scans rotate.
        reads, waiting = [], []
        rotated = LindbladGenerator._rotated
        evolve_wait = protocol.evolve_exact

        def spying(gen, state):
            reads.append(bool(waiting))
            return rotated(gen, state)

        def wait(*args, **kwargs):
            waiting.append(True)
            try:
                return evolve_wait(*args, **kwargs)
            finally:
                waiting.pop()

        monkeypatch.setattr(LindbladGenerator, "_rotated", spying)
        monkeypatch.setattr(protocol, "evolve_exact", wait)
        calls = count_calls(monkeypatch, ((dynamics, "rkf45"),
                                          (protocol, "evolve_exact")))
        cfg = ProtocolConfig(probe_size=5, bath_beta_tilde=0.2, steps=6,
                             dephasing_rate=0.3)
        report = run_protocol(cfg)
        assert reads == [False] * cfg.steps
        assert calls["evolve_exact"] == sum(r.wait_jtau > 0
                                            for r in report.records) > 0
        assert calls["rkf45"] == 0

    def test_two_site_ideal_run(self):
        report = run_protocol(ProtocolConfig(2, 0.2, steps=3))
        # step 1: the polarized probe hands out a pure qubit
        assert report.records[0].eta == pytest.approx(1.0, abs=1e-12)
        assert report.records[0].wait_jtau == 0.0
        # step 2: optimal revival on the 0.01 grid (J*tau = 0.79)
        assert report.records[1].wait_jtau == pytest.approx(0.79, abs=1e-12)
        assert report.records[1].eta == pytest.approx(0.980342887272,
                                                      abs=1e-9)
        # analytic baselines
        p0, p1 = thermal_populations(0.2)
        assert report.initial_distance == pytest.approx(1.0 - p1 ** 2,
                                                        abs=1e-12)
        assert report.records[0].distance_to_pseudothermal \
            == pytest.approx(p0, abs=1e-12)
        assert report.records[0].probe_entropy \
            == pytest.approx(binary_entropy(0.2), abs=1e-12)

    def test_optimized_waits_at_the_grid_edge_are_flagged(self):
        # The headline N = 10, K = 40 run waits the whole scan window,
        # J*tau = N, in rounds 20 and 22.
        report = run_protocol(ProtocolConfig(10, 0.2, steps=40))
        edge = [r.index for r in report.records if r.at_grid_edge is True]
        assert edge == [20, 22]
        assert edge == [r.index for r in report.records if r.wait_jtau == 10]
        fixed = run_protocol(ProtocolConfig(
            3, 0.2, steps=2, waiting_policy="fixed", fixed_jtau=3.0))
        assert not any(r.at_grid_edge for r in fixed.records)

    def test_report_array_properties(self):
        report = run_protocol(ProtocolConfig(2, 0.3, steps=4))
        assert report.etas.shape == (4,)
        assert report.distances.shape == (4,)
        assert report.probe_entropies.shape == (4,)
        drops = report.cumulative_entropy_drop
        assert drops.shape == (4,)
        assert np.all(np.diff(drops) >= -1e-12)
        assert [r.index for r in report.records] == [1, 2, 3, 4]

    def test_fixed_waiting_policy(self):
        report = run_protocol(ProtocolConfig(
            2, 0.2, steps=3, waiting_policy="fixed", fixed_jtau=1.0))
        assert all(r.wait_jtau == pytest.approx(1.0, abs=1e-15)
                   for r in report.records)

    def test_fixed_policy_never_beats_optimized(self):
        base = dict(probe_size=3, bath_beta_tilde=0.2, steps=6)
        optimized = run_protocol(ProtocolConfig(**base))
        fixed = run_protocol(ProtocolConfig(
            **base, waiting_policy="fixed", fixed_jtau=1.0))
        # The grid scan maximizes each emission's polarization, so its
        # total entropy extraction dominates the fixed schedule.
        assert optimized.cumulative_entropy_drop[-1] \
            >= fixed.cumulative_entropy_drop[-1] - 1e-9

    def test_schedule_policy_replays_optimized_run(self):
        base = dict(probe_size=2, bath_beta_tilde=0.2, steps=3)
        optimized = run_protocol(ProtocolConfig(**base))
        taus = tuple(r.wait_jtau for r in optimized.records)
        replayed = run_protocol(ProtocolConfig(
            **base, waiting_policy="schedule", tau_schedule=taus))
        assert tuple(r.wait_jtau for r in replayed.records) == taus
        assert np.array_equal(replayed.etas, optimized.etas)

    def test_ideal_waiting_schedule_strips_noise(self):
        noisy = ProtocolConfig(2, 0.2, steps=3, dephasing_rate=0.4,
                               swap=SwapSpec(mode="partial",
                                             interaction_strength=5.0))
        clean = ProtocolConfig(2, 0.2, steps=3)
        schedule = ideal_waiting_schedule(noisy)
        assert schedule == tuple(
            r.wait_jtau for r in run_protocol(clean).records)
        # and the schedule is usable on the noisy config itself
        replay = run_protocol(ProtocolConfig(
            2, 0.2, steps=3, dephasing_rate=0.4,
            waiting_policy="schedule", tau_schedule=schedule))
        assert len(replay.records) == 3

    def test_zero_steps(self):
        report = run_protocol(ProtocolConfig(2, 0.2, steps=0))
        assert report.records == ()
        assert report.initial_probe_entropy == pytest.approx(0.0, abs=1e-12)

    def test_thermal_start_stays_thermal(self):
        report = run_protocol(ProtocolConfig(
            2, 0.4, steps=3, probe_beta_tildes=(0.4, 0.4)))
        assert all(abs(r.eta) < 1e-12 for r in report.records)
        assert all(r.distance_to_pseudothermal < 1e-12
                   for r in report.records)

    def test_dephasing_degrades_entropy_extraction(self):
        clean = run_protocol(ProtocolConfig(2, 0.2, steps=5))
        noisy = run_protocol(ProtocolConfig(2, 0.2, steps=5,
                                            dephasing_rate=0.5))
        # step 1 is identical (the polarized probe is dephasing-invariant)
        assert noisy.records[0].eta == pytest.approx(1.0, abs=1e-12)
        assert noisy.records[1].eta < clean.records[1].eta
        # from step 2 on the noisy run has strictly extracted less in total
        clean_total = clean.cumulative_entropy_drop
        noisy_total = noisy.cumulative_entropy_drop
        assert noisy_total[0] == pytest.approx(clean_total[0], abs=1e-12)
        assert np.all(noisy_total[1:] < clean_total[1:])

    @pytest.mark.parametrize("policy", ["fixed", "optimized"])
    def test_dephased_run_matches_extended_precision(self, policy):
        # Six dephased rounds of a polarized three-site probe, replayed in
        # 30-digit arithmetic at the package's own waits. Each sector block
        # waits by the exponential of its Liouvillian L(X) = -i[H_l, X] +
        # G o X, G_jk = -2 Gamma (number of sites where j and k differ);
        # the site reset is chi(bath) (x) Tr_1 on the dense 8 x 8 state.
        # Every wait is exact, so eta_k, entropy and distance hold to 1e-13.
        mp = mpmath.mp.clone()
        mp.dps = 30
        n, bath, gamma = 3, 0.2, 0.5
        report = run_protocol(ProtocolConfig(
            probe_size=n, bath_beta_tilde=bath, steps=6, dephasing_rate=gamma,
            waiting_policy=policy))
        dim, half = 1 << n, 1 << (n - 1)
        h = dynamics.xxz_network_hamiltonian(SpinNetwork.uniform_chain(n, 1.0))
        bases = [[i for i in range(dim) if bin(i).count("1") == l]
                 for l in range(n + 1)]
        p1 = mp.exp(bath) / (1 + mp.exp(bath))
        pops = (1 - p1, p1)
        rho = mp.zeros(dim, dim)
        rho[dim - 1, dim - 1] = 1   # every site |1>: beta_tilde = +inf
        for record in report.records:
            mp_propagate(mp, rho, mp_sector_propagators(
                mp, h, gamma, dim - 1, record.wait_jtau))
            q1 = sum(rho[half + i, half + i].real for i in range(half))
            q0 = 1 - q1
            eta = 1 - bath / mp.log(q1 / q0) if q0 else mp.mpf(1)
            rest = [[rho[i, j] + rho[half + i, half + j] for j in range(half)]
                    for i in range(half)]
            rho = mp.zeros(dim, dim)
            for a, p in enumerate(pops):
                for i in range(half):
                    for j in range(half):
                        rho[a * half + i, a * half + j] = p * rest[i][j]
            entropy = distance = mp.mpf(0)
            for l, b in enumerate(bases):
                block = mp.matrix([[rho[i, j] for j in b] for i in b])
                for lam in mp.eigh(block, eigvals_only=True):
                    if lam > 1e-25:
                        entropy -= lam * mp.log(lam)
                    distance += abs(lam - pops[0] ** (n - l) * pops[1] ** l)
            assert abs(record.eta - eta) <= 1e-13
            assert abs(record.probe_entropy - entropy) <= 1e-13
            assert abs(record.distance_to_pseudothermal - distance / 2) \
                <= 1e-13

    @pytest.mark.parametrize("bath", [745.0, 1e300])
    @pytest.mark.parametrize("kw", [
        {}, {"swap": SwapSpec.partial(5.0)},
        {"dephasing_rate": 0.3, "waiting_policy": "fixed"}])
    def test_bath_past_exp_overflow(self, bath, kw):
        # exp(beta) overflows past 709.78: the bath qubit is then pure, as
        # at beta = inf, and so is every emission from a polarized probe.
        report = run_protocol(ProtocolConfig(3, bath, steps=3, **kw))
        assert all(r.eta == 1.0 for r in report.records)
        assert entropy_accounting(report).passed

    @pytest.mark.parametrize("bath", [1e-16, 2e-16, 3e-16])
    def test_bath_rounding_to_one_half_rejected(self, bath):
        # thermal_populations(bath) is exactly (1/2, 1/2): no temperature.
        with pytest.raises(DomainError, match="too hot"):
            ProtocolConfig(2, bath)

    @pytest.mark.parametrize("policy", ["optimized", "fixed"])
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("bath", [5e-16, 1e-15])
    def test_probe_at_a_barely_resolved_bath_runs(self, bath, n, policy):
        # Populations a few ulps from 1/2 read beta_tilde = 0 within the
        # 1e-12 inversion slack, in the scan as in the emitted qubit, and
        # an emission at beta_tilde = 0 has eta = -inf, not a division by
        # zero. eta itself is not resolved here (see README, Conventions).
        report = run_protocol(ProtocolConfig(
            n, bath, probe_beta_tildes=(bath,) * n, steps=2,
            waiting_policy=policy))
        assert len(report.records) == 2
        assert not any(math.isnan(r.eta) for r in report.records)

    def test_emission_at_infinite_temperature(self):
        # eta = 1 - bath/out tends to -inf as out -> 0; a stationary
        # emission at beta_tilde = 0 stays exactly 0.
        assert protocol._efficiency(0.2, 0.0) == -math.inf
        assert protocol._efficiency(0.0, 0.0) == 0.0

    def test_partial_swap_run(self):
        report = run_protocol(ProtocolConfig(
            2, 0.2, steps=2, swap=SwapSpec.partial(5.0)))
        # eta_1 < 1: during the finite window the probe's own coupling
        # leaks excitation into the chain before the exchange completes.
        assert 0.9 < report.records[0].eta < 1.0
        audit = entropy_accounting(report)
        assert audit.passed


class TestEntropyAccounting:
    def test_ideal_run_passes(self):
        audit = entropy_accounting(run_protocol(ProtocolConfig(3, 0.2,
                                                               steps=6)))
        assert audit.passed
        assert audit.offending_step is None
        assert audit.total_drop <= audit.capacity + 1e-9
        assert audit.capacity == pytest.approx(3 * binary_entropy(0.2),
                                               abs=1e-12)

    def test_dephased_run_passes(self):
        audit = entropy_accounting(run_protocol(
            ProtocolConfig(2, 0.3, steps=5, dephasing_rate=0.4)))
        assert audit.passed

    def test_hot_probe_violates_bookkeeping(self):
        # Start the probe hotter than the bath (bypassing the config guard):
        # the first emitted qubit comes out hotter, its entropy "drop" is
        # negative, and the audit must flag it.
        cfg = ProtocolConfig(2, 0.5, steps=2)
        hot = thermal_product_state([0.1, 0.1])
        audit = entropy_accounting(run_protocol(cfg, initial_probe=hot))
        assert not audit.passed
        assert audit.offending_step == 1


class TestEstimateTemperature:
    def test_exact_inversion_on_thermal_product(self):
        probe = thermal_product_state([0.7] * 4)
        result = estimate_temperature(probe)
        assert result.beta_tilde == pytest.approx(0.7, abs=1e-12)
        assert result.stderr == 0.0
        assert not result.boundary and not result.inverted
        assert result.record is not None

    def test_finite_shots_reproducible(self):
        probe = thermal_product_state([0.2] * 3)
        a = estimate_temperature(probe, shots_per_site=200, seed=42)
        b = estimate_temperature(probe, shots_per_site=200, seed=42)
        assert a.beta_tilde == b.beta_tilde
        assert a.excited_count == b.excited_count

    def test_more_shots_tighter_stderr(self):
        probe = thermal_product_state([0.2] * 3)
        few = estimate_temperature(probe, shots_per_site=50, seed=1)
        many = estimate_temperature(probe, shots_per_site=5000, seed=1)
        assert many.stderr < few.stderr

    def test_zero_shots_rejected(self):
        probe = thermal_product_state([0.2])
        with pytest.raises(DomainError):
            estimate_temperature(probe, shots_per_site=0)

    @pytest.mark.parametrize("shots", [2.5, 3.0, True])
    def test_non_integer_shots_rejected(self, shots):
        # A fractional shot count would give fractional pooled counts.
        probe = thermal_product_state([0.2] * 3)
        with pytest.raises(DomainError):
            estimate_temperature(probe, shots_per_site=shots, seed=1)

    def test_numpy_integer_shots_accepted(self):
        probe = thermal_product_state([0.2] * 3)
        a = estimate_temperature(probe, shots_per_site=np.int64(200), seed=4)
        b = estimate_temperature(probe, shots_per_site=200, seed=4)
        assert (a.excited_count, a.ground_count) \
            == (b.excited_count, b.ground_count)

    def test_pure_probe_hits_boundary(self):
        probe = thermal_product_state([math.inf] * 2)
        result = estimate_temperature(probe, shots_per_site=100, seed=3)
        assert result.boundary
        assert math.isinf(result.beta_tilde)
