"""Dipolar-coupling geometry: frames, coefficient symmetries, effective
couplings, pulse-averaged exchange, and defect-chain yields."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from spinfridge import (
    DIAMOND_BOND_AXES,
    DIPOLAR_CONSTANT,
    DipolarPair,
    DomainError,
    SpinFrame,
    chain_yield,
    dipolar_coefficients,
    nv_nv_effective_hamiltonian,
    nv_p1_coupling,
    wahuha_average_check,
)
from spinfridge.nv import _segment_hamiltonians
from spinfridge.operators import PAULIS

from conftest import spin1_dipolar_projection

E_X = np.array([1.0, 0.0, 0.0])
E_Y = np.array([0.0, 1.0, 0.0])
E_Z = np.array([0.0, 0.0, 1.0])


def pair_at(pos2_nm, z1=E_Z, z2=E_Z, gauge="lab-x") -> DipolarPair:
    return DipolarPair.from_positions([0.0, 0.0, 0.0], pos2_nm, z1, z2,
                                      gauge=gauge)


class TestBondAxes:
    def test_four_axes_normalized(self):
        assert len(DIAMOND_BOND_AXES) == 4
        for axis in DIAMOND_BOND_AXES.values():
            assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-15)

    def test_tetrahedral_angles(self):
        # distinct bond directions meet at arccos(-1/3)
        axes = list(DIAMOND_BOND_AXES.values())
        for i in range(4):
            for j in range(i + 1, 4):
                assert float(axes[i] @ axes[j]) == pytest.approx(-1.0 / 3.0,
                                                                 abs=1e-14)


class TestSpinFrame:
    def test_with_z_axis_is_right_handed_orthonormal(self):
        frame = SpinFrame.with_z_axis(DIAMOND_BOND_AXES["111"])
        basis = np.column_stack([frame.x_axis, frame.y_axis, frame.z_axis])
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(np.cross(frame.x_axis, frame.y_axis),
                                   frame.z_axis, atol=1e-14)

    def test_reference_parallel_to_z_falls_back(self):
        frame = SpinFrame.with_z_axis(E_X, reference=E_X)
        assert abs(float(frame.x_axis @ frame.z_axis)) < 1e-14

    def test_non_orthogonal_frame_rejected(self):
        with pytest.raises(DomainError):
            SpinFrame(E_X, E_X, E_Z)

    def test_left_handed_frame_rejected(self):
        with pytest.raises(DomainError):
            SpinFrame(E_Y, E_X, E_Z)


class TestDipolarPair:
    def test_separation_and_prefactor(self):
        pair = pair_at([0.0, 0.0, 25.0])
        assert pair.r_nm == pytest.approx(25.0, abs=1e-12)
        assert pair.radial_prefactor == pytest.approx(
            DIPOLAR_CONSTANT / 25.0 ** 3, rel=1e-15)

    def test_coincident_positions_rejected(self):
        with pytest.raises(DomainError):
            pair_at([0.0, 0.0, 0.0])

    def test_unknown_gauge_rejected(self):
        with pytest.raises(DomainError):
            pair_at([0.0, 0.0, 10.0], gauge="chiral")


class TestDipolarCoefficients:
    def test_collinear_along_separation(self):
        # both quantization axes parallel to r: q = 3 - 1 = 2, transverse
        # sum x^T M x + y^T M y = -2.
        coeffs = dipolar_coefficients(pair_at([0.0, 0.0, 10.0]))
        assert coeffs.q == pytest.approx(2.0, abs=1e-14)
        assert coeffs.g_plus == pytest.approx(-1.0, abs=1e-14)
        assert coeffs.h_minus == pytest.approx(0.0, abs=1e-14)

    def test_collinear_perpendicular_to_separation(self):
        coeffs = dipolar_coefficients(pair_at([10.0, 0.0, 0.0]))
        assert coeffs.q == pytest.approx(-1.0, abs=1e-14)
        assert coeffs.g_plus == pytest.approx(0.5, abs=1e-14)
        assert coeffs.g_minus == pytest.approx(1.5, abs=1e-14)
        assert coeffs.h_plus == pytest.approx(0.0, abs=1e-14)
        assert coeffs.h_minus == pytest.approx(0.0, abs=1e-14)

    def test_magic_angle_kills_ising_term(self):
        # z-axes along [111], separation along lab z: 3 cos^2(theta) = 1.
        axis = DIAMOND_BOND_AXES["111"]
        coeffs = dipolar_coefficients(pair_at([0.0, 0.0, 25.0],
                                              z1=axis, z2=axis))
        assert coeffs.q == pytest.approx(0.0, abs=1e-14)

    def test_misaligned_axes_analytic_q(self):
        # z1 = [111], z2 = [1,-1,-1] (normalized), r along lab z:
        # q = 3 (z1.r)(r.z2) - z1.z2 = -1 + 1/3 = -2/3.
        coeffs = dipolar_coefficients(pair_at(
            [0.0, 0.0, 25.0],
            z1=DIAMOND_BOND_AXES["111"], z2=DIAMOND_BOND_AXES["1-1-1"]))
        assert coeffs.q == pytest.approx(-2.0 / 3.0, abs=1e-14)

    def test_coefficients_bounded(self, rng):
        # every contraction of 3 r r^T - I with unit vectors lies in [-2, 2],
        # so the half-sum coefficients live in [-2, 2] as well
        for _ in range(50):
            pos = rng.normal(size=3) * 20.0
            if np.linalg.norm(pos) < 1.0:
                continue
            z1 = rng.normal(size=3)
            z2 = rng.normal(size=3)
            coeffs = dipolar_coefficients(pair_at(pos, z1=z1, z2=z2))
            for value in (coeffs.g_plus, coeffs.g_minus, coeffs.h_plus,
                          coeffs.h_minus, coeffs.q):
                assert -2.0 - 1e-12 <= value <= 2.0 + 1e-12

    def test_global_rotation_invariance(self, rng):
        # rotating positions and axes together must not change anything
        from scipy.spatial.transform import Rotation
        rot = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
        pos2 = np.array([13.0, -4.0, 8.0])
        z1, z2 = DIAMOND_BOND_AXES["111"], DIAMOND_BOND_AXES["-11-1"]
        base = dipolar_coefficients(
            DipolarPair.from_positions([0, 0, 0], pos2, z1, z2,
                                       gauge="separation"))
        rotated = dipolar_coefficients(
            DipolarPair.from_positions([0, 0, 0], rot @ pos2, rot @ z1,
                                       rot @ z2, gauge="separation"))
        for field in ("g_plus", "g_minus", "h_plus", "h_minus", "q"):
            assert getattr(rotated, field) == pytest.approx(
                getattr(base, field), abs=1e-12)

    def test_spin_exchange_flips_h_minus_only(self):
        z1, z2 = DIAMOND_BOND_AXES["111"], DIAMOND_BOND_AXES["1-1-1"]
        fwd = dipolar_coefficients(DipolarPair.from_positions(
            [0, 0, 0], [0, 0, 25.0], z1, z2, gauge="separation"))
        rev = dipolar_coefficients(DipolarPair.from_positions(
            [0, 0, 25.0], [0, 0, 0], z2, z1, gauge="separation"))
        assert rev.q == pytest.approx(fwd.q, abs=1e-13)
        assert rev.g_plus == pytest.approx(fwd.g_plus, abs=1e-13)
        assert rev.g_minus == pytest.approx(fwd.g_minus, abs=1e-13)
        assert rev.h_plus == pytest.approx(fwd.h_plus, abs=1e-13)
        assert rev.h_minus == pytest.approx(-fwd.h_minus, abs=1e-13)


class TestEffectiveCouplings:
    def test_probe_coupling_strengths(self):
        # collinear along r at 10 nm: field-axis coupling -2 J0/r^3, and the
        # resonance-matched flip-flop keeps a quarter of it.
        pair = pair_at([0.0, 0.0, 10.0])
        out = nv_p1_coupling(pair)
        expected = -2.0 * DIPOLAR_CONSTANT / 1000.0
        assert out["ising_strength"] == pytest.approx(expected, rel=1e-12)
        assert out["hhcp_flipflop_strength"] == pytest.approx(expected / 4.0,
                                                              rel=1e-12)

    def test_chain_couplings_consistency(self):
        pair = pair_at([0.0, 0.0, 25.0], z1=DIAMOND_BOND_AXES["111"],
                       z2=DIAMOND_BOND_AXES["1-1-1"])
        out = nv_nv_effective_hamiltonian(pair)
        # isotropic average = (2 * transverse + longitudinal) / 3, exactly
        expected = (2.0 * out["xx_yy_coeff"] + out["zz_coeff"]) / 3.0
        assert out["heisenberg_strength"] == pytest.approx(expected,
                                                           rel=1e-14)

    def test_perpendicular_geometry_magnitudes(self):
        # z-axes along lab z, separation along x, r = 25 nm: q = -1,
        # g+ = 1/2, so zz = +J0/r^3, xx_yy = -J0/r^3 and
        # heis = (2 xx_yy + zz)/3 = -J0/(3 r^3).
        pair = pair_at([25.0, 0.0, 0.0])
        out = nv_nv_effective_hamiltonian(pair)
        pref = DIPOLAR_CONSTANT / 25.0 ** 3
        assert out["zz_coeff"] == pytest.approx(pref, rel=1e-12)
        assert out["xx_yy_coeff"] == pytest.approx(-pref, rel=1e-12)
        assert out["heisenberg_strength"] == pytest.approx(-pref / 3.0,
                                                           rel=1e-12)
        assert out["xy_antisym_coeff"] == pytest.approx(0.0, abs=1e-9)


class TestSpin1Projection:
    """The effective coefficients against the spin-1 Hamiltonian itself.

    On the local {|0>, |-1>} pair, S_x and S_y restrict to sqrt(2) s_x and
    sqrt(2) s_y while S_z restricts to s_z - 1/2 (s = sigma/2), so the
    projected flip-flop carries a factor 2 that the Ising term does not.
    """

    @pytest.mark.parametrize("gauge", ["lab-x", "separation"])
    def test_projection_matches_effective_hamiltonian(self, rng, gauge):
        # Random positions and axes; every coefficient is compared at
        # 1e-12 relative, with an absolute floor of 1e-12 J0/r^3 for
        # coefficients that happen to sit near zero.
        for _ in range(120):
            pair = DipolarPair.from_positions(
                rng.normal(size=3) * 10.0, rng.normal(size=3) * 10.0,
                rng.normal(size=3), rng.normal(size=3), gauge=gauge)
            zz, flip_flop = spin1_dipolar_projection(pair)
            out = nv_nv_effective_hamiltonian(pair)
            floor = 1e-12 * pair.radial_prefactor
            assert out["zz_coeff"] == pytest.approx(zz, rel=1e-12, abs=floor)
            assert complex(out["xx_yy_coeff"], out["xy_antisym_coeff"]) \
                == pytest.approx(flip_flop, rel=1e-12, abs=floor)
            assert out["heisenberg_strength"] == pytest.approx(
                (2.0 * flip_flop.real + zz) / 3.0, rel=1e-12, abs=floor)


class TestWahuhaAverage:
    def symmetric_pair(self):
        # axes collinear and perpendicular to r: no antisymmetric exchange
        return pair_at([25.0, 0.0, 0.0])

    def generic_pair(self):
        # skew axes and an oblique separation: all five coefficients active
        return pair_at([14.0, 7.0, 18.0], z1=DIAMOND_BOND_AXES["111"],
                       z2=DIAMOND_BOND_AXES["-11-1"])

    def test_no_antisymmetric_term_makes_the_cycle_exact(self):
        # With h- = 0 each segment is a sum of XX, YY, ZZ, which pairwise
        # commute, so the cycle equals the isotropic target exactly at any
        # segment length -- not just to Trotter order.
        for tau in (1e-6, 1e-5):
            out = wahuha_average_check(self.symmetric_pair(),
                                       segment_time=tau)
            assert out["trotter_error"] < 1e-12
            # The log's rounding floor (<= 1e-12 here) sits well under 1e-9.
            assert out["h_minus_residual"] < 1e-9

    def test_trotter_error_is_second_order(self):
        pair = self.generic_pair()
        coarse = wahuha_average_check(pair, segment_time=2e-6)
        fine = wahuha_average_check(pair, segment_time=1e-6)
        assert fine["trotter_error"] > 1e-8  # well above the fp floor
        ratio = coarse["trotter_error"] / fine["trotter_error"]
        assert 3.5 <= ratio <= 4.5

    def test_matched_halves_cancel_first_order(self):
        pair = self.generic_pair()
        matched = wahuha_average_check(pair, segment_time=1e-6)
        skewed = wahuha_average_check(pair, segment_time=1e-6,
                                      half_imbalance=0.05)
        assert matched["h_minus_residual"] * 10.0 \
            < skewed["h_minus_residual"]

    def test_matched_residual_is_linear_in_segment_time(self):
        # The surviving term is a second-order commutator whose average
        # grows linearly with the segment length.
        pair = self.generic_pair()
        coarse = wahuha_average_check(pair, segment_time=2e-6)
        fine = wahuha_average_check(pair, segment_time=1e-6)
        ratio = coarse["h_minus_residual"] / fine["h_minus_residual"]
        assert 1.8 <= ratio <= 2.2

    def test_generic_pair_matches_extended_precision(self):
        # The same cycle and ideal unitaries, log and spectral norms, in
        # 30-digit arithmetic; the spin-1/2 products are exact in binary.
        mp = mpmath.mp.clone()
        mp.dps = 30
        pair, tau = self.generic_pair(), 1e-6
        c = {k: mp.mpf(v)
             for k, v in nv_nv_effective_hamiltonian(pair).items()}

        def op(a, b):
            return mp.matrix(np.kron(PAULIS[a], PAULIS[b]).tolist()) / 4

        def evolution(h, t):
            return mp.expm(-1j * h * mp.mpf(t))

        cycle = mp.eye(4)
        for special, t1, t2 in (("z", "x", "y"), ("x", "y", "z"),
                                ("y", "z", "x")):
            sym = c["xx_yy_coeff"] * (op(t1, t1) + op(t2, t2)) \
                + c["zz_coeff"] * op(special, special)
            anti = c["xy_antisym_coeff"] * (op(t1, t2) - op(t2, t1))
            cycle = evolution(sym - anti, tau / 2) \
                * evolution(sym + anti, tau / 2) * cycle
        ideal = evolution(c["heisenberg_strength"] * (
            op("x", "x") + op("y", "y") + op("z", "z")), 3 * tau)
        average = 1j * mp.logm(cycle) / (3 * mp.mpf(tau))

        def norm(m):
            return float(max(mp.svd_c(m, compute_uv=False)))

        out = wahuha_average_check(pair, segment_time=tau)
        assert out["trotter_error"] == pytest.approx(norm(cycle - ideal),
                                                     rel=1e-9)
        assert out["h_minus_residual"] == pytest.approx(
            norm((average - average.T) / 2), rel=1e-9)

    @pytest.mark.parametrize("fraction, wraps", [(0.3, False), (0.5, True),
                                                 (0.7, True)])
    def test_guard_covers_the_whole_cycle(self, fraction, wraps):
        # Each segment alone keeps |H_seg| tau < pi at all three lengths,
        # but the cycle's eigenphases add up over its segments and pass pi
        # at 0.5 and 0.7, where the principal log would wrap.
        pair = self.generic_pair()
        worst = max(np.linalg.norm(sym + anti, ord=2) for sym, anti in
                    _segment_hamiltonians(nv_nv_effective_hamiltonian(pair)))
        tau = fraction * math.pi / worst
        if wraps:
            with pytest.raises(DomainError, match="branch cut"):
                wahuha_average_check(pair, segment_time=tau)
        else:
            out = wahuha_average_check(pair, segment_time=tau)
            assert all(math.isfinite(v) for v in out.values())

    def test_segment_time_guards(self):
        pair = self.symmetric_pair()
        with pytest.raises(DomainError):
            wahuha_average_check(pair, segment_time=0.0)
        with pytest.raises(DomainError):
            wahuha_average_check(pair, segment_time=1.0)  # past branch cut
        with pytest.raises(DomainError):
            wahuha_average_check(pair, segment_time=1e-6, half_imbalance=1.5)


class TestChainYield:
    def test_exact_fractions(self):
        assert chain_yield(1) == Fraction(3, 4)
        assert chain_yield(2) == Fraction(3, 8)
        assert chain_yield(6) == Fraction(3, 128)
        assert chain_yield(8) == Fraction(3, 512)

    def test_six_defect_decimal(self):
        assert float(chain_yield(6)) == 0.0234375  # dyadic, exact in binary

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "6", True])
    def test_invalid_lengths_rejected(self, bad):
        with pytest.raises(DomainError):
            chain_yield(bad)
