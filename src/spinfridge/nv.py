"""Geometry-to-coupling calculator for the diamond-defect implementation.

Two electron spins at fixed lattice sites interact through the magnetic
dipole-dipole coupling. When each spin is quantized along its own axis
(defect orientations differ), the secular part of the interaction is fixed
by five dimensionless numbers built from the two quantization frames and
the separation direction. This module computes those numbers, turns them
into the spin-probe (defect-bath) and spin-spin (chain) coupling strengths,
checks the pulse-averaged Hamiltonian numerically (4x4 exponentials and log
from Hermitian eigensystems, numpy only), and evaluates the yield of usable
chain configurations.

Each NV defect is a spin-1 whose qubit is the {m_s = 0, -1} pair, mapped to
s_z = +1/2 and -1/2. Every coupling coefficient here multiplies spin-1/2
operators s = sigma/2. Restricted to that pair, S_x and S_y of the spin-1
become sqrt(2) s_x and sqrt(2) s_y while S_z becomes s_z - 1/2, so the
flip-flop terms carry a factor 2 that the Ising term does not. In the
Pauli form H = J sigma.sigma of `dynamics.xxz_network_hamiltonian` (Delta =
1) the chain's J is heisenberg_strength/4.

The frames take each defect's own symmetry axis as its quantization axis,
which assumes the transverse Zeeman energy gamma*B_perp is small against
the zero-field splitting D (2.87 GHz). At 50 G along -11-1, projecting onto
the field-dressed {0, -1} eigenstates instead moves zz_coeff by about 4%
at the reference chain's strongest geometry, by up to about 50% along
face-diagonal chain directions (where |q| = 1/3), and by up to about
0.27 J0/r^3 over all directions.

Frequencies are angular (rad/s) throughout; divide by 2*pi for Hz at
presentation boundaries. Distances are in nanometres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

# Electron-electron magnetic dipole constant mu0*gamma_e^2*hbar/(4*pi),
# expressed as angular frequency times distance cubed: 2*pi * 52 MHz nm^3.
DIPOLAR_CONSTANT = 2.0 * math.pi * 52.0e6

_ORTHO_TOL = 1e-12

# The four normalized <111> bond directions of the diamond lattice -- the
# possible defect quantization axes. Keys name the unnormalized direction.
DIAMOND_BOND_AXES: dict[str, np.ndarray] = {
    "111": np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
    "1-1-1": np.array([1.0, -1.0, -1.0]) / math.sqrt(3.0),
    "-11-1": np.array([-1.0, 1.0, -1.0]) / math.sqrt(3.0),
    "-1-11": np.array([-1.0, -1.0, 1.0]) / math.sqrt(3.0),
}


def _unit(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"{what} must be a 3-vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if n == 0.0 or not math.isfinite(n):
        raise DomainError(f"{what} must be a finite nonzero vector")
    return v / n


@dataclass(frozen=True)
class SpinFrame:
    """Right-handed orthonormal quantization frame of one spin.

    The physical input is only the z-axis; the transverse pair (x, y) is a
    gauge choice. Observables built from a single frame's z-axis are gauge
    free, while the transverse coefficients g+/-, h+/- rotate with the
    gauge (see `dipolar_coefficients`).
    """

    x_axis: np.ndarray
    y_axis: np.ndarray
    z_axis: np.ndarray

    def __post_init__(self):
        axes = []
        for name in ("x_axis", "y_axis", "z_axis"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise DomainError(f"{name} must be a 3-vector")
            v = v.copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)
            axes.append(v)
        gram = np.array([[float(a @ b) for b in axes] for a in axes])
        if float(np.abs(gram - np.eye(3)).max()) > _ORTHO_TOL:
            raise DomainError("frame axes are not orthonormal to 1e-12")
        if float(np.linalg.norm(np.cross(axes[0], axes[1]) - axes[2])) \
                > _ORTHO_TOL:
            raise DomainError("frame is not right-handed (x cross y != z)")

    @classmethod
    def with_z_axis(cls, z_axis, reference=(1.0, 0.0, 0.0)) -> "SpinFrame":
        """Frame with the given z-axis and a deterministic transverse gauge.

        The x-axis is the `reference` direction (default: lab x) projected
        orthogonal to z and normalized; if the reference is (numerically)
        parallel to z, lab y then lab x are tried instead. y completes the
        right-handed triad.
        """
        z = _unit(z_axis, "z_axis")
        for cand in (reference, (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)):
            v = np.asarray(cand, dtype=float)
            t = v - (v @ z) * z
            n = float(np.linalg.norm(t))
            if n > 1e-8:
                x = t / n
                return cls(x, np.cross(z, x), z)
        raise DomainError("could not fix a transverse gauge")  # pragma: no cover


@dataclass(frozen=True)
class DipolarPair:
    """Two quantization frames separated by r_nm along unit vector r_hat."""

    frame1: SpinFrame
    frame2: SpinFrame
    r_hat: np.ndarray
    r_nm: float

    def __post_init__(self):
        r = np.asarray(self.r_hat, dtype=float)
        if r.shape != (3,):
            raise DomainError("r_hat must be a 3-vector")
        if abs(float(np.linalg.norm(r)) - 1.0) > _ORTHO_TOL:
            raise DomainError("r_hat must be a unit vector to 1e-12")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "r_hat", r)
        if not (self.r_nm > 0.0 and math.isfinite(self.r_nm)):
            raise DomainError(f"separation must be > 0 nm, got {self.r_nm}")

    @classmethod
    def from_positions(cls, position1_nm, position2_nm, z_axis1, z_axis2,
                       gauge: str = "lab-x") -> "DipolarPair":
        """Build a pair from two positions and two quantization axes.

        gauge "lab-x" projects the lab x-axis into each transverse plane;
        gauge "separation" projects the separation direction instead (both
        fall back to other axes when degenerate).
        """
        p1 = np.asarray(position1_nm, dtype=float)
        p2 = np.asarray(position2_nm, dtype=float)
        d = p2 - p1
        r = float(np.linalg.norm(d))
        if r == 0.0:
            raise DomainError("the two spins coincide (r = 0)")
        r_hat = d / r
        if gauge == "lab-x":
            ref = (1.0, 0.0, 0.0)
        elif gauge == "separation":
            ref = r_hat
        else:
            raise DomainError(f"unknown gauge {gauge!r}")
        return cls(SpinFrame.with_z_axis(z_axis1, ref),
                   SpinFrame.with_z_axis(z_axis2, ref), r_hat, r)

    @property
    def radial_prefactor(self) -> float:
        """J0 / r^3 in rad/s, J0 = DIPOLAR_CONSTANT."""
        return DIPOLAR_CONSTANT / self.r_nm ** 3


@dataclass(frozen=True)
class DipolarCoefficients:
    """The five dimensionless secular dipolar coefficients of a pair.

    q couples the two z-axes and is gauge free. g+/- couple like transverse
    axes, h+/- mixed ones; they depend on the transverse gauge (only the
    magnitude of g_plus + i*h_minus is gauge free), which matters when
    comparing against values quoted for an unstated convention.
    """

    g_plus: float
    g_minus: float
    h_plus: float
    h_minus: float
    q: float

    def __post_init__(self):
        for name in ("g_plus", "g_minus", "h_plus", "h_minus", "q"):
            v = getattr(self, name)
            if not (-3.0 <= v <= 3.0):
                raise DomainError(
                    f"{name} = {v} outside [-3, 3]; inputs were not unit frames")


def dipolar_coefficients(pair: DipolarPair) -> DipolarCoefficients:
    """Evaluate the five angular coefficients of the secular dipolar form.

    With M = 3 r_hat r_hat^T - 1 (the traceless dipolar tensor):
    q  = z1.M.z2,
    g+/- = (x1.M.x2 +/- y1.M.y2)/2,
    h+/- = (x1.M.y2 +/- y1.M.x2)/2.
    Exchanging the spins (and flipping r_hat) keeps q and g_plus and flips
    h_minus's sign; rotating everything rigidly changes nothing.
    """
    r = pair.r_hat
    m = 3.0 * np.outer(r, r) - np.eye(3)
    f1, f2 = pair.frame1, pair.frame2
    xmx = float(f1.x_axis @ m @ f2.x_axis)
    ymy = float(f1.y_axis @ m @ f2.y_axis)
    xmy = float(f1.x_axis @ m @ f2.y_axis)
    ymx = float(f1.y_axis @ m @ f2.x_axis)
    return DipolarCoefficients(
        g_plus=0.5 * (xmx + ymy),
        g_minus=0.5 * (xmx - ymy),
        h_plus=0.5 * (xmy + ymx),
        h_minus=0.5 * (xmy - ymx),
        q=float(f1.z_axis @ m @ f2.z_axis),
    )


def nv_p1_coupling(pair: DipolarPair) -> dict[str, float]:
    """Secular defect-to-bath-spin couplings, in rad/s.

    The energy-conserving part of the dipolar interaction between the probe
    defect and a bath electron spin is Ising, -(J0/r^3) q sz sz with
    s = sigma/2 on both spins; under matched-Rabi cross-polarization driving
    a quarter of it survives as the dressed flip-flop strength.
    """
    ising = -pair.radial_prefactor * dipolar_coefficients(pair).q
    return {
        "ising_strength": ising,
        "hhcp_flipflop_strength": ising / 4.0,
    }


def nv_nv_effective_hamiltonian(pair: DipolarPair) -> dict[str, float]:
    """Coefficients of the secular two-defect Hamiltonian, in rad/s.

    The raw secular form is
        xx_yy_coeff (sx sx + sy sy) + zz_coeff sz sz
        + xy_antisym_coeff (sx sy - sy sx),
    with s = sigma/2, and the three-segment axis-cycling pulse sequence
    averages it to the isotropic exchange heisenberg_strength
    (sx sx + sy sy + sz sz), with
    heisenberg_strength = (2 xx_yy_coeff + zz_coeff)/3 identically. This is
    the projection of the spin-1 dipolar Hamiltonian onto the {0, -1}
    qubits: S_x -> sqrt(2) s_x doubles the flip-flop coefficients
    (-(J0/r^3) 2 g+ and 2 h-), while S_z -> s_z - 1/2 leaves
    zz_coeff = -(J0/r^3) q undoubled. The Pauli-form exchange,
    H = J sigma.sigma, is J = heisenberg_strength/4.
    """
    c = dipolar_coefficients(pair)
    pref = -pair.radial_prefactor
    xx_yy = pref * 2.0 * c.g_plus
    zz = pref * c.q
    return {
        "xx_yy_coeff": xx_yy,
        "zz_coeff": zz,
        "xy_antisym_coeff": pref * 2.0 * c.h_minus,
        "heisenberg_strength": pref * (4.0 * c.g_plus + c.q) / 3.0,
    }


# --------------------------------------------------------------------------
# pulse-sequence average-Hamiltonian verification
# --------------------------------------------------------------------------

# Spin-1/2 operators s = sigma/2, the operators the coefficients multiply.
_SPIN_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


def _pair_op(a: str, b: str) -> np.ndarray:
    return np.kron(_SPIN_HALF[a], _SPIN_HALF[b])


def _segment_hamiltonians(coeffs: dict[str, float]
                          ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(symmetric, antisymmetric) 4x4 generator parts of the three segments.

    Segment 1 keeps z special; segments 2 and 3 cycle the axes z->x->y, as
    the pulse sequence does. The antisymmetric part cycles along.
    """
    a = coeffs["xx_yy_coeff"]
    b = coeffs["zz_coeff"]
    c = coeffs["xy_antisym_coeff"]
    segments = []
    for special, t1, t2 in (("z", "x", "y"), ("x", "y", "z"), ("y", "z", "x")):
        sym = (a * (_pair_op(t1, t1) + _pair_op(t2, t2))
               + b * _pair_op(special, special))
        anti = c * (_pair_op(t1, t2) - _pair_op(t2, t1))
        segments.append((sym, anti))
    return segments


def _spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, ord=2))


def _evolution(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) of a Hermitian H, from its eigensystem."""
    d, u = np.linalg.eigh(h)
    return (u * np.exp(-1j * d * t)) @ u.conj().T


def _phase_log(u: np.ndarray) -> np.ndarray:
    """Principal log of a unitary U (no eigenvalue -1), as i Phi.

    The Cayley transform A = i (1 - U)(1 + U)^-1 is Hermitian with the
    eigenvalue tan(phi/2) for each eigenphase phi of U, and 2 arctan maps
    it back to phi on the principal branch (-pi, pi).
    """
    eye = np.eye(len(u))
    a = 1j * np.linalg.solve(eye + u, eye - u)
    lam, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return (v * (2j * np.arctan(lam))) @ v.conj().T


def wahuha_average_check(pair: DipolarPair, segment_time: float,
                         half_imbalance: float = 0.0) -> dict[str, float]:
    """Numerically verify the axis-cycling average against its target.

    Builds the cycle unitary from the three axis-cycled segments, each split
    into two halves with the antisymmetric term's sign flipped in the second
    (the echo pulse inside each segment), and compares it to the ideal
    isotropic-exchange evolution over the same total time 3*segment_time:

    * trotter_error: spectral norm of (cycle unitary - ideal unitary);
      vanishes quadratically as segment_time -> 0.
    * h_minus_residual: spectral norm of the matrix-antisymmetric part of
      the average Hamiltonian i*log(U_cycle)/(3*segment_time), the
      principal log taken through U_cycle's Cayley transform. With matched
      halves the sign-flipped term cancels at first order and only a
      second-order commutator piece (linear in segment_time) survives;
      `half_imbalance` shifts duration from the second half to the first
      (total preserved) to expose the uncancelled first-order term.
    """
    if not (segment_time > 0.0 and math.isfinite(segment_time)):
        raise DomainError(f"segment_time must be > 0, got {segment_time}")
    if not (-1.0 <= half_imbalance <= 1.0):
        raise DomainError(f"half_imbalance must lie in [-1, 1], "
                          f"got {half_imbalance}")
    coeffs = nv_nv_effective_hamiltonian(pair)
    segments = _segment_hamiltonians(coeffs)
    first_half = 0.5 * segment_time * (1.0 + half_imbalance)
    second_half = segment_time - first_half
    # The sum of |H| t over the six half-segment evolutions bounds every
    # eigenphase of the cycle, so below pi the principal log cannot wrap.
    phase = sum(_spectral_norm(sym + anti) * first_half
                + _spectral_norm(sym - anti) * second_half
                for sym, anti in segments)
    if phase >= math.pi:
        raise DomainError(
            f"segment_time {segment_time:.3e} puts the cycle's eigenphases "
            f"past the log branch cut (sum of |H| t = {phase:.3f} >= pi); "
            "shorten the segments")
    cycle = np.eye(4, dtype=complex)
    for sym, anti in segments:
        first = _evolution(sym + anti, first_half)
        second = _evolution(sym - anti, second_half)
        cycle = second @ first @ cycle
    total = 3.0 * segment_time
    target = coeffs["heisenberg_strength"] * (
        _pair_op("x", "x") + _pair_op("y", "y") + _pair_op("z", "z"))
    ideal = _evolution(target, total)
    average = 1j * _phase_log(cycle) / total
    residual = 0.5 * (average - average.T)
    return {
        "trotter_error": _spectral_norm(cycle - ideal),
        "h_minus_residual": _spectral_norm(residual),
    }


def chain_yield(count: int) -> Fraction:
    """Probability that `count` randomly oriented defects form a usable chain.

    The first defect may point anywhere except along the field axis (3 of 4
    bond directions), and each later defect must alternate against its
    neighbour (1 of 2 remaining useful choices): (3/4) * (1/2)^(count-1),
    returned exactly.
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise DomainError(f"chain length must be an integer >= 1, got {count!r}")
    return Fraction(3, 4) * Fraction(1, 2) ** (count - 1)
