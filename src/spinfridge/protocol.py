"""The iterative cooling loop and its bookkeeping.

One round of the protocol: let the probe chain evolve for a waiting time
tau_k (under its Hamiltonian and any dephasing), attach a fresh thermal
qubit at the bath temperature, swap it with the chain's end spin (perfectly
or through a finite interaction window), and detach it. The emitted qubit
leaves colder than the bath whenever every probe site started at least as
cold -- that is the invariant the whole package is built to exhibit -- and
the probe pays for it by creeping toward the bath's product state.

A perfect swap followed by the detach is a site reset: the emitted qubit is
site 1's marginal, and the next probe is chi(beta_bath) (x) Tr_1 rho_waited.
A coherent (Gamma = 0) window W and the wait are one Kraus map on the
rotated probe X_l (phases applied, zero blocks skipped): sum_q p_q B X_{L-q}
B^dag, B_{q'q} = <q'|W_L|q> u_{L-q}. A dephased window evolves the waited
joint blocks p0 rho_L (+) p1 rho_{L-1} exactly. Both read the next probe and
qubit off the qubit-|0>/|1> quadrants: no round traces out a register. Probes
start as thermal products and every map conserves z, so rounds run on
sector blocks only: a dense probe is decomposed on entry, and one with
inter-sector coherence raises `SectorMixingError` before anything evolves,
under every waiting policy.

Waiting times are either fixed (J*tau = 1 by default) or optimized per step:
the earliest maximum of the end spin's excited-state population over a
uniform J*tau grid on [0, N]. The scan evaluates every 8th point exactly,
with the slope, and elsewhere only the points that a bound on the curve's
second derivative cannot rule out of the maximum's tie set. The
optimizer always works with the coherent (Gamma = 0) dynamics, as a
low-control experimenter who does not know the noise strength would; real
dephasing only enters when the wait is actually executed.

Temperatures are expressed throughout as beta_tilde = omega/(k_B T), so
larger is colder, the bath sits at some finite beta_tilde > 0, and a fully
polarized spin reads +infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import sectors
from .dynamics import (
    LindbladGenerator,
    SpinNetwork,
    SwapSpec,
    evolve_exact,
    window_generator,
)
from .errors import DomainError
from .registers import SpinRegister
from .states import (
    QuantumState,
    TemperatureRecord,
    _beta_of_populations,
    binary_entropy,
    partial_trace,
    reduced_site_populations,
    sector_decompose,
    spectrum_entropy,
    temperature_of,
    thermal_populations,
    thermal_product_state,
    von_neumann_entropy,
)

_TIE_TOL = 1e-12          # ties: grid populations; emitted vs bath beta
_ACCOUNTING_TOL = 1e-9    # slack on the entropy inequalities
_SCAN_STRIDE = 8          # the scan's coarse pass: every 8th grid time
_SCAN_SLACK = 1e-9        # rounding margin on its bound, relative and absolute
_GRID_SPACING = 0.01      # J*tau spacing of `default_grid`


def _check_coupling(coupling: float) -> None:
    if not (math.isfinite(coupling) and coupling > 0):
        raise DomainError(f"coupling must be finite and > 0, got {coupling}")


# --------------------------------------------------------------------------
# configuration and result records
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one cooling run.

    `probe_beta_tildes` defaults to all +infinity (a fully polarized chain);
    every entry must be at least `bath_beta_tilde`, i.e. no probe site may
    start hotter than the bath -- the precondition under which the protocol
    provably never emits a qubit hotter than the bath. The bath must be
    resolvable: a beta_tilde so small that its populations round to 1/2
    is refused. Optimized waits come from the grid `default_grid(N)`
    (J*tau spacing 0.01); every wait, dephased or not, is `evolve_exact`.
    """

    probe_size: int
    bath_beta_tilde: float
    coupling: float = 1.0
    dephasing_rate: float = 0.0
    probe_beta_tildes: tuple[float, ...] | None = None
    swap: SwapSpec = field(default_factory=SwapSpec.perfect)
    steps: int = 40
    waiting_policy: str = "optimized"
    fixed_jtau: float = 1.0
    tau_schedule: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.probe_size < 1:
            raise DomainError(f"probe needs >= 1 site, got {self.probe_size}")
        if not (math.isfinite(self.bath_beta_tilde) and self.bath_beta_tilde > 0):
            raise DomainError(
                f"bath beta_tilde must be finite and > 0, got "
                f"{self.bath_beta_tilde}")
        p0, p1 = thermal_populations(self.bath_beta_tilde)
        if p1 <= p0:
            raise DomainError(
                f"bath beta_tilde {self.bath_beta_tilde} is too hot to "
                f"resolve: its populations round to 1/2")
        _check_coupling(self.coupling)
        if not (math.isfinite(self.dephasing_rate) and self.dephasing_rate >= 0):
            raise DomainError(f"dephasing rate must be finite and >= 0, got "
                              f"{self.dephasing_rate}")
        if self.steps < 0:
            raise DomainError(f"step count must be >= 0, got {self.steps}")
        if self.waiting_policy not in ("optimized", "fixed", "schedule"):
            raise DomainError(f"unknown waiting policy {self.waiting_policy!r}")
        if not (math.isfinite(self.fixed_jtau) and self.fixed_jtau >= 0):
            raise DomainError(f"fixed J*tau must be >= 0, got {self.fixed_jtau}")
        if self.waiting_policy == "schedule":
            if self.tau_schedule is None:
                raise DomainError(
                    "waiting policy 'schedule' needs a tau_schedule")
            schedule = tuple(float(t) for t in self.tau_schedule)
            if len(schedule) != self.steps:
                raise DomainError(
                    f"tau_schedule has {len(schedule)} entries for "
                    f"{self.steps} steps")
            for t in schedule:
                if not (math.isfinite(t) and t >= 0):
                    raise DomainError(
                        f"tau_schedule entries must be >= 0, got {t}")
            object.__setattr__(self, "tau_schedule", schedule)
        elif self.tau_schedule is not None:
            raise DomainError(
                "tau_schedule is only meaningful with waiting policy "
                "'schedule'")
        temps = self.probe_beta_tildes
        if temps is None:
            temps = (math.inf,) * self.probe_size
        else:
            temps = tuple(float(b) for b in temps)
            if len(temps) != self.probe_size:
                raise DomainError(
                    f"{len(temps)} probe temperatures for "
                    f"{self.probe_size} sites")
        for b in temps:
            if math.isnan(b) or b < self.bath_beta_tilde:
                raise DomainError(
                    f"probe site beta_tilde {b} is hotter than the bath "
                    f"({self.bath_beta_tilde}); every site must start at "
                    f"least as cold")
        object.__setattr__(self, "probe_beta_tildes", temps)

    @property
    def bath_entropy(self) -> float:
        """Entropy (nats) of one qubit at the bath temperature."""
        return binary_entropy(self.bath_beta_tilde)


@dataclass(frozen=True)
class StepRecord:
    """Everything measured about one emitted qubit. `at_grid_edge` is True
    when an optimized wait is the scan grid's last point."""

    index: int
    wait_jtau: float
    qubit_out: TemperatureRecord
    eta: float
    qubit_entropy_drop: float
    probe_entropy: float
    distance_to_pseudothermal: float
    predicted: TemperatureRecord | None = None
    at_grid_edge: bool = False


@dataclass
class ProtocolReport:
    """A full run: per-step records plus the initial baseline."""

    config: ProtocolConfig
    initial_probe_entropy: float
    initial_distance: float
    records: tuple[StepRecord, ...]
    final_probe: QuantumState

    @property
    def etas(self) -> np.ndarray:
        return np.array([r.eta for r in self.records])

    @property
    def distances(self) -> np.ndarray:
        return np.array([r.distance_to_pseudothermal for r in self.records])

    @property
    def probe_entropies(self) -> np.ndarray:
        return np.array([r.probe_entropy for r in self.records])

    @property
    def cumulative_entropy_drop(self) -> np.ndarray:
        """Running total of the emitted qubits' entropy reduction."""
        return np.cumsum([r.qubit_entropy_drop for r in self.records])


# --------------------------------------------------------------------------
# waiting-time optimization
# --------------------------------------------------------------------------

def default_grid(probe_size: int) -> np.ndarray:
    """Uniform J*tau grid over [0, N] at spacing `_GRID_SPACING`."""
    return np.arange(round(probe_size / _GRID_SPACING) + 1) * _GRID_SPACING


def _phases(d: np.ndarray, times: np.ndarray) -> np.ndarray:
    """[C S] = [cos(D t) sin(D t)], one column per time in each half."""
    return np.hstack([f(np.outer(d, times)) for f in (np.cos, np.sin)])


def _population(c: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, ...]:
    """p1 = colsum(C o R_C) + colsum(S o R_S) + 2 colsum(S o I_C) at the
    columns of cs = [C S], with R = c_r [C S] and I_C = c_i C; and R, I_C."""
    t = cs.shape[1] // 2
    r, i_c = c.real @ cs, c.imag @ cs[:, :t]
    both = np.einsum("jt,jt->t", cs, r)
    return both[:t] + both[t:] + 2 * np.einsum(
        "jt,jt->t", cs[:, t:], i_c), r, i_c


def _exact_population_curve(state: QuantumState, gen: LindbladGenerator,
                            times: np.ndarray) -> np.ndarray:
    """p1 of site 1 at the times that can hold its maximum, else -inf.

    In each sector's eigenbasis a = u^dag rho u (the generator's memo)
    picks up phases e^{-i w_jk t}, w_jk = D_j - D_k. With b the end spin's
    excitation, P = u^dag diag(b) u and c = a o P^T = c_r + i c_i, p1 is
    `_population` of C = cos(D t), S = sin(D t). Coarse pass: every
    _SCAN_STRIDE-th time and the last get p1 and, with I_S = c_i S,
    p1' = 2 sum_j D_j (C o (R_S + I_C) - S o (R_C - I_S))_j from [C S]
    columns cached with P (keyed by the grid). As |p1''| <= B2 =
    sum_l sum_jk |c_jk| w_jk^2, p1(t) <= p1(t_x) + p1'(t_x)(t - t_x)
    + B2 (t - t_x)^2 / 2 from either coarse neighbour t_x. Fine pass: fresh
    columns at the other times where the smaller bound reaches the best
    coarse p1 less _TIE_TOL; the rest read -inf.
    A relative and absolute margin _SCAN_SLACK on B2 and that threshold
    covers rounding, so the times the full scan could pick stay exact.
    Never reads the dephasing rate: the curve is the coherent one.
    """
    size, n = times.size, state.register.count
    coarse = np.union1d(np.arange(0, size, _SCAN_STRIDE), [size - 1])
    eigs = gen.block_eigensystems()
    scan = gen._memo("scan", times.tobytes(), lambda: [
        (u.T @ ((basis[:, None] >> n - 1 & 1) * u),
         _phases(d, times[coarse]))
        for (d, u), basis in zip(eigs, sectors.sector_bases(n))])
    terms = [(a * p.T, d, cs) for a, (d, _), (p, cs)
             in zip(gen._rotated(state), eigs, scan) if a is not None]
    t = coarse.size
    value, slope, curvature = np.zeros(t), np.zeros(t), 0.0
    for c, d, cs in terms:
        p1, r, i_c = _population(c, cs)
        value += p1
        slope += 2 * d @ (cs[:, :t] * (r[:, t:] + i_c)
                          - cs[:, t:] * (r[:, :t] - c.imag @ cs[:, t:]))
        curvature += float(np.sum(np.abs(c) * np.subtract.outer(d, d) ** 2))
    curve = np.full(size, -np.inf)
    curve[coarse] = value
    fine = np.setdiff1d(np.arange(size), coarse)
    b2 = curvature * (1 + _SCAN_SLACK) + _SCAN_SLACK
    right = np.searchsorted(coarse, fine)  # coarse neighbours: right - 1
    reach = np.full(fine.size, np.inf)
    for x in (right - 1, right):
        s = times[fine] - times[coarse[x]]
        reach = np.minimum(reach, value[x] + slope[x] * s + b2 * s * s / 2)
    best = value.max()
    fine = fine[reach >= best - _TIE_TOL - _SCAN_SLACK * (1 + abs(best))]
    curve[fine] = sum(_population(c, _phases(d, times[fine]))[0]
                      for c, d, _ in terms)
    return curve


def optimize_waiting_time(
    probe: QuantumState,
    gen: LindbladGenerator,
    grid: Sequence[float] | np.ndarray | None = None,
    *,
    coupling: float = 1.0,
) -> tuple[float, TemperatureRecord]:
    """Earliest J*tau on the grid maximizing the end spin's polarization.

    Returns (J*tau, predicted temperature of the spin that would be emitted
    after waiting that long), read as `temperature_of` reads a qubit: an end
    spin inverted by more than 1e-12 raises `PopulationInversionError`, a
    smaller inversion reads beta_tilde = 0. Ties within 1e-12 go to the
    smallest time. The scan runs on the coherent dynamics whatever the
    generator's dephasing rate: it reads only the Hamiltonian's sector
    eigensystems. It is
    certified coarse to fine (`_exact_population_curve`): the points it
    skips lie provably more than 1e-12 below the maximum, so the wait is
    the full grid scan's.
    """
    _check_coupling(coupling)
    if gen.register.labels != probe.register.labels:
        raise DomainError("generator and probe registers do not match")
    if grid is None:
        grid = default_grid(probe.register.count)
    jgrid = np.asarray(grid, dtype=float)
    if jgrid.ndim != 1 or jgrid.size == 0 or np.any(np.diff(jgrid) <= 0) \
            or jgrid[0] < 0 or not np.isfinite(jgrid).all():
        raise DomainError("grid must be a non-empty increasing sequence of "
                          "finite J*tau values >= 0")
    probe = sector_decompose(probe)  # raises if inter-sector coherence
    curve = _exact_population_curve(probe, gen, jgrid / coupling)
    best = curve.max()
    index = int(np.argmax(curve >= best - _TIE_TOL))
    p1 = min(max(float(curve[index]), 0.0), 1.0)
    beta = _beta_of_populations(1.0 - p1, p1)
    return float(jgrid[index]), TemperatureRecord(beta)


# --------------------------------------------------------------------------
# one cooling round
# --------------------------------------------------------------------------

def attach_thermal_qubit(state: QuantumState, beta_tilde: float) -> QuantumState:
    """Prepend a fresh thermal qubit as site 0: chi(beta) (x) rho."""
    if 0 in state.register.labels:
        raise DomainError("register already contains the qubit site 0")
    return _prepend_site(state, 0, beta_tilde)


def _prepend_site(rest: QuantumState | None, label: int,
                  beta_tilde: float) -> QuantumState:
    """chi(beta) as site `label` in front of `rest` (None: no other site).

    For a sector-blocked rest the blocks assemble directly: sector l is the
    direct sum of p0 * (rest sector l) and p1 * (rest sector l-1), because
    the new site is the most significant bit of the joint index.
    """
    labels = (label,) + (rest.register.labels if rest is not None else ())
    p0, p1 = thermal_populations(beta_tilde)
    if rest is not None and not rest.is_blocked:
        joint = np.kron(np.diag([p0, p1]).astype(complex), rest.matrix)
        return QuantumState._adopt(SpinRegister(labels), dense=joint)
    rest_blocks = rest.blocks if rest is not None else [np.ones((1, 1))]
    n = len(rest_blocks) - 1
    out = []
    for l in range(n + 2):
        d_up = len(rest_blocks[l]) if l <= n else 0   # new site |0>
        d_dn = len(rest_blocks[l - 1]) if l else 0
        block = np.zeros((d_up + d_dn, d_up + d_dn), dtype=complex)
        if d_up:
            block[:d_up, :d_up] = p0 * rest_blocks[l]
        if d_dn:
            block[d_up:, d_up:] = p1 * rest_blocks[l - 1]
        out.append(block)
    return QuantumState._adopt(SpinRegister(labels), blocks=out)


def _efficiency(bath_beta: float, out_beta: float) -> float:
    """eta = 1 - bath/out, with the edge cases fixed.

    An emission within a relative _TIE_TOL of the bath is stationary: eta
    is exactly 0 rather than the sign of the last rounding bit. (Scaling by
    the finite out_beta keeps a pure bath, bath_beta = inf, out of the tie.)
    Any other emission at out_beta = 0 is the limit -inf.
    """
    if math.isinf(out_beta):
        return 0.0 if math.isinf(bath_beta) else 1.0
    if abs(out_beta - bath_beta) <= _TIE_TOL * out_beta:
        return 0.0
    if out_beta == 0.0:
        return -math.inf
    return 1.0 - bath_beta / out_beta


def cool_step(
    probe: QuantumState,
    bath_beta_tilde: float,
    gen: LindbladGenerator,
    swap: SwapSpec,
    tau: float,
    *,
    coupling: float = 1.0,
) -> tuple[QuantumState, QuantumState, StepRecord]:
    """One protocol round: wait tau, attach chi(bath), swap, detach.

    Returns (next probe, emitted qubit, record), all sector-blocked; a
    probe with inter-sector coherence raises `SectorMixingError` before it
    evolves. `tau` is physical time; the record stores J*tau using
    `coupling`. The emitted qubit carries label 0; the probe keeps labels
    1..N. A perfect swap is a site reset: the emitted qubit is site 1's
    marginal of the waited probe, and site 1 is re-prepared in chi(bath).
    A window yields each joint sector's qubit-|0>/|1> quadrants, read as
    the two partial traces: if coherent, by one Kraus map with the wait
    (its phases on `gen._rotated`, then `_window_route`'s B, zero blocks
    skipped); else the waits are `evolve_exact` and a dephased window is
    `evolve_exact` of the joint blocks p0 rho_L (+) p1 rho_{L-1}. The next
    probe's sector spectra (zeros for a zero block) give its entropy and
    distance. The window is `gen`'s (`window_generator`: its network and
    rate, plus the J_I hop). What a round reads of it, the B or a dephased
    window's generator, is kept on `gen` for the next round with the same
    swap: a direct round is `run_protocol`'s.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise DomainError(f"waiting time must be finite and >= 0, got {tau}")
    _check_coupling(coupling)
    if gen.register.labels != probe.register.labels:
        raise DomainError("generator and probe registers do not match")
    probe = sector_decompose(probe)  # raises if inter-sector coherence
    if swap.mode == "partial":
        # Built before any wait: its arrays and a waited probe never coexist
        window = gen._memo("window", swap, lambda: _window_route(
            window_generator(gen.network, gen.dephasing_rate, swap), swap, gen))
    labels = probe.register.labels
    p0, p1 = thermal_populations(bath_beta_tilde)
    if swap.mode == "partial" and not gen.dephasing_rate:
        # X_l = Phi_l o a_l, None for a zero block and for xs[-1], xs[N + 1]
        xs = [None if a is None else np.outer(f := np.exp(-1j * d * tau), f.conj()) * a
              for a, (d, _) in zip(gen._rotated(probe), gen.block_eigensystems())] + [None]
        kept = [[_kraus(row, (xs[big_l], xs[big_l - 1]), (p0, p1))
                 for row in quads] for big_l, quads in enumerate(window)]
    else:
        waited = evolve_exact(probe, gen, tau) if tau > 0 else probe
    if swap.mode == "perfect":
        site = partial_trace(waited, keep=labels[:1])
        qubit = QuantumState._adopt(SpinRegister((0,)), blocks=site.blocks)
        rest = partial_trace(waited, keep=labels[1:]) if labels[1:] else None
        next_probe = _prepend_site(rest, labels[0], bath_beta_tilde)
        # block l of the next probe is p0 rest_l (+) p1 rest_{l-1}
        mu = [np.linalg.eigvalsh(b) if b.any() else np.zeros(len(b))
              for b in rest.blocks] if rest is not None else [np.ones(1)]
        spectra = [np.concatenate((p0 * up, p1 * down)) for up, down
                   in zip(mu + [np.zeros(0)], [np.zeros(0)] + mu)]
    else:
        # Joint sector L lists its qubit-|0> states first (site 0 is the most
        # significant bit); `kept` holds its |0>/|1> quadrants, cut at C(N, L).
        if gen.dephasing_rate:
            joint = evolve_exact(_prepend_site(waited, 0, bath_beta_tilde),
                                 window, swap.window_duration)
            kept = [(y[:len(a), :len(a)], y[len(a):, len(a):]) for y, a
                    in zip(joint.blocks, waited.blocks + (np.zeros((0, 0)),))]
        next_probe = QuantumState._adopt(probe.register, blocks=[
            z + o for (z, _), (_, o) in zip(kept[:-1], kept[1:])])
        qubit = QuantumState._adopt(SpinRegister((0,)), blocks=[
            np.reshape(sum(np.trace(k[q]) for k in kept), (1, 1))
            for q in (0, 1)])
        spectra = [np.linalg.eigvalsh(b) if b.any() else np.zeros(len(b))
                   for b in next_probe.blocks]
    entropy, distance = _probe_diagnostics(spectra, bath_beta_tilde)

    out = temperature_of(qubit)
    record = StepRecord(
        index=0, wait_jtau=tau * coupling, qubit_out=out,
        eta=_efficiency(bath_beta_tilde, out.beta_tilde),
        qubit_entropy_drop=binary_entropy(bath_beta_tilde)
        - von_neumann_entropy(qubit),
        probe_entropy=entropy, distance_to_pseudothermal=distance)
    return next_probe, qubit, record


def _probe_diagnostics(spectra: list[np.ndarray], bath_beta_tilde: float
                       ) -> tuple[float, float]:
    """(entropy, distance to the bath product) from the spectra of a
    probe's sector blocks: the bath product's block l is c_l * I, so they
    give S = -sum lambda ln lambda and D = 1/2 sum |lambda - c_l|."""
    n = len(spectra) - 1
    p0, p1 = thermal_populations(bath_beta_tilde)
    entropy = spectrum_entropy(np.sort(np.concatenate(spectra)))
    distance = float(0.5 * sum(np.abs(vals - p0 ** (n - l) * p1 ** l).sum()
                               for l, vals in enumerate(spectra)))
    return entropy, distance


def _kraus(row: list[np.ndarray], xs: tuple, ps: tuple) -> np.ndarray:
    """sum_q p_q B_q X_q B_q^dag over the X_q that are not None."""
    out = np.zeros((len(row[0]),) * 2, complex)
    for b, x, p in zip(row, xs, ps):
        if x is not None:
            out += p * ((b @ x) @ b.conj().T)
    return out


# --------------------------------------------------------------------------
# full runs
# --------------------------------------------------------------------------

def _window_route(window: LindbladGenerator, spec: SwapSpec,
                  gen: LindbladGenerator) -> list | LindbladGenerator:
    """What a round reads of a built swap window (see `cool_step`): a dephased
    window itself, else per joint sector L, B[q'][q] = <q'|W_L|q> u_{L-q} (u_l:
    `gen`'s, zero-size past either end) as row cuts of v e^{-iDt} v_q^T u."""
    if window.dephasing_rate:
        return window
    us = [u for _, u in gen.block_eigensystems()] + [np.zeros((0, 0))]
    out = []
    for big_l, h in enumerate(window.hamiltonian_blocks()):
        d, v = np.linalg.eigh(h)
        cut, phases = len(us[big_l]), np.exp(-1j * d * spec.window_duration)
        cols = [v @ (phases[:, None] * (v[c].T @ u)) for c, u in
                ((np.s_[:cut], us[big_l]), (np.s_[cut:], us[big_l - 1]))]
        out.append([[b[:cut] for b in cols], [b[cut:] for b in cols]])
    return out


def run_protocol(cfg: ProtocolConfig,
                 initial_probe: QuantumState | None = None) -> ProtocolReport:
    """Execute K cooling rounds and record everything.

    `initial_probe` overrides the configured thermal product state; it is
    accepted unvalidated against the temperature precondition, which is how
    the negative controls (probes hotter than the bath) are exercised. One
    with inter-sector coherence raises `SectorMixingError` before any round.
    """
    n = cfg.probe_size
    gen = LindbladGenerator.from_network(
        SpinNetwork.uniform_chain(n, cfg.coupling), cfg.dephasing_rate)

    if initial_probe is None:
        probe = thermal_product_state(cfg.probe_beta_tildes)
    else:
        if initial_probe.register.labels != gen.register.labels:
            raise DomainError("initial probe register must be sites 1..N")
        probe = sector_decompose(initial_probe)
    initial_entropy, initial_distance = _probe_diagnostics(
        [np.linalg.eigvalsh(b) for b in probe.blocks], cfg.bath_beta_tilde)

    grid = default_grid(n)
    records = []
    for k in range(1, cfg.steps + 1):
        predicted = None
        if cfg.waiting_policy == "optimized":
            jtau, predicted = optimize_waiting_time(
                probe, gen, grid, coupling=cfg.coupling)
        elif cfg.waiting_policy == "schedule":
            jtau = cfg.tau_schedule[k - 1]
        else:
            jtau = cfg.fixed_jtau
        probe, _, record = cool_step(
            probe, cfg.bath_beta_tilde, gen, cfg.swap, jtau / cfg.coupling,
            coupling=cfg.coupling)
        records.append(replace(record, index=k, predicted=predicted,
                               at_grid_edge=predicted is not None
                               and bool(jtau == grid[-1])))

    return ProtocolReport(
        config=cfg,
        initial_probe_entropy=initial_entropy,
        initial_distance=initial_distance,
        records=tuple(records),
        final_probe=probe,
    )


def ideal_waiting_schedule(cfg: ProtocolConfig) -> tuple[float, ...]:
    """Waiting times the optimized protocol picks in the noise-free limit.

    Reruns the configuration with dephasing off, a perfect instantaneous
    swap, and per-step optimization, and returns the chosen J*tau values.
    This is the schedule an experimenter precomputes when the actual noise
    strength and swap fidelity are unknown: comparison sweeps replay it
    unchanged across the grid so every run waits at the same moments.
    """
    ideal = replace(cfg, dephasing_rate=0.0, swap=SwapSpec.perfect(),
                    waiting_policy="optimized", tau_schedule=None)
    report = run_protocol(ideal)
    return tuple(float(r.wait_jtau) for r in report.records)


# --------------------------------------------------------------------------
# entropy accounting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyAudit:
    """Did the run respect the second-law bookkeeping?

    Per step: the probe's entropy gain must cover the emitted qubit's
    entropy drop, and that drop must not be negative. Cumulatively: the
    total drop is capped by the probe's net entropy gain, itself capped by
    N times the bath entropy. All with 1e-9 slack. It passes exactly when
    no step offends.
    """

    offending_step: int | None
    total_drop: float
    capacity: float

    @property
    def passed(self) -> bool:
        return self.offending_step is None


def entropy_accounting(report: ProtocolReport) -> EntropyAudit:
    tol = _ACCOUNTING_TOL
    capacity = report.config.probe_size * report.config.bath_entropy
    prev = report.initial_probe_entropy
    cumulative = 0.0
    offending = None
    for rec in report.records:
        d_probe = rec.probe_entropy - prev
        d_qubit = rec.qubit_entropy_drop
        cumulative += d_qubit
        gain = rec.probe_entropy - report.initial_probe_entropy
        ok = (
            d_probe >= d_qubit - tol
            and d_qubit >= -tol
            and cumulative <= gain + tol
            and gain <= capacity + tol
        )
        if not ok and offending is None:
            offending = rec.index
        prev = rec.probe_entropy
    return EntropyAudit(
        offending_step=offending,
        total_drop=cumulative,
        capacity=capacity,
    )


# --------------------------------------------------------------------------
# thermometry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermometryResult:
    """Pooled-counts temperature estimate across every probe site.

    `beta_tilde` is ln(n1/n0) from the pooled ground/excited counts; it can
    be negative (`inverted`) or infinite (`boundary`) at small shot counts.
    `record` is only set when the estimate lands in the physical range.
    """

    stderr: float
    excited_count: float
    ground_count: float

    @property
    def boundary(self) -> bool:
        return self.ground_count == 0.0 or self.excited_count == 0.0

    @property
    def beta_tilde(self) -> float:
        if self.ground_count == 0.0:
            return math.inf
        if self.excited_count == 0.0:
            return -math.inf
        return math.log(self.excited_count / self.ground_count)

    @property
    def inverted(self) -> bool:
        return self.beta_tilde < 0

    @property
    def record(self) -> TemperatureRecord | None:
        return None if self.inverted else TemperatureRecord(self.beta_tilde)


def estimate_temperature(probe: QuantumState,
                         shots_per_site: int | None = None,
                         seed: int | None = None) -> ThermometryResult:
    """Estimate the probe's common temperature from per-site measurements.

    Each site is measured `shots_per_site` times in the energy basis
    (binomial draws from its reduced populations), counts are pooled across
    sites, and beta_tilde is the log count ratio -- the maximum-likelihood
    estimate when the sites share one temperature. `shots_per_site=None`
    skips sampling and pools the exact populations (the infinite-shot
    limit), which inverts a genuinely thermal product state exactly.
    """
    pops = np.asarray(reduced_site_populations(probe), dtype=float)
    if shots_per_site is None:
        n0 = float(pops[:, 0].sum())
        n1 = float(pops[:, 1].sum())
        stderr = 0.0
    else:
        if isinstance(shots_per_site, bool) \
                or not isinstance(shots_per_site, (int, np.integer)) \
                or shots_per_site < 1:
            raise DomainError(f"shots per site must be an integer >= 1, got "
                              f"{shots_per_site!r}")
        rng = np.random.default_rng(seed)
        p1 = np.clip(pops[:, 1], 0.0, 1.0)
        excited = rng.binomial(shots_per_site, p1)
        n1 = float(excited.sum())
        n0 = float(probe.register.count * shots_per_site - n1)
        stderr = math.sqrt(1.0 / n0 + 1.0 / n1) if n0 > 0 and n1 > 0 \
            else math.inf
    return ThermometryResult(stderr=stderr, excited_count=n1, ground_count=n0)
