"""Brute-force randomized oracles for the protocol's structural guarantees.

Each oracle hammers one claim with randomized small-system trials and
returns a verdict object instead of raising: a failure carries a plain-dict
witness (seed, trial index, drawn parameters, offending numbers) sufficient
to replay it. All randomness flows from one seed, so verdicts are
reproducible bit for bit.

The claims, in the order exercised here:

* always cools   -- a round of a probe whose sites all started at least as
                    cold as the bath, with a unital z-conserving wait and a
                    perfect or partial swap, never emits a qubit hotter
                    than the bath.
* stationarity   -- a round maps the bath product chi(bath)^N to itself
                    and emits chi(bath); a product at another temperature
                    moves.
* entropy bounds -- per step the probe's entropy gain covers the emitted
                    qubit's entropy drop, and the cumulative drop never
                    exceeds the probe's capacity N*S_T.
* majorization   -- within every excitation sector, the spectrum before a
                    unital z-conserving channel majorizes the one after.

The first two run the round the protocol ships, `cool_step`, and read its
next probe and emitted qubit. Every verdict is built by `_verdict`: it
passes exactly when it holds no witness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .dynamics import (LindbladGenerator, SpinNetwork, SwapSpec,
                       _random_blocked_state, conserves_z_excitation,
                       evolve_exact, is_unital, window_generator)
from .errors import DomainError
from .protocol import (ProtocolConfig, ProtocolReport, _prepend_site,
                       _window_route, cool_step, entropy_accounting,
                       run_protocol)
from .registers import SpinRegister
from .states import (QuantumState, partial_trace, thermal_product_state,
                     trace_distance)

_COOL_TOL = 1e-9
_FIXED_POINT_TOL = 1e-8
_DISPLACEMENT_MIN = 1e-6
_MAJORIZATION_TOL = 1e-10
_UNITARITY_TOL = 1e-12
_STATIONARY_TAUS = 10     # waits drawn per rate by the stationarity check
_STATIONARY_RATES = (0.0, 0.3)  # its dephasing rates


def _check_run(trials: int, max_sites: int, oracle: str) -> None:
    if trials < 1:
        raise DomainError(f"{oracle} oracle needs trials >= 1, got {trials}")
    if max_sites < 2:
        raise DomainError(f"{oracle} oracle draws probes of 2..max_sites "
                          f"sites, got max_sites = {max_sites}")


# --------------------------------------------------------------------------
# verdicts and samples
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    """Outcome of one oracle run; falsy when the property failed, which is
    when it carries a `witness` (`_verdict`)."""

    name: str
    passed: bool
    trials: int
    duration_s: float
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "trials": self.trials,
            "duration_s": round(self.duration_s, 3),
            "witness": self.witness,
            "details": self.details,
        }


def _verdict(name: str, start: float, trials: int,
             witness: dict | None = None, **details) -> OracleResult:
    """The oracle result after `trials` trials begun at `start`
    (`time.perf_counter`): passed exactly when there is no witness."""
    return OracleResult(name, witness is None, trials,
                        time.perf_counter() - start, witness, details)


@dataclass
class ChannelSample:
    """One randomly drawn round: the wait generator `gen` on the probe's
    register, `swap` and the wait `tau`, run as
    `cool_step(probe, bath, gen, swap, tau)`. `params` describes them
    plainly."""

    gen: LindbladGenerator
    swap: SwapSpec
    tau: float

    @property
    def params(self) -> dict:
        net, j_i = self.gen.network, self.swap.interaction_strength
        return {
            "probe_size": net.register.count,
            "couplings": {f"{a},{b}": j
                          for (a, b), j in net.couplings.items()},
            "anisotropies": {f"{a},{b}": d
                             for (a, b), d in net.anisotropies.items()},
            "gamma": self.gen.dephasing_rate,
            "tau": self.tau,
            "swap": "perfect" if j_i is None else f"partial J_I={j_i:.4g}",
        }


def _random_network(rng: np.random.Generator, reg: SpinRegister
                    ) -> SpinNetwork:
    """Couplings uniform in [-1, 1] on every pair of `reg`, then
    anisotropies uniform in [0, 2]."""
    labels = reg.labels
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    couplings = {p: float(rng.uniform(-1.0, 1.0)) for p in pairs}
    return SpinNetwork(reg, couplings,
                       {p: float(rng.uniform(0.0, 2.0)) for p in pairs})


def random_channel_sample(rng: np.random.Generator, probe_size: int,
                          check_seed: int = 0) -> ChannelSample:
    """Draw a z-conserving network, dephasing rate, wait, and swap.

    Couplings are uniform in [-1, 1] on every pair, anisotropies uniform in
    [0, 2], so the Hamiltonian commutes with total spin-z by construction.
    The dephasing rate mixes point masses at 0 and J with a uniform draw so
    both edge regimes always appear across a batch. The cooling theorem's
    hypotheses, z-excitation conservation and unitality, are checked on
    what the round applies: the wait channel `evolve_exact(., gen, tau)` on
    the probe's register and, for a partial swap, the window the sample
    keeps on `gen` for its rounds. A dephased window is checked as its
    `evolve_exact` channel on qubit + probe; a coherent one as the map its
    rounds apply, each joint sector's quadrants, which must form a unitary
    (`_check_window_unitary`). A perfect swap permutes sites.
    """
    net = _random_network(rng, SpinRegister.of_size(probe_size))
    draw = rng.random()
    gamma = 0.0 if draw < 0.25 else (1.0 if draw < 0.5 else
                                     float(rng.uniform(0.0, 1.0)))
    tau = float(rng.uniform(0.0, probe_size))
    j_i = None if rng.random() < 0.5 else \
        float(math.exp(rng.uniform(math.log(0.5), math.log(100.0))))
    swap = SwapSpec.perfect() if j_i is None else SwapSpec.partial(j_i)
    gen = LindbladGenerator.from_network(net, gamma)
    channels = [(gen, tau)]
    if j_i is not None:
        window = window_generator(net, gamma, swap)
        route = gen._memo("window", swap,
                          lambda: _window_route(window, swap, gen))
        if gamma:
            channels.append((window, swap.window_duration))
        else:
            _check_window_unitary(route)
    for channel_gen, duration in channels:
        def channel(state, g=channel_gen, t=duration):
            return evolve_exact(state, g, t)
        if not conserves_z_excitation(channel, channel_gen.register, trials=1,
                                      seed=check_seed):
            raise DomainError("drawn channel failed z-conservation check")
        if not is_unital(channel, channel_gen.register):
            raise DomainError("drawn channel failed unitality check")
    return ChannelSample(gen, swap, tau)


def _check_window_unitary(route: list) -> None:
    """Raise `DomainError` unless every joint sector L's quadrants B[q'][q]
    (`_window_route`) form M_L = [[B_00, B_01], [B_10, B_11]] =
    W_L (u_L (+) u_(L-1)) with max|M_L^dag M_L - I| <= 1e-12: a unitary
    per sector is trace-preserving, unital and z-conserving."""
    for big_l, quads in enumerate(route):
        m = np.hstack([np.vstack(column) for column in zip(*quads)])
        dev = float(np.abs(m.conj().T @ m - np.eye(len(m))).max())
        if dev > _UNITARITY_TOL:
            raise DomainError(f"drawn window's sector L = {big_l} is not "
                              f"unitary: max|M^dag M - I| = {dev:.3e}")


# --------------------------------------------------------------------------
# theorem: the protocol always cools
# --------------------------------------------------------------------------

def oracle_always_cools(trials: int = 500, max_sites: int = 4,
                        seed: int = 20260814,
                        inject_violation: bool = False) -> OracleResult:
    """Randomized check that no emitted qubit is ever hotter than the bath.

    Each of `trials` (>= 1) trials draws a probe size in {2..max_sites}
    (max_sites >= 2), a channel sample, a bath temperature, valid per-site
    probe temperatures (all at least as cold as the bath, with point masses
    at equality and at fully polarized), and runs one to three rounds,
    checking every emission.

    `inject_violation=True` deliberately starts every probe hotter than the
    bath (beta_tilde = bath/2) to confirm the oracle detects the failure.
    """
    _check_run(trials, max_sites, "always-cools")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    coldest = math.inf
    for trial in range(trials):
        n = int(rng.integers(2, max_sites + 1))
        sample = random_channel_sample(rng, n, check_seed=seed + trial)
        bath = float(rng.uniform(0.05, 3.0))
        temps = []
        for _ in range(n):
            u = rng.random()
            if u < 0.2:
                temps.append(math.inf)
            elif u < 0.4:
                temps.append(bath)
            else:
                temps.append(bath + float(rng.uniform(0.0, 4.0)))
        if inject_violation:
            temps = [bath / 2.0] * n
        probe = thermal_product_state(temps)
        rounds = int(rng.integers(1, 4))
        for step in range(1, rounds + 1):
            probe, _, record = cool_step(probe, bath, sample.gen,
                                         sample.swap, sample.tau)
            beta_out = record.qubit_out.beta_tilde
            coldest = min(coldest, beta_out - bath)
            if beta_out < bath - _COOL_TOL:
                return _verdict("always_cools", start, trial + 1, {
                    "seed": seed,
                    "trial": trial,
                    "step": step,
                    "bath_beta_tilde": bath,
                    "probe_beta_tildes": [float(t) for t in temps],
                    "beta_tilde_out": float(beta_out),
                    "channel": sample.params,
                })
    return _verdict("always_cools", start, trials,
                    min_margin=float(coldest))


# --------------------------------------------------------------------------
# theorem: the bath product state is the stationary state
# --------------------------------------------------------------------------

def oracle_stationary_state(net: SpinNetwork | None = None,
                            bath_beta_tilde: float = 0.2,
                            seed: int = 7) -> OracleResult:
    """Fixed-point and displacement check for the bath product state.

    For each dephasing rate (0 and 0.3), each sampled waiting time, and
    each swap flavor (perfect and a partial J_I = 5 window of the network's
    generator), one round (`cool_step`) of chi(bath)^N must return it as the
    next probe and emit chi(bath), the larger of the two trace distances
    within 1e-8. A probe at twice the bath beta_tilde must move by more
    than 1e-6 after one round for at least one sampled waiting time, so a
    bath at 0 or infinity, where twice beta_tilde is beta_tilde, is refused.
    """
    if 2.0 * bath_beta_tilde == bath_beta_tilde:
        raise DomainError(f"bath beta_tilde {bath_beta_tilde} is its own "
                          f"double: the perturbed probe would not differ")
    if net is None:
        net = SpinNetwork.uniform_chain(4, 1.0)
    n = net.register.count
    rng = np.random.default_rng(seed)
    taus = rng.uniform(0.0, n, size=_STATIONARY_TAUS)
    start = time.perf_counter()
    stationary = thermal_product_state([bath_beta_tilde] * n)
    perturbed = thermal_product_state([2.0 * bath_beta_tilde] * n)
    bath_qubit = _prepend_site(None, 0, bath_beta_tilde)
    swaps = [("perfect", SwapSpec.perfect()),
             ("partial J_I=5", SwapSpec.partial(5.0))]

    trials = 0
    worst_fixed = 0.0
    best_displacement = 0.0
    witness = None
    for gamma in _STATIONARY_RATES:
        gen = LindbladGenerator.from_network(net, gamma)
        for tau in taus:
            for swap_name, swap in swaps:
                trials += 1
                probe, qubit, _ = cool_step(stationary, bath_beta_tilde,
                                            gen, swap, tau)
                dev = max(trace_distance(probe, stationary),
                          trace_distance(qubit, bath_qubit))
                worst_fixed = max(worst_fixed, dev)
                if dev > _FIXED_POINT_TOL and witness is None:
                    witness = {
                        "seed": seed,
                        "kind": "fixed point moved",
                        "gamma": float(gamma),
                        "tau": float(tau),
                        "swap": swap_name,
                        "trace_distance": float(dev),
                    }
                moved, _, _ = cool_step(perturbed, bath_beta_tilde, gen,
                                        swap, tau)
                best_displacement = max(
                    best_displacement, trace_distance(moved, perturbed))
    if witness is None and best_displacement <= _DISPLACEMENT_MIN:
        witness = {
            "seed": seed,
            "kind": "perturbed state did not move",
            "max_displacement": float(best_displacement),
        }
    return _verdict("stationary_state", start, trials, witness,
                    worst_fixed_point_distance=float(worst_fixed),
                    max_perturbed_displacement=float(best_displacement))


# --------------------------------------------------------------------------
# theorem: entropy bookkeeping
# --------------------------------------------------------------------------

def _standard_reports() -> list[ProtocolReport]:
    runs = [
        ProtocolConfig(probe_size=4, bath_beta_tilde=0.2, steps=12),
        ProtocolConfig(probe_size=1, bath_beta_tilde=0.2, steps=1),
        ProtocolConfig(probe_size=3, bath_beta_tilde=0.2, steps=6,
                       probe_beta_tildes=(0.2, 0.2, 0.2)),
        ProtocolConfig(probe_size=3, bath_beta_tilde=0.4, steps=8,
                       dephasing_rate=0.4, waiting_policy="fixed"),
        ProtocolConfig(probe_size=3, bath_beta_tilde=0.2, steps=6,
                       swap=SwapSpec.partial(5.0)),
    ]
    return [run_protocol(cfg) for cfg in runs]


def oracle_entropy_bounds(reports: Iterable[ProtocolReport] | None = None
                          ) -> OracleResult:
    """Second-law accounting on a set of completed runs.

    Every report must pass the per-step and cumulative entropy checks; on
    top of that, runs that started from the fully polarized probe must show
    a non-decreasing probe entropy staying below the N*S_T capacity. An
    empty set of reports is refused.
    """
    start = time.perf_counter()
    if reports is None:
        reports = _standard_reports()
    reports = list(reports)
    if not reports:
        raise DomainError("entropy-bounds oracle needs at least one report")
    witness = None
    for i, report in enumerate(reports):
        audit = entropy_accounting(report)
        if not audit.passed:
            witness = {
                "report": i,
                "kind": "accounting violation",
                "offending_step": audit.offending_step,
                "config": _config_summary(report.config),
            }
            break
        temps = report.config.probe_beta_tildes
        if temps and all(math.isinf(t) for t in temps):
            entropies = np.concatenate(
                ([report.initial_probe_entropy], report.probe_entropies))
            capacity = report.config.probe_size * report.config.bath_entropy
            if np.any(np.diff(entropies) < -_COOL_TOL) \
                    or entropies[-1] > capacity + _COOL_TOL:
                witness = {
                    "report": i,
                    "kind": "pure-probe entropy approach violated",
                    "entropies": [float(s) for s in entropies],
                    "capacity": float(capacity),
                    "config": _config_summary(report.config),
                }
                break
    return _verdict("entropy_bounds", start, len(reports), witness)


def _config_summary(cfg: ProtocolConfig) -> dict:
    return {
        "probe_size": cfg.probe_size,
        "bath_beta_tilde": cfg.bath_beta_tilde,
        "dephasing_rate": cfg.dephasing_rate,
        "steps": cfg.steps,
        "swap": cfg.swap.mode,
        "waiting_policy": cfg.waiting_policy,
    }


# --------------------------------------------------------------------------
# lemma: unital z-conserving channels flatten sector spectra
# --------------------------------------------------------------------------

def _sector_spectra(state: QuantumState) -> list[np.ndarray]:
    """Per-sector spectra of a blocked state, each sorted descending."""
    spectra = []
    for block in state.blocks:
        s = np.sort(np.linalg.eigvalsh(block))[::-1]
        if s[-1] < -1e-12 or abs(np.trace(block).real - s.sum()) > 1e-10:
            raise DomainError("inconsistent sector spectrum")
        spectra.append(s)
    return spectra


def _majorizes(before: np.ndarray, after: np.ndarray,
               tol: float = _MAJORIZATION_TOL) -> tuple[bool, float]:
    """Partial-sum dominance of two descending-sorted vectors."""
    gaps = np.cumsum(before) - np.cumsum(after)
    return bool(np.all(gaps >= -tol)), float(gaps.min())


def oracle_majorization(trials: int = 300, max_sites: int = 4,
                        seed: int = 99,
                        negative_control: bool = False) -> OracleResult:
    """Within-sector spectral dominance under the evolution channel.

    Each of `trials` (>= 1) trials draws a random blocked state on
    2..max_sites (>= 2) sites and a random z-conserving network with a
    dephasing rate from {0, 0.5, uniform}, evolves exactly for a random
    time, and checks that each sector's sorted spectrum before majorizes
    the one after. With `negative_control=True` the channel is replaced by
    a non-unital site reset, which must be caught violating dominance.
    """
    _check_run(trials, max_sites, "majorization")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    strictest = 0.0
    for trial in range(trials):
        n = int(rng.integers(2, max_sites + 1))
        state = _random_blocked_state(rng, SpinRegister.of_size(n))
        labels = state.register.labels
        net = _random_network(rng, state.register)
        draw = rng.random()
        gamma = 0.0 if draw < 0.25 else (0.5 if draw < 0.5 else
                                         float(rng.uniform(0, 1)))
        tau = float(rng.uniform(0.0, 2.0))
        gen = LindbladGenerator.from_network(net, gamma)
        if negative_control:
            # non-unital: re-prepare site 1 in its ground state (beta = inf)
            out = _prepend_site(partial_trace(state, keep=labels[1:]),
                                labels[0], math.inf)
        else:
            out = evolve_exact(state, gen, tau)
        before, after = _sector_spectra(state), _sector_spectra(out)
        for l, (b, a) in enumerate(zip(before, after)):
            ok, worst_gap = _majorizes(b, a)
            if ok and gamma > 0:
                strict = float((np.cumsum(b) - np.cumsum(a)).max())
                strictest = max(strictest, strict)
            if not ok:
                return _verdict("majorization", start, trial + 1, {
                    "seed": seed,
                    "trial": trial,
                    "sector": l,
                    "worst_partial_sum_gap": worst_gap,
                    "gamma": gamma,
                    "tau": tau,
                    "negative_control": negative_control,
                })
    return _verdict("majorization", start, trials,
                    max_strict_dominance=float(strictest))


def run_all_oracles(seed: int = 20260814) -> list[OracleResult]:
    """The full battery with default sizes, as run by the CLI."""
    return [
        oracle_always_cools(seed=seed),
        oracle_stationary_state(seed=seed % 1000),
        oracle_entropy_bounds(),
        oracle_majorization(seed=seed % 4096),
    ]
