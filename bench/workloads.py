"""The four benchmark workloads: inputs, the timed call and its checks.

All protocol workloads cool an N = 10 probe that starts fully polarized,
against a bath at beta_tilde = 0.2, with J = 1, as in the paper's figures.
One operation is one cooling round or one oracle trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import spinfridge as sf

import checks

PROBE_SIZE = 10
BATH_BETA = 0.2
# Fixed oracle panel: the cost of a 100-trial draw varies by about 11%
# (coefficient of variation) from one oracle seed to the next, which would
# drown any regression bound, so every run times the same draw.
ORACLE_TRIALS = 100
ORACLE_SEED = 20260814
NEGATIVE_CONTROL_TRIALS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    call: Callable[[], object]                  # one timed call
    operations: int                             # operations per call
    check: Callable[[object], list[str]]        # cheap, on every result
    verify: Callable[[object], list[str]]       # costly, on one result


def _protocol(name: str, cfg: sf.ProtocolConfig, replay_rounds: int,
              check_prediction: bool = False) -> Workload:
    return Workload(
        name=name,
        call=lambda: sf.run_protocol(cfg),
        operations=cfg.steps,
        check=lambda report: checks.protocol_problems(
            report, check_prediction=check_prediction),
        verify=lambda report: checks.reference_problems(report, replay_rounds),
    )


def ideal_optimized(seed: int) -> Workload:
    """The headline run: optimized waits, no dephasing, perfect swap."""
    cfg = sf.ProtocolConfig(probe_size=PROBE_SIZE, bath_beta_tilde=BATH_BETA,
                            steps=40)
    return _protocol("ideal_optimized", cfg, replay_rounds=40,
                     check_prediction=True)


def dephased_fixed(seed: int) -> Workload:
    """Fixed J*tau = 1 under Gamma = 0.5: RKF45 on sector blocks."""
    cfg = sf.ProtocolConfig(probe_size=PROBE_SIZE, bath_beta_tilde=BATH_BETA,
                            steps=8, dephasing_rate=0.5,
                            waiting_policy="fixed", fixed_jtau=1.0)
    return _protocol("dephased_fixed", cfg, replay_rounds=8)


def draw_schedule(seed: int, steps: int) -> tuple[float, ...]:
    """J*tau for each round, uniform over [0, N]."""
    rng = np.random.default_rng(seed)
    return tuple(float(t) for t in rng.uniform(0.0, PROBE_SIZE, size=steps))


def partial_window(seed: int) -> Workload:
    """J_I = 5 partial swaps after waits drawn from the seed."""
    cfg = sf.ProtocolConfig(probe_size=PROBE_SIZE, bath_beta_tilde=BATH_BETA,
                            steps=40, swap=sf.SwapSpec.partial(5.0),
                            waiting_policy="schedule",
                            tau_schedule=draw_schedule(seed, 40))
    return _protocol("partial_window", cfg, replay_rounds=10)


def oracle_cools(seed: int) -> Workload:
    """Randomized never-heats oracle on 3-5 spin channels.

    The seed draws the negative control, which starts every probe hotter
    than the bath and must be caught.
    """
    def verify(_result) -> list[str]:
        control = sf.oracle_always_cools(trials=NEGATIVE_CONTROL_TRIALS,
                                         seed=seed, inject_violation=True)
        return checks.negative_control_problems(control)

    return Workload(
        name="oracle_cools",
        call=lambda: sf.oracle_always_cools(trials=ORACLE_TRIALS,
                                            seed=ORACLE_SEED),
        operations=ORACLE_TRIALS,
        check=lambda result: checks.oracle_problems(result, ORACLE_TRIALS),
        verify=verify,
    )


WORKLOADS = {f.__name__: f for f in
             (ideal_optimized, dephased_fixed, partial_window, oracle_cools)}
