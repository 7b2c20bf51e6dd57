"""spinfridge: a spin-chain quantum refrigerator/thermometer simulator.

A chain of interacting spins (the probe) cools a stream of thermal qubits:
each cycle waits under free dissipative dynamics, then swaps the probe's
target spin with a fresh qubit. The package simulates that loop exactly
(an adaptive integrator is kept only as the tests' reference for the exact
route), verifies the protocol's structural guarantees (cooling,
stationarity, entropy bounds, majorization) by brute force at small sizes,
and computes the dipolar couplings for the diamond-defect implementation.
"""

from .errors import (
    DomainError,
    IntegrationError,
    InvalidStateError,
    ManifestError,
    NotDiagonalError,
    PopulationInversionError,
    SectorMixingError,
    SpinFridgeError,
)
from .integrate import IntegratorConfig
from .registers import SpinRegister
from .states import (
    QuantumState,
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
from .dynamics import (
    CheckResult,
    LindbladGenerator,
    SpinNetwork,
    SwapSpec,
    conserves_z_excitation,
    evolve,
    evolve_exact,
    is_unital,
    partial_swap,
    perfect_swap,
    window_generator,
    xxz_network_hamiltonian,
)
from .protocol import (
    EntropyAudit,
    ProtocolConfig,
    ProtocolReport,
    StepRecord,
    ThermometryResult,
    attach_thermal_qubit,
    cool_step,
    default_grid,
    entropy_accounting,
    estimate_temperature,
    ideal_waiting_schedule,
    optimize_waiting_time,
    run_protocol,
)
from .oracles import (
    ChannelSample,
    OracleResult,
    oracle_always_cools,
    oracle_entropy_bounds,
    oracle_majorization,
    oracle_stationary_state,
    random_channel_sample,
    run_all_oracles,
)
from .nv import (
    DIAMOND_BOND_AXES,
    DIPOLAR_CONSTANT,
    DipolarCoefficients,
    DipolarPair,
    SpinFrame,
    chain_yield,
    dipolar_coefficients,
    nv_nv_effective_hamiltonian,
    nv_p1_coupling,
    wahuha_average_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
