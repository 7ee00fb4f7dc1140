"""Equilibrium measures for finite-range potentials on subshifts of finite type.

The package computes transfer-operator spectra, Gibbs measures, pressures and
entropies, and certifies quantitative bounds comparing an arbitrary shift
invariant Markov measure against the equilibrium one: a pressure-gap bound on
observable averages, finitary versions phrased through conditional and block
entropies, and approximation harnesses for truncated countable-state models,
periodic-orbit measures, and perturbed potentials.
"""

from .approx import (
    AMBIENT_A,
    CountableModel,
    FiniteSubsystem,
    PeriodicOrbitMeasure,
    combined_orbit_harness,
    geometric_model,
    orbit_entropy_identity,
    periodic_orbit_harness,
    periodic_orbit_measure,
    periodic_orbit_measures,
    stability_bound,
    truncate,
    truncation_harness,
    zeta_model,
)
from .bounds import (
    BoundReport,
    RadicandError,
    block_entropy_gap_bound,
    cohomology_residual,
    entropy_averaging_check,
    finitary_gap_bound,
    pressure_gap_bound,
    reduction_step_norms,
)
from .cli import ConfigError, ExperimentConfig, main, parse_config, run_experiment
from .measures import (
    MarkovMeasure,
    block_entropy,
    conditional_entropy,
    conditional_kl_integral,
    entropy_rate,
    information_function,
    integrate,
    kl_divergence,
    make_markov_measure,
    metric_pressure,
    pinsker_gap,
    point_mass,
    random_markov_measure,
    reverse_kernel,
)
from .potential import (
    LocallyConstantFunction,
    Norms,
    add,
    random_function,
    recode_to_markovian,
    scale,
    sup_diff,
)
from .shift import (
    DEFAULT_THETA,
    EmptyShiftError,
    EnumerationLimitError,
    NotMixingError,
    Recoding,
    TransitionMatrix,
    build_sft,
    enumerate_periodic,
    enumerate_words,
    higher_block_recode,
    is_topologically_mixing,
)
from .systems import BUILTIN_SHIFTS, BUILTIN_SYSTEMS, builtin_shift, builtin_system
from .transfer import (
    EigensolverError,
    GibbsCertificate,
    PartitionSum,
    PerronData,
    equilibrium,
    gibbs_certificate,
    gurevich_estimate,
    normalize_zero_pressure,
    partition_sum,
    perron_data,
    pressure,
    transfer_matrix,
)

__version__ = "0.1.0"
