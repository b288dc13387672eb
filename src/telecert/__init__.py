"""Finite-run certification of teleportation fidelity.

Given an ensemble of states to teleport and a measurement strategy that
uses no shared entanglement, this package computes the protocol's average
fidelity, bounds the probability that N finite runs of such a strategy
reach a higher target fidelity anyway, and validates that bound against an
exact enumeration oracle and a Monte Carlo simulation of the protocol.
"""

import types

from ._version import __version__
from .discrimination import Povm, error_probability, helstrom_povm, square_root_povm
from .ensembles import (
    Ensemble,
    four_asymmetric,
    helstrom_pair,
    load_ensemble,
    qubit_mubs,
    qutrit_mubs,
    to_document,
    trine,
)
from .errors import (
    BudgetExceededError,
    EnsembleFormatError,
    PreconditionError,
    PriorSumError,
    StateNormalizationError,
    TelecertError,
    ValidationError,
)
from .scenarios import Scenario, builtin_scenarios, custom_scenario
from .simulator import (
    LlnRow,
    SimConfig,
    SimReport,
    TrialTally,
    exact_exceedance,
    lln_sweep,
    min_passes,
    pass_count_distribution,
    run_experiment,
    run_trial,
    stream,
)
from .stats import (
    BoundReport,
    HypothesisConfig,
    bound_report,
    classical_fidelity,
    hoeffding_generic,
    mu_of,
    scenario_bound_report,
    t_of,
    type_one_error,
    type_two_error,
)

# The public names imported above, modules left out.
__all__ = ["__version__", *sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)]
