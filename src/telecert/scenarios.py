"""Named experiment configurations: ensemble + strategy + target fidelity.

A scenario pins down everything the bound and the simulator need: which
states are teleported, how the sender discriminates them, and which
experimentally reported fidelity the certification is run against.

The five built-in scenarios are built once per process, on first use, and
shared: ``builtin_scenarios()`` and the CLI hand out the same instances.
That is safe because a ``Scenario``, its ``Ensemble`` and its ``Povm`` are
frozen and their arrays sit on immutable buffers.  The constructors
themselves, and ``helstrom_scenario(theta)`` at any angle, build a new
scenario each call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .discrimination import (
    Povm,
    _check_match,
    helstrom_povm,
    pass_rates,
    square_root_povm,
    verification_table,
)
from .ensembles import (
    Ensemble,
    four_asymmetric,
    helstrom_pair,
    qubit_mubs,
    qutrit_mubs,
    trine,
)
from .linalg import frozen
from .stats import fidelity_from_pass_rates

STRATEGIES = ("square-root", "helstrom", "custom")


@dataclass(frozen=True, eq=False)
class Scenario:
    """An ensemble, the strategy measuring it, and the target to certify.

    The values every request derives from the ensemble and the POVM,
    ``verification_table``, ``pass_probabilities`` (q),
    ``classical_fidelity`` and ``outcome_split``, are computed on first use
    and kept, so a scenario computes each at most once, whatever N, trial
    count, seed or threshold a request asks for.
    The arrays sit on immutable buffers like the ensemble's.
    """

    name: str
    ensemble: Ensemble
    povm: Povm
    strategy: str
    target_fidelity: float
    target_note: str = ""

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if not 0.0 < self.target_fidelity <= 1.0:
            raise ValueError(
                f"target fidelity must lie in (0, 1], got {self.target_fidelity!r}"
            )
        _check_match(self.ensemble, self.povm)

    @functools.cached_property
    def verification_table(self) -> np.ndarray:
        """``discrimination.verification_table`` of the ensemble and the POVM."""
        return frozen(verification_table(self.ensemble, self.povm))

    @functools.cached_property
    def pass_probabilities(self) -> np.ndarray:
        """Per-state probability q_i that one run passes verification."""
        return frozen(pass_rates(self.verification_table))

    @functools.cached_property
    def classical_fidelity(self) -> float:
        """``stats.classical_fidelity`` of the ensemble and the POVM."""
        return fidelity_from_pass_rates(self.ensemble.priors, self.pass_probabilities)

    @functools.cached_property
    def outcome_split(self) -> np.ndarray:
        """Outcome law of a run given its state and its verification result.

        ``outcome_split[v, i, k]`` is the share of state i's runs with
        verification result v (0 fail, 1 pass) that gave outcome k: the
        verification table normalized over outcomes, all zeros where state
        i never gives result v.
        """
        table = self.verification_table
        total = table.sum(axis=1, keepdims=True)
        split = np.divide(table, total, out=np.zeros_like(table), where=total > 0)
        return frozen(np.moveaxis(split, 2, 0))


def helstrom_scenario(theta: float = math.pi / 2.0) -> Scenario:
    # No published target fidelity exists for this pair; 0.98 is a
    # deliberately arbitrary stand-in and is flagged as such.
    return Scenario(
        "helstrom",
        helstrom_pair(theta),
        helstrom_povm(theta),
        "helstrom",
        0.98,
        target_note="target arbitrarily set",
    )


def custom_scenario(
    ensemble: Ensemble,
    target_fidelity: float,
    povm: Povm | None = None,
    name: str = "custom",
) -> Scenario:
    """Wrap a user ensemble into a scenario, defaulting to the square-root POVM."""
    if povm is None:
        return Scenario(
            name, ensemble, square_root_povm(ensemble), "square-root", target_fidelity
        )
    return Scenario(name, ensemble, povm, "custom", target_fidelity)


#: Constructors of the five built-in scenarios, keyed by scenario name.
BUILTIN_CONSTRUCTORS = {
    "trine": lambda: custom_scenario(trine(), 0.865, name="trine"),
    "four-asymmetric": lambda: custom_scenario(four_asymmetric(), 0.875, name="four-asymmetric"),
    "qubit-mubs": lambda: custom_scenario(qubit_mubs(), 0.77, name="qubit-mubs"),
    "qutrit-mubs": lambda: custom_scenario(qutrit_mubs(), 0.751, name="qutrit-mubs"),
    "helstrom": helstrom_scenario,
}


@functools.cache
def builtin_scenario(name: str) -> Scenario:
    """The shared instance of the built-in scenario ``name``.

    Raises ``KeyError`` for a name outside ``BUILTIN_CONSTRUCTORS``, so the
    cache holds at most the five built-ins.
    """
    return BUILTIN_CONSTRUCTORS[name]()


def builtin_scenarios() -> dict[str, Scenario]:
    """The five built-in certification scenarios, keyed by name.

    The dict is new on every call; the scenarios in it are shared.
    """
    return {name: builtin_scenario(name) for name in BUILTIN_CONSTRUCTORS}
