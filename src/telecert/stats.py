"""Fidelity benchmarks, the finite-run exceedance bound, and normal-model error rates.

The centerpiece is the Hoeffding-type tail bound on the probability that a
strategy without shared entanglement reaches a given fidelity in N runs.
Bound magnitudes span dozens of orders of magnitude across interesting N,
so every bound is computed and reported in base-10 log space; the linear
value is provided as a convenience and is allowed to underflow to zero.
The tail is evaluated once, in the complement rates e = -(mu + t) and
e0 = -mu with ``log1p``, so the bound is finite on exactly the domain
0 < t < -mu that ``bound_report`` admits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .discrimination import Povm, pass_probabilities
from .ensembles import Ensemble
from .errors import PreconditionError, _finite, _integer

_LN10 = math.log(10.0)


def classical_fidelity(ensemble: Ensemble, povm: Povm) -> float:
    """Average fidelity of the measure-and-resend protocol.

    The prepared state is measured with ``povm``; outcome ``l`` makes the
    receiver resend state ``l``, which then passes verification against the
    original state ``i`` with probability ``|<psi_i|psi_l>|^2``.  The
    returned value is the prior-weighted pass probability ``priors @ q``
    for the supplied measurement (no optimization over measurements is
    performed).  ``Scenario.classical_fidelity`` holds the same value,
    computed once per scenario.
    """
    return fidelity_from_pass_rates(ensemble.priors, pass_probabilities(ensemble, povm))


def fidelity_from_pass_rates(priors, q) -> float:
    """The prior-weighted pass probability ``priors @ q``.

    The one formula behind ``classical_fidelity`` and
    ``Scenario.classical_fidelity``.
    """
    return float(priors @ q)


def mu_of(f_th_cla: float, a: int) -> float:
    """Per-variable mean implied by a classical fidelity for ``a`` states.

    ``a`` is an integer (``TypeError`` otherwise) of at least 2 that a
    float holds, and ``f_th_cla`` lies in [0, 1] (``ValueError`` otherwise,
    nan included).
    """
    a = _integer(a, "a", 2)
    if _overflows_float(a - 1):
        raise ValueError("a is too large: a - 1 overflows a float")
    if not -1e-9 <= f_th_cla <= 1.0 + 1e-9:
        raise ValueError(f"fidelity must lie in [0, 1], got {f_th_cla!r}")
    return (f_th_cla - 1.0) / (a - 1)


def t_of(f_target: float, f_th_cla: float, a: int) -> float:
    """Per-variable exceedance offset needed to reach ``f_target``.

    ``a`` and ``f_th_cla`` are checked as in ``mu_of``; a non-finite
    ``f_target`` raises ``ValueError``.
    """
    mu_of(f_th_cla, a)
    if _finite(f_target, "target fidelity") <= f_th_cla:
        raise PreconditionError(
            f"target fidelity {f_target!r} does not exceed the classical "
            f"fidelity {f_th_cla!r}; the exceedance probability is trivially 1"
        )
    return (f_target - f_th_cla) / (operator.index(a) - 1)


def _overflows_float(n: int) -> bool:
    """Whether ``float(n)`` overflows, as all float arithmetic on ``n`` then does."""
    try:
        float(n)
    except OverflowError:
        return True
    return False


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound row; ``bound`` may underflow to 0 by design."""

    f_th_cla: float
    mu: float
    t: float
    a: int
    n_runs: int
    log10_bound: float
    bound: float


def _log10_tail(e: float, e0: float, m: int) -> float:
    """log10 of exp(-m * KL) in the complement rates ``0 < e <= e0 < 1``.

    ``e0`` is the complement of the variables' normalized mean and ``e``
    that of the reached mean; the exponent is
    ``m * [e ln(e0/e) + (1 - e) (log1p(-e0) - log1p(-e))]``, clamped at 0,
    since rounding makes it slightly positive for ``e`` within a few
    thousand ulps of ``e0``.
    """
    minus_kl = e * math.log(e0 / e) + (1.0 - e) * (math.log1p(-e0) - math.log1p(-e))
    return min(0.0, m * minus_kl / _LN10)


def hoeffding_generic(mu_prime: float, t_prime: float, m: int) -> float:
    """log10 of the generic bound for unit-interval variables.

    ``mu_prime`` is the normalized mean in (0, 1) and ``t_prime`` the
    normalized offset with ``0 < t_prime < 1 - mu_prime``; ``m`` is the
    number of independent variables, a nonnegative integer that a float
    holds (``TypeError`` or ``ValueError`` otherwise); a non-finite
    ``mu_prime`` or ``t_prime`` raises ``ValueError``.  The tail is
    evaluated in the complement rates ``1 - mu_prime - t_prime`` and
    ``1 - mu_prime``, so a mean too small for ``1 - mu_prime`` to fall
    below 1 is refused.
    """
    m = _integer(m, "m", 0)
    if _overflows_float(m):
        raise ValueError("m is too large: it overflows a float")
    e0 = 1.0 - _finite(mu_prime, "mu'")
    _finite(t_prime, "t'")
    if not 0.0 < e0 < 1.0:
        raise PreconditionError(
            f"normalized mean {mu_prime!r} must lie in (0, 1) and leave "
            "1 - mu' below 1 in floating point"
        )
    if not 0.0 < t_prime < e0:
        raise PreconditionError(
            f"t'={t_prime!r} is outside the validity range 0 < t' < {e0!r}"
        )
    return _log10_tail(e0 - t_prime, e0, m)


def bound_report(
    f_th_cla: float, f_target: float, a: int, n_runs: int
) -> BoundReport:
    """Evaluate the exceedance bound for one (scenario, target, N) row.

    The one entry to the paper's bound: the ``(a-1) * n_runs`` variables in
    [-1, 0] have mean ``mu = mu_of(f_th_cla, a)`` and must exceed it by
    ``t = t_of(f_target, f_th_cla, a)``.  ``a`` and ``n_runs`` are integers
    (``TypeError`` otherwise), stored as ``int``; the row is finite on
    exactly ``0 < t < -mu``, and other inputs are refused.
    """
    mu = mu_of(f_th_cla, a)
    t = t_of(f_target, f_th_cla, a)
    a = operator.index(a)
    n_runs = _integer(n_runs, "n_runs", 1)
    if _overflows_float((a - 1) * n_runs):
        raise ValueError("n_runs is too large: (a - 1) * n_runs overflows a float")
    if mu == 0.0:
        raise PreconditionError(
            "classical strategy is already perfect (fidelity 1); "
            "no quantum advantage is testable"
        )
    if not -1.0 < mu < 0.0:
        raise ValueError(
            f"classical fidelity {f_th_cla!r} with a={a} leaves mu = (f - 1)/(a - 1) = {mu!r} "
            "outside (-1, 0), where the bound is defined"
        )
    if t <= 0.0:
        raise PreconditionError(
            f"exceedance offset t must be positive, got {t!r}; "
            "for t <= 0 the bound is trivially 1"
        )
    if not t < -mu:
        raise PreconditionError(
            f"t={t!r} is outside the bound's validity range "
            f"0 < t < {-mu!r}; the implied target fidelity reaches "
            "or exceeds 1"
        )
    log10_bound = _log10_tail(-(mu + t), -mu, (a - 1) * n_runs)
    return BoundReport(
        f_th_cla=f_th_cla,
        mu=mu,
        t=t,
        a=a,
        n_runs=n_runs,
        log10_bound=log10_bound,
        bound=10.0**log10_bound,
    )


def scenario_bound_report(scenario, n_runs: int, f_target: float | None = None):
    """Bound row for a scenario, using its own classical fidelity.

    The finite-run bound relies on the preparer drawing states uniformly,
    so non-uniform priors are rejected.
    """
    ensemble = scenario.ensemble
    if not ensemble.has_uniform_priors():
        raise PreconditionError(
            "the finite-run exceedance bound requires uniform priors"
        )
    if f_target is None:
        f_target = scenario.target_fidelity
    return bound_report(scenario.classical_fidelity, f_target, ensemble.size, n_runs)


@dataclass(frozen=True)
class HypothesisConfig:
    """Inputs for the normal-approximation hypothesis test.

    ``f_qm`` and ``f_cla`` are the means of the primary (quantum) and
    secondary (classical) hypotheses, ``f_crit`` the decision threshold
    between them, ``sigma`` the per-run standard deviation, and ``n_runs``
    the number of repetitions, an integer (``TypeError`` otherwise).
    The three means lie in [0, 1] (``ValueError`` otherwise).  Typical use
    keeps ``f_cla < f_crit < f_qm`` strictly; the boundary equalities are
    admitted for degenerate checks.  ``sigma`` must be supplied by the
    caller; 1/2 is the largest per-run standard deviation a pass/fail
    outcome can have.  The normal-model rates are approximations, which
    the exact rates can exceed at small N: at N = 10, ``f_cla = 0.5``,
    ``f_crit = 0.6`` and ``sigma = 1/2`` the normal beta is 0.2635, and the
    exact one, P(Binomial(10, 0.5) >= 6), is 0.3770.
    """

    f_qm: float
    f_cla: float
    f_crit: float
    sigma: float
    n_runs: int

    def __post_init__(self):
        for name in ("f_qm", "f_cla", "f_crit"):
            value = _finite(getattr(self, name), name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        object.__setattr__(self, "n_runs", _integer(self.n_runs, "n_runs", 1))
        if _overflows_float(self.n_runs):
            raise ValueError("n_runs is too large: it overflows a float")
        if not self.f_cla <= self.f_crit <= self.f_qm:
            raise ValueError(
                f"critical value {self.f_crit!r} must lie between the "
                f"classical mean {self.f_cla!r} and the quantum mean "
                f"{self.f_qm!r}"
            )


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    ``0.5 * erfc(-x / sqrt(2))`` keeps full relative accuracy in the lower
    tail; absolute error is bounded by roughly 1e-15, far inside the 1e-12
    accuracy this module documents.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def type_one_error(cfg: HypothesisConfig) -> float:
    """Probability of rejecting the quantum hypothesis when it is true."""
    z = (cfg.f_crit - cfg.f_qm) * math.sqrt(cfg.n_runs) / cfg.sigma
    return normal_cdf(z)


def type_two_error(cfg: HypothesisConfig) -> float:
    """Probability of accepting the quantum hypothesis for a classical box.

    Equals ``1 - normal_cdf(z)``, evaluated as ``normal_cdf(-z)`` to keep
    tail accuracy.
    """
    z = (cfg.f_crit - cfg.f_cla) * math.sqrt(cfg.n_runs) / cfg.sigma
    return normal_cdf(-z)
