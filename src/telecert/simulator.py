"""Monte Carlo realization of the measure-and-resend protocol.

Each run prepares one state from the ensemble, measures it with the
scenario's POVM, resends the identified state, and verifies it against the
original with a projective check.  A trial is N such runs; its fidelity is
the fraction of runs that pass verification.

Runs are never sampled one by one.  With the outcome marginalized out, a
run on state i passes with probability q_i, so under the fixed schedule
each trial draws only its pass count per state, Binomial(N/a, q_i).  Under
multinomial preparation every run passes with probability F = priors @ q,
so a trial draws Binomial(N, F) passes, and the states of a block's passing
and failing runs are drawn from their summed counts.  The outcome
tallies, summed over trials, are drawn once per experiment: the outcomes of
state i's passing runs are multinomial in its summed pass count, and
likewise for its failures.  This is the same joint law as sampling every
run.

Every per-state pass count comes from one windowed Binomial table,
``_binomial_table``, whose cdf ``_binomial`` inverts with one uniform per
draw.  Both samplers keep only histograms of the trials' pass counts:
``run_experiment`` reduces each block of trials as it is drawn, and
``lln_sweep`` draws a point's histogram as one multinomial over the law of
a trial's total.  The README's Notes on numerics give the window, the
costs and the error contracts.

Randomness is counter based: each fixed-size block of trials draws from a
Philox stream keyed by (seed, n_runs) at the block's counter offset, so
results depend only on the configuration.  An exact oracle builds the
pass-count distribution from the same per-state Binomial law by
convolution, covering small N without sampling.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .discrimination import pass_probabilities, verification_table
from .errors import BudgetExceededError, PreconditionError
from .scenarios import Scenario
from .stats import classical_fidelity

_U64 = (1 << 64) - 1
_I64 = (1 << 63) - 1

#: Trials per sampling block; keeps memory bounded in the trial count.
_MAX_BLOCK_TRIALS = 32_768

#: Elementary-operation budget for the exact pass-count oracle.
_EXACT_OPS_BUDGET = 20_000_000

#: The pass-count sampler; seeded outputs depend on it as well as on the
#: Philox stream, so every run manifest records it.
SAMPLER = "binomial-cdf-inversion"

#: The sampler of ``lln_sweep``: one multinomial histogram per point over
#: the FFT-convolved law of the trial's pass count.
HISTOGRAM_SAMPLER = "multinomial-histogram"

#: Half-width of the cdf table in units of sqrt(m): Hoeffding's
#: exp(-2 t**2 / m) is 2**-64 at t = sqrt(32 ln2 m).
_WINDOW = math.sqrt(32.0 * math.log(2.0))


def _check_schedule(scenario: Scenario, n_runs: int, uniform_priors: bool = True):
    """Require a positive multiple of a runs and, if asked, uniform priors."""
    a = scenario.ensemble.size
    if n_runs < 1 or n_runs % a != 0:
        raise PreconditionError(
            f"n_runs must be a positive multiple of the ensemble size {a}, "
            f"got {n_runs}"
        )
    if uniform_priors and not scenario.ensemble.has_uniform_priors():
        raise PreconditionError(
            "the fixed preparation schedule requires uniform priors; "
            "multinomial preparation admits non-uniform ones"
        )


@dataclass(frozen=True, eq=False)
class SimConfig:
    """One experiment: ``n_trials`` independent repetitions of N runs.

    ``n_runs`` must be a multiple of the ensemble size; by default each
    state is prepared exactly ``n_runs / a`` times (preparation-count
    fluctuations neglected).  Setting ``multinomial_preparation`` samples
    each run's state from the priors instead, a sensitivity mode that goes
    beyond that fixed-schedule assumption.
    """

    scenario: Scenario
    n_runs: int
    n_trials: int
    seed: int
    multinomial_preparation: bool = False

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be positive, got {self.n_runs}")
        _check_schedule(self.scenario, self.n_runs, not self.multinomial_preparation)
        if not 1 <= self.n_trials <= _I64:
            raise ValueError(
                f"n_trials must be between 1 and 2**63 - 1, got {self.n_trials}"
            )
        if not 0 <= self.seed <= _U64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class TrialTally:
    """Counting record of one trial, as returned by ``run_trial``.

    ``prepared_counts[i]`` is how often state i was prepared,
    ``outcome_counts[i, k]`` how often measuring state i produced outcome k,
    and ``pass_counts[i, k]`` how many of those runs passed verification.
    """

    prepared_counts: np.ndarray
    outcome_counts: np.ndarray
    pass_counts: np.ndarray

    def validate(self, n_runs: int) -> None:
        if int(self.prepared_counts.sum()) != n_runs:
            raise AssertionError("prepared counts do not sum to n_runs")
        if not np.array_equal(self.outcome_counts.sum(axis=1), self.prepared_counts):
            raise AssertionError("outcome counts do not sum to prepared counts")
        if np.any(self.pass_counts > self.outcome_counts):
            raise AssertionError("pass counts exceed outcome counts")
        if np.any(self.prepared_counts < 0) or np.any(self.outcome_counts < 0):
            raise AssertionError("negative counts")


@dataclass(frozen=True, eq=False)
class SimReport:
    """Aggregate of an experiment; tally matrices are summed over trials.

    ``pass_count_histogram[k]`` counts the trials with ``pass_count_offset
    + k`` passes over the observed range (both edge bins are nonempty); the
    mean and the exceedance count are read off it, and no per-trial value is kept.
    """

    mean_fidelity: float
    exceedance_count: int
    threshold: float
    n_runs: int
    n_trials: int
    seed: int
    prepared_counts: np.ndarray
    outcome_counts: np.ndarray
    pass_counts: np.ndarray
    pass_count_offset: int
    pass_count_histogram: np.ndarray

    @property
    def exceedance_frequency(self) -> float:
        return self.exceedance_count / self.n_trials


@dataclass(frozen=True)
class LlnRow:
    """Deviation statistics of the trial fidelity around its mean at one N."""

    n_runs: int
    mean_fidelity: float
    mean_abs_deviation: float
    rms_deviation: float


def stream(seed: int, subkey: int = 0, block: int = 0) -> np.random.Generator:
    """Deterministic Philox stream for (seed, subkey) at a block offset.

    Blocks are separated by 2**128 counter steps, so streams with different
    block indices never overlap.
    """
    # uint64 arrays: a plain list holding a value >= 2**63 becomes float64,
    # which would merge neighbouring keys.
    key = np.array([seed & _U64, subkey & _U64], dtype=np.uint64)
    counter = np.array([0, 0, block & _U64, 0], dtype=np.uint64)
    bits = np.random.Philox(key=key, counter=counter)
    return np.random.Generator(bits)


def _binomial_table(m: int, p: float) -> tuple[int, np.ndarray]:
    """Window start and unnormalized weights of the Binomial(m, p) pmf.

    The window is mp +/- sqrt(32 ln2 m), clipped to [0, m]; the mass it
    leaves out is below 2**-64 on each side.  The weights peak at 1.  A
    certain outcome (p = 0 or 1) is a one-entry table.
    """
    if p <= 0.0 or p >= 1.0:
        return (m if p >= 1.0 else 0), np.ones(1)
    half = _WINDOW * math.sqrt(m)
    lo = max(0, math.floor(m * p - half))
    hi = min(m, math.ceil(m * p + half))
    k = np.arange(lo + 1, hi + 1)
    steps = np.log((m - k + 1) / k) + (math.log(p) - math.log1p(-p))
    log_pmf = np.concatenate(([0.0], np.cumsum(steps)))
    return lo, np.exp(log_pmf - log_pmf.max())


def _binomial(rng, m: int, p: float, size: int) -> np.ndarray:
    """``size`` Binomial(m, p) draws, each inverting the table's cdf with one uniform."""
    lo, weights = _binomial_table(m, p)
    if weights.size == 1:
        # a certain outcome consumes no uniforms
        return np.full(size, lo, dtype=np.int64)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return lo + np.searchsorted(cdf, rng.random(size), side="right")


def _pass_count_law(q: np.ndarray, m: int) -> tuple[int, np.ndarray]:
    """Window start and pmf of the sum of independent Binomial(m, q_i).

    The a windowed tables are convolved in one FFT of power-of-two length;
    rounding leaves entries off by about 1e-16 absolute, so negatives are
    clipped to 0 and the result is renormalized.
    """
    tables = [_binomial_table(m, qi) for qi in q.tolist()]
    size = sum(weights.size for _, weights in tables) - len(tables) + 1
    n_fft = 1 << (size - 1).bit_length()
    spectrum = np.ones(n_fft // 2 + 1, dtype=complex)
    for _, weights in tables:
        spectrum *= np.fft.rfft(weights / weights.sum(), n_fft)
    pmf = np.clip(np.fft.irfft(spectrum, n_fft)[:size], 0.0, None)
    return sum(lo for lo, _ in tables), pmf / pmf.sum()


def _total_histogram(cfg: SimConfig) -> tuple[int, np.ndarray]:
    """Histogram of the pass counts of ``cfg.n_trials`` fixed-schedule trials.

    The counts of T iid draws from a discrete law are Multinomial(T, law),
    so one multinomial over the law's window, passed in ascending order of
    mass, replaces T draws.  Returns the window start and the counts over it.
    """
    q = pass_probabilities(cfg.scenario.ensemble, cfg.scenario.povm)
    lo, pmf = _pass_count_law(q, cfg.n_runs // q.size)
    order = np.argsort(pmf, kind="stable")
    counts = np.empty(pmf.size, dtype=np.int64)
    counts[order] = stream(cfg.seed, subkey=cfg.n_runs).multinomial(cfg.n_trials, pmf[order])
    return lo, counts


def _conditional(weights: np.ndarray) -> np.ndarray:
    """``weights`` normalized to sum 1; all zeros stay zeros (nothing to split)."""
    total = weights.sum()
    return weights / total if total > 0 else weights


def _draw_trials(rng, n_trials: int, n_runs: int, q: np.ndarray, priors=None):
    """Passes per trial, and per-state prepared and passing counts summed.

    Without ``priors`` every state is prepared ``n_runs / a`` times (the
    fixed schedule) and state i's passes are Binomial(n_runs / a, q_i).
    With them each run's state is drawn from the priors, so every run
    passes with probability F = priors @ q and a trial's passes are
    Binomial(n_runs, F).  Given the passes summed over the trials, their
    states are Multinomial(passes, priors * q / F) and the failures'
    states Multinomial(failures, priors * (1 - q) / (1 - F)).
    """
    if priors is None:
        per_state = n_runs // q.size
        columns = [_binomial(rng, per_state, qi, n_trials) for qi in q.tolist()]
        passed = np.array([column.sum() for column in columns], dtype=np.int64)
        prepared = np.full(q.size, per_state * n_trials, dtype=np.int64)
        return sum(columns), prepared, passed
    passes = _binomial(rng, n_runs, float(priors @ q), n_trials)
    total = int(passes.sum())
    passed = rng.multinomial(total, _conditional(priors * q))
    failed = rng.multinomial(n_runs * n_trials - total, _conditional(priors * (1.0 - q)))
    return passes, passed + failed, passed


def _split_outcomes(rng, scenario: Scenario, prepared: np.ndarray, passed: np.ndarray):
    """Outcome and passing counts per (state, outcome) from per-state totals.

    State i's passing runs fall on outcome k in proportion to T[i, k, 1] of
    the verification table and its failing runs in proportion to T[i, k, 0].
    A sum of independent multinomials with one probability vector is
    multinomial in the summed count, so one draw per state covers any
    number of trials.
    """
    table = verification_table(scenario.ensemble, scenario.povm)
    total = table.sum(axis=1, keepdims=True)
    split = np.divide(table, total, out=np.zeros_like(table), where=total > 0)
    pass_counts = rng.multinomial(passed, split[:, :, 1])
    failing = rng.multinomial(prepared - passed, split[:, :, 0])
    return pass_counts + failing, pass_counts


def run_trial(
    scenario: Scenario, n_runs: int, rng: np.random.Generator
) -> tuple[TrialTally, float]:
    """Simulate one N-run trial on an explicit random stream.

    Uses the fixed preparation schedule (exactly ``n_runs / a`` runs per
    state).  The same stream state always yields the same tally and
    fidelity.  ``run_experiment`` derives its streams from a seed; this is
    the public entry point for a caller that supplies its own stream, and
    the benchmark's tracer wraps it by name, so the API keeps it.
    """
    _check_schedule(scenario, n_runs)
    q = pass_probabilities(scenario.ensemble, scenario.povm)
    passes, prepared, passed = _draw_trials(rng, 1, n_runs, q)
    outcomes, pass_counts = _split_outcomes(rng, scenario, prepared, passed)
    return TrialTally(prepared, outcomes, pass_counts), int(passes[0]) / n_runs


def _histogram_weights(lo: int, counts: np.ndarray, n_runs: int):
    """Fidelity of each bin of a pass-count histogram from ``lo``, and its share of trials."""
    return (lo + np.arange(counts.size)) / n_runs, counts / counts.sum()


def min_passes(threshold: float, n_runs: int) -> int:
    """Smallest pass count s with ``s / n_runs >= threshold`` in float arithmetic.

    This is the one definition of a trial reaching ``threshold``, shared by
    the Monte Carlo and the exact oracle.  Returns ``n_runs + 1`` when no
    count reaches it; a non-finite threshold or ``n_runs < 1`` raises
    ``ValueError``.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold!r}")
    return bisect.bisect_left(range(n_runs + 1), threshold, key=lambda s: s / n_runs)


def run_experiment(cfg: SimConfig, threshold: float, workers: int = 1) -> SimReport:
    """Run ``cfg.n_trials`` independent trials and count threshold exceedances.

    Output is fully determined by ``cfg`` and ``threshold``.  ``workers``
    must be at least 1 and changes nothing: sampling runs on one thread.
    Each block of trials is reduced to its pass-count histogram once drawn.
    """
    s_min = min_passes(threshold, cfg.n_runs)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    q = pass_probabilities(cfg.scenario.ensemble, cfg.scenario.povm)
    priors = cfg.scenario.ensemble.priors if cfg.multinomial_preparation else None
    prepared = np.zeros(q.size, dtype=np.int64)
    passed = np.zeros(q.size, dtype=np.int64)
    lo, counts = None, np.zeros(0, dtype=np.int64)
    for block, first in enumerate(range(0, cfg.n_trials, _MAX_BLOCK_TRIALS)):
        rng = stream(cfg.seed, subkey=cfg.n_runs, block=block)
        n = min(_MAX_BLOCK_TRIALS, cfg.n_trials - first)
        block_passes, block_prepared, block_passed = _draw_trials(rng, n, cfg.n_runs, q, priors)
        prepared += block_prepared
        passed += block_passed
        # merge into the histogram so far; both span their observed range
        start = int(block_passes.min())
        lo = start if lo is None else lo
        start = min(start, lo)
        merged = np.bincount(block_passes - start, minlength=lo - start + counts.size)
        merged[lo - start : lo - start + counts.size] += counts
        lo, counts = start, merged
    # Trial blocks never reach the last block, so the split has its own stream.
    split_rng = stream(cfg.seed, subkey=cfg.n_runs, block=_U64)
    outcomes, pass_counts = _split_outcomes(split_rng, cfg.scenario, prepared, passed)
    fidelities, weights = _histogram_weights(lo, counts, cfg.n_runs)
    return SimReport(
        mean_fidelity=float(weights @ fidelities),
        exceedance_count=int(counts[max(s_min - lo, 0) :].sum()),
        threshold=float(threshold),
        n_runs=cfg.n_runs,
        n_trials=cfg.n_trials,
        seed=cfg.seed,
        prepared_counts=prepared,
        outcome_counts=outcomes,
        pass_counts=pass_counts,
        pass_count_offset=lo,
        pass_count_histogram=counts,
    )


def pass_count_distribution(scenario: Scenario, n_runs: int) -> np.ndarray:
    """Exact distribution of the number of passing runs in a trial.

    Under the fixed schedule the pass count is a sum of independent
    Binomial(n_runs / a, q_i), the law the sampler draws.  One round (one
    run per state) has the pass-count law of ``a`` Bernoulli(q_i) factors;
    the trial's law is its (n_runs / a)-th convolution power, formed by
    repeated squaring.  Beyond the work budget a ``BudgetExceededError``
    points the caller at the Monte Carlo path.
    """
    _check_schedule(scenario, n_runs)
    if n_runs * (n_runs + 1) > _EXACT_OPS_BUDGET:
        raise BudgetExceededError(
            f"exact enumeration at n_runs={n_runs} exceeds the work budget; "
            "use the Monte Carlo simulator instead"
        )
    q = pass_probabilities(scenario.ensemble, scenario.povm)
    power = functools.reduce(np.convolve, ([1.0 - qi, qi] for qi in q))
    dist = np.ones(1)
    rounds = n_runs // q.size
    while True:
        if rounds & 1:
            dist = np.convolve(dist, power)
        rounds >>= 1
        if not rounds:
            return dist
        power = np.convolve(power, power)


def exact_exceedance(scenario: Scenario, n_runs: int, threshold: float) -> float:
    """Exact probability that a trial reaches ``threshold`` (rounding clamped to 1)."""
    dist = pass_count_distribution(scenario, n_runs)
    return min(1.0, float(dist[min_passes(threshold, n_runs):].sum()))


def lln_sweep(
    scenario: Scenario,
    n_values,
    n_trials: int,
    seed: int,
    workers: int = 1,
) -> list[LlnRow]:
    """Deviation of the trial fidelity from its infinite-N value per N.

    Every N in ``n_values`` must be a multiple of the ensemble size; the
    whole ladder is validated before any point is sampled.  Each point
    draws the histogram of its trials' pass counts as one multinomial over
    the fixed-schedule law (``_total_histogram``) and reduces it, so its
    cost and memory grow like sqrt(N), whatever ``n_trials`` is.  The
    RMS column shrinks like 1/sqrt(N), which a log-log fit over a geometric
    ladder exposes as a slope near -1/2.  ``workers`` must be at least 1
    and changes nothing: sampling runs on one thread.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    configs = [
        SimConfig(scenario=scenario, n_runs=int(n_runs), n_trials=n_trials, seed=seed)
        for n_runs in n_values
    ]
    f_th = classical_fidelity(scenario.ensemble, scenario.povm)
    rows = []
    for cfg in configs:
        fidelities, weights = _histogram_weights(*_total_histogram(cfg), cfg.n_runs)
        dev = fidelities - f_th
        rows.append(
            LlnRow(
                n_runs=cfg.n_runs,
                mean_fidelity=float(weights @ fidelities),
                mean_abs_deviation=float(weights @ np.abs(dev)),
                rms_deviation=float(np.sqrt(weights @ (dev * dev))),
            )
        )
    return rows


def rms_loglog_slope(rows: list[LlnRow]) -> float:
    """Least-squares slope of log10(rms deviation) against log10(N)."""
    if len(rows) < 2:
        raise ValueError("need at least two ladder points to fit a slope")
    x = np.log10([row.n_runs for row in rows])
    y = np.log10([row.rms_deviation for row in rows])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
