"""Monte Carlo realization of the measure-and-resend protocol.

Each run prepares one state from the ensemble, measures it with the
scenario's POVM, resends the identified state, and verifies it against the
original with a projective check.  A trial is N such runs; its fidelity is
the fraction of runs that pass verification.

Runs are never sampled one by one.  A trial's pass count is a sum of
independent Binomial draws whose (m, p) one list gives, in draw order:
``_draw_laws``, (N/a, q_i) per state under the fixed schedule and (N, F)
under multinomial preparation.  ``SimConfig`` derives them once
(``laws``) and checks each law's window; ``run_experiment`` and
``run_trial`` draw one column per law from its inversion table
(``_tables``, ``_invert``) and the outcome tallies, summed over trials,
once per experiment; ``lln_sweep`` draws each point's histogram as one
multinomial over the laws' convolution (``_pass_count_law``).  Each
block of trials draws from a Philox stream keyed by (seed, n_runs) at
the block's counter offset, so results depend only on the configuration.
The exact oracle convolves the same laws.  ``_draw_laws`` also checks
the run count and the schedule, so every consumer of the laws refuses
the same configurations.  Inversion tables and exact laws depend on no
seed or threshold; they are built once per process and the last
``_KEPT_PRODUCTS`` used are kept (``_kept``), each at most about 35 KiB.
The README's account of the samplers and its Notes on numerics give the
joint law, the guide table, the window, the costs and the error contracts.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .linalg import frozen
from .scenarios import Scenario

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

#: Largest cdf table sampled from, about 9.4 sqrt(m) entries; it caps m
#: near 1.2e10 runs per law and a table's arrays near 8 MiB each.
_MAX_TABLE_ENTRIES = 1 << 20

#: Products ``_kept`` holds at most, and the widest window whose inversion
#: table it keeps.  An exact law has at most 4472 float64 entries under the
#: N(N+1) <= 2e7 budget, 34.9 KiB; a kept table has a cdf of at most 512
#: float64 entries and a guide of at most 4 * 512 = 2048 intp entries,
#: 4 + 16 = 20 KiB.  So 128 kept products hold at most 128 * 34.9 KiB,
#: about 4.4 MiB; a wider table is built, used and not kept.
_KEPT_PRODUCTS = 128
_KEPT_WINDOW = 512


@functools.lru_cache(maxsize=_KEPT_PRODUCTS)
def _kept(build, *args):
    """``build(*args)``, kept while among the last ``_KEPT_PRODUCTS`` built or used.

    Keys are the builder and its arguments (numbers and tuples of numbers),
    never a scenario; a build that raises keeps nothing.  Builders return
    frozen arrays, so no caller can change a kept product.
    """
    return build(*args)


def _draw_laws(scenario: Scenario, n_runs: int, multinomial: bool) -> tuple:
    """(m, p) of the Binomial draws that sum to a trial's passes, in draw order.

    Under the fixed schedule that is one law (n_runs / a, q_i) per state;
    under multinomial preparation, the one law (n_runs, F).  This is the
    one check of a run count and a schedule: ``n_runs`` must be an integer
    (``TypeError`` otherwise), positive (``ValueError`` otherwise) and a
    multiple of a, and the fixed schedule needs uniform priors
    (``PreconditionError`` otherwise).
    """
    n_runs = operator.index(n_runs)
    if n_runs < 1:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    a = scenario.ensemble.size
    if n_runs % a != 0:
        raise PreconditionError(
            f"n_runs must be a positive multiple of the ensemble size {a}, "
            f"got {n_runs}"
        )
    if multinomial:
        return ((n_runs, scenario.classical_fidelity),)
    if not scenario.ensemble.has_uniform_priors():
        raise PreconditionError(
            "the fixed preparation schedule requires uniform priors; "
            "multinomial preparation admits non-uniform ones"
        )
    return tuple((n_runs // a, qi) for qi in scenario.pass_probabilities.tolist())


@dataclass(frozen=True, eq=False)
class SimConfig:
    """One experiment: ``n_trials`` independent repetitions of N runs.

    ``n_runs`` must be a multiple of the ensemble size; by default each
    state is prepared exactly ``n_runs / a`` times (preparation-count
    fluctuations neglected).  Setting ``multinomial_preparation`` samples
    each run's state from the priors instead, a sensitivity mode that goes
    beyond that fixed-schedule assumption.  A configuration whose sampling
    tables would span more than ``_MAX_TABLE_ENTRIES`` entries raises
    ``PreconditionError`` here, before anything is allocated.  ``n_runs``,
    ``n_trials`` and ``seed`` are integers (``TypeError`` otherwise) and
    are stored as ``int``; ``n_runs < 1`` raises ``ValueError``.
    """

    scenario: Scenario
    n_runs: int
    n_trials: int
    seed: int
    multinomial_preparation: bool = False

    def __post_init__(self):
        for name in ("n_runs", "n_trials", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        laws = self.laws
        if not 1 <= self.n_trials <= _I64:
            raise ValueError(
                f"n_trials must be between 1 and 2**63 - 1, got {self.n_trials}"
            )
        if not 0 <= self.seed <= _U64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        for law in dict.fromkeys(laws):
            _window(*law)

    @functools.cached_property
    def laws(self) -> tuple:
        """``_draw_laws`` of the configuration, derived once."""
        return _draw_laws(self.scenario, self.n_runs, self.multinomial_preparation)


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


#: The numpy bit generator under every stream, named in run manifests.
#: ``stream`` looks the class up by this name, so the two cannot drift, and
#: naming it neither builds a generator nor imports ``numpy.random``, which
#: numpy loads on first use.
BIT_GENERATOR = "Philox"


def stream(seed: int, subkey: int = 0, block: int = 0) -> np.random.Generator:
    """Deterministic Philox stream for (seed, subkey) at a block offset.

    Blocks are separated by 2**128 counter steps, so streams with different
    block indices never overlap.  Seed, subkey and block are integers
    (``TypeError`` otherwise), and one outside [0, 2**64) raises
    ``ValueError`` rather than alias a key in range.
    """
    seed, subkey, block = map(operator.index, (seed, subkey, block))
    for name, value in (("seed", seed), ("subkey", subkey), ("block", block)):
        if not 0 <= value <= _U64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    # uint64 arrays: a plain list holding a value >= 2**63 becomes float64,
    # which would merge neighbouring keys.
    key = np.array([seed, subkey], dtype=np.uint64)
    counter = np.array([0, 0, block, 0], dtype=np.uint64)
    bits = getattr(np.random, BIT_GENERATOR)(key=key, counter=counter)
    return np.random.Generator(bits)


def _window(m: int, p: float) -> tuple[int, int]:
    """First and last pass count of the Binomial(m, p) table.

    The window is mp +/- sqrt(32 ln2 m), clipped to [0, m]; a certain
    outcome (p = 0 or 1) is a one-entry window.  A window of more than
    ``_MAX_TABLE_ENTRIES`` entries, or one too wide for float arithmetic to
    place, raises ``PreconditionError`` before anything is allocated.  The
    README's Notes on numerics bound the mass the window leaves out.
    """
    if p <= 0.0 or p >= 1.0:
        return (m, m) if p >= 1.0 else (0, 0)
    try:
        half = _WINDOW * math.sqrt(m)
        lo = max(0, math.floor(m * p - half))
        hi = min(m, math.ceil(m * p + half))
    except OverflowError:  # m beyond the float range
        lo = hi = None
    if lo == hi:  # 0 < p < 1, so only rounding collapses the window
        raise PreconditionError(
            f"sampling Binomial({m}, {p!r}) needs a table wider than float "
            "arithmetic can place; n_runs is too large to simulate"
        )
    if hi - lo >= _MAX_TABLE_ENTRIES:
        raise PreconditionError(
            f"sampling Binomial({m}, {p!r}) needs a table of {hi - lo + 1} entries, "
            f"more than {_MAX_TABLE_ENTRIES}; n_runs is too large to simulate"
        )
    return lo, hi


def _binomial_table(m: int, p: float) -> tuple[int, np.ndarray]:
    """Window start and unnormalized weights of the Binomial(m, p) pmf.

    The window is ``_window(m, p)``; the weights peak at 1.
    """
    lo, hi = _window(m, p)
    if lo == hi:
        return lo, np.ones(1)
    k = np.arange(lo + 1, hi + 1)
    steps = np.log((m - k + 1) / k) + (math.log(p) - math.log1p(-p))
    log_pmf = np.concatenate(([0.0], np.cumsum(steps)))
    return lo, np.exp(log_pmf - log_pmf.max())


def _inversion_table(m: int, p: float, draws: int):
    """Window start, normalized cdf and guide table of Binomial(m, p).

    ``draws``, the most draws taken at once, only sizes the guide.  A
    certain outcome has no cdf and no guide.  The README's Notes on
    numerics define the guide and its size.  The window is checked before
    anything is looked up or built; a table whose window has at most
    ``_KEPT_WINDOW`` entries is kept by ``_kept``, keyed by (m, p, guide
    size), and a wider one is built each time.  Its arrays are frozen.
    """
    lo, hi = _window(m, p)
    if lo == hi:
        return lo, None, None
    g = 1 << (max(64, 4 * min(hi - lo + 1, draws)) - 1).bit_length()
    if hi - lo >= _KEPT_WINDOW:
        return _build_inversion_table(m, p, g)
    return _kept(_build_inversion_table, m, p, g)


def _build_inversion_table(m: int, p: float, g: int):
    """``_inversion_table`` of Binomial(m, p) with a guide of ``g`` buckets."""
    lo, weights = _binomial_table(m, p)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return lo, frozen(cdf), frozen(np.searchsorted(cdf, np.arange(g) / g, side="right"))


def _tables(laws: tuple, draws: int) -> list:
    """One ``_inversion_table`` per distinct law of ``laws``, listed in draw order."""
    tables = {law: _inversion_table(*law, draws) for law in dict.fromkeys(laws)}
    return [tables[law] for law in laws]


def _invert(rng, table, size: int) -> np.ndarray:
    """``size`` draws from an ``_inversion_table``, one uniform each.

    Each draw is ``lo + searchsorted(cdf, u, 'right')`` for its uniform u,
    reached through the guide (README, Notes on numerics, says why the two
    agree); a certain outcome consumes no uniforms.
    """
    lo, cdf, guide = table
    if cdf is None:
        return np.full(size, lo, dtype=np.int64)
    u = rng.random(size)
    # u * g is exact: g is a power of two
    idx = guide[(u * guide.size).astype(np.intp)]
    missed = u >= cdf[idx]
    idx[missed] = np.searchsorted(cdf, u[missed], side="right")
    return lo + idx


def _pass_count_law(laws: tuple) -> tuple[int, np.ndarray]:
    """Window start and pmf of the sum of independent draws from ``laws``.

    ``laws`` lists Binomial laws (m, p), as ``_draw_laws`` does.  Every
    entry lies within 1e-14 of the exact law; the README's Notes on
    numerics give the FFT convolution, its memory and its error.
    """
    tables = {law: _binomial_table(*law) for law in dict.fromkeys(laws)}
    size = sum(tables[law][1].size for law in laws) - len(laws) + 1
    n_fft = 1 << (size - 1).bit_length()
    spectrum = np.ones(n_fft // 2 + 1, dtype=complex)
    previous = factor = None
    for law in laws:
        if law != previous:
            factor = None  # released before the next one is allocated
            weights = tables[law][1]
            factor = np.fft.rfft(weights / weights.sum(), n_fft)
            previous = law
        spectrum *= factor
    del factor  # and before the inverse FFT
    pmf = np.clip(np.fft.irfft(spectrum, n_fft)[:size], 0.0, None)
    return sum(tables[law][0] for law in laws), pmf / pmf.sum()


def _total_histogram(cfg: SimConfig) -> tuple[int, np.ndarray]:
    """Window start and pass-count histogram of ``cfg.n_trials`` trials.

    The histogram is one multinomial over ``_pass_count_law`` of the
    configuration's laws, drawn from the (seed, n_runs) stream; the README's
    Notes on numerics say why it replaces the trials' draws.
    """
    lo, pmf = _pass_count_law(cfg.laws)
    order = np.argsort(pmf, kind="stable")
    counts = np.empty(pmf.size, dtype=np.int64)
    counts[order] = stream(cfg.seed, subkey=cfg.n_runs).multinomial(cfg.n_trials, pmf[order])
    return lo, counts


def _conditional(weights: np.ndarray) -> np.ndarray:
    """``weights`` normalized to sum 1; all zeros stay zeros (nothing to split)."""
    total = weights.sum()
    return weights / total if total > 0 else weights


def _draw_trials(rng, n_trials: int, n_runs: int, q: np.ndarray, tables: list, priors=None):
    """Passes per trial, and per-state prepared and passing counts summed.

    Each trial's passes are the sum of one draw per table of ``tables``,
    the ``_tables`` of ``_draw_laws``.  Without ``priors`` (the fixed
    schedule) state i is prepared ``n_runs / a`` times and passes its own
    column; with them the summed passes and failures are attributed to
    states by one multinomial each (README, Notes on numerics).
    """
    columns = [_invert(rng, table, n_trials) for table in tables]
    passes = sum(columns)
    if priors is None:
        passed = np.array([column.sum() for column in columns], dtype=np.int64)
        prepared = np.full(q.size, n_runs // q.size * n_trials, dtype=np.int64)
        return passes, prepared, passed
    total = int(passes.sum())
    passed = rng.multinomial(total, _conditional(priors * q))
    failed = rng.multinomial(n_runs * n_trials - total, _conditional(priors * (1.0 - q)))
    return passes, passed + failed, passed


def _split_outcomes(rng, scenario: Scenario, prepared: np.ndarray, passed: np.ndarray):
    """Outcome and passing counts per (state, outcome) from per-state totals.

    One multinomial per state and verification result over
    ``scenario.outcome_split``, whatever number of trials the totals sum
    (README, Notes on numerics).
    """
    fail_split, pass_split = scenario.outcome_split
    pass_counts = rng.multinomial(passed, pass_split)
    failing = rng.multinomial(prepared - passed, fail_split)
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
    ``n_runs < 1`` raises ``ValueError``.
    """
    tables = _tables(_draw_laws(scenario, n_runs, False), 1)
    passes, prepared, passed = _draw_trials(rng, 1, n_runs, scenario.pass_probabilities, tables)
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
    The sampling tables are built once, before any block is drawn, and
    each block of trials is reduced to its pass-count histogram once drawn.
    """
    s_min = min_passes(threshold, cfg.n_runs)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    q = cfg.scenario.pass_probabilities
    priors = cfg.scenario.ensemble.priors if cfg.multinomial_preparation else None
    tables = _tables(cfg.laws, min(_MAX_BLOCK_TRIALS, cfg.n_trials))
    prepared = np.zeros(q.size, dtype=np.int64)
    passed = np.zeros(q.size, dtype=np.int64)
    lo, counts = None, np.zeros(0, dtype=np.int64)
    for block, first in enumerate(range(0, cfg.n_trials, _MAX_BLOCK_TRIALS)):
        rng = stream(cfg.seed, subkey=cfg.n_runs, block=block)
        n = min(_MAX_BLOCK_TRIALS, cfg.n_trials - first)
        block_passes, block_prepared, block_passed = _draw_trials(rng, n, cfg.n_runs, q, tables, priors)
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
    Binomial(n_runs / a, q_i), the laws ``_draw_laws`` lists for the
    sampler.  The trial's law is the (n_runs / a)-th convolution power of
    one round's law (one run per state), formed by repeated squaring.
    Beyond the work budget a ``BudgetExceededError`` points the caller at
    the Monte Carlo path; ``n_runs < 1`` raises ``ValueError``.  The law
    is kept by ``_kept``, keyed by those laws, so it is read-only.
    """
    laws = _draw_laws(scenario, n_runs, False)
    n_runs = operator.index(n_runs)  # a numpy integer would wrap in the product
    if n_runs * (n_runs + 1) > _EXACT_OPS_BUDGET:
        raise BudgetExceededError(
            f"exact enumeration at n_runs={n_runs} exceeds the work budget; "
            "use the Monte Carlo simulator instead"
        )
    return _kept(_convolution_power, laws)


def _convolution_power(laws: tuple) -> np.ndarray:
    """Pmf of the sum of draws from ``laws``, Binomial laws of one m, frozen."""
    power = functools.reduce(np.convolve, ([1.0 - p, p] for _, p in laws))
    rounds = laws[0][0]
    dist = np.ones(1)
    while True:
        if rounds & 1:
            dist = np.convolve(dist, power)
        rounds >>= 1
        if not rounds:
            return frozen(dist)
        power = np.convolve(power, power)


def exact_exceedance(scenario: Scenario, n_runs: int, threshold: float) -> float:
    """Exact probability that a trial reaches ``threshold`` (rounding clamped to 1).

    The cut is taken first, so ``n_runs < 1`` and a non-finite
    ``threshold`` raise ``ValueError`` before the law is looked up or built.
    """
    s_min = min_passes(threshold, n_runs)
    return min(1.0, float(pass_count_distribution(scenario, n_runs)[s_min:].sum()))


def lln_sweep(
    scenario: Scenario,
    n_values,
    n_trials: int,
    seed: int,
    workers: int = 1,
) -> list[LlnRow]:
    """Deviation of the trial fidelity from its infinite-N value per N.

    Every N in ``n_values`` must be a multiple of the ensemble size and
    small enough to sample; the whole ladder is validated before any point
    is sampled.  Each point
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
        SimConfig(scenario=scenario, n_runs=n_runs, n_trials=n_trials, seed=seed)
        for n_runs in n_values
    ]
    f_th = scenario.classical_fidelity
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
    """Least-squares slope of log10(rms deviation) against log10(N).

    Raises ``ValueError`` unless the rows hold at least two distinct N.
    """
    if len({row.n_runs for row in rows}) < 2:
        raise ValueError("need at least two ladder points with distinct N to fit a slope")
    x = np.log10([row.n_runs for row in rows])
    y = np.log10([row.rms_deviation for row in rows])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
