"""Monte Carlo realization of the measure-and-resend protocol.

Each run prepares one state from the ensemble, measures it with the
scenario's POVM, resends the identified state, and verifies it against the
original with a projective check.  A trial is N such runs; its fidelity is
the fraction of runs that pass verification.

Runs are never sampled one by one.  A trial's pass count is a sum of
independent Binomial draws whose (m, p) one list gives, in draw order:
``_draw_laws``, (N/a, q_i) per state under the fixed schedule and (N, F)
under multinomial preparation.  ``SimConfig`` derives them once and
places them (``laws``): ``_placed`` gives each distinct law its window,
once, as (m, p, lo, hi).  Each law has one table, its window start, pmf,
cdf and guide (``_law_table``), read by both samplers: ``run_experiment`` and
``run_trial`` invert its cdf for one column per law (``_tables``,
``_invert``) and draw the outcome tallies, summed over trials, once per
experiment; ``lln_sweep`` draws each point's histogram as one
multinomial over the convolution of the laws' pmfs (``_pass_count_law``).
Each block of trials draws from a Philox stream keyed by (seed, n_runs) at
the block's counter offset (``stream``), so results depend only on the
configuration.  The library draws those streams from one generator per
thread, re-keyed to each block's state (``_thread_stream``), since a
counter-based generator's whole state is its key and counter and a new
one costs about as much as a narrow ``lln`` point's draw.  The exact
oracle convolves the same laws, unplaced.
``_draw_laws`` also checks the run count, at most ``_MAX_RUNS``, and the
schedule, so every consumer of the laws refuses the same configurations.
Law tables, exact laws, ``lln`` laws and each ``lln`` law's per-bin
deviations depend on no seed, threshold or trial count; they are built
once per process and the last ``_KEPT_PRODUCTS`` used are kept
(``_kept``), each at most about 35 KiB, a sampling product keyed by its
placed laws (``_kept_placed``).  A table or ``lln`` law wider than
``_KEPT_WINDOW`` entries, and its deviations, are built each time instead;
a wide ``lln`` law is convolved from kept tables when theirs are narrow.
The README's account of the samplers and its Notes on numerics give the
joint law, the guide table, the window, the costs and the error contracts.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, PreconditionError, _finite, _integer, _shown
from .linalg import frozen
from .scenarios import Scenario

_U64 = (1 << 64) - 1

#: Trials per sampling block; keeps memory bounded in the trial count.
_MAX_BLOCK_TRIALS = 32_768

#: Largest run count the exact pass-count oracle enumerates.
_EXACT_MAX_RUNS = 4471

#: Largest run count, and largest per-state tally over a request's trials,
#: the simulator takes: ``min_passes`` bisects ``range(n_runs + 1)``, whose
#: length must fit a C ssize_t, and tallies are int64.  ``_draw_laws``,
#: ``min_passes`` and ``run_experiment`` check it before any table or stream
#: exists.
_MAX_RUNS = (1 << 63) - 2

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

#: Products ``_kept`` holds at most, and the widest window (summed over the
#: placed laws that key it) of a law table or ``lln`` law it keeps.  An
#: exact law has at most ``_EXACT_MAX_RUNS`` + 1 = 4472 float64 entries,
#: 34.9 KiB; a kept table has a pmf and a cdf of at most 512 float64
#: entries each and a guide of at most 4 * 512 = 2048 intp entries,
#: 4 + 4 + 16 = 24 KiB; a kept ``lln`` law has at most 512 float64 and 512
#: intp entries, 8 KiB, and its per-bin deviations three arrays of at most
#: 512 float64 entries, 12 KiB.  So 128 kept products hold at most
#: 128 * 34.9 KiB, about 4.4 MiB; a wider table or law is built, used and
#: not kept, since the benchmark's peak memory grows with its op rate and a
#: wider cap waits for a fixed-size latency reservoir.
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


def _kept_placed(build, laws: tuple, *args):
    """``build(laws, *args)``, kept by ``_kept`` unless its placed ``laws`` are too wide.

    A product's last index less its first is the sum of its laws' hi - lo,
    so a kept one, keyed by its laws, spans at most ``_KEPT_WINDOW``
    entries; a wider one is built, used and not kept.
    """
    width = sum(hi - lo for _, _, lo, hi in laws)
    return build(laws, *args) if width >= _KEPT_WINDOW else _kept(build, laws, *args)


def _draw_laws(scenario: Scenario, n_runs: int, multinomial: bool) -> tuple:
    """(m, p) of the Binomial draws that sum to a trial's passes, in draw order.

    Under the fixed schedule that is one law (n_runs / a, q_i) per state;
    under multinomial preparation, the one law (n_runs, F).  This is the
    one check of a run count and a schedule: ``n_runs`` is an integer
    (``TypeError`` otherwise), positive (``ValueError`` otherwise), at most
    ``_MAX_RUNS`` and a multiple of a, and the fixed schedule needs uniform
    priors (``PreconditionError`` otherwise).
    """
    n_runs = _integer(n_runs, "n_runs", 1)
    if n_runs > _MAX_RUNS:
        raise PreconditionError(f"the limit is {_MAX_RUNS} runs; n_runs is too large to simulate")
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


def _placed(laws: tuple) -> tuple:
    """``laws`` placed: (m, p, lo, hi), each law with its ``_window``, read once per distinct law."""
    windows = {law: _window(*law) for law in dict.fromkeys(laws)}
    return tuple(law + windows[law] for law in laws)


@dataclass(frozen=True, eq=False)
class SimConfig:
    """One experiment: ``n_trials`` independent repetitions of N runs.

    ``n_runs`` must be a multiple of the ensemble size; by default each
    state is prepared exactly ``n_runs / a`` times (preparation-count
    fluctuations neglected).  Setting ``multinomial_preparation`` samples
    each run's state from the priors instead, a sensitivity mode that goes
    beyond that fixed-schedule assumption.  ``n_runs`` above ``_MAX_RUNS``,
    or sampling tables spanning more than ``_MAX_TABLE_ENTRIES`` entries,
    raise ``PreconditionError`` here, before anything is allocated.  ``n_runs``,
    ``n_trials`` and ``seed`` are integers (``TypeError`` otherwise) and
    are stored as ``int``; ``n_runs < 1``, ``n_trials`` outside
    [1, 2**63) and ``seed`` outside [0, 2**64) raise ``ValueError``, and
    a non-bool ``multinomial_preparation`` ``TypeError``.  ``laws``, the
    ``_placed`` ``_draw_laws``, is derived with that check.
    """

    scenario: Scenario
    n_runs: int
    n_trials: int
    seed: int
    multinomial_preparation: bool = False

    def __post_init__(self):
        for name, low, bits in (("n_runs", 1, None), ("n_trials", 1, 63), ("seed", 0, 64)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low, bits))
        multinomial = self.multinomial_preparation
        if not isinstance(multinomial, bool):
            raise TypeError(f"multinomial_preparation must be a bool, not {type(multinomial).__name__}")
        object.__setattr__(self, "laws", _placed(_draw_laws(self.scenario, self.n_runs, multinomial)))


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


def _philox_state(seed: int, subkey: int, block: int) -> dict:
    """The Philox state of the stream at (seed, subkey, block), its buffer empty.

    The one layout of a stream: the 128-bit key is ``seed | subkey << 64``,
    the 256-bit counter is ``block << 128``, and no buffered word or cached
    uint32 is left over, so the next draw starts at the counter.  The
    three numbers lie in [0, 2**64).  The words are in tuples, which the
    ``bit_generator.state`` setter reads word by word as it reads the
    arrays its getter returns, and which cost a third as much to build.
    """
    return {
        "bit_generator": BIT_GENERATOR,
        "state": {"counter": (0, 0, block, 0), "key": (seed, subkey)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _generator() -> np.random.Generator:
    """A new Generator over a Philox seeded with 0, to be moved to a stream's state.

    A seed skips the operating-system entropy numpy would otherwise draw.
    """
    return np.random.Generator(getattr(np.random, BIT_GENERATOR)(0))


def stream(seed: int, subkey: int = 0, block: int = 0) -> np.random.Generator:
    """Deterministic Philox stream for (seed, subkey) at a block offset.

    Philox's 128-bit key is ``seed | subkey << 64`` and its 256-bit counter
    starts at ``block << 128`` (``_philox_state``), so streams with
    different block indices never overlap.  Each call returns a new
    Generator that the caller owns.  Seed, subkey and block are integers
    (``TypeError`` otherwise), and one outside [0, 2**64) raises
    ``ValueError`` rather than alias a key in range.  The library draws
    through ``_thread_stream``, which gives the same numbers.
    """
    keys = {"seed": seed, "subkey": subkey, "block": block}
    state = _philox_state(*(_integer(value, name, 0, bits=64) for name, value in keys.items()))
    rng = _generator()
    rng.bit_generator.state = state
    return rng


_THREAD = threading.local()


def _thread_stream(seed: int, subkey: int = 0, block: int = 0) -> np.random.Generator:
    """This thread's one Generator, moved to ``stream(seed, subkey, block)``'s state.

    A counter-based generator's whole state is its key and counter
    (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
    so re-keying one generator draws exactly the numbers a new stream
    would, without a new Philox per block or ``lln`` point: building one
    costs about as much as a narrow point's draw.  The generator is the
    thread's, so threads never share one; it is valid only until the
    thread's next call, which re-keys it, so a caller finishes its draws
    first and never hands it out.  Keys are not checked: the library's
    keys are in range.
    """
    rng = getattr(_THREAD, "rng", None)
    if rng is None:
        rng = _THREAD.rng = _generator()
    rng.bit_generator.state = _philox_state(seed, subkey, block)
    return rng


def _window(m: int, p: float) -> tuple[int, int]:
    """First and last pass count of the Binomial(m, p) table.

    The window is mp +/- sqrt(32 ln2 m), clipped to [0, m]; a certain
    outcome (p = 0 or 1) is a one-entry window.  ``_draw_laws`` holds m to
    ``_MAX_RUNS``, where floats place every window; one of more than
    ``_MAX_TABLE_ENTRIES`` entries raises ``PreconditionError`` before
    anything is allocated.  Only ``_placed`` reads it.  README's Notes on
    numerics bound the mass the window leaves out.
    """
    if p <= 0.0 or p >= 1.0:
        return (m, m) if p >= 1.0 else (0, 0)
    half = _WINDOW * math.sqrt(m)
    lo = max(0, math.floor(m * p - half))
    hi = min(m, math.ceil(m * p + half))
    if hi - lo >= _MAX_TABLE_ENTRIES:
        raise PreconditionError(
            f"sampling Binomial({m}, {p!r}) needs a table of {hi - lo + 1} entries, "
            f"more than {_MAX_TABLE_ENTRIES}; n_runs is too large to simulate"
        )
    return lo, hi


def _binomial_table(laws: tuple):
    """Window start, pmf, cdf and guide of ``laws``' one placed law, built afresh and frozen.

    On the window [lo, hi] the pmf is the weights (peak 1) over their sum,
    the cdf their cumulative sum over its last entry.  The guide has the
    power of two at or above max(64, 4 min(K, ``_MAX_BLOCK_TRIALS``))
    buckets for K entries (README, Notes on numerics).  A certain outcome
    has the pmf [1.0] and no cdf or guide.
    """
    ((m, p, lo, hi),) = laws
    if lo == hi:
        return lo, frozen(np.ones(1)), None, None
    # built in place, each array frozen once final, so a wide table peaks near
    # four arrays' worth (2.3 MiB an array at N = 3e9 on trine)
    k = np.arange(lo + 1, hi + 1)
    weights = np.zeros(k.size + 1)  # the log pmf, then the weights
    np.cumsum(np.log((m - k + 1) / k) + (math.log(p) - math.log1p(-p)), out=weights[1:])
    del k
    weights -= weights.max()
    np.exp(weights, out=weights)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf = frozen(cdf)
    g = 1 << (max(64, 4 * min(cdf.size, _MAX_BLOCK_TRIALS)) - 1).bit_length()
    guide = frozen(np.searchsorted(cdf, np.arange(g) / g, side="right"))
    weights /= weights.sum()
    return lo, frozen(weights), cdf, guide


def _law_table(law: tuple):
    """The ``_binomial_table`` of a placed law that both samplers read, kept by ``_kept_placed``."""
    return _kept_placed(_binomial_table, (law,))


def _tables(laws: tuple) -> list:
    """Window start, cdf and guide of each distinct placed law's ``_law_table``, in draw order.

    Leaving the pmf out frees an unkept table's before the next is built.
    """
    inverted = operator.itemgetter(0, 2, 3)
    tables = {law: inverted(_law_table(law)) for law in dict.fromkeys(laws)}
    return [tables[law] for law in laws]


def _invert(rng, table, size: int) -> np.ndarray:
    """``size`` draws from a ``_law_table`` or a ``_tables`` entry, one uniform each.

    Each draw is ``lo + searchsorted(cdf, u, 'right')`` for its uniform u,
    reached through the guide (README, Notes on numerics, says why the two
    agree); a certain outcome consumes no uniforms.
    """
    lo, *_, cdf, guide = table
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

    ``laws`` lists placed Binomial laws (m, p, lo, hi), as ``_placed``
    does.  Every entry lies within 1e-14 of the exact law; the README's
    Notes on numerics give the FFT convolution, its memory and its error.
    """
    # window starts and pmfs only: an unkept table's cdf and guide are freed here
    tables = {law: _law_table(law)[:2] for law in dict.fromkeys(laws)}
    size = sum(tables[law][1].size for law in laws) - len(laws) + 1
    n_fft = 1 << (size - 1).bit_length()
    spectrum = np.ones(n_fft // 2 + 1, dtype=complex)
    for law, run in itertools.groupby(laws):
        factor = np.fft.rfft(tables[law][1], n_fft)
        for _ in run:
            spectrum *= factor
        del factor  # released before the next one or the inverse FFT is allocated
    pmf = np.clip(np.fft.irfft(spectrum, n_fft)[:size], 0.0, None)
    return sum(tables[law][0] for law in laws), pmf / pmf.sum()


def _sorted_pass_count_law(laws: tuple):
    """Window start, stable ascending order and ordered pmf of ``_pass_count_law``, frozen."""
    lo, pmf = _pass_count_law(laws)
    order = np.argsort(pmf, kind="stable")
    return lo, frozen(order), frozen(pmf[order])


def _total_histogram(cfg: SimConfig) -> tuple[int, np.ndarray]:
    """Window start and pass-count histogram of ``cfg.n_trials`` trials.

    The histogram is one multinomial over ``_pass_count_law`` of the
    configuration's laws, its entries in stable ascending order, drawn from
    the (seed, n_runs) stream; the README's Notes on numerics say why it
    replaces the trials' draws.  A law of at most ``_KEPT_WINDOW`` entries
    is kept by ``_kept``, keyed by the placed laws, and a wider one is
    built each time.  The law depends on no seed or trial count, so a kept
    one changes no draw.
    """
    lo, order, pmf = _kept_placed(_sorted_pass_count_law, cfg.laws)
    counts = np.empty(pmf.size, dtype=np.int64)
    counts[order] = _thread_stream(cfg.seed, subkey=cfg.n_runs).multinomial(cfg.n_trials, pmf)
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
    tables = _tables(_placed(_draw_laws(scenario, n_runs, False)))
    passes, prepared, passed = _draw_trials(rng, 1, n_runs, scenario.pass_probabilities, tables)
    outcomes, pass_counts = _split_outcomes(rng, scenario, prepared, passed)
    return TrialTally(prepared, outcomes, pass_counts), int(passes[0]) / n_runs


def _fidelities(lo: int, size: int, n_runs: int) -> np.ndarray:
    """Fidelity of each of the ``size`` bins of a pass-count histogram from ``lo``."""
    return (lo + np.arange(size)) / n_runs


def _deviations(laws: tuple, f: float):
    """``_fidelities`` of placed ``laws``' window and their absolute and squared deviations from ``f``.

    The arrays are frozen and depend on no seed or trial count;
    ``lln_sweep`` keeps them beside the point's law, keyed by the same laws.
    """
    lo, hi = sum(law[2] for law in laws), sum(law[3] for law in laws)
    fidelities = _fidelities(lo, hi - lo + 1, sum(law[0] for law in laws))
    dev = fidelities - f
    return frozen(fidelities), frozen(np.abs(dev)), frozen(dev * dev)


def min_passes(threshold: float, n_runs: int) -> int:
    """Smallest pass count s with ``s / n_runs >= threshold`` in float arithmetic.

    This is the one definition of a trial reaching ``threshold``, shared by
    the Monte Carlo and the exact oracle.  Returns ``n_runs + 1`` when no
    count reaches it; a non-finite threshold, ``n_runs < 1`` or ``n_runs``
    above ``_MAX_RUNS`` raises ``ValueError``.
    """
    n_runs = _integer(n_runs, "n_runs", 1)
    if n_runs > _MAX_RUNS:
        raise ValueError(f"n_runs must be at most {_MAX_RUNS}")
    _finite(threshold, "threshold")
    return bisect.bisect_left(range(n_runs + 1), threshold, key=lambda s: s / n_runs)


def run_experiment(cfg: SimConfig, threshold: float, workers: int = 1) -> SimReport:
    """Run ``cfg.n_trials`` independent trials and count threshold exceedances.

    Output is fully determined by ``cfg`` and ``threshold``.  ``workers``
    must be at least 1 and changes nothing: sampling runs on one thread.
    The sampling tables are built once, before any block is drawn, and
    each block of trials is reduced to its pass-count histogram once drawn.
    A request whose per-state tally, the largest law's m times
    ``n_trials``, is above ``_MAX_RUNS`` raises ``PreconditionError`` first.
    """
    s_min = min_passes(threshold, cfg.n_runs)
    _integer(workers, "workers", 1)
    if max(m for m, *_ in cfg.laws) * cfg.n_trials > _MAX_RUNS:
        raise PreconditionError(
            f"the limit is {_MAX_RUNS} runs of one state over all trials; "
            f"n_runs is too large to simulate in {cfg.n_trials} trials"
        )
    q = cfg.scenario.pass_probabilities
    priors = cfg.scenario.ensemble.priors if cfg.multinomial_preparation else None
    tables = _tables(cfg.laws)
    prepared = np.zeros(q.size, dtype=np.int64)
    passed = np.zeros(q.size, dtype=np.int64)
    lo, counts = None, np.zeros(0, dtype=np.int64)
    for block, first in enumerate(range(0, cfg.n_trials, _MAX_BLOCK_TRIALS)):
        rng = _thread_stream(cfg.seed, subkey=cfg.n_runs, block=block)
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
    split_rng = _thread_stream(cfg.seed, subkey=cfg.n_runs, block=_U64)
    outcomes, pass_counts = _split_outcomes(split_rng, cfg.scenario, prepared, passed)
    return SimReport(
        mean_fidelity=float((counts / cfg.n_trials) @ _fidelities(lo, counts.size, cfg.n_runs)),
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
    Beyond ``_EXACT_MAX_RUNS`` runs a ``BudgetExceededError`` points the
    caller at the Monte Carlo path; ``n_runs < 1`` raises ``ValueError``.
    The law is kept by ``_kept``, keyed by those laws, so it is read-only.
    """
    if _integer(n_runs, "n_runs", 1) > _EXACT_MAX_RUNS:
        raise BudgetExceededError(
            f"n_runs={_shown(n_runs)} is above the exact oracle's limit of {_EXACT_MAX_RUNS} "
            "runs; use the Monte Carlo simulator instead"
        )
    return _kept(_convolution_power, _draw_laws(scenario, n_runs, False))


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
    is sampled.  Each point draws the histogram of its trials' pass counts
    as one multinomial over the fixed-schedule law (``_total_histogram``)
    and reduces it, so its cost and memory grow like sqrt(N), whatever
    ``n_trials`` is.  A law of at most ``_KEPT_WINDOW`` entries (N up to
    600 on trine) is kept for later points of equal laws, whatever their
    seed or trial count, and beside it the per-bin fidelities and their
    absolute and squared deviations from F (``_deviations``), keyed by the
    same placed laws, so a kept point costs one draw and three dot
    products; a wider law and its deviations are built at each point.  The
    RMS column shrinks like 1/sqrt(N), which a log-log fit over a geometric
    ladder exposes as a slope near -1/2.  ``workers`` must be at least 1 and
    changes nothing: sampling runs on one thread.
    """
    _integer(workers, "workers", 1)
    configs = [SimConfig(scenario, n_runs, n_trials, seed) for n_runs in n_values]
    f_th = scenario.classical_fidelity
    rows = []
    for cfg in configs:
        _, counts = _total_histogram(cfg)
        fidelities, abs_dev, sq_dev = _kept_placed(_deviations, cfg.laws, f_th)
        weights = counts / cfg.n_trials
        rows.append(
            LlnRow(
                n_runs=cfg.n_runs,
                mean_fidelity=float(weights @ fidelities),
                mean_abs_deviation=float(weights @ abs_dev),
                rms_deviation=float(np.sqrt(weights @ sq_dev)),
            )
        )
    return rows


def rms_loglog_slope(rows: list[LlnRow]) -> float:
    """Least-squares slope of log10(rms deviation) against log10(N).

    Raises ``ValueError`` unless the rows hold at least two distinct N and
    every rms deviation is positive (a deterministic pass count has none).
    """
    if len({row.n_runs for row in rows}) < 2 or min(row.rms_deviation for row in rows) <= 0.0:
        raise ValueError("need two ladder points of distinct N and nonzero rms to fit a slope")
    x = np.log10([row.n_runs for row in rows])
    y = np.log10([row.rms_deviation for row in rows])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
