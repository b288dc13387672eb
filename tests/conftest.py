import pytest

from telecert import simulator


@pytest.fixture
def cold_products():
    """The cache of kept products, empty for one test.

    The products are the Binomial law tables, the exact and ``lln``
    pass-count laws, each kept ``lln`` law's per-bin deviations and the
    FFT spectra of kept tables; each sampling product is keyed by its
    placed laws (m, p, lo, hi), each window placed once per distinct law,
    and each exact law by its plain laws (m, p).  A test that needs one of
    them to be built, not found, starts cold whatever ran before it in the
    process, and leaves nothing behind.
    """
    simulator._kept.cache_clear()
    yield simulator._kept
    simulator._kept.cache_clear()
