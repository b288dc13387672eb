import pytest

from telecert import simulator


@pytest.fixture
def cold_products():
    """The cache of kept inversion tables and exact laws, empty for one test.

    A test that needs a table or a law to be built, not found, starts cold
    whatever ran before it in the process, and leaves nothing behind.
    """
    simulator._kept.cache_clear()
    yield simulator._kept
    simulator._kept.cache_clear()
