import pytest

from telecert import simulator


@pytest.fixture
def cold_products(monkeypatch):
    """An empty store of kept inversion tables and exact laws for one test.

    A test that needs a table or a law to be built, not found, starts cold
    whatever ran before it in the process.
    """
    kept = simulator._KeptProducts(simulator._KEPT_BYTES)
    monkeypatch.setattr(simulator, "_KEPT", kept)
    return kept
