import pytest

from feitlab import runner


@pytest.fixture(autouse=True)
def cold_table_cache():
    """Each test starts with no spec table kept from an earlier test, so
    what a test sees of a table (say, that its group has no multiplication
    table yet) does not depend on which tests ran before it."""
    runner._spec_table.cache_clear()
