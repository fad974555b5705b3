import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact-algebra",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI runs the same examples on every run and keeps no example database
settings.register_profile("ci", parent=settings.get_profile("exact-algebra"),
                          derandomize=True, database=None)
settings.load_profile("ci" if os.environ.get("CI") else "exact-algebra")


@pytest.fixture(autouse=True)
def cold_basis_cache():
    """Every test starts with no shared Groebner basis: a warm basis would
    skip a patched step of buchberger, or a lowered BUCHBERGER_MAX_BITS."""
    from ulrich_forge import groebner

    groebner._reduced_basis.cache_clear()


@pytest.fixture(scope="session")
def plane_ring():
    from ulrich_forge import PolyRing

    return PolyRing(("x", "y"))


@pytest.fixture
def table_cap(monkeypatch):
    """Lower semigroup.TABLE_DEGREE_CAP for one test.  A point table reads
    the cap when it is made, so the table cache is emptied on both sides."""
    from ulrich_forge import semigroup

    def lower(cap):
        monkeypatch.setattr(semigroup, "TABLE_DEGREE_CAP", cap)
        semigroup._member_set.cache_clear()

    yield lower
    semigroup._member_set.cache_clear()
