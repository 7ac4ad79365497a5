import json

import pytest

from ringlab import SuiteContext, classify, construct, gf, matrix_ring, triangular_ring, zn


@pytest.fixture(autouse=True)
def _fresh_build_registry():
    """Start every test with no live ring registered by ``build``.

    ``build`` returns the live ring of an equal spec, memo included.
    Without this, a test that patches a kernel, or counts builds or
    axiom reports, could be handed a ring that a session fixture such as
    ``suite_ctx`` still holds, built and memoized before the test began.
    """
    construct._LIVE.clear()


@pytest.fixture(scope="session")
def z2():
    return zn(2)


@pytest.fixture(scope="session")
def z3():
    return zn(3)


@pytest.fixture(scope="session")
def z4():
    return zn(4)


@pytest.fixture(scope="session")
def z6():
    return zn(6)


@pytest.fixture(scope="session")
def f4():
    return gf(2, 2)


@pytest.fixture(scope="session")
def t2z2():
    return triangular_ring(2, zn(2))


@pytest.fixture(scope="session")
def m2z2():
    return matrix_ring(2, zn(2))


@pytest.fixture(scope="session")
def suite_ctx():
    """Shared catalog + classification cache for the whole test run."""
    ctx = SuiteContext(jobs=2)
    for entry in ctx.entries:
        classify(entry.ring)
    return ctx


@pytest.fixture(scope="session")
def small_catalog(suite_ctx):
    """Catalog members small enough for naive-oracle sweeps."""
    return [e for e in suite_ctx.entries if e.ring.order <= 64]


@pytest.fixture()
def spec_file(tmp_path):
    def write(spec, name="ring.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    return write
