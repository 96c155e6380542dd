import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Tier-1 ("fast") draws the same examples on every run, so two runs factor
# the same matrices; "explore" (--hypothesis-profile=explore) draws ten times
# as many, from a fresh seed each run, and is where new cases are searched.
settings.register_profile(
    "fast", max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=(HealthCheck.too_slow,))
settings.register_profile(
    "explore", max_examples=250, deadline=None,
    suppress_health_check=(HealthCheck.too_slow,))
settings.load_profile("fast")


@pytest.fixture(scope="session")
def unit_cube_222():
    from aphi.mesh import build_box_mesh
    return build_box_mesh(((0, 1), (0, 1), (0, 1)), (2, 2, 2))


@pytest.fixture(scope="session")
def academic_built():
    from aphi.scenario import academic_scenario
    return academic_scenario((3, 3, 3)).build()


@pytest.fixture(scope="session")
def mms_built_sigma0():
    from aphi.scenario import mms_scenario
    return mms_scenario(0.0, (4, 4, 4)).build()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def splu_dtypes(monkeypatch):
    """The dtype of every matrix handed to SuperLU, in call order."""
    import scipy.sparse.linalg as spla
    splu = spla.splu
    dtypes = []

    def spy(A, *args, **kwargs):
        dtypes.append(A.dtype)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return dtypes
