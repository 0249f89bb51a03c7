import os
from pathlib import Path

import pytest
from hypothesis import settings

import appellsys
from appellsys.appell import AppellBasis
from appellsys.jets import log1p_vjet
from appellsys.measures import DeltaModel, GaussianModel, PoissonModel

# property tests draw the same examples on every run and never time out
settings.register_profile("appellsys", derandomize=True, deadline=None, database=None)
settings.load_profile("appellsys")


@pytest.fixture(scope="session")
def gauss1d_basis():
    return AppellBasis(GaussianModel.standard(1), degree=6)


@pytest.fixture(scope="session")
def gauss1d_basis8():
    return AppellBasis(GaussianModel.standard(1), degree=8)


@pytest.fixture(scope="session")
def poisson1d_log1p_basis():
    model = PoissonModel((1.0,))
    return AppellBasis(model, log1p_vjet(1, 6), degree=6)


@pytest.fixture(scope="session")
def gauss2d_basis():
    cov = ((1.0, 0.2), (0.2, 1.5))
    return AppellBasis(GaussianModel(cov), degree=5)


@pytest.fixture(scope="session")
def poisson2d_log1p_basis():
    model = PoissonModel((1.0, 2.0))
    return AppellBasis(model, log1p_vjet(2, 5), degree=5)


@pytest.fixture(scope="session")
def delta1d_basis():
    return AppellBasis(DeltaModel(1), degree=6)


@pytest.fixture(scope="session")
def cli_env():
    """Environment in which a `python -m appellsys.cli` subprocess imports
    the package under test, also when pytest found it through its own
    pythonpath setting rather than an installation or PYTHONPATH."""
    paths = [str(Path(appellsys.__file__).resolve().parents[1])]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
