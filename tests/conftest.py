import os

# one BLAS thread: with a thread per CPU, any concurrent load slows the
# numerical tests by up to two orders of magnitude
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest

from catenv import ideals as IL
from catenv.fixtures import fix_edge, fix_two
from catenv.germs import GermContext
from catenv.hull import InverseHull


class FixtureBundle:
    """Hull + lattice + germ data for one finite fixture, built once per session."""

    def __init__(self, pres, bound=None):
        self.pres = pres
        self.hull = InverseHull(pres)
        self.closure = self.hull.generate(bound)
        self.lattice = IL.Semilattice(self.hull, self.closure)
        self.omega = IL.enumerate_characters(self.lattice)
        self.boundary = IL.boundary(self.lattice, self.omega)
        self.germs = GermContext(self.hull, self.lattice)
        self.g_omega = self.germs.build_groupoid(self.closure, self.omega)
        self.g_boundary = self.g_omega.restrict_to(self.boundary)

    def char(self, min_ideal_repr):
        for chi in self.omega:
            if repr(chi.min_ideal()) == min_ideal_repr:
                return chi
        raise KeyError(min_ideal_repr)


@pytest.fixture(scope="session")
def edge():
    return FixtureBundle(fix_edge())


@pytest.fixture(scope="session")
def two():
    return FixtureBundle(fix_two())
