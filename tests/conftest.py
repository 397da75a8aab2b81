"""Shared fixtures: the bundled constructions are built once per session.

The second configuration's search-and-prune pipeline takes 2-5 s on a
2-vCPU machine under CPython 3.11, the most of any fixture, so every
test that needs it shares one build; the same goes for the cheaper
constructions and their antipodal quotients.
"""

from __future__ import annotations

import pytest

from sphereflow.constructions import (
    SecondConstruction,
    build_first_expansion,
    build_icosidodecahedron,
    build_second_counterexample,
)
from sphereflow.geometry import PointSet
from sphereflow.quotient import AntipodalQuotient, quotient_antipodal


@pytest.fixture(scope="session")
def icosi() -> PointSet:
    return build_icosidodecahedron()


@pytest.fixture(scope="session")
def ce1() -> PointSet:
    return build_first_expansion()


@pytest.fixture(scope="session")
def ce2() -> SecondConstruction:
    return build_second_counterexample()


@pytest.fixture(scope="session")
def icosi_q(icosi) -> AntipodalQuotient:
    return quotient_antipodal(icosi)


@pytest.fixture(scope="session")
def ce1_q(ce1) -> AntipodalQuotient:
    return quotient_antipodal(ce1)


@pytest.fixture(scope="session")
def ce2_q(ce2) -> AntipodalQuotient:
    return quotient_antipodal(ce2.final)
