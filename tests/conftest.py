import pytest

from qheun import acceptance


@pytest.fixture(scope="session")
def p1():
    return acceptance.P1


@pytest.fixture(scope="session")
def p2():
    return acceptance.P2


@pytest.fixture(scope="session")
def p3():
    return acceptance.P3


@pytest.fixture(scope="session")
def p4():
    return acceptance.P4
