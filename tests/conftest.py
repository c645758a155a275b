from __future__ import annotations

import pytest

from coxauto import parse_coxeter_system
from coxauto.garside import project


def projection_state_map(source_payload_elements, target_shadow, target_auto):
    """Map automaton states through a shadow projection, as state indices."""
    index = {el.inv: i for i, el in enumerate(target_auto.payloads)}
    return [index[project(target_shadow, el).inv]
            for el in source_payload_elements]


@pytest.fixture(scope="session")
def a2():
    return parse_coxeter_system("A2")


@pytest.fixture(scope="session")
def b2():
    return parse_coxeter_system("B2")


@pytest.fixture(scope="session")
def a3():
    return parse_coxeter_system("A3")


@pytest.fixture(scope="session")
def i2inf():
    return parse_coxeter_system("I2(inf)")


@pytest.fixture(scope="session")
def aff_a2():
    return parse_coxeter_system("~A2")


@pytest.fixture(scope="session")
def aff_c2():
    return parse_coxeter_system("~C2")


@pytest.fixture(scope="session")
def aff_g2():
    return parse_coxeter_system("~G2")


@pytest.fixture(scope="session")
def right_angled():
    """G' = <s,t,u | s^2=t^2=u^2=e, su=us>, the commuting-pair remark group."""
    return parse_coxeter_system("triangle(inf,2,inf)")


@pytest.fixture(scope="session")
def tri36():
    """triangle with m_st=3, m_su=2, m_tu=6: the rank-3 non-minimal witness."""
    return parse_coxeter_system("triangle(3,2,6)")


@pytest.fixture(scope="session")
def tri33inf():
    return parse_coxeter_system("triangle(3,3,inf)")
