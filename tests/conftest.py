import pytest

from pvext import chevalley, construct, linalg, symgroup

import linalg_oracle
from linalg_oracle import mat_is_zero

# every supported system: A1-A8, B2-B8, C2-C8, D3-D8 and G2
ALL_SYSTEMS = (
    [("A", r) for r in range(1, 9)]
    + [(t, r) for t in "BC" for r in range(2, 9)]
    + [("D", r) for r in range(3, 9)]
    + [("G2", 2)]
)

_REPS = {}
_PIPELINES = {}


def get_rep(type_label, rank):
    key = (type_label, rank)
    if key not in _REPS:
        _REPS[key] = chevalley.build_rep(type_label, rank)
    return _REPS[key]


def get_pipeline(type_label, rank):
    key = (type_label, rank)
    if key not in _PIPELINES:
        _PIPELINES[key] = construct.run_pipeline(type_label, rank)
    return _PIPELINES[key]


@pytest.fixture(scope="session")
def rep_a1():
    return get_rep("A", 1)


@pytest.fixture(scope="session")
def rep_a2():
    return get_rep("A", 2)


@pytest.fixture(scope="session")
def rep_a3():
    return get_rep("A", 3)


@pytest.fixture(scope="session")
def rep_g2():
    return get_rep("G2", 2)


@pytest.fixture(scope="session")
def sl4_result():
    return get_pipeline("A", 3)


@pytest.fixture(scope="session")
def g2_result():
    return get_pipeline("G2", 2)


def constant_factor(m):
    """A constant invertible rational matrix such as n(w) as a
    symgroup.Factor: its inverse by Gauss-Jordan elimination, ldelta 0."""
    rows = tuple(map(tuple, m))
    return symgroup.Factor(rows, tuple(map(tuple, linalg.rational_inverse(rows))))


def neumann_inverse(m, one):
    """Inverse of a unipotent matrix by the finite Neumann series.

    The reference the group-law inverses are compared against: with
    N = m - 1 nilpotent, m^{-1} = 1 - N + N^2 - ..., and N^dim = 0.
    """
    n = len(m)
    zero = one * 0
    nil = linalg_oracle.mat_sub(m, linalg_oracle.eye(n, one, zero))
    inv = linalg_oracle.eye(n, one, zero)
    power = linalg_oracle.eye(n, one, zero)
    for _ in range(n):
        power = [[-x for x in row] for row in linalg.mat_mul(power, nil)]
        inv = linalg.mat_add(inv, power)
    if not mat_is_zero(linalg.mat_mul(power, nil)):
        raise ValueError("matrix is not unipotent")
    return inv
