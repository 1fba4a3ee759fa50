"""Property tests: the group law of the factors and the DiffPoly round trips.

Examples come from hypothesis with a fixed derandomized seed, so every run
checks the same cases.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from pvext import linalg, symgroup
from pvext.diffpoly import DiffPoly, parse
from pvext.liouville_expr import LiouvExpr

from conftest import get_rep

SYSTEMS = [("A", 2), ("A", 3), ("B", 2), ("G2", 2)]

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def polys(draw, max_var=3, max_order=2, max_terms=4):
    """A DiffPoly in eta_1..eta_max_var of order at most max_order."""
    p = DiffPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = DiffPoly.rational(draw(coefficients))
        for _ in range(draw(st.integers(0, 3))):
            var = draw(st.integers(1, max_var))
            term = term * DiffPoly.eta(var, draw(st.integers(0, max_order)))
        p = p + term
    return p


@st.composite
def liouv_args(draw):
    """A scalar, an integral or a scaled exponential of an integral."""
    p = LiouvExpr.scalar(draw(polys(max_order=1, max_terms=2)))
    kind = draw(st.sampled_from(["scalar", "integral", "exp"]))
    if kind == "scalar":
        return p
    if kind == "integral":
        return LiouvExpr.integral(p) * draw(coefficients)
    return LiouvExpr.exp_integral(p) * draw(coefficients)


@st.composite
def roots(draw):
    rep = get_rep(*draw(st.sampled_from(SYSTEMS)))
    return rep, draw(st.sampled_from(rep.rs.roots))


def _is_inverse_with_ldelta(factor):
    n = len(factor.rows)
    one = linalg.mat_mul(factor.rows, factor.inv)
    literal = linalg.mat_mul(linalg.mat_derive(factor.rows), factor.inv)
    return linalg.mat_eq(one, linalg.eye(n)) and linalg.mat_eq(factor.ldelta, literal)


@settings(derandomize=True, deadline=None)
@given(roots(), polys())
def test_group_law_of_unipotent_factors_over_diffpoly(rep_root, x):
    rep, root = rep_root
    assert _is_inverse_with_ldelta(symgroup.unipotent_matrix(rep, root, x))


@settings(derandomize=True, deadline=None)
@given(roots(), liouv_args())
def test_group_law_of_unipotent_factors_over_liouvexpr(rep_root, x):
    rep, root = rep_root
    assert _is_inverse_with_ldelta(symgroup.unipotent_matrix(rep, root, x))


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(SYSTEMS), st.data(), polys(max_order=1))
def test_group_law_of_torus_factors_of_an_exponential(system, data, g):
    rep = get_rep(*system)
    i = data.draw(st.integers(1, rep.rank))
    z = LiouvExpr.exp_integral(LiouvExpr.scalar(g))
    assert _is_inverse_with_ldelta(symgroup.torus_matrix(rep, i, z))


@settings(derandomize=True, deadline=None)
@given(polys())
def test_text_parse_round_trip(p):
    assert parse(p.text()) == p


@settings(derandomize=True, deadline=None)
@given(polys())
def test_json_round_trip(p):
    obj = json.loads(json.dumps(p.to_json_obj()))
    assert DiffPoly.from_json_obj(obj) == p


@settings(derandomize=True, deadline=None)
@given(polys(), st.lists(polys(max_order=1, max_terms=2), min_size=3, max_size=3))
def test_derive_commutes_with_substitute(p, images):
    sigma = dict(enumerate(images, start=1))
    assert p.derive().substitute(sigma) == p.substitute(sigma).derive()
