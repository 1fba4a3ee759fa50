import random
from fractions import Fraction

import pytest

from pvext import chevalley, linalg, symgroup
from pvext.diffpoly import DiffPoly, parse
from pvext.errors import NotClosedFormInvertible, NotInLieAlgebra
from pvext.liouville_expr import LiouvExpr

import chevalley_oracle
import factor_oracle
from conftest import constant_factor, get_rep, neumann_inverse
import linalg_oracle
from linalg_oracle import mat_is_zero


def test_logderiv_identity(rep_a3):
    m = constant_factor(linalg.eye(4))
    assert mat_is_zero(symgroup.log_derivative(m))


def test_logderiv_unipotent_generator(rep_a3):
    for i in range(1, 7):
        u = factor_oracle.unipotent_matrix(rep_a3, rep_a3.rs.neg_order[i - 1], DiffPoly.eta(i))
        ld = symgroup.log_derivative(u)
        want = [[DiffPoly.eta(i, 1) * x for x in row] for row in rep_a3.x_neg(i)]
        assert linalg.mat_eq(ld, want)


def test_logderiv_torus_exponential(rep_a3):
    z = LiouvExpr.exp_integral(LiouvExpr.scalar(parse("0 - n3")))
    t = factor_oracle.torus_matrix(rep_a3, 1, z)
    ld = symgroup.log_derivative(t)
    want = [[LiouvExpr.scalar(parse("0 - n3") * x) for x in row] for row in rep_a3.H[0]]
    assert linalg.mat_eq(linalg_oracle.mat_sub(ld, want), linalg_oracle.zeros(4, LiouvExpr.zero()))


def test_adjoint_identity(rep_a2):
    a = [[DiffPoly.eta(1) * x for x in row] for row in rep_a2.H[0]]
    g = constant_factor(linalg.eye(3))
    assert linalg.mat_eq(symgroup.adjoint(g, a), a)


def test_adjoint_formulas_on_cartan(rep_a3):
    # Ad(u_beta(x))(H_alpha) = H_alpha - <alpha, beta> x X_beta
    x = DiffPoly.eta(1)
    for beta in rep_a3.rs.roots:
        u = factor_oracle.unipotent_matrix(rep_a3, beta, x)
        for i in range(1, 4):
            alpha = rep_a3.rs.simple(i)
            got = symgroup.adjoint(u, [[DiffPoly.rational(v) for v in row] for row in rep_a3.H[i - 1]])
            pairing = chevalley_oracle.cartan_integer(rep_a3.rs, alpha, beta)
            want = linalg_oracle.mat_sub(
                [[DiffPoly.rational(v) for v in row] for row in rep_a3.H[i - 1]],
                [[(x * pairing) * v for v in row] for row in rep_a3.X[beta.coeffs]],
            )
            assert linalg.mat_eq(got, want)


def test_adjoint_formula_on_opposite_vector(rep_a3):
    # Ad(u_beta(x))(X_{-beta}) = X_{-beta} + x H_beta - x^2 X_beta
    x = DiffPoly.eta(2)
    for beta in rep_a3.rs.roots:
        u = factor_oracle.unipotent_matrix(rep_a3, beta, x)
        got = symgroup.adjoint(
            u, [[DiffPoly.rational(v) for v in row] for row in rep_a3.X[(-beta).coeffs]]
        )
        hbeta = chevalley_oracle.coroot_matrix(rep_a3.rs, rep_a3.H, beta)
        want = [[DiffPoly.rational(v) for v in row] for row in rep_a3.X[(-beta).coeffs]]
        want = linalg.mat_add(want, [[x * v for v in row] for row in hbeta])
        want = linalg_oracle.mat_sub(want, [[(x * x) * v for v in row] for row in rep_a3.X[beta.coeffs]])
        assert linalg.mat_eq(got, want)


def test_gauge_identity_and_zero(rep_a2):
    a = [[DiffPoly.eta(1) * x for x in row] for row in rep_a2.a0_plus()]
    ident = constant_factor(linalg.eye(3))
    assert linalg.mat_eq(symgroup.gauge(ident, a), a)
    u = factor_oracle.unipotent_matrix(rep_a2, rep_a2.rs.neg_order[0], DiffPoly.eta(1))
    zero = linalg_oracle.zeros(3, DiffPoly.zero())
    assert linalg.mat_eq(symgroup.gauge(u, zero), symgroup.log_derivative(u))


def test_gauge_riccati(rep_a1):
    # gauge(u_{-a}(eta1), A_0^+ + eta1 H_1) = [[0, 1], [eta1' + eta1^2, 0]]
    a = linalg.mat_add(
        [[DiffPoly.rational(v) for v in row] for row in rep_a1.a0_plus()],
        [[DiffPoly.eta(1) * v for v in row] for row in rep_a1.H[0]],
    )
    u = factor_oracle.unipotent_matrix(rep_a1, rep_a1.rs.neg_order[0], DiffPoly.eta(1))
    got = symgroup.gauge(u, a)
    want = [
        [DiffPoly.zero(), DiffPoly.rational(1)],
        [parse("n1' + n1^2"), DiffPoly.zero()],
    ]
    assert linalg.mat_eq(got, want)


def test_decompose_v6_fixture(rep_a3):
    from pvext import construct

    u = construct.unipotent_product(rep_a3, [DiffPoly.eta(i) for i in range(1, 7)])
    uinv = neumann_inverse(u, DiffPoly.rational(1))
    du = [[x.derive() for x in row] for row in u]
    dec = chevalley.decompose_in_basis(rep_a3, linalg.mat_mul(du, uinv))
    coef = dec[("X", (-1, -1, -1))]
    assert coef == parse("n6' + n3 n4' - n5' n1 + n3' n2 n1")


def test_decompose_rejects_trace(rep_a3):
    with pytest.raises(NotInLieAlgebra):
        chevalley.decompose_in_basis(rep_a3, linalg.eye(4))


def test_general_inverse_refused():
    m = ((DiffPoly.eta(1), DiffPoly.zero()), (DiffPoly.zero(), DiffPoly.eta(2)))
    with pytest.raises(NotClosedFormInvertible):
        symgroup.log_derivative(m)
    with pytest.raises(NotClosedFormInvertible):
        symgroup.adjoint(m, m)


def _random_structured_factors(rep, rng, count):
    factors = []
    for _ in range(count):
        kind = rng.choice(["unipotent", "torus", "weyl"])
        if kind == "unipotent":
            root = rng.choice(rep.rs.neg_order + tuple(-b for b in rep.rs.neg_order))
            arg = DiffPoly.eta(rng.randint(1, rep.m), rng.randint(0, 1)) * rng.randint(1, 3)
            factors.append(factor_oracle.unipotent_matrix(rep, root, arg))
        elif kind == "torus":
            z = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
            factors.append(factor_oracle.torus_matrix(rep, rng.randint(1, rep.rank), z))
        else:
            word = tuple(rng.randint(1, rep.rank) for _ in range(rng.randint(1, 3)))
            factors.append(
                constant_factor(chevalley_oracle.weyl_representative(rep, word))
            )
    return factors


def test_product_rule_randomized():
    rng = random.Random(21)
    for t, r in [("A", 2), ("A", 3)]:
        rep = get_rep(t, r)
        for _ in range(20):
            factors = _random_structured_factors(rep, rng, 2)
            a, b = factors
            ab = linalg.mat_mul(a.rows, b.rows)
            lhs = linalg.mat_mul(
                [[_dp_derive(x) for x in row] for row in ab],
                _structured_inverse_product(b, a),
            )
            rhs = linalg.mat_add(
                symgroup.log_derivative(a), symgroup.adjoint(a, symgroup.log_derivative(b))
            )
            assert linalg.mat_eq(_dp_lift(lhs), _dp_lift(rhs))


def _dp_derive(x):
    if isinstance(x, Fraction):
        return Fraction(0)
    return x.derive()


def _dp_lift(m):
    return [
        [x if isinstance(x, DiffPoly) else DiffPoly.rational(x) for x in row]
        for row in m
    ]


def _structured_inverse_product(b, a):
    return linalg.mat_mul(b.inv, a.inv)


def test_log_derivative_lands_in_lie_algebra():
    # every product of generators maps into the span of the basis
    rng = random.Random(22)
    for t, r in [("A", 2), ("A", 3), ("G2", 2)]:
        rep = get_rep(t, r)
        for _ in range(10):
            factors = _random_structured_factors(rep, rng, 3)
            ld = symgroup.log_derivative(factors)
            chevalley.decompose_in_basis(rep, _dp_lift(ld))


def test_adjoint_preserves_brackets():
    rng = random.Random(23)
    rep = get_rep("A", 3)
    basis = [rep.H[0], rep.H[2]] + [rep.X[b.coeffs] for b in rep.rs.neg_order[:4]]
    for _ in range(20):
        g = _random_structured_factors(rep, rng, 1)[0]
        a = _dp_lift(rng.choice(basis))
        b = _dp_lift(rng.choice(basis))
        lhs = symgroup.adjoint(g, linalg_oracle.bracket(a, b))
        rhs = linalg_oracle.bracket(_dp_lift(symgroup.adjoint(g, a)), _dp_lift(symgroup.adjoint(g, b)))
        assert linalg.mat_eq(_dp_lift(lhs), rhs)


def test_torus_factor_over_liouvexpr():
    rep = get_rep("A", 3)
    z1 = LiouvExpr.exp_integral(LiouvExpr.scalar(parse("0 - n3")))
    t = factor_oracle.torus_matrix(rep, 1, z1)
    assert t.rows[0][0] == z1
    assert t.rows[1][1] == LiouvExpr.exp_integral(LiouvExpr.scalar(parse("n3")))
    assert t.rows[2][2] == LiouvExpr.one() and t.rows[3][3] == LiouvExpr.one()
    assert t.rows[0][1] == LiouvExpr.zero()
    assert t.inv[0][0] == t.rows[1][1] and t.inv[1][1] == z1


def test_unipotent_factor_over_liouvexpr():
    rep = get_rep("A", 3)
    y1 = LiouvExpr.integral(LiouvExpr.exp_integral(LiouvExpr.scalar(parse("-2 n3 + n2")))) * Fraction(-1)
    u = factor_oracle.unipotent_matrix(rep, rep.rs.neg_order[0], y1)
    assert u.rows[1][0] == y1 and u.inv[1][0] == -y1
    assert u.rows[0][0] == LiouvExpr.one()
    assert u.rows[1][1] == LiouvExpr.one()


def test_root_factors_compare_and_hash_by_their_matrices(rep_a2):
    # a factor is its matrix, its inverse and its ldelta, compared as values
    root = rep_a2.rs.roots[0]
    f, g = (factor_oracle.unipotent_matrix(rep_a2, root, DiffPoly.eta(1)) for _ in range(2))
    assert f == g and hash(f) == hash(g)
    assert f != factor_oracle.unipotent_matrix(rep_a2, root, DiffPoly.eta(2))


INVERSE_SYSTEMS = (
    [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 6)]
    + [("C", r) for r in range(2, 6)] + [("D", r) for r in range(3, 6)] + [("G2", 2)]
)


@pytest.mark.parametrize(
    "system", INVERSE_SYSTEMS, ids=["G2" if t == "G2" else "%s%d" % (t, r) for t, r in INVERSE_SYSTEMS]
)
def test_unipotent_inverse_is_the_element_at_minus_x(system):
    # the inverse negates the odd-k cells of u(x); entry for entry, types
    # included, it is unipotent_element(rep, root, -x)
    rep = get_rep(*system)
    xs = (parse("n1' - 2 n1^2 + 3/2"), Fraction(-3, 2), DiffPoly.zero(), Fraction(0))
    for root in rep.rs.roots:
        for x in xs:
            got = factor_oracle.unipotent_matrix(rep, root, x).inv
            want = chevalley.unipotent_element(rep, root, -x)
            assert got == tuple(tuple(row) for row in want)
            assert [[type(e) for e in row] for row in got] == [[type(e) for e in row] for row in want]
