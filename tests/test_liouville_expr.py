import random
from fractions import Fraction

import pytest

from pvext import liouville_expr
from pvext.diffpoly import DiffPoly, parse
from pvext.liouville_expr import LiouvExpr


def test_derive_integral():
    f = LiouvExpr.scalar(parse("n1"))
    assert LiouvExpr.integral(f).derive() == f


def test_derive_exp_integral():
    g = LiouvExpr.scalar(parse("0 - n3"))
    z = LiouvExpr.exp_integral(g)
    assert z.derive() == g * z


def test_derive_product_rule():
    f = LiouvExpr.scalar(parse("n1 n2'"))
    g = LiouvExpr.scalar(parse("n2 + 1"))
    e = LiouvExpr.integral(f) * LiouvExpr.exp_integral(g)
    want = f * LiouvExpr.exp_integral(g) + LiouvExpr.integral(f) * g * LiouvExpr.exp_integral(g)
    assert e.derive() == want


def test_derive_a_squared_integral_under_an_exponential():
    # c e^{int g} (int f)^2 int h: each factor is derived in turn, and the
    # square's derivative is 2 f int f
    c = LiouvExpr.scalar(parse("n1 n2 + 3"))
    g, f, h = (LiouvExpr.scalar(parse(t)) for t in ("n3", "n1'", "n2 + n3"))
    z, i_f, i_h = LiouvExpr.exp_integral(g), LiouvExpr.integral(f), LiouvExpr.integral(h)
    e = c * z * i_f ** 2 * i_h
    want = (
        c.derive() * z * i_f ** 2 * i_h
        + c * g * z * i_f ** 2 * i_h
        + c * z * 2 * f * i_f * i_h
        + c * z * i_f ** 2 * h
    )
    [(_, atoms)] = e.terms  # one term, with an exponential and two atoms
    assert sorted(k for _, k in atoms) == [1, 2]
    assert e.derive() == want


def test_exponent_cancellation():
    g = LiouvExpr.scalar(parse("n1' - n2"))
    assert LiouvExpr.exp_integral(g) * LiouvExpr.exp_integral(g * -1) == LiouvExpr.one()
    assert LiouvExpr.exp_integral(g * 0) == LiouvExpr.one()


def test_exponent_merge():
    g = LiouvExpr.scalar(parse("n1"))
    e2, e3 = LiouvExpr.exp_integral(g * 2), LiouvExpr.exp_integral(g * 3)
    assert e2 * e3 == LiouvExpr.exp_integral(g * 5)
    # powers fold into the integrand: e^{int g}^2 = e^{int 2g}
    assert LiouvExpr.exp_integral(g) ** 2 == LiouvExpr.exp_integral(g * 2)


def test_negative_powers_need_an_exponential_monomial():
    f = LiouvExpr.scalar(parse("n1"))
    for x in (f, LiouvExpr.integral(f), LiouvExpr.exp_integral(f) + 1, LiouvExpr.zero()):
        with pytest.raises(ValueError):
            x ** -1


def test_sum_of_equal_integrals_keeps_coefficient_outside():
    a = LiouvExpr.integral(LiouvExpr.scalar(parse("n1")))
    two_a = a + a
    assert two_a == a * 2
    # no linearity rewriting under the integral sign
    assert two_a != LiouvExpr.integral(LiouvExpr.scalar(parse("2 n1")))


def test_zero_annihilates():
    assert LiouvExpr.zero() * LiouvExpr.integral(LiouvExpr.scalar(parse("n1"))) == LiouvExpr.zero()


def test_integral_opacity():
    f = LiouvExpr.scalar(parse("n1 + n2"))
    g = LiouvExpr.scalar(parse("n2 + n1"))
    assert LiouvExpr.integral(f) == LiouvExpr.integral(g)  # same normalized argument
    assert LiouvExpr.integral(f) != LiouvExpr.integral(LiouvExpr.scalar(parse("n1 - n2")))


def test_normalize_idempotent_and_equals_equivalence():
    # Normalization is eager: adding zero or multiplying by one rebuilds the
    # same normal form, and equality is an equivalence on normal forms.
    rng = random.Random(9)
    exprs = [_random_expr(rng, 3) for _ in range(30)]
    for e in exprs:
        assert e + LiouvExpr.zero() == e
        assert e * LiouvExpr.one() == e
    for a in exprs[:10]:
        for b in exprs[:10]:
            assert (a == b) == (b == a)
            assert a == a


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        p = DiffPoly.zero()
        for _ in range(rng.randint(1, 2)):
            p = p + DiffPoly.eta(rng.randint(1, 2), rng.randint(0, 1)) * rng.randint(-2, 3)
        return LiouvExpr.scalar(p)
    kind = rng.choice(["sum", "prod", "int", "exp"])
    if kind == "sum":
        return _random_expr(rng, depth - 1) + _random_expr(rng, depth - 1)
    if kind == "prod":
        return _random_expr(rng, depth - 1) * _random_expr(rng, depth - 1)
    if kind == "int":
        return LiouvExpr.integral(_random_expr(rng, depth - 1))
    g = LiouvExpr.scalar(DiffPoly.eta(rng.randint(1, 2)))
    return LiouvExpr.exp_integral(g * rng.randint(-2, 2))


def test_derivation_leibniz_on_random_trees():
    rng = random.Random(10)
    for _ in range(60):
        a = _random_expr(rng, 3)
        b = _random_expr(rng, 3)
        assert (a * b).derive() == a.derive() * b + a * b.derive()
        assert (a + b).derive() == a.derive() + b.derive()


def _string(expr):
    return liouville_expr._id_string(liouville_expr._intern(expr))


def test_canonical_string_matches_equality():
    # The canonical string interns integrands and integral arguments, so it
    # must separate exactly the expressions that == separates.
    rng = random.Random(11)
    exprs = [_random_expr(rng, 3) for _ in range(40)]
    for a in exprs:
        for b in exprs:
            assert (_string(a) == _string(b)) == (a == b)


def test_expressions_refuse_what_they_cannot_hold():
    with pytest.raises(TypeError, match=r"^scalar expects a DiffPoly or rational$"):
        LiouvExpr.scalar(1.5)
    with pytest.raises(TypeError, match=r"^cannot coerce <class 'str'> to LiouvExpr$"):
        LiouvExpr.one() + "x"
    x = LiouvExpr.integral(DiffPoly.eta(1))
    with pytest.raises(TypeError, match=r"^integer powers only$"):
        x ** Fraction(1, 2)
    message = r"^only exponential monomials with rational coefficients are invertible$"
    with pytest.raises(ValueError, match=message):
        x ** -1
