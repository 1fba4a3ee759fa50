import random
from fractions import Fraction

from pvext.diffpoly import DiffPoly, parse
from pvext.liouville_expr import (
    ExpIntegral,
    Integral,
    LiouvExpr,
    Product,
    Scalar,
    Sum,
    derive_expr,
    equals,
    normalize,
)


def test_derive_integral():
    assert derive_expr(Integral(Scalar(parse("n1")))) == Scalar(parse("n1"))


def test_derive_exp_integral():
    g = Scalar(parse("0 - n3"))
    z = ExpIntegral(g)
    assert derive_expr(z) == g * z


def test_derive_product_rule():
    f = Scalar(parse("n1 n2'"))
    g = Scalar(parse("n2 + 1"))
    e = Integral(f) * ExpIntegral(g)
    want = f * ExpIntegral(g) + Integral(f) * g * ExpIntegral(g)
    assert derive_expr(e) == want


def test_exponent_cancellation():
    g = Scalar(parse("n1' - n2"))
    assert ExpIntegral(g) * ExpIntegral(g, -1) == LiouvExpr.one()
    assert ExpIntegral(g, 0) == LiouvExpr.one()


def test_exponent_merge():
    g = Scalar(parse("n1"))
    assert ExpIntegral(g, 2) * ExpIntegral(g, 3) == ExpIntegral(g, 5)
    # powers fold into the integrand: e^{int g}^2 = e^{int 2g}
    assert ExpIntegral(g, 2) == ExpIntegral(g * 2)


def test_sum_of_equal_integrals_keeps_coefficient_outside():
    a = Integral(Scalar(parse("n1")))
    two_a = Sum([a, a])
    assert two_a == a * 2
    # no linearity rewriting under the integral sign
    assert two_a != Integral(Scalar(parse("2 n1")))


def test_zero_annihilates():
    assert LiouvExpr.zero() * Integral(Scalar(parse("n1"))) == LiouvExpr.zero()


def test_integral_opacity():
    f = Scalar(parse("n1 + n2"))
    g = Scalar(parse("n2 + n1"))
    assert Integral(f) == Integral(g)  # same normalized argument
    assert Integral(f) != Integral(Scalar(parse("n1 - n2")))


def test_normalize_idempotent_and_equals_equivalence():
    rng = random.Random(9)
    exprs = [_random_expr(rng, 3) for _ in range(30)]
    for e in exprs:
        assert normalize(normalize(e)) == normalize(e)
    for a in exprs[:10]:
        for b in exprs[:10]:
            assert equals(a, b) == equals(b, a)
            assert equals(a, a)


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        p = DiffPoly.zero()
        for _ in range(rng.randint(1, 2)):
            p = p + DiffPoly.eta(rng.randint(1, 2), rng.randint(0, 1)) * rng.randint(-2, 3)
        return Scalar(p)
    kind = rng.choice(["sum", "prod", "int", "exp"])
    if kind == "sum":
        return Sum([_random_expr(rng, depth - 1) for _ in range(2)])
    if kind == "prod":
        return Product([_random_expr(rng, depth - 1) for _ in range(2)])
    if kind == "int":
        return Integral(_random_expr(rng, depth - 1))
    return ExpIntegral(Scalar(DiffPoly.eta(rng.randint(1, 2))), rng.randint(-2, 2))


def test_derivation_leibniz_on_random_trees():
    rng = random.Random(10)
    for _ in range(60):
        a = _random_expr(rng, 3)
        b = _random_expr(rng, 3)
        assert derive_expr(a * b) == derive_expr(a) * b + a * derive_expr(b)
        assert derive_expr(a + b) == derive_expr(a) + derive_expr(b)


def test_json_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        e = _random_expr(rng, 3)
        obj = e.to_json_obj()
        assert LiouvExpr.from_json_obj(obj) == e
        # canonical: serialization of the round-trip is byte-identical
        assert LiouvExpr.from_json_obj(obj).canonical_string() == e.canonical_string()


def test_scalar_queries():
    e = Scalar(parse("3/2"))
    assert e.is_rational() and e.rational_value() == Fraction(3, 2)
    assert not ExpIntegral(Scalar(parse("n1"))).is_rational()
