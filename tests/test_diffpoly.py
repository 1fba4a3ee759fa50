import gc
import json
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pvext import diffpoly
from pvext.diffpoly import EXPONENT_LIMIT, DiffPoly, JetVar, parse
from pvext.errors import ExponentOverflow, MissingAssignment


def test_addition_cancels():
    assert parse("n1 + n2") + parse("0 - n2") == parse("n1")


def test_product_monomial():
    p = DiffPoly.eta(1) * DiffPoly.eta(2, 1)
    assert list(p.terms) == [((JetVar(1, 0), 1), (JetVar(2, 1), 1))]
    assert p.terms[((JetVar(1, 0), 1), (JetVar(2, 1), 1))] == 1


def test_cancellation_to_zero():
    p = parse("n1'") ** 2 - parse("n1'") ** 2
    assert p.is_zero()
    assert p.terms == {}


def test_derive_basics():
    assert parse("n1").derive() == parse("n1'")
    assert (parse("n1") * parse("n2")).derive() == parse("n1' n2 + n1 n2'")
    assert parse("n1^2 + n1'").derive() == parse("2 n1 n1' + n1''")


def test_substitute_differential():
    # eta_4' with eta_4 -> eta_1' + eta_1^2
    got = parse("n4'").substitute({4: parse("n1' + n1^2")})
    assert got == parse("n1'' + 2 n1 n1'")


def test_substitute_identity():
    p = parse("n1'' n2 - 3 n1 n3'")
    sigma = {i: DiffPoly.eta(i) for i in (1, 2, 3)}
    assert p.substitute(sigma) == p


def test_substitute_verbatim():
    target = parse("n1'' + 3 n1 n1' + n1^3 - n3 n1' - n3 n1^2")
    got = parse("n6").substitute({6: target})
    assert got == target


def test_substitute_leaves_no_reference_cycle():
    # a cycle through the image cache would keep every cached power alive
    # until the cyclic collector runs
    p, sigma = parse("n4'^2 n1 + n4^3"), {1: parse("n2 + 1"), 4: parse("n1' + n1^2")}
    gc.collect()
    gc.disable()
    try:
        p.substitute(sigma)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_substitute_missing():
    with pytest.raises(MissingAssignment):
        parse("n1 + n2").substitute({1: parse("n1")})


def test_structure_queries():
    p = parse("n1'' + 3 n1 n1'")
    assert p.order() == 2 and p.degree() == 2
    assert p.graded_split({1: 1}, 3) == (parse("n1''"), parse("3 n1 n1'"))


def test_structure_zero_convention():
    p = DiffPoly.zero()
    assert p.order() == 0 and p.degree() == 0
    # the zero polynomial is homogeneous of every weight, in any variables
    assert p.graded_split({}, 4) == (DiffPoly.zero(), DiffPoly.zero())


def test_linear_part_mixed():
    p = parse("n2' + n1' + n1^2 + n2(n2 - n1)")
    assert p.graded_split({1: 1, 2: 1}, 2) == (
        parse("n2' + n1'"), parse("n1^2 + n2^2 - n2 n1")
    )


def test_graded_split_weighs_by_the_map_plus_the_order():
    # eta_3 weighs 2, eta_1 weighs 1: eta_3', eta_1 eta_3 and eta_1 eta_1' weigh 3,
    # eta_1'^2 weighs 4
    p = parse("1/2 n3' - n1 n3 + n1 n1'")
    assert p.graded_split({1: 1, 3: 2}, 3) == (parse("1/2 n3'"), parse("n1 n1' - n1 n3"))
    assert parse("n1'^2 + n3^2").graded_split({1: 1, 3: 2}, 4) == (0, parse("n1'^2 + n3^2"))
    # fields that add up to the exponent limit, 255 = 0 mod 255
    top = DiffPoly.eta(1) ** 100 * DiffPoly.eta(2) ** 155
    assert top.graded_split({1: 1, 2: 1}, 255) == (0, top)
    assert top.graded_split({1: 1, 2: 1}, 0) is None


def test_graded_split_refuses_a_term_of_another_weight():
    assert parse("n1'' + n1 n1'").graded_split({1: 1}, 3) == (parse("n1''"), parse("n1 n1'"))
    assert parse("n1'' + n1 n1' + n1 n1''").graded_split({1: 1}, 3) is None
    assert parse("n1'' + 2").graded_split({1: 1}, 3) is None
    assert parse("n1''").graded_split({1: 1}, 2) is None


def test_graded_split_refuses_a_variable_outside_the_map():
    assert parse("n1 n2").graded_split({1: 1, 2: 1}, 2) == (DiffPoly.zero(), parse("n1 n2"))
    assert parse("n1 n2").graded_split({1: 1}, 2) is None
    assert parse("n1' + n2").graded_split({1: 1}, 2) is None


def _random_poly(rng, nvars=3, max_order=2, nterms=4):
    p = DiffPoly.zero()
    for _ in range(rng.randint(1, nterms)):
        mono = DiffPoly.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            mono = mono * DiffPoly.eta(
                rng.randint(1, nvars), rng.randint(0, max_order)
            )
        p = p + mono
    return p


def test_leibniz_randomized():
    rng = random.Random(42)
    for _ in range(200):
        p = _random_poly(rng)
        q = _random_poly(rng)
        assert (p * q).derive() == p.derive() * q + p * q.derive()


def test_substitution_prolongation_randomized():
    rng = random.Random(43)
    for _ in range(200):
        p = _random_poly(rng)
        sigma = {i: _random_poly(rng, nvars=2, max_order=1, nterms=2) for i in (1, 2, 3)}
        assert p.derive().substitute(sigma) == p.substitute(sigma).derive()


def test_canonical_equality_via_serialization():
    rng = random.Random(44)
    for _ in range(50):
        p = _random_poly(rng)
        q = _random_poly(rng)
        same = (p - q).is_zero()
        assert same == (p.to_json_obj() == q.to_json_obj())


def test_json_round_trip():
    rng = random.Random(45)
    for _ in range(50):
        p = _random_poly(rng)
        assert DiffPoly.from_json_obj(p.to_json_obj()) == p


def test_json_format():
    # -eta_2' * eta_1 serializes with the higher jet first
    p = DiffPoly.monomial([(2, 1, 1), (1, 0, 1)], -1)
    assert p.to_json_obj() == {"terms": [{"c": "-1/1", "m": [[2, 1, 1], [1, 0, 1]]}]}


def test_parse_rationals_and_powers():
    assert parse("1/2 n1^2 - n2[4]") == (
        DiffPoly.monomial([(1, 0, 2)], Fraction(1, 2)) - DiffPoly.eta(2, 4)
    )


def test_pow():
    p = parse("n1 + 1")
    assert p ** 3 == p * p * p
    assert p ** 0 == DiffPoly.rational(1)


def test_products_up_to_the_exponent_limit_fit():
    top = DiffPoly.eta(1) ** EXPONENT_LIMIT
    assert top.degree() == EXPONENT_LIMIT
    assert top.terms == {((JetVar(1, 0), EXPONENT_LIMIT),): 1}
    assert (DiffPoly.eta(1) ** 128 * DiffPoly.eta(2) ** 127).degree() == EXPONENT_LIMIT


def test_a_product_beyond_the_exponent_limit_raises():
    with pytest.raises(ExponentOverflow):
        DiffPoly.eta(1) ** EXPONENT_LIMIT * DiffPoly.eta(1)
    with pytest.raises(ExponentOverflow):
        DiffPoly.eta(1) ** (EXPONENT_LIMIT + 1)
    with pytest.raises(ExponentOverflow):
        DiffPoly.monomial([(1, 0, 200), (2, 3, 56)])
    # the derivative keeps the degree, so it stays within the limit
    top = DiffPoly.eta(1) ** EXPONENT_LIMIT
    assert top.derive() == DiffPoly.monomial([(1, 0, 254), (1, 1, 1)], EXPONENT_LIMIT)


def test_written_exponents_above_the_limit_are_parse_errors():
    assert parse("n1^255").degree() == EXPONENT_LIMIT
    for text in ("n1^999", "n1^256", "2^999", "(n1 n2)^200"):
        with pytest.raises(ValueError):
            parse(text)


def test_exponents_indices_and_orders_are_whole_numbers():
    # a rational exponent, index or order is a parse error, not truncated
    for text in ("n1^7/2", "n1^3/2", "n3/2", "n1[5/2]"):
        with pytest.raises(ValueError):
            parse(text)
    want = DiffPoly.monomial([(3, 0, 2)], Fraction(1, 2)) + DiffPoly.eta(1, 5)
    assert parse("1/2 n3^2 + n1[5]") == want


def test_digits_are_ascii_only():
    # other scripts' digits (Arabic-Indic, fullwidth) are not read as numbers
    for text in ("n\u0661^\u0662 + \u0663", "\u0663", "n1^\u0662", "n\uff11", "1/\u0663"):
        with pytest.raises(ValueError):
            parse(text)
    assert parse("n1^2 + 3") == DiffPoly.eta(1) ** 2 + 3


def test_parentheses_nest_to_a_limit():
    assert parse("(" * 100 + "n1" + ")" * 100) == DiffPoly.eta(1)
    with pytest.raises(ValueError, match="nested too deeply"):
        parse("(" * 101 + "n1" + ")" * 101)


def test_a_full_slot_registry_refuses_new_jet_variables(monkeypatch):
    known = DiffPoly.eta(1)
    monkeypatch.setattr(diffpoly, "MAX_SLOTS", len(diffpoly._JETS))
    with pytest.raises(ExponentOverflow):
        DiffPoly.eta(10 ** 6)
    with pytest.raises(ValueError):
        parse("n1 + n1000001")
    assert known * known == DiffPoly.monomial([(1, 0, 2)])


def test_a_pickle_survives_another_slot_registry():
    p = parse("1/2 n1' n2^3 - 4 n7[5]")
    # the reading process registers other jet variables first
    code = (
        "import json, pickle, sys\n"
        "from pvext.diffpoly import DiffPoly\n"
        "DiffPoly.eta(99, 7) * DiffPoly.eta(2, 0)\n"
        "print(json.dumps(pickle.loads(sys.stdin.buffer.read()).to_json_obj()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps(p), capture_output=True, check=True
    )
    assert json.loads(out.stdout) == p.to_json_obj()
    assert pickle.loads(pickle.dumps(p)) == p
