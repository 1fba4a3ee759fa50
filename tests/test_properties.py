"""Property tests: the group law of the factors, the DiffPoly round trips,
the packed DiffPoly kernel against the tuple/Fraction reference, the
row-sparse matrix product (root subgroup factors and DiffPoly.dot's lone
pairs included), the letter kernels (a letter's right product and its
conjugation through its cells) against the dense products, and the basis
composition over cells against the dense fold, the sparse basis decomposition against the dense one, the
zero-skipping sum against the dense one, entrywise matrix equality
against the zero difference, the one-pass check of g' + g b = a g
against the composed matrices, the shared fraction-free elimination against
the four loops it replaced, and the LiouvExpr shortcuts (closed-form
powers, the unit, structural interning) against repeated products and
canonical strings.

Examples come from hypothesis with a fixed derandomized seed, so every run
checks the same cases.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvext import chevalley, construct, diffpoly, linalg, liouville_expr, symgroup
from pvext.diffpoly import DiffPoly, JetVar, parse
from pvext.errors import (
    DimMismatch, ExponentOverflow, MissingAssignment, NotInLieAlgebra, NoRationalSolution,
)
from pvext.liouville_expr import LiouvExpr, json_chunks

import chevalley_oracle
import construct_oracle
import diffpoly_oracle as oracle
import factor_oracle
import linalg_oracle
import report_oracle
from conftest import ALL_SYSTEMS, get_rep, neumann_inverse

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
def liouv_trees(draw, depth=2):
    """A LiouvExpr built from small scalars by sums, products, integrals and
    exponentials of integrals, nested up to `depth` deep."""
    kind = draw(st.sampled_from(["scalar", "sum", "prod", "int", "exp"])) if depth else "scalar"
    if kind == "scalar":
        return LiouvExpr.scalar(draw(polys(max_var=2, max_order=1, max_terms=2)))
    if kind == "int":
        return LiouvExpr.integral(draw(liouv_trees(depth - 1)))
    if kind == "exp":
        return LiouvExpr.exp_integral(draw(liouv_trees(depth - 1)) * draw(st.integers(-2, 2)))
    a, b = draw(liouv_trees(depth - 1)), draw(liouv_trees(depth - 1))
    return a + b if kind == "sum" else a * b


@st.composite
def roots(draw):
    rep = get_rep(*draw(st.sampled_from(SYSTEMS)))
    return rep, draw(st.sampled_from(rep.rs.roots))


def _is_inverse_with_ldelta(factor):
    n = len(factor.rows)
    one = linalg.mat_mul(factor.rows, factor.inv)
    literal = linalg.mat_mul(linalg_oracle.mat_derive(factor.rows), factor.inv)
    return linalg.mat_eq(one, linalg.eye(n)) and linalg.mat_eq(factor.ldelta, literal)


@settings(derandomize=True, deadline=None)
@given(roots(), polys())
def test_group_law_of_unipotent_factors_over_diffpoly(rep_root, x):
    rep, root = rep_root
    assert _is_inverse_with_ldelta(factor_oracle.unipotent_matrix(rep, root, x))


@settings(derandomize=True, deadline=None)
@given(roots(), liouv_args())
def test_group_law_of_unipotent_factors_over_liouvexpr(rep_root, x):
    rep, root = rep_root
    assert _is_inverse_with_ldelta(factor_oracle.unipotent_matrix(rep, root, x))


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(SYSTEMS), st.data(), polys(max_order=1))
def test_group_law_of_torus_factors_of_an_exponential(system, data, g):
    rep = get_rep(*system)
    i = data.draw(st.integers(1, rep.rank))
    z = LiouvExpr.exp_integral(LiouvExpr.scalar(g))
    assert _is_inverse_with_ldelta(factor_oracle.torus_matrix(rep, i, z))


@settings(derandomize=True, deadline=None)
@given(coefficients.filter(bool), liouv_trees(depth=1), st.integers(-4, 4))
@example(Fraction(3), LiouvExpr.scalar(DiffPoly.eta(1)), 0)
@example(Fraction(-1, 2), LiouvExpr.scalar(DiffPoly.eta(1) + 1), 3)
@example(Fraction(2), LiouvExpr.scalar(DiffPoly.eta(2, 1)), -3)
@example(Fraction(5, 3), LiouvExpr.zero(), -2)
def test_power_of_an_exponential_monomial_is_the_repeated_product(q, g, n):
    # q e^{int g} is raised in closed form; the reference multiplies |n|
    # copies of it, or of its inverse q^-1 e^{int -g} when n < 0
    x = LiouvExpr.exp_integral(g) * q
    inverse = LiouvExpr.exp_integral(g * -1) * (1 / q)
    assert x * inverse == LiouvExpr.one()
    want = LiouvExpr.one()
    for _ in range(abs(n)):
        want = want * (x if n > 0 else inverse)
    assert x ** n == want


@settings(derandomize=True, deadline=None)
@given(liouv_trees(), st.integers(0, 3))
def test_power_of_any_expression_is_the_repeated_product(x, n):
    want = LiouvExpr.one()
    for _ in range(n):
        want = want * x
    assert x ** n == want


@settings(derandomize=True, deadline=None)
@given(liouv_trees(), st.one_of(liouv_trees(), st.just(None)))
def test_structural_ids_separate_exactly_what_canonical_strings_separate(a, b):
    # b is either another tree or a separately built copy of a
    if b is None:
        b = -(-a)
    same_id = liouville_expr._intern(a) == liouville_expr._intern(b)
    assert same_id == (report_oracle.canonical_string(a) == report_oracle.canonical_string(b))
    assert same_id == (a == b)


@settings(derandomize=True, deadline=None)
@given(liouv_trees(depth=3))
def test_canonical_string_is_the_oracle_compact_json(x):
    # _id_string reads the indented text of the one JSON writer; the oracle
    # is json.dumps of the dict tree with the compact separators
    ident = liouville_expr._intern(x)
    assert liouville_expr._id_string(ident) == report_oracle.canonical_string(x)


@settings(derandomize=True, deadline=None)
@given(liouv_trees())
def test_one_is_the_unit_of_the_product(x):
    for one in (LiouvExpr.one(), 1, DiffPoly.rational(1)):
        assert x * one == one * x == x
    # a constant other than 1 is not taken for the unit
    assert x * 2 == 2 * x == x + x


@settings(derandomize=True, deadline=None)
@given(polys())
def test_text_parse_round_trip(p):
    assert parse(p.text()) == p


@settings(derandomize=True, deadline=None)
@given(polys())
def test_json_round_trip(p):
    obj = json.loads("".join(json_chunks(p)))
    assert DiffPoly.from_json_obj(obj) == p


@settings(derandomize=True, deadline=None)
@given(
    st.one_of(polys(), st.builds(DiffPoly.rational, coefficients)),
    st.integers(0, 6),
)
@example(DiffPoly.zero(), 0)
@example(DiffPoly.rational(Fraction(-3, 2)), 6)
@example(DiffPoly.eta(2, 1) + 4, 2)
def test_json_text_is_the_indented_json_of_the_object(p, depth):
    # the zero polynomial and constants (empty "m" lists) are always checked;
    # the report writer renders p nested `depth` lists deep
    obj, value = oracle.DiffPoly(p.terms).to_json_obj(), p
    for _ in range(depth):
        obj, value = [obj], [value]
    want = json.dumps(obj, sort_keys=True, indent=1)
    assert "".join(json_chunks(value)) == want


@settings(derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.just(LiouvExpr.zero()), liouv_args()), max_size=3))
def test_report_writer_renders_a_liouvexpr_as_its_json_object(exprs):
    # the writer keeps the DiffPolys of the tree and renders them itself
    want = json.dumps([report_oracle.json_obj(x) for x in exprs], sort_keys=True, indent=1)
    assert "".join(json_chunks(exprs)) == want


@settings(derandomize=True, deadline=None)
@given(polys(), st.lists(polys(max_order=1, max_terms=2), min_size=3, max_size=3))
def test_derive_commutes_with_substitute(p, images):
    sigma = dict(enumerate(images, start=1))
    assert p.derive().substitute(sigma) == p.substitute(sigma).derive()


@st.composite
def poly_pairs(draw, max_var=3, max_order=2, max_terms=4):
    """One random polynomial built twice: (packed kernel, reference)."""
    p, ref = DiffPoly.zero(), oracle.DiffPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = draw(coefficients)
        jets = [
            (draw(st.integers(1, max_var)), draw(st.integers(0, max_order)),
             draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(0, 3)))
        ]
        p = p + DiffPoly.monomial(jets, coeff)
        ref = ref + oracle.DiffPoly.monomial(jets, coeff)
    return p, ref


def _agree(p, ref):
    """The kernel polynomial and the reference are the same polynomial and
    render the same text and JSON."""
    return (
        dict(p.terms) == ref.terms
        and p.text() == ref.text()
        and "".join(json_chunks(p)) == json.dumps(ref.to_json_obj(), sort_keys=True, indent=1)
    )


@settings(derandomize=True, deadline=None)
@given(poly_pairs(), poly_pairs(), st.integers(0, 3))
def test_kernel_ring_operations_agree_with_the_reference(a, b, n):
    (p, ref_p), (q, ref_q) = a, b
    assert _agree(p, ref_p)
    assert _agree(p + q, ref_p + ref_q)
    assert _agree(p - q, ref_p - ref_q)
    assert _agree(p * q, ref_p * ref_q)
    assert _agree(p ** n, ref_p ** n)


def _weight(mon, weights):
    """The weight of a reference monomial, eta_v^(k) weighing weights[v] + k;
    None when one of its variables has no weight."""
    if any(jv.var not in weights for jv, _ in mon):
        return None
    return sum(e * (weights[jv.var] + jv.order) for jv, e in mon)


@settings(derandomize=True, deadline=None)
@given(
    poly_pairs(),
    st.integers(1, 2),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.data(),
)
def test_kernel_structure_agrees_with_the_reference(a, times, ws, data):
    p, ref = a
    assert _agree(p.derive(times), ref.derive(times))
    # the weight map covers eta_1..eta_len(ws); eta_3 may be left out
    weights = dict(enumerate(ws, start=1))
    found = sorted({_weight(mon, weights) for mon in ref.terms} - {None})
    w = data.draw(st.sampled_from(found) if found else st.integers(0, 8))
    got = p.graded_split(weights, w)
    if all(_weight(mon, weights) == w for mon in ref.terms):
        assert _agree(got[0], ref.linear_part()) and _agree(got[1], ref.nonlinear_part())
    else:
        assert got is None
    # the component of weight w, built twice, splits as the reference does
    part = {mon: c for mon, c in ref.terms.items() if _weight(mon, weights) == w}
    ref_w = oracle.DiffPoly(part)
    p_w = sum(
        (DiffPoly.monomial([(*jv, e) for jv, e in mon], c) for mon, c in part.items()),
        DiffPoly.zero(),
    )
    lin, nonlin = p_w.graded_split(weights, w)
    assert _agree(lin, ref_w.linear_part()) and _agree(nonlin, ref_w.nonlinear_part())
    for var in range(1, 4):
        for order in range(4):
            assert p.coefficient_of_jet(var, order) == ref.coefficient_of_jet(var, order)


@settings(derandomize=True, deadline=None)
@given(poly_pairs(), st.lists(poly_pairs(max_order=1, max_terms=2), min_size=3, max_size=3))
def test_kernel_substitution_agrees_with_the_reference(a, images):
    p, ref = a
    sigma = {i: image for i, (image, _) in enumerate(images, start=1)}
    ref_sigma = {i: image for i, (_, image) in enumerate(images, start=1)}
    assert _agree(p.substitute(sigma), ref.substitute(ref_sigma))


@st.composite
def substitutions(draw, max_var=3):
    """A substitution of some of eta_1..eta_max_var: each image a polynomial
    in eta_1..eta_5 of order at most 1, a rational or zero."""
    sigma = {}
    for var in range(1, max_var + 1):
        kind = draw(st.sampled_from(["poly", "poly", "rational", "zero", "missing"]))
        if kind == "poly":
            sigma[var] = draw(polys(max_var=5, max_order=1, max_terms=3))
        elif kind == "rational":
            sigma[var] = draw(coefficients)
        elif kind == "zero":
            sigma[var] = DiffPoly.zero()
    return sigma


def _substituted(substitute, p, sigma, images):
    """substitute(p, sigma, images), or the MissingAssignment it raises."""
    try:
        return substitute(p, sigma, images)
    except MissingAssignment as exc:
        return type(exc)


@settings(derandomize=True, deadline=None)
@given(poly_pairs(), poly_pairs(), substitutions())
@example((parse("n1^2 n2' n3 + 2 n1^2 n2' - n1 n3''"), None), (DiffPoly.zero(), None),
         {1: parse("n4 n5' + 1"), 2: Fraction(3, 2), 3: parse("n4^2 - n5")})
def test_substitution_trie_agrees_with_the_per_monomial_loop(a, b, sigma):
    # repeated factors (exponents up to 3), derived jets (orders up to 2),
    # rational and zero images, and variables sigma leaves out; the second
    # polynomial fills the shared image cache first
    (p, _), (q, _) = a, b
    want = _substituted(oracle.substitute_per_monomial, p, sigma, {})
    assert _substituted(DiffPoly.substitute, p, sigma, {}) == want
    shared, fresh = {}, {}
    _substituted(DiffPoly.substitute, q, sigma, shared)
    assert _substituted(DiffPoly.substitute, p, sigma, shared) == want
    # the cache holds the same image powers the loop computes
    _substituted(oracle.substitute_per_monomial, q, sigma, fresh)
    _substituted(oracle.substitute_per_monomial, p, sigma, fresh)
    assert all(shared[key] == fresh[key] for key in shared.keys() & fresh.keys())


@settings(derandomize=True, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 100),
    st.integers(1, 3),
    st.integers(1, 100),
    st.booleans(),
    st.sampled_from([Fraction(1), Fraction(-5, 3)]),
)
@example(3, 85, 1, 1, False, Fraction(1))
@example(3, 85, 1, 1, True, Fraction(1))
@example(2, 100, 3, 19, False, Fraction(1))
@example(2, 100, 3, 18, False, Fraction(1))
@example(4, 64, 1, 50, True, Fraction(1))
def test_substitution_overflows_only_on_a_real_product(a, d1, b, d2, zero_second, c):
    # c eta_1^a eta_2'^b + eta_3 under eta_1 -> eta_4^d1 + 1/2 and eta_2 ->
    # eta_5^d2, or a constant, whose derivative is 0: the image of
    # eta_1^a is formed either way, and the product of degree
    # a d1 + b d2 only when eta_2' has a non-zero image
    p = DiffPoly.monomial([(1, 0, a), (2, 1, b)], c) + DiffPoly.eta(3)
    sigma = {
        1: DiffPoly.eta(4) ** d1 + Fraction(1, 2),
        2: DiffPoly.rational(7) if zero_second else DiffPoly.eta(5) ** d2,
        3: DiffPoly.eta(6),
    }
    real = a * d1 if zero_second else a * d1 + b * d2
    if real > diffpoly.EXPONENT_LIMIT:
        with pytest.raises(ExponentOverflow):
            p.substitute(sigma)
    else:
        assert p.substitute(sigma) == oracle.substitute_per_monomial(p, sigma)


@settings(derandomize=True, deadline=None)
@given(polys(), st.fractions(min_value=-6, max_value=6, max_denominator=6))
def test_equal_polynomials_are_equal_after_cancellation_and_rescaling(p, q):
    half = DiffPoly.eta(1, coeff=Fraction(1, 2))
    assert half + half == DiffPoly.eta(1)
    assert hash(half + half) == hash(DiffPoly.eta(1))
    assert (half * 2)._d == 1
    if q:
        rescaled = p * q * (1 / q)
        assert rescaled == p and hash(rescaled) == hash(p)
    assert (p + p) - p == p and hash((p + p) - p) == hash(p)


@settings(derandomize=True, deadline=None)
@given(coefficients, polys())
def test_equal_values_hash_alike_across_types(q, p):
    # a rational polynomial equals its Fraction, and a pure-scalar LiouvExpr
    # its coefficient, so each must hash as that value does
    constant = DiffPoly.rational(q)
    assert constant == q and hash(constant) == hash(q) and q in {constant}
    for value in (q, constant, p):
        scalar = LiouvExpr.scalar(value)
        assert scalar == value and hash(scalar) == hash(value) and scalar in {value}
    assert DiffPoly.rational(3) in {3} and 3 in {DiffPoly.rational(3)}


def _fresh_jet(var):
    """An order of eta_var that no jet variable registered so far has."""
    order = 100
    while JetVar(var, order) in diffpoly._SLOT:
        order += 1
    return order


@settings(derandomize=True, deadline=None)
@given(st.lists(st.tuples(poly_pairs(), st.integers(0, 6)), min_size=1, max_size=5))
def test_one_monomial_table_renders_many_polynomials(cases):
    # eta_3 is ranked after every eta_2 jet, the late jet eta_2^(k) between
    # them: its registration moves the rank of every eta_3 jet
    eta3 = (DiffPoly.eta(3), oracle.DiffPoly.eta(3))
    cases.append((eta3, 0))
    table = diffpoly.MonomialTable()
    order = _fresh_jet(2)
    late = (DiffPoly.eta(2, order), oracle.DiffPoly.eta(2, order))
    cases += [
        ((p * (late[0] + 1) + late[0] + eta3[0], ref * (late[1] + 1) + late[1] + eta3[1]), depth)
        for (p, ref), depth in cases
    ]
    for (p, ref), depth in cases:
        want = json.dumps(ref.to_json_obj(), sort_keys=True, indent=1)
        got = table.json_text(p).replace("\n", "\n" + " " * depth)
        assert got == want.replace("\n", "\n" + " " * depth)


def _oracle_order(p):
    """The packed monomials of p sorted by the reference's canonical key."""
    return sorted(p._t, key=lambda k: oracle.term_sort_key(diffpoly._monomial(k)), reverse=True)


def _pair(*terms):
    """(packed kernel, reference) of the sum of c * monomial(jets) over the
    (c, jets) terms, in that order."""
    return (
        sum((DiffPoly.monomial(jets, c) for c, jets in terms), DiffPoly.zero()),
        sum((oracle.DiffPoly.monomial(jets, c) for c, jets in terms), oracle.DiffPoly.zero()),
    )


def _nested_writes_the_oracle_json(p, ref):
    """The report writer renders p nested 0-6 lists deep as json.dumps
    renders the reference's object."""
    value, obj = p, ref.to_json_obj()
    for _ in range(7):
        assert "".join(json_chunks(value)) == json.dumps(obj, sort_keys=True, indent=1)
        value, obj = [value], [obj]


@settings(derandomize=True, deadline=None)
@given(poly_pairs())
@example(_pair((Fraction(-3, 2), [])))
@example(_pair((1, [(1, 0, 255)]), (2, [(1, 0, 254), (2, 1, 1)]), (-1, [(2, 0, 1)]), (7, [])))
def test_monomial_table_orders_as_the_oracle(pair):
    # a constant term and an exponent of 255 (the top of a field) are always
    # checked; one table ranks every registered jet, the other p's only
    p, ref = pair
    want = _oracle_order(p)
    assert diffpoly.MonomialTable().ordered(p) == want
    assert diffpoly.MonomialTable(p).ordered(p) == want
    _nested_writes_the_oracle_json(p, ref)


def test_a_jet_registered_after_the_table_re_ranks_it_mid_sort():
    # eta_3 eta_3' gets its key under the old ranks before late^2 re-ranks
    # the table.  The late jet ranks below eta_3, so the re-rank moves every
    # eta_3 jet up: under the old ranks eta_3 eta_3' would sort below late^2
    DiffPoly.eta(3) * DiffPoly.eta(3, 1)  # registered before the table
    table = diffpoly.MonomialTable()
    order = _fresh_jet(2)
    p, ref = _pair(
        (1, [(3, 0, 1), (3, 1, 1)]), (1, [(2, order, 2)]), (1, [(1, 0, 1), (2, order, 1)]), (-2, [])
    )
    assert diffpoly._monomial(next(iter(p._t))) == ((JetVar(3, 0), 1), (JetVar(3, 1), 1))
    assert JetVar(2, order) not in table.jets
    assert table.ordered(p) == _oracle_order(p)
    assert JetVar(2, order) in table.jets
    assert table.json_text(p) == json.dumps(ref.to_json_obj(), sort_keys=True, indent=1)
    _nested_writes_the_oracle_json(p, ref)


fraction_entries = st.one_of(st.just(Fraction(0)), coefficients)
poly_entries = st.one_of(st.just(DiffPoly.zero()), polys(max_terms=2))
liouv_entries = st.one_of(st.just(LiouvExpr.zero()), liouv_args())


@st.composite
def matrix_pairs(draw, a_entries, b_entries):
    """A rows x n matrix a and an n x width matrix b, some rows of a and
    some columns of b all zero."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    width = draw(st.integers(1, 5))
    a = [[draw(a_entries) for _ in range(n)] for _ in range(rows)]
    b = [[draw(b_entries) for _ in range(width)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        a[i] = [linalg.zero_of(x) for x in a[i]]
    for j in draw(st.sets(st.integers(0, width - 1), max_size=2)):
        for row in b:
            row[j] = linalg.zero_of(row[j])
    return a, b


def _layout(x):
    """x with the order of its stored terms, which equality ignores."""
    if isinstance(x, DiffPoly):
        return list(x._t.items()), x._d
    if isinstance(x, LiouvExpr):
        return [(key, _layout(c)) for key, c in x.terms.items()]
    return x


def _same_matrices(got, want):
    """Entry for entry the same value of the same type, with its terms
    stored in the same order."""
    return [[(type(x), x, _layout(x)) for x in row] for row in got] == [
        [(type(x), x, _layout(x)) for x in row] for row in want
    ]


@settings(derandomize=True, deadline=None)
@given(
    st.one_of(
        matrix_pairs(fraction_entries, fraction_entries),
        matrix_pairs(poly_entries, poly_entries),
        matrix_pairs(fraction_entries, poly_entries),
        matrix_pairs(poly_entries, fraction_entries),
        matrix_pairs(liouv_entries, liouv_entries),
    )
)
@example(([[Fraction(0)]], [[DiffPoly.eta(1), DiffPoly.zero()]]))
@example(([[DiffPoly.zero(), 1], [0, 0]], [[Fraction(1), 0], [0, 0]]))
def test_row_sparse_product_agrees_with_the_dense_product(ab):
    a, b = ab
    assert _same_matrices(linalg.mat_mul(a, b), linalg_oracle.mat_mul(a, b))


def _accumulated(x, y):
    """DiffPoly.dot of the lone pair (x, y) as the sum forms it: x*y added
    into an empty map."""
    acc = diffpoly._Sum()
    if not x or not y:
        pass
    elif isinstance(x, DiffPoly) and isinstance(y, DiffPoly):
        acc.add_product(x, y)
    elif isinstance(x, DiffPoly):
        acc.add(x, y)
    else:
        acc.add(diffpoly.lift(y), x)
    return acc.result()


units = st.sampled_from([1, Fraction(1), DiffPoly.rational(1)])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(units, fraction_entries), st.one_of(poly_entries, fraction_entries, units),
       st.booleans())
@example(Fraction(1), Fraction(3), True)
@example(DiffPoly.rational(1), DiffPoly.eta(1) * Fraction(1, 2) + 1, False)
def test_a_lone_pair_is_the_accumulated_product(c, p, one_first):
    pair = (c, p) if one_first else (p, c)
    want = _accumulated(*pair)
    for pairs in ([pair], iter([pair]), zip(*([x] for x in pair))):
        got = DiffPoly.dot(pairs)
        assert (type(got), got, _layout(got)) == (DiffPoly, want, _layout(want))
        if isinstance(p, DiffPoly) and c == 1:
            assert any(got is x for x in pair)


def test_rational_times_polynomial_product_has_polynomial_zeros():
    a = _fractions([[1, 0], [0, 0]])
    b = [[DiffPoly.eta(1), Fraction(0)], [Fraction(0), Fraction(0)]]
    got = linalg.mat_mul(a, b)
    assert got == [[DiffPoly.eta(1), 0], [0, 0]]
    assert all(isinstance(x, DiffPoly) for row in got for x in row)


@pytest.mark.parametrize("mat_mul", [linalg.mat_mul, linalg_oracle.mat_mul])
def test_product_checks_the_inner_dimensions(mat_mul):
    # 2 x 3 times 2 x 1 has no product; 1 x 2 times 2 x 1 has one
    with pytest.raises(DimMismatch):
        mat_mul(_fractions([[1, 2, 3], [4, 5, 6]]), _fractions([[1], [1]]))
    with pytest.raises(DimMismatch):
        mat_mul(_fractions([[1, 2], [3]]), _fractions([[1], [1]]))
    with pytest.raises(DimMismatch):
        mat_mul(_fractions([[1, 1]]), _fractions([[1], [1, 2]]))
    assert mat_mul(_fractions([[1, 2]]), _fractions([[1], [1]])) == [[3]]


def test_sum_checks_the_full_shape():
    for a, b in (([[1, 2]], [[1]]), ([[1]], [[1], [2]]), ([[1], [2, 3]], [[1], [2]])):
        with pytest.raises(DimMismatch):
            linalg.mat_add(_fractions(a), _fractions(b))


def _basis_matrix(rep, key):
    kind, value = key
    return rep.H[value - 1] if kind == "H" else rep.X[value]


@st.composite
def basis_maps(draw):
    """(rep, coords, zero): a system of DECOMPOSE_SYSTEMS and a map of 0-4
    of its basis keys, in drawn order, to coefficients in the ring of
    `zero`, zero coefficients included."""
    rep = get_rep(*draw(st.sampled_from(DECOMPOSE_SYSTEMS)))
    coeffs, zero = draw(
        st.sampled_from(
            [
                (fraction_entries, Fraction(0)),
                (poly_entries, DiffPoly.zero()),
                (liouv_entries, LiouvExpr.zero()),
            ]
        )
    )
    keys = draw(st.lists(st.sampled_from(rep.basis_order), max_size=4, unique=True))
    return rep, {key: draw(coeffs) for key in keys}, zero


@settings(derandomize=True, deadline=None, max_examples=200)
@given(basis_maps())
@example((get_rep("A", 2), {}, DiffPoly.zero()))
@example((get_rep("A", 2), {("X", (1, 0)): Fraction(0)}, LiouvExpr.zero()))
# two H terms on the diagonal, given out of basis order
@example((get_rep("A", 2), {("H", 2): DiffPoly.eta(1), ("H", 1): DiffPoly.rational(1)},
          DiffPoly.zero()))
def test_compose_agrees_with_the_dense_fold(case):
    # the dense fold adds every term in basis order; a cell that no
    # non-zero term reaches is the zero itself
    rep, coords, zero = case
    terms = [(coords[key], _basis_matrix(rep, key)) for key in rep.basis_order if key in coords]
    got = chevalley.compose(rep, coords, zero)
    assert _same_matrices(got, linalg_oracle.combination(terms, rep.dim, zero))
    reached = {(r, col) for key, c in coords.items() if c for r, col, _ in rep.cells[key]}
    n = rep.dim
    assert all(got[r][c] is zero for r in range(n) for c in range(n) if (r, c) not in reached)


UNIPOTENT_SYSTEMS = [("A", 2), ("B", 3), ("G2", 2)]
ring_entries = st.sampled_from([fraction_entries, poly_entries, liouv_entries])
DECOMPOSE_SYSTEMS = [("A", 2), ("B", 3), ("C", 3), ("G2", 2), ("D", 4)]


@st.composite
def basis_combinations(draw):
    """A system of DECOMPOSE_SYSTEMS and a dense sum of c times a basis
    matrix over up to 8 basis elements, every c in one ring, zeros
    included; a third of the time one entry is then shifted by a non-zero
    element of that ring."""
    rep = get_rep(*draw(st.sampled_from(DECOMPOSE_SYSTEMS)))
    ring = draw(ring_entries)
    n = rep.dim
    mats = list(rep.H) + list(rep.X.values())
    a = [[linalg.zero_of(draw(ring))] * n for _ in range(n)]
    for mat in draw(st.lists(st.sampled_from(mats), max_size=8)):
        c = draw(ring)
        for i, row in enumerate(mat):
            for j, v in enumerate(row):
                if v:
                    a[i][j] = a[i][j] + c * v
    if draw(st.integers(0, 2)) == 0:
        i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        a[i][j] = a[i][j] + draw(ring.filter(bool))
    return rep, a


_DENSE_RECIPES = {}


def _decomposition(rep, a, dense):
    """decompose_in_basis of a, sparse or by the dense oracle: each
    coefficient with its type and stored term order, or the message of
    NotInLieAlgebra."""
    if dense:
        label = rep.rs.label
        if label not in _DENSE_RECIPES:
            _DENSE_RECIPES[label] = chevalley_oracle.solving_recipe(rep)
        decompose = lambda rep, a: chevalley_oracle.decompose_in_basis(rep, a, _DENSE_RECIPES[label])
    else:
        decompose = chevalley.decompose_in_basis
    try:
        dec = decompose(rep, a)
    except NotInLieAlgebra as exc:
        return str(exc)
    return [(key, type(x), x, _layout(x)) for key, x in dec.items()]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(basis_combinations())
@example((get_rep("A", 2), [[DiffPoly.eta(1), DiffPoly.eta(2) + 1, 0], [0, -DiffPoly.eta(1), 0],
                            [0, 0, 0]]))
def test_sparse_decomposition_agrees_with_the_dense_one(case):
    # the same coefficients, types and term orders, or the same refusal
    rep, a = case
    assert _decomposition(rep, a, dense=False) == _decomposition(rep, a, dense=True)


@st.composite
def sparse_matrices(draw, n, ring):
    """An n x n matrix with up to 12 entries drawn from `ring`, the others
    its zero; or, half the time, entries and zeros mixed with ints and
    Fractions.  Rows and columns left empty are all zeros."""
    mixed = draw(st.booleans())
    entries = st.one_of(ring, st.integers(-2, 2), fraction_entries) if mixed else ring
    zeros = st.sampled_from([0, Fraction(0), linalg.zero_of(draw(ring))]) if mixed else None
    zero = linalg.zero_of(draw(ring))
    a = [[draw(zeros) if mixed else zero for _ in range(n)] for _ in range(n)]
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for r, c in draw(st.lists(cells, max_size=12)):
        a[r][c] = draw(entries)
    return a


@st.composite
def root_words(draw, max_letters=3):
    """A system of UNIPOTENT_SYSTEMS, 1..max_letters root subgroup factors
    u_root(x) with every x in one ring (zero included), and a matrix for
    them to act on."""
    rep = get_rep(*draw(st.sampled_from(UNIPOTENT_SYSTEMS)))
    ring = draw(ring_entries)
    letters = draw(st.integers(1, max_letters))
    factors = [
        factor_oracle.unipotent_matrix(rep, draw(st.sampled_from(rep.rs.roots)), draw(ring))
        for _ in range(letters)
    ]
    return factors, draw(sparse_matrices(rep.dim, ring))


def _two_term_case():
    """A2's u_alpha(x) on a full matrix, x and the entries LiouvExprs whose
    coefficients have two terms each, so that x*y and y*x store their terms
    in different orders."""
    rep = get_rep("A", 2)
    x = LiouvExpr.scalar(DiffPoly.eta(1) + DiffPoly.eta(2))
    y = LiouvExpr.scalar(DiffPoly.eta(3) + DiffPoly.eta(1, 1))
    root = next(r for r in rep.rs.roots if r.is_simple())
    return (factor_oracle.unipotent_matrix(rep, root, x),), [[y] * 3 for _ in range(3)]


def _full_case():
    """G2's u_beta(x) for a short root beta, whose exponential has two cells
    in one row, on a full matrix of distinct polynomials, so that a change
    in the order of any entry's sum changes the order of its terms."""
    rep = get_rep("G2", 2)
    root = next(r for r in rep.rs.roots if len(rep.exp_cells[r.coeffs]) > 2)
    x = DiffPoly.eta(1) + DiffPoly.eta(2, 1)
    a = [[DiffPoly.eta(1, r) * DiffPoly.eta(2, c) + r - c for c in range(7)] for r in range(7)]
    return (factor_oracle.unipotent_matrix(rep, root, x),), a


@settings(derandomize=True, deadline=None, max_examples=150)
@given(root_words(max_letters=1))
@example(_two_term_case())
@example(_full_case())
def test_products_with_root_factors_agree_with_the_dense_products(case):
    # a root factor reaches most entries of a product through its diagonal
    # one alone, so these are the checks of DiffPoly.dot's lone pairs
    (f,), a = case
    for m in (f.rows, f.inv):
        assert _same_matrices(linalg.mat_mul(m, a), linalg_oracle.mat_mul(m, a))
        assert _same_matrices(linalg.mat_mul(a, m), linalg_oracle.mat_mul(a, m))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from(UNIPOTENT_SYSTEMS), st.data())
def test_unipotent_element_is_the_dense_exponential(system, data):
    rep = get_rep(*system)
    root = data.draw(st.sampled_from(rep.rs.roots))
    x = data.draw(data.draw(ring_entries))
    got = chevalley.word_element(rep, [(("X", root.coeffs), x)])
    assert _same_matrices(got, chevalley_oracle.unipotent_element(rep, root, x))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(root_words())
def test_words_of_root_factors_agree_with_the_dense_products(case):
    factors, a = case
    assert _same_matrices(symgroup.adjoint(factors, a), linalg_oracle.adjoint(factors, a))
    rows = [f.rows for f in factors]
    inverses = [f.inv for f in reversed(factors)]
    assert _same_matrices(construct_oracle.product(rows), linalg_oracle.product(rows))
    assert _same_matrices(construct_oracle.product(inverses), linalg_oracle.product(inverses))


@pytest.mark.parametrize("system", UNIPOTENT_SYSTEMS)
def test_unipotent_product_agrees_with_the_dense_product(system):
    rep = get_rep(*system)
    args = [DiffPoly.eta(i) if i % 3 else Fraction(i % 2) for i in range(1, rep.m + 1)]
    want = linalg_oracle.product(
        chevalley.word_element(rep, [(("X", b.coeffs), diffpoly.lift(x))])
        for b, x in zip(rep.rs.neg_order, args)
    )
    assert _same_matrices(construct.unipotent_product(rep, args), want)


@st.composite
def letter_cases(draw):
    """A system of ALL_SYSTEMS, a letter (key, t) with its factor_oracle
    Factor, and a matrix m with entries of one ring, its zero included.
    t is drawn from the ring or the Fractions, zero included; a torus
    letter's z != 1 is a Fraction, or over LiouvExpr an exponential."""
    rep = get_rep(*draw(st.sampled_from(ALL_SYSTEMS)))
    ring = draw(ring_entries)
    n = rep.dim
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(1, rep.rank))
        z = draw(coefficients.filter(lambda q: q not in (0, 1)))
        if ring is liouv_entries and draw(st.booleans()):
            z = LiouvExpr.exp_integral(LiouvExpr.scalar(draw(polys(max_order=1, max_terms=2)))) * z
        letter, factor = (("H", i), z), factor_oracle.torus_matrix(rep, i, z)
    else:
        root = draw(st.sampled_from(rep.rs.roots))
        t = draw(st.one_of(ring, fraction_entries))
        letter, factor = (("X", root.coeffs), t), factor_oracle.unipotent_matrix(rep, root, t)
    zero = linalg.zero_of(draw(ring))
    m = [[zero] * n for _ in range(n)]
    for r, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)):
        m[r][c] = draw(ring)
    return rep, letter, factor, m


def _g2_full_case():
    """_full_case's G2 matrix and short root letter, as a letter case."""
    (factor,), a = _full_case()
    rep = get_rep("G2", 2)
    root = next(r for r in rep.rs.roots if len(rep.exp_cells[r.coeffs]) > 2)
    return rep, (("X", root.coeffs), DiffPoly.eta(1) + DiffPoly.eta(2, 1)), factor, a


def _exponential_torus_case():
    """B3's t_2(z) for z = 3 e^(int eta_1) on a full LiouvExpr matrix."""
    rep = get_rep("B", 3)
    z = LiouvExpr.exp_integral(LiouvExpr.scalar(DiffPoly.eta(1))) * 3
    a = [[LiouvExpr.scalar(DiffPoly.eta(1, r) + c) for c in range(7)] for r in range(7)]
    return rep, (("H", 2), z), factor_oracle.torus_matrix(rep, 2, z), a


@settings(derandomize=True, deadline=None, max_examples=150)
@given(letter_cases())
@example(_g2_full_case())
@example(_exponential_torus_case())
def test_letters_act_as_the_dense_products(case):
    # m L by column operations and L m L^-1 by row and column operations
    # (or the torus scaling) are the dense products in value, type and
    # term order
    rep, letter, factor, m = case
    got = chevalley.letter_product(rep, m, letter)
    assert _same_matrices(got, linalg_oracle.product([m, factor.rows]))
    got = chevalley.letter_adjoint(rep, letter, m)
    assert _same_matrices(got, linalg_oracle.adjoint([factor], m))


@st.composite
def sum_pairs(draw):
    """Two matrices of one shape mixing ints, Fractions, DiffPolys and
    LiouvExprs, zeros of each ring included."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.one_of(
        st.sampled_from([0, Fraction(0), DiffPoly.zero(), LiouvExpr.zero()]),
        st.integers(-2, 2), fraction_entries, poly_entries, liouv_entries,
    )
    return tuple([[draw(entries) for _ in range(cols)] for _ in range(rows)] for _ in "ab")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sum_pairs())
@example(([[DiffPoly.zero(), DiffPoly.zero(), 0]], [[Fraction(2), DiffPoly.eta(1), DiffPoly.zero()]]))
@example(([[LiouvExpr.zero(), DiffPoly.eta(1)]], [[DiffPoly.eta(2), LiouvExpr.zero()]]))
def test_zero_skipping_sum_agrees_with_the_dense_sum(ab):
    a, b = ab
    assert _same_matrices(linalg.mat_add(a, b), linalg_oracle.mat_add(a, b))


class _Recorder:
    """A non-zero coefficient that records every entry it multiplies."""

    def __init__(self):
        self.seen = []

    def __mul__(self, x):
        self.seen.append(x)
        return x


def test_compose_multiplies_only_the_non_zero_entries():
    # X_alpha_3 of B3 holds a 1 and a 2; c * 1 is taken as c
    rep = get_rep("B", 3)
    c = _Recorder()
    key = ("X", rep.rs.simple(3).coeffs)
    got = chevalley.compose(rep, {key: c}, Fraction(0))
    mat = rep.X[key[1]]
    assert got == [[c if x == 1 else x for x in row] for row in mat]
    assert c.seen == [2]


@st.composite
def comparisons(draw, entries):
    """Two n x n matrices: a copy of the first, its Fraction entries maybe
    lifted to DiffPoly, with up to two entries drawn again."""
    n = draw(st.integers(1, 4))
    a = [[draw(entries) for _ in range(n)] for _ in range(n)]
    lift = draw(st.booleans())
    b = [
        [DiffPoly.rational(x) if lift and isinstance(x, Fraction) else x for x in row]
        for row in a
    ]
    for _ in range(draw(st.integers(0, 2))):
        b[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(entries)
    return a, b


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.one_of(
        comparisons(fraction_entries),
        comparisons(poly_entries),
        comparisons(st.one_of(fraction_entries, poly_entries)),
        comparisons(liouv_entries),
    )
)
@example(([[Fraction(1, 2), Fraction(0)]] * 2, [[DiffPoly.rational(Fraction(1, 2)), 0]] * 2))
@example(([[Fraction(1, 2)]], [[DiffPoly.eta(1, coeff=Fraction(1, 2))]]))
def test_entrywise_equality_agrees_with_the_zero_difference(ab):
    a, b = ab
    want = linalg_oracle.mat_is_zero(linalg_oracle.mat_sub(a, b))
    assert linalg.mat_eq(a, b) == want
    assert linalg.mat_eq(b, a) == want


def test_entrywise_equality_rejects_unequal_row_counts():
    with pytest.raises(DimMismatch):
        linalg.mat_eq([[Fraction(1)]], [[Fraction(1)], [Fraction(0)]])


def test_entrywise_equality_rejects_unequal_row_lengths():
    with pytest.raises(DimMismatch):
        linalg.mat_eq([[Fraction(1), Fraction(0)]], [[Fraction(1), Fraction(0), Fraction(5)]])


ONES = (1, Fraction(1), DiffPoly.rational(1))
mixed_entries = st.one_of(
    st.sampled_from([0, Fraction(0), DiffPoly.zero()]),
    st.integers(-2, 2), fraction_entries, poly_entries,
)


@st.composite
def defect_triples(draw):
    """(g, b, a), all n x n for n in 1..8, with int, Fraction and DiffPoly
    entries mixed.  g is a zero matrix, an identity with ones of each type,
    a unipotent 1 + N with N strictly upper triangular and sparse, or
    arbitrary.  For the identity and the unipotent g, a is first the a
    that makes g' + g b = a g hold, (g' + g b) g^-1, and then up to three
    of its entries are drawn again."""
    n = draw(st.integers(1, 8))
    sparse = st.one_of(st.just(0), st.just(DiffPoly.zero()), mixed_entries)

    def matrix(entries):
        return [[draw(entries) for _ in range(n)] for _ in range(n)]

    kind = draw(st.sampled_from(["zero", "identity", "unipotent", "arbitrary"]))
    b = matrix(sparse)
    if kind == "arbitrary":
        return matrix(sparse), b, matrix(sparse)
    if kind == "zero":
        return matrix(st.sampled_from([0, Fraction(0), DiffPoly.zero()])), b, matrix(sparse)
    g = [[draw(st.sampled_from(ONES)) if i == j else 0 for j in range(n)] for i in range(n)]
    if kind == "unipotent":
        for _ in range(draw(st.integers(0, n)) if n > 1 else 0):
            i = draw(st.integers(0, n - 2))
            g[i][draw(st.integers(i + 1, n - 1))] = draw(mixed_entries)
    lhs = linalg_oracle.mat_add(linalg_oracle.mat_derive(g), linalg_oracle.mat_mul(g, b))
    a = linalg_oracle.mat_mul(lhs, neumann_inverse(g, DiffPoly.rational(1)))
    for _ in range(draw(st.integers(0, 3))):
        a[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(mixed_entries)
    return g, b, a


def _first_difference(g, b, a):
    """The first (r, c), row by row, where g' + g b and a g differ, both
    composed in full by the oracle; None when they agree."""
    lhs = linalg_oracle.mat_add(linalg_oracle.mat_derive(g), linalg_oracle.mat_mul(g, b))
    rhs = linalg_oracle.mat_mul(a, g)
    return next(
        ((r, c) for r, (row_l, row_r) in enumerate(zip(lhs, rhs))
         for c, (x, y) in enumerate(zip(row_l, row_r)) if x != y),
        None,
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(defect_triples())
# products of degree 255, the limit, and no overflow; then a first
# difference at (0, 1), after an entry that agrees
@example(([[DiffPoly.eta(1)]], [[DiffPoly.eta(1) ** 254]], [[DiffPoly.eta(1) ** 254]]))
@example((
    [[1, DiffPoly.eta(2)], [0, Fraction(1)]],
    [[0, DiffPoly.eta(1)], [Fraction(1, 2), 0]],
    [[DiffPoly.eta(2) * Fraction(1, 2), DiffPoly.eta(1) + DiffPoly.eta(2, 1)], [Fraction(1, 2), 0]],
))
def test_gauge_defect_agrees_with_the_composed_matrices(gba):
    assert linalg.gauge_defect(*gba) == _first_difference(*gba)


def test_gauge_defect_checks_the_shapes():
    one, two = [[1]], [[1, 0], [0, 1]]
    for g, b, a in (
        (two, one, two),  # g has a column per row of b
        (two, two, one),  # a has a row per row of g
        ([[1, 0]], [[1], [0]], one),  # b is square
        ([[1, 0], [0]], two, two),  # the rows of g have one length
        (two, two, [[1, 0], [0]]),  # so do those of a
    ):
        with pytest.raises(DimMismatch):
            linalg.gauge_defect(g, b, a)
    assert linalg.gauge_defect([[1, 0]], two, one) is None
    assert linalg.gauge_defect([], [], []) is None


def test_gauge_defect_overflows_only_where_a_product_does():
    # g b or a g has degree 1 + 255: the composition and the kernel raise
    # (at degree 255 neither does, as the first example above shows)
    g, big = [[DiffPoly.eta(1)]], [[DiffPoly.eta(1) ** 255]]
    for check in (_first_difference, linalg.gauge_defect):
        with pytest.raises(ExponentOverflow):
            check(g, big, [[0]])
        with pytest.raises(ExponentOverflow):
            check(g, [[0]], big)


@pytest.mark.parametrize("routine", [linalg.det, linalg.rational_inverse])
def test_determinant_and_inverse_refuse_a_non_square_matrix(routine):
    for m in ([[1, 0, 5], [0, 1, 7]], [[1, 2], [3]], [[1], [2]]):
        with pytest.raises(DimMismatch):
            routine([[Fraction(x) for x in row] for row in m])


def _fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def test_rank_refuses_ragged_rows():
    for m in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(DimMismatch):
            linalg.rank(_fractions(m))


def test_solve_refuses_ragged_rows():
    with pytest.raises(DimMismatch):
        linalg.solve_exact(_fractions([[1, 2], [3]]), _fractions([[1, 1]]))


def test_solve_refuses_a_right_hand_side_of_another_length():
    # too short, too long, and one good column next to a short one
    for rhs in ([[1]], [[1, 1, 1]], [[1, 1], [1]]):
        with pytest.raises(DimMismatch):
            linalg.solve_exact(linalg.eye(2), _fractions(rhs))


def test_inverse_refuses_a_singular_matrix():
    with pytest.raises(NoRationalSolution, match="^matrix is singular$"):
        linalg.rational_inverse(_fractions([[1, 2], [2, 4]]))


def test_solve_names_the_first_column_without_a_pivot():
    # column 1 is twice column 0
    with pytest.raises(NoRationalSolution, match="^column 1 has no pivot$"):
        linalg.solve_exact(_fractions([[1, 2], [2, 4], [0, 0]]), _fractions([[1, 2, 0]]))


def test_solve_refuses_an_inconsistent_system():
    with pytest.raises(NoRationalSolution, match="^inconsistent system$"):
        linalg.solve_exact(_fractions([[1], [1]]), _fractions([[1, 2]]))


wide_entries = st.one_of(
    fraction_entries,
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20)),
)


@st.composite
def eliminations(draw):
    """A Fraction matrix a of 0-8 rows and 1-8 columns (8 is MAX_RANK, and
    every system pvext solves is at most rank x rank), with small entries
    or wide ones (numerators and denominators up to 10^20), some rows made
    dependent on others, and right-hand side columns for it: consistent
    (a x for a drawn x) or drawn freely, all Fraction or all DiffPoly."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    a_entries = draw(st.sampled_from([fraction_entries, wide_entries]))
    a = [[draw(a_entries) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=3)) if rows > 1 else ():
        j = draw(st.integers(0, rows - 1).filter(lambda j: j != i))
        f = draw(coefficients)
        a[i] = [x + f * y for x, y in zip(a[i], a[j])]
    entries = draw(st.sampled_from([fraction_entries, wide_entries, poly_entries]))
    zero = linalg.zero_of(draw(entries))
    nrhs = draw(st.integers(0, 2))
    if draw(st.booleans()):
        xs = [[draw(entries) for _ in range(cols)] for _ in range(nrhs)]
        rhs = [[sum((c * v for c, v in zip(row, x)), zero) for row in a] for x in xs]
    else:
        rhs = [[zero + draw(entries) for _ in range(rows)] for _ in range(nrhs)]
    return a, rhs


def _outcome(routine, *args):
    """The value a routine returns, or the type and message it raises."""
    try:
        return "value", routine(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(eliminations())
@example(([], [[]]))
@example(([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [[Fraction(1), Fraction(2)]]))
@example(([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [[Fraction(1), Fraction(3)]]))
@example(([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]], [[DiffPoly.eta(1)] * 2]))
def test_shared_elimination_agrees_with_the_separate_loops(case):
    a, rhs = case
    k = min(len(a), len(a[0]) if a else 0)
    square = [row[:k] for row in a[:k]]
    for name, args in (
        ("rank", (a,)),
        ("det", (square,)),
        ("rational_inverse", (square,)),
        ("solve_exact", (a, rhs)),
    ):
        got = _outcome(getattr(linalg, name), *args)
        want = _outcome(getattr(linalg_oracle, name), *args)
        assert got == want, name
        if got[0] == "value" and isinstance(got[1], list):
            assert _same_matrices(got[1], want[1]), name
