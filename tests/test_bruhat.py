import itertools
import random
import re
from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvext import bruhat, chevalley, linalg
from pvext.errors import (
    CellDegeneration,
    DimMismatch,
    NotUnimodular,
    StructureViolation,
    VerificationFailure,
)

import bruhat_oracle
import factor_oracle
import linalg_oracle
from conftest import get_rep


def random_sl(n, rng, steps=8):
    m = linalg.eye(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        gen = linalg.eye(n)
        gen[i][j] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        m = linalg.mat_mul(m, gen)
    return m


def test_identity_trivial():
    form = bruhat.bruhat_decompose(linalg.eye(3))
    assert form.perm == (1, 2, 3)
    assert form.word == ()
    assert linalg.mat_eq([list(r) for r in form.uprime], linalg.eye(3))
    assert linalg.mat_eq([list(r) for r in form.t], linalg.eye(3))
    assert linalg.mat_eq([list(r) for r in form.u], linalg.eye(3))
    assert all(not x for x in form.x) and all(not y for y in form.y)
    assert all(z == 1 for z in form.z)


def test_sl4_longest_representative():
    nw = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    form = bruhat.bruhat_decompose(nw, "negative")
    assert form.perm == (4, 3, 2, 1)
    assert all(not x for x in form.x) and all(not y for y in form.y)
    # the input equals the canonical representative up to a torus factor
    assert linalg.mat_eq(form.recompose(), [[Fraction(v) for v in row] for row in nw])


def test_recompose_oracle_random():
    rng = random.Random(101)
    for n in (3, 4):
        for _ in range(60):
            m = random_sl(n, rng)
            for convention in ("negative", "positive"):
                form = bruhat.bruhat_decompose(m, convention)
                assert linalg.mat_eq(form.recompose(), m)


def test_uniqueness_double_decomposition():
    rng = random.Random(102)
    for _ in range(40):
        m = random_sl(3, rng)
        form = bruhat.bruhat_decompose(m)
        again = bruhat.bruhat_decompose(form.recompose())
        assert form == again


def test_cell_invariant_under_lower_unipotent():
    # the permutation only depends on the double coset
    rng = random.Random(103)
    for _ in range(25):
        m = random_sl(4, rng)
        base = bruhat.bruhat_decompose(m).perm
        left = linalg.eye(4)
        left[2][0] = Fraction(rng.randint(-5, 5), 3)
        right = linalg.eye(4)
        right[3][1] = Fraction(rng.randint(-5, 5), 2)
        assert bruhat.bruhat_decompose(linalg.mat_mul(left, m)).perm == base
        assert bruhat.bruhat_decompose(linalg.mat_mul(m, right)).perm == base


def test_sl2_relation_identity():
    # n ubar_{-a}(x) = ubar_{-a}(-1/x) t(x) ubar_a(1/x) for nonzero rational x
    rng = random.Random(104)
    for _ in range(50):
        x = Fraction(rng.randint(1, 30), rng.randint(1, 9)) * rng.choice([1, -1])
        n = [[0, 1], [-1, 0]]
        lhs = linalg.mat_mul(n, [[1, 0], [x, 1]])
        rhs = linalg.mat_mul(
            linalg.mat_mul([[1, 0], [-1 / x, 1]], [[x, 0], [0, 1 / x]]),
            [[1, 1 / x], [0, 1]],
        )
        assert linalg.mat_eq(lhs, rhs)


def _big_cell_matrix(n, rng):
    while True:
        m = random_sl(n, rng)
        form = bruhat.bruhat_decompose(m)
        if form.perm == bruhat.longest_permutation(n):
            return m, form


def test_act_identity():
    rng = random.Random(105)
    y0, form = _big_cell_matrix(3, rng)
    acted = bruhat.act_on_normal_form(y0, linalg.eye(3))
    assert acted == form


def test_act_lower_borel_fixes_x():
    rng = random.Random(106)
    for _ in range(10):
        y0, form = _big_cell_matrix(3, rng)
        g = [[Fraction(2), 0, 0],
             [Fraction(rng.randint(-4, 4), 3), Fraction(1, 2), 0],
             [Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 5), Fraction(1)]]
        if linalg.det(g) != 1:
            g[2][2] = 1 / (Fraction(2) * Fraction(1, 2))
        acted = bruhat.act_on_normal_form(y0, g)
        assert acted.x == form.x


def test_act_cell_degeneration():
    # u(y) alone lies in the cell of the identity, not the big cell
    y0 = [[Fraction(1), 0, 0], [Fraction(2), 1, 0], [Fraction(3), 4, 1]]
    with pytest.raises(CellDegeneration):
        bruhat.act_on_normal_form(y0, linalg.eye(3))


def test_not_unimodular():
    with pytest.raises(NotUnimodular):
        bruhat.bruhat_decompose([[2, 0], [0, 1]])


def test_non_square_matrix_is_refused():
    for m in ([[1, 0, 5], [0, 1, 7]], [[1, 2], [3]]):
        for convention in ("positive", "negative"):
            with pytest.raises(DimMismatch):
                bruhat.bruhat_decompose(m, convention=convention)


def test_empty_matrix_is_refused_before_any_work(monkeypatch):
    # det([]) is 1, so the empty matrix passed the unimodularity check and
    # the peel asked build_rep for A of rank -1
    calls = []
    monkeypatch.setattr(linalg, "det", lambda m: calls.append(m) or 1)
    for convention in ("positive", "negative"):
        with pytest.raises(DimMismatch):
            bruhat.bruhat_decompose([], convention=convention)
    assert not calls


def test_acting_on_a_non_square_normal_form_is_refused():
    # the 2 x 3 input has no product with a 2 x 2 g
    with pytest.raises(DimMismatch):
        bruhat.act_on_normal_form([[0, 1, 5], [-1, 0, 7]], linalg.eye(2))


def test_not_unimodular_takes_no_determinant(monkeypatch):
    # det m is the product of t's diagonal, read off the one column reduction
    calls = []
    monkeypatch.setattr(linalg, "det", lambda m: calls.append(1))
    for m, det in (([[2, 0], [0, 1]], "2"), ([[1, 2], [2, 4]], "0"), ([[0, 1], [-3, 0]], "3")):
        for convention in ("positive", "negative", "sideways"):
            with pytest.raises(NotUnimodular, match="determinant is %s$" % det):
                bruhat.bruhat_decompose(m, convention)
    with pytest.raises(ValueError, match="convention"):
        bruhat.bruhat_decompose([[0, 1], [-1, 0]], "sideways")
    assert not calls


@pytest.mark.parametrize("convention", ["negative", "positive"])
def test_sl1_is_the_trivial_form(convention):
    one = ((Fraction(1),),)
    form = bruhat.bruhat_decompose([[1]], convention)
    assert form == bruhat.BruhatForm(convention, one, (1,), (), one, one, (), (), ())


def test_coefficients_reproduce_factors():
    # x/z/y tuples rebuild the factors through the one-parameter products
    rng = random.Random(107)
    rep = get_rep("A", 3)
    for _ in range(10):
        m = random_sl(4, rng)
        form = bruhat.bruhat_decompose(m, "negative")
        rebuilt = linalg.eye(4)
        for i, root in enumerate(rep.rs.neg_order):
            rebuilt = linalg.mat_mul(
                rebuilt, factor_oracle.root_letter(rep, root, form.x[i])
            )
        assert linalg.mat_eq(rebuilt, [list(r) for r in form.uprime])
        rebuilt_t = linalg.eye(4)
        for i, z in enumerate(form.z, start=1):
            rebuilt_t = linalg.mat_mul(rebuilt_t, factor_oracle.torus_letter(rep, i, z))
        assert linalg.mat_eq(rebuilt_t, [list(r) for r in form.t])


def test_positive_convention_coefficients_rebuild():
    rng = random.Random(108)
    rep = get_rep("A", 2)
    for _ in range(10):
        m = random_sl(3, rng)
        form = bruhat.bruhat_decompose(m, "positive")
        rebuilt = linalg.eye(3)
        for i, root in enumerate(rep.rs.neg_order):
            rebuilt = linalg.mat_mul(
                rebuilt, factor_oracle.root_letter(rep, -root, form.y[i])
            )
        assert linalg.mat_eq(rebuilt, [list(r) for r in form.u])


@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
def test_peeling_is_row_operations(monkeypatch, upper):
    # each u_i(-x) is one row operation: peeling multiplies no matrices
    rng = random.Random(109)
    rep = get_rep("A", 4)
    roots = [(-b if upper else b) for b in rep.rs.neg_order]
    x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in roots]
    u = linalg.eye(5)
    for root, xi in zip(roots, x):
        u = linalg.mat_mul(u, factor_oracle.root_letter(rep, root, xi))
    calls = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    rows = bruhat._scaled_rows(u)
    assert bruhat._peel_coefficients(rows, upper) == tuple(x)
    assert rows == bruhat._scaled_rows(u)
    assert not calls


def _words():
    """Reduced words of every permutation in S_n for n <= 5, then seeded
    words of random letters for n = 6..8."""
    for n in range(1, 6):
        for perm in itertools.permutations(range(1, n + 1)):
            yield n, bruhat.reduced_word(perm)
    rng = random.Random(113)
    for n in range(6, 9):
        for _ in range(40):
            yield n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 3 * n)))


def test_representative_is_the_block_product_and_its_transpose_the_inverse():
    for n, word in _words():
        nw = linalg_oracle.signed_permutation(bruhat.representative_columns(n, word))
        want = linalg_oracle.representative_matrix(n, word)
        assert nw == want
        assert [list(c) for c in zip(*nw)] == linalg.rational_inverse(nw)


def test_representative_columns_are_the_chevalley_representative():
    # the SL_n blocks [[0, 1], [-1, 0]] are the A_(n-1) representatives
    # u_a(1) u_-a(-1) u_a(1); both builders give the same columns
    for n, word in _words():
        if n > 1:
            want = bruhat.representative_columns(n, word)
            assert chevalley.weyl_representative(get_rep("A", n - 1), word) == want


def test_representative_is_column_moves(monkeypatch):
    calls = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    bruhat.representative_columns(8, bruhat.reduced_word(tuple(range(8, 0, -1))))
    assert not calls


@pytest.mark.parametrize("convention", ["negative", "positive"])
def test_representative_is_never_inverted(monkeypatch, convention):
    # the elimination factor is inverted by accumulating its elementary
    # inverses, never by Gauss-Jordan, and n(w) is not inverted at all
    rng = random.Random(114)
    args = []
    rational_inverse = linalg.rational_inverse
    monkeypatch.setattr(
        linalg, "rational_inverse", lambda m: args.append(m) or rational_inverse(m)
    )
    seen = 0
    for n in (3, 4, 5):
        for _ in range(20):
            form = bruhat.bruhat_decompose(random_sl(n, rng), convention)
            seen += bool(form.word)
    assert not args
    assert seen > 30


def _signed_permutations_times_torus(n, rng):
    """Every signed permutation matrix of size n times a seeded torus
    element, scaled to determinant one."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            m = [[Fraction(0)] * n for _ in range(n)]
            for j in range(n):
                m[perm[j]][j] = signs[j] * Fraction(rng.randint(1, 5), rng.randint(1, 5))
            m[perm[0]][0] /= linalg.det(m)
            yield m


def _oracle_inputs():
    rng = random.Random(115)
    for n in range(2, 9):
        for _ in range(12):
            yield random_sl(n, rng, steps=rng.choice([3, 8, 20]))
    for n in range(2, 5):
        yield from _signed_permutations_times_torus(n, rng)
    yield [[Fraction(2), 0], [0, 1]]
    yield [[Fraction(0)] * 3 for _ in range(3)]


def _outcome(call, *args):
    try:
        form = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return form, repr(form)


@pytest.mark.parametrize("convention", ["negative", "positive"])
def test_decomposition_agrees_with_the_old_chain(convention):
    # the normal form is unique, so the oracle's row pass, push of u' into u
    # and representative change must end where the column reduction does
    seen = set()
    for m in _oracle_inputs():
        got = _outcome(bruhat.bruhat_decompose, m, convention)
        assert got == _outcome(bruhat_oracle.bruhat_decompose, m, convention)
        seen.add(got[0].perm if isinstance(got[0], bruhat.BruhatForm) else got[0])
    assert NotUnimodular in seen and len(seen) > 30


@pytest.mark.parametrize("convention", ["negative", "positive"])
def test_decomposition_multiplies_only_to_recompose(monkeypatch, convention):
    # the recomposition check is one integer product (bruhat._product), so
    # no dense product of Fraction matrices remains
    rng = random.Random(116)
    inputs = [random_sl(n, rng) for n in (3, 4, 5, 6) for _ in range(5)]
    for n in (3, 4, 5, 6):
        bruhat._peel_blocks(n)
    calls = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    for m in inputs:
        del calls[:]
        form = bruhat.bruhat_decompose(m, convention)
        assert not calls
        assert form.word


# ----- every check of bruhat_decompose fires on one corrupted input -----


def _corrupt_reduction(monkeypatch, corrupt):
    """Make bruhat_decompose see `corrupt` applied to the result (C, u,
    pivot) of its column reduction, in the frame of the reduction."""
    reduce = bruhat._column_reduce

    def corrupted(cols):
        c, u, pivot = reduce(cols)
        corrupt(c, u)
        return c, u, pivot

    monkeypatch.setattr(bruhat, "_column_reduce", corrupted)


@pytest.mark.parametrize("convention", ["negative", "positive"])
def test_recomposition_check_fires_on_a_corrupted_u(monkeypatch, convention):
    # u is upper unipotent in the reduction's frame and stays so, so it
    # peels; it is no longer V^{-1}, and nothing but the product sees that
    def corrupt(c, u):
        u[0][-1] += 1

    _corrupt_reduction(monkeypatch, corrupt)
    with pytest.raises(VerificationFailure, match="^Bruhat recomposition failed$"):
        bruhat.bruhat_decompose(random_sl(4, random.Random(117), steps=20), convention)


@pytest.mark.parametrize("convention, cell", [("negative", "(3, 2)"), ("positive", "(1, 2)")])
def test_uprime_pattern_check_fires_on_a_corrupted_column(monkeypatch, convention, cell):
    # the identity's column 1 has its pivot in row 1; a 1 in row 0, the
    # pivot row of the earlier column 0, puts an entry of u' at a pair that
    # w = 1 fixes, and leaves t and the determinant as they were
    def corrupt(c, u):
        c[1][0] = c[1][-1]

    _corrupt_reduction(monkeypatch, corrupt)
    message = "u' outside U'_w at %s" % cell
    with pytest.raises(StructureViolation, match="^%s$" % re.escape(message)):
        bruhat.bruhat_decompose(linalg.eye(3), convention)


@pytest.mark.parametrize("convention", ["negative", "positive"])
def test_peel_check_fires_when_a_root_is_left_out(monkeypatch, convention):
    blocks = bruhat._peel_blocks

    def without_the_first_block(n):
        return tuple(side[1:] for side in blocks(n))

    # the first block holds the simple roots; some of their coefficients
    # in u' and u are not 0, and nothing clears those entries now
    monkeypatch.setattr(bruhat, "_peel_blocks", without_the_first_block)
    m = random_sl(4, random.Random(118), steps=20)
    with pytest.raises(VerificationFailure, match="^one-parameter peeling failed$"):
        bruhat.bruhat_decompose(m, convention)


@pytest.mark.parametrize("convention", ["negative", "positive"])
def test_root_vector_check_fires_on_a_corrupted_representation(monkeypatch, convention):
    # a second matrix unit in the root vector of the convention's first root
    rep = chevalley.build_rep("A", 2)
    root = rep.rs.neg_order[0]
    key = root.coeffs if convention == "negative" else (-root).coeffs
    cells = dict(rep.exp_cells)
    cells[key] += ((0, 0, 1, 1),)
    broken = SimpleNamespace(rs=rep.rs, exp_cells=cells)
    monkeypatch.setattr(chevalley, "build_rep", lambda *_: broken)
    message = "root vector of %r is not one matrix unit" % (root,)
    bruhat._peel_blocks.cache_clear()
    try:
        with pytest.raises(StructureViolation, match="^%s$" % re.escape(message)):
            bruhat.bruhat_decompose(random_sl(3, random.Random(119)), convention)
    finally:
        bruhat._peel_blocks.cache_clear()


# ----- the decomposition against the oracle, on any input -----

CONVENTIONS = st.sampled_from(["negative", "positive"] * 3 + ["sideways"])
ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**9),
)
NONZERO = st.builds(
    lambda sign, x: sign * x,
    st.sampled_from([1, -1]),
    st.one_of(
        st.integers(1, 9),
        st.fractions(min_value=Fraction(1, 10**9), max_value=1000, max_denominator=10**9),
    ),
)


@st.composite
def _ldu(draw, n, perm):
    """L P D U for a unit lower L, the permutation matrix P of perm, a
    diagonal D and a unit upper U; det = sign(perm) prod(D), which the kind
    drawn makes 1, something else, or 0."""
    d = [draw(NONZERO) for _ in range(n)]
    kind = draw(st.sampled_from(["sl", "sl", "sl", "det", "singular"]))
    if kind == "sl":
        sign = linalg.det([[int(perm[j] == i) for j in range(n)] for i in range(n)])
        d[-1] = sign / prod(d[:-1])
    elif kind == "singular":
        d[draw(st.integers(0, n - 1))] = 0
    lower = [[1 if i == j else draw(ENTRIES) if i > j else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else draw(ENTRIES) if i < j else 0 for j in range(n)] for i in range(n)]
    pd = [[d[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]
    return linalg_oracle.mat_mul(linalg_oracle.mat_mul(lower, pd), upper)


@st.composite
def _dense(draw, n):
    """A matrix of drawn entries, its first row divided by its
    determinant when the draw asks for det 1 and the determinant is not 0."""
    m = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    det = linalg.det(m)
    if det and draw(st.booleans()):
        m[0] = [x / det for x in m[0]]
    return m


@st.composite
def _any_input(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["ldu"] * 7 + ["dense"] * 3 + ["empty", "wide", "ragged"]))
    if kind == "ldu":
        return draw(_ldu(n, draw(st.permutations(range(n)))))
    if kind == "dense":
        return draw(_dense(n))
    if kind == "empty":
        return []
    m = draw(_dense(n))
    if kind == "wide":
        return [row + [draw(ENTRIES)] for row in m]
    m[draw(st.integers(0, n - 1))].pop()
    return m


def _check_entries_are_fractions(outcome):
    form = outcome[0]
    if isinstance(form, bruhat.BruhatForm):
        for factor in (form.uprime, form.t, form.u):
            assert all(type(x) is Fraction for row in factor for x in row)
        assert all(type(x) is Fraction for x in form.x + form.z + form.y)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_any_input(), CONVENTIONS)
def test_decomposition_agrees_with_the_oracle_on_any_input(m, convention):
    # the same BruhatForm, or the same exception with the same message: the
    # refusals come in the order empty, not square, det 0, det != 1,
    # convention
    got = _outcome(bruhat.bruhat_decompose, m, convention)
    assert got == _outcome(bruhat_oracle.bruhat_decompose, m, convention)
    _check_entries_are_fractions(got)


@st.composite
def _translates(draw):
    """(Y0, g) of one size: Y0 of det 1 in the big cell or another cell, g
    of det 1, lower triangular or not, or of another determinant."""
    n = draw(st.integers(1, 8))
    longest = tuple(range(n - 1, -1, -1))
    perm = draw(st.one_of(st.just(longest), st.permutations(range(n))))
    y0 = draw(_ldu(n, perm))
    g = draw(_ldu(n, tuple(range(n)) if draw(st.booleans()) else longest))
    return y0, g


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_translates())
def test_action_agrees_with_the_oracle(pair):
    got = _outcome(bruhat.act_on_normal_form, *pair)
    assert got == _outcome(bruhat_oracle.act_on_normal_form, *pair)
    _check_entries_are_fractions(got)
