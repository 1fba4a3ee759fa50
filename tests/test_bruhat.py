import itertools
import random
from fractions import Fraction

import pytest

from pvext import bruhat, chevalley, linalg
from pvext.errors import CellDegeneration, DimMismatch, NotUnimodular

import bruhat_oracle
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
    from pvext import chevalley

    rep = get_rep("A", 3)
    for _ in range(10):
        m = random_sl(4, rng)
        form = bruhat.bruhat_decompose(m, "negative")
        rebuilt = linalg.eye(4)
        for i, root in enumerate(rep.rs.neg_order):
            rebuilt = linalg.mat_mul(
                rebuilt, chevalley.unipotent_element(rep, root, form.x[i])
            )
        assert linalg.mat_eq(rebuilt, [list(r) for r in form.uprime])
        rebuilt_t = linalg.eye(4)
        for i, z in enumerate(form.z, start=1):
            rebuilt_t = linalg.mat_mul(rebuilt_t, chevalley.torus_element(rep, i, z))
        assert linalg.mat_eq(rebuilt_t, [list(r) for r in form.t])


def test_positive_convention_coefficients_rebuild():
    rng = random.Random(108)
    from pvext import chevalley

    rep = get_rep("A", 2)
    for _ in range(10):
        m = random_sl(3, rng)
        form = bruhat.bruhat_decompose(m, "positive")
        rebuilt = linalg.eye(3)
        for i, root in enumerate(rep.rs.neg_order):
            rebuilt = linalg.mat_mul(
                rebuilt, chevalley.unipotent_element(rep, -root, form.y[i])
            )
        assert linalg.mat_eq(rebuilt, [list(r) for r in form.u])


@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
def test_peeling_is_row_operations(monkeypatch, upper):
    # each u_i(-x) is one row operation: peeling multiplies no matrices
    from pvext import chevalley

    rng = random.Random(109)
    rep = get_rep("A", 4)
    roots = [(-b if upper else b) for b in rep.rs.neg_order]
    x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in roots]
    u = linalg.eye(5)
    for root, xi in zip(roots, x):
        u = linalg.mat_mul(u, chevalley.unipotent_element(rep, root, xi))
    calls = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    assert bruhat._peel_coefficients(u, upper) == tuple(x)
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


def _outcome(convention, decompose, m):
    try:
        form = decompose(m, convention)
    except Exception as exc:
        return type(exc), str(exc)
    return form, repr(form)


@pytest.mark.parametrize("convention", ["negative", "positive"])
def test_decomposition_agrees_with_the_old_chain(convention):
    # the normal form is unique, so the oracle's row pass, push of u' into u
    # and representative change must end where the column reduction does
    seen = set()
    for m in _oracle_inputs():
        got = _outcome(convention, bruhat.bruhat_decompose, m)
        assert got == _outcome(convention, bruhat_oracle.bruhat_decompose, m)
        seen.add(got[0].perm if isinstance(got[0], bruhat.BruhatForm) else got[0])
    assert NotUnimodular in seen and len(seen) > 30


@pytest.mark.parametrize("convention", ["negative", "positive"])
def test_decomposition_multiplies_only_to_recompose(monkeypatch, convention):
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
        assert len(calls) == 1
        assert form.word
