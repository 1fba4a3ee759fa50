import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from pvext import chevalley, linalg, rootsys
from pvext.diffpoly import DiffPoly
from pvext.liouville_expr import LiouvExpr
from pvext.errors import (
    DimMismatch,
    NonDiagonalCartan,
    NotInLieAlgebra,
    SpanFailure,
    StructureViolation,
    UnsupportedRep,
)
from pvext.rootsys import Root

import chevalley_oracle
import factor_oracle
import linalg_oracle
from linalg_oracle import mat_is_zero
from conftest import ALL_SYSTEMS, get_pipeline, get_rep


def E(n, i, j):
    m = linalg.zeros(n)
    m[i - 1][j - 1] = Fraction(1)
    return m


def test_a3_standard_matrices(rep_a3):
    rep = rep_a3
    for i in range(1, 4):
        assert linalg.mat_eq(rep.X[rep.rs.simple(i).coeffs], E(4, i, i + 1))
        assert linalg.mat_eq(rep.X[(-rep.rs.simple(i)).coeffs], E(4, i + 1, i))
        want_h = linalg_oracle.mat_sub(E(4, i, i), E(4, i + 1, i + 1))
        assert linalg.mat_eq(rep.H[i - 1], want_h)


def test_a1_matrices(rep_a1):
    rep = rep_a1
    assert linalg.mat_eq(rep.H[0], [[1, 0], [0, -1]])
    assert linalg.mat_eq(rep.X[(1,)], [[0, 1], [0, 0]])
    assert linalg.mat_eq(rep.X[(-1,)], [[0, 0], [1, 0]])


def test_g2_weyl_representatives_match_fixed_matrices(rep_g2):
    n1 = linalg_oracle.signed_permutation(chevalley.weyl_representative(rep_g2, (1,)))
    n2 = linalg_oracle.signed_permutation(chevalley.weyl_representative(rep_g2, (2,)))
    want_n1 = [
        [-1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, -1, 0, 0, 0],
        [0, 0, -1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
    ]
    want_n2 = [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 1, 0],
    ]
    assert linalg.mat_eq(n1, [[Fraction(v) for v in row] for row in want_n1])
    assert linalg.mat_eq(n2, [[Fraction(v) for v in row] for row in want_n2])


def test_bracket_basics(rep_a3):
    assert mat_is_zero(linalg_oracle.bracket(rep_a3.H[0], rep_a3.H[1]))
    with pytest.raises(DimMismatch):
        linalg_oracle.bracket(linalg.zeros(2), linalg.zeros(3))


def test_bracket_w1_is_minus_h1(rep_a3):
    got = linalg_oracle.bracket(rep_a3.x_neg(1), rep_a3.a0_plus())
    assert linalg.mat_eq(got, linalg_oracle.mat_scale(rep_a3.H[0], -1))


def test_bracket_a2_structure_constant(rep_a2):
    a, b = rep_a2.rs.simple(1), rep_a2.rs.simple(2)
    got = linalg_oracle.bracket(rep_a2.X[a.coeffs], rep_a2.X[b.coeffs])
    n = rep_a2.nconst[(a.coeffs, b.coeffs)]
    assert abs(n) == 1
    assert linalg.mat_eq(got, linalg_oracle.mat_scale(rep_a2.X[(1, 1)], n))


def _live(coefficients):
    return {k: v for k, v in coefficients.items() if v}


def test_w_fixtures(rep_a3, rep_a1):
    # W_6 = -X_4 + X_5 and W_4 = -X_1 + X_2 on SL4, W_1 = -H_1 on SL2
    x = [("X", b.coeffs) for b in rep_a3.rs.neg_order]
    assert _live(rep_a3.w_coefficients[5]) == {x[3]: -1, x[4]: 1}
    assert _live(rep_a3.w_coefficients[3]) == {x[0]: -1, x[1]: 1}
    assert _live(rep_a1.w_coefficients[0]) == {("H", 1): -1}


def test_complementary_roots(rep_a3, rep_g2, rep_a1):
    assert rep_a3.rs.comp_roots == (3, 5, 6)
    assert rep_g2.rs.comp_roots == (2, 6)
    assert rep_a1.rs.comp_roots == (1,)


def test_unipotent_simple_expansion(rep_a3):
    for i in range(1, 7):
        u = factor_oracle.root_letter(rep_a3, rep_a3.rs.neg_order[i - 1], DiffPoly.eta(i))
        want = linalg.mat_add(
            linalg_oracle.eye(4, DiffPoly.rational(1), DiffPoly.zero()),
            [[DiffPoly.eta(i) * x for x in row] for row in rep_a3.x_neg(i)],
        )
        assert linalg.mat_eq(u, want)


def test_unipotent_zero_is_identity(rep_g2):
    for root in rep_g2.rs.neg_order:
        u = factor_oracle.root_letter(rep_g2, root, Fraction(0))
        assert linalg.mat_eq(u, linalg.eye(7))


def test_g2_unipotent_integer_entries(rep_g2):
    # short-root exponentials include x^2/2 divided powers with integer result
    saw_square = False
    for root in rep_g2.rs.neg_order:
        u = factor_oracle.root_letter(rep_g2, root, DiffPoly.eta(1))
        for row in u:
            for entry in row:
                for coeff in entry.terms.values():
                    assert coeff.denominator == 1
                if entry.degree() == 2:
                    saw_square = True
    assert saw_square


def test_torus_element_refuses_a_non_diagonal_cartan_generator(rep_a3):
    # build_rep refuses such a basis, so the rep is edited after the build
    h2 = [list(row) for row in rep_a3.H[1]]
    h2[0][1] = 1
    rep = dataclasses.replace(rep_a3, H=(rep_a3.H[0], tuple(map(tuple, h2)), rep_a3.H[2]))
    with pytest.raises(NonDiagonalCartan, match=r"^H_2 is not diagonal$"):
        factor_oracle.torus_letter(rep, 2, Fraction(3))
    assert factor_oracle.torus_letter(rep, 1, Fraction(3)) == factor_oracle.torus_letter(rep_a3, 1, Fraction(3))


def test_torus_element(rep_a3):
    z = Fraction(5)
    t1 = factor_oracle.torus_letter(rep_a3, 1, z)
    assert linalg.mat_eq(t1, [[5, 0, 0, 0], [0, Fraction(1, 5), 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert linalg.mat_eq(factor_oracle.torus_letter(rep_a3, 2, Fraction(1)), linalg.eye(4))
    # Ad(t_1(z))(X_{-a1}) = z^-2 X_{-a1}
    ad = linalg.mat_mul(linalg.mat_mul(t1, rep_a3.x_neg(1)), linalg.rational_inverse(t1))
    assert linalg.mat_eq(ad, linalg_oracle.mat_scale(rep_a3.x_neg(1), z ** -2))


def test_sl4_longest_representative_is_pinned(rep_a3):
    word = rootsys.longest_weyl_word(rep_a3.rs)
    nw = linalg_oracle.signed_permutation(chevalley.weyl_representative(rep_a3, word))
    want = [
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ]
    assert linalg.mat_eq(nw, [[Fraction(v) for v in row] for row in want])
    assert chevalley.weyl_representative(rep_a3, ()) == ((0, 1), (1, 1), (2, 1), (3, 1))


def test_axioms_exhaustive():
    # build_rep runs the exhaustive bracket checks; failure raises
    for t, r in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("G2", 2)]:
        rep = get_rep(t, r)
        # spot-check |N| = r+1 against the independent string computation
        for (a, b), n in rep.nconst.items():
            ra, _ = rootsys.root_string(rep.rs, b, a)
            assert abs(n) == ra + 1


GRID = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "D5", "G2")


def _system(label):
    return ("G2", 2) if label == "G2" else (label[0], int(label[1:]))


@pytest.mark.parametrize("label", GRID)
def test_build_agrees_with_the_dense_oracle(label):
    rep = get_rep(*_system(label))
    assert chevalley_oracle.verify_axioms(rep.rs, rep.H, rep.X) == rep.nconst
    positions, _ = chevalley_oracle.solving_recipe(rep)
    assert tuple(positions) == rep.solve_positions
    assert rep.cells == {
        key: tuple((r, c, v) for r, row in enumerate(mat) for c, v in enumerate(row) if v)
        for key, mat in zip(rep.basis_order, _basis_matrices(rep))
    }
    a0 = rep.a0_plus()
    brackets = [linalg_oracle.bracket(rep.x_neg(i), a0) for i in range(1, rep.m + 1)]
    assert rep.w_coefficients == tuple(chevalley.decompose_in_basis(rep, w) for w in brackets)
    rs0 = rootsys.build_root_system(*_system(label))
    comp = chevalley_oracle.complementary_root_values(rs0, rep.X)
    assert rootsys.finalize_order(rs0, comp) == rep.rs


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda system: _label(system))
def test_build_agrees_with_the_build_over_root_values(system):
    # every field of the representation, the structure constants included,
    # equals that of the dict-of-dicts build over validated Root values and
    # root_string; dicts in the same order
    rep, want = get_rep(*system), chevalley_oracle.build_rep(*system)
    for field in dataclasses.fields(chevalley.ChevalleyRep):
        got, expected = getattr(rep, field.name), getattr(want, field.name)
        assert got == expected, field.name
        if isinstance(got, dict):
            assert list(got.items()) == list(expected.items()), field.name


def _basis_matrices(rep):
    return [rep.H[key - 1] if kind == "H" else rep.X[key] for kind, key in rep.basis_order]


def _label(system):
    return system[0] if system[0] == "G2" else "%s%d" % system


def _outcome(decompose, rep, a):
    """The coefficients with their types, or the refusal's message."""
    try:
        return [(key, type(c), c) for key, c in decompose(rep, a).items()]
    except NotInLieAlgebra as exc:
        return str(exc)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=_label)
def test_decomposition_agrees_with_the_dense_oracle(system):
    """Every basis matrix, whose coordinates are those of its key, a seeded
    sum of all of them, that sum with one seeded entry shifted, and with
    one diagonal entry shifted, which no H combination matches: the dense
    recipe's coefficients or its refusal, and compose inverts the
    decomposition."""
    rep = get_rep(*system)
    n = rep.dim
    recipe = chevalley_oracle.solving_recipe(rep)
    assert tuple(recipe[0]) == rep.solve_positions
    dense = lambda rep, a: chevalley_oracle.decompose_in_basis(rep, a, recipe)
    rng = random.Random("decompose:%s" % _label(system))
    mats = _basis_matrices(rep)
    for key, mat in zip(rep.basis_order, mats):
        want = [(k, Fraction, Fraction(k == key)) for k in rep.basis_order]
        assert _outcome(chevalley.decompose_in_basis, rep, mat) == want
        assert chevalley.compose(rep, {key: Fraction(1)}, Fraction(0)) == mat
    terms = [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), mat) for mat in mats]
    total = linalg_oracle.combination(terms, n, Fraction(0))
    got = _outcome(chevalley.decompose_in_basis, rep, total)
    assert got == _outcome(dense, rep, total)
    assert chevalley.compose(rep, {key: c for key, _, c in got}, Fraction(0)) == total
    r = rng.randrange(n)
    for cell in [(rng.randrange(n), rng.randrange(n)), (r, r)]:
        shifted = [list(row) for row in total]
        shifted[cell[0]][cell[1]] += 1
        got = _outcome(chevalley.decompose_in_basis, rep, shifted)
        assert got == _outcome(dense, rep, shifted)
    assert got.startswith("entry ")


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=_label)
def test_character_is_the_torus_conjugation(system):
    # chi_beta(z) X_beta = t(z) X_beta t(z)^-1 for every root, t(z) the
    # product of the t_j(z_j) matrices and t(z)^-1 that at 1/z, with
    # rational z and with exponentials z_j = e^{int eta_j}
    rep = get_rep(*system)
    rng = random.Random("character:%s" % _label(system))
    rational = [Fraction(rng.choice((-3, -2, 2, 3)), rng.randint(1, 3)) for _ in range(rep.rank)]
    liouville = [LiouvExpr.exp_integral(LiouvExpr.scalar(DiffPoly.eta(j))) for j in range(1, rep.rank + 1)]
    for z in (rational, liouville):
        diagonal, inverse = [], []
        for zs, out in ((z, diagonal), ([zj ** -1 for zj in z], inverse)):
            ts = [factor_oracle.torus_letter(rep, j, zj) for j, zj in enumerate(zs, start=1)]
            out.extend(reduce(mul, (t[r][r] for t in ts)) for r in range(rep.dim))
        for root in rep.rs.roots:
            chi = chevalley.character(rep.rs, z, root.coeffs)
            assert type(chi) is type(z[0])
            x = rep.X[root.coeffs]
            conj = [[diagonal[r] * v * inverse[c] if v else 0 for c, v in enumerate(row)]
                    for r, row in enumerate(x)]
            assert conj == [[chi * v if v else 0 for v in row] for row in x]


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=_label)
def test_basis_weights_are_pairwise_distinct(system):
    # one-dimensional weight lines: the reason n(w) is a signed permutation
    # (chevalley.weyl_representative)
    rep = get_rep(*system)
    weights = {tuple(h[r][r] for h in rep.H) for r in range(rep.dim)}
    assert len(weights) == rep.dim


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=_label)
def test_w_coefficients_are_the_decomposed_brackets(system):
    # the coordinates read off nconst are those decompose_in_basis solves for
    rep = get_rep(*system)
    a0 = rep.a0_plus()
    for i in range(1, rep.m + 1):
        w = linalg_oracle.bracket(rep.x_neg(i), a0)
        assert rep.w_coefficients[i - 1] == chevalley.decompose_in_basis(rep, w)
        assert tuple(rep.w_coefficients[i - 1]) == rep.basis_order


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_w_basis_check_refuses_a_wrong_coordinate(label):
    rep = get_rep(*_system(label))
    a0 = rep.a0_plus()
    W = {b.coeffs: chevalley_oracle.sparse(linalg_oracle.bracket(rep.X[b.coeffs], a0), "W")
         for b in rep.rs.neg_order}
    _, sx = chevalley_oracle.sparse_basis(rep.H, rep.X)
    chevalley._verify_w_basis(rep, W, sx)
    for k, key in enumerate(rep.basis_order[: rep.m]):
        coords = [dict(c) for c in rep.w_coefficients]
        coords[k][key] += 1
        wrong = dataclasses.replace(rep, w_coefficients=tuple(coords))
        with pytest.raises(SpanFailure, match="do not sum"):
            chevalley._verify_w_basis(wrong, W, sx)


@pytest.mark.parametrize("label", GRID)
def test_longest_representative_sends_root_vectors_to_root_vectors(label):
    # Ad(n(wbar)) X_beta = +-X_{wbar beta} for every root beta
    rep = get_rep(*_system(label))
    word = rootsys.longest_weyl_word(rep.rs)
    nw = chevalley.weyl_representative(rep, word)
    act = rootsys.weyl_action(rep.rs, word)
    for root in rep.rs.roots:
        ad = chevalley.weyl_adjoint(nw, rep.X[root.coeffs])
        image = rep.X[act(root).coeffs]
        assert linalg.mat_eq(ad, image) or linalg.mat_eq(ad, linalg_oracle.mat_scale(image, -1))


@pytest.mark.parametrize("label", GRID)
def test_basis_matrices_hold_ints(label):
    rep = get_rep(*_system(label))
    mats = list(rep.H) + list(rep.X.values())
    assert all(type(x) is int for mat in mats for row in mat for x in row)
    assert all(type(p) is int for cells in rep.exp_cells.values() for *_, p in cells)


@pytest.mark.parametrize("label", GRID + ("D6",))
def test_exponential_cells_are_the_divided_powers(label):
    # the dense powers X^k / k!, each cell on one power only and none on
    # the diagonal: the fact unipotent_element builds exp(x X) on
    rep = get_rep(*_system(label))
    for coeffs, mat in rep.X.items():
        powers = chevalley_oracle.divided_powers(mat)
        want = [(r, c, k, p) for k, power in enumerate(powers[1:], start=1)
                for r, row in enumerate(power) for c, p in enumerate(row) if p]
        assert rep.exp_cells[coeffs] == tuple(sorted(want))
        places = [(r, c) for r, c, _, _ in rep.exp_cells[coeffs]]
        assert len(set(places)) == len(places) and all(r != c for r, c in places)


def _corrupted_basis(rep, case):
    H = [[list(row) for row in h] for h in rep.H]
    X = {coeffs: [list(row) for row in mat] for coeffs, mat in rep.X.items()}
    highest = (-rep.rs.neg_order[-1]).coeffs
    if case == "scaled":
        X[highest] = linalg_oracle.mat_scale(X[highest], 2)
    elif case == "stray":
        mat = X[rep.rs.simple(1).coeffs]
        i, j = next((i, j) for i in range(rep.dim) for j in range(rep.dim)
                    if i != j and not mat[i][j])
        mat[i][j] = Fraction(1)
    elif case == "negated":
        X[rep.rs.neg_order[-1].coeffs] = linalg_oracle.mat_scale(X[rep.rs.neg_order[-1].coeffs], -1)
    elif case == "empty":
        X[rep.rs.simple(1).coeffs] = linalg.zeros(rep.dim)
    elif case == "offdiagonal":
        H[0][0][1] = 1
    else:
        H[0][0][0] += 1
    return H, X


def _corruption_message(rep, case):
    # the check each corruption trips first; an empty X_alpha_1 has no cell
    # to fail [H_i, X] on and meets no other support, so the unchained pair
    # (alpha_2, alpha_1) trips, whose sum is a root although its bracket is 0
    a1, a2 = rep.rs.simple(1).coeffs, rep.rs.simple(2).coeffs
    return {
        "scaled": "|N| = ",
        "stray": "[H_1, X_%r] is off" % (a1,),
        "negated": "[X_a, X_-a] != H_a for %r" % ((-rep.rs.neg_order[-1]).coeffs,),
        "cartan": "[H_1, X_%r] is off" % (a1,),
        "empty": "[X_%r, X_%r] not proportional to X_sum" % (a2, a1),
        "offdiagonal": "H_1 is not diagonal",
    }[case]


@pytest.mark.parametrize("case", ["scaled", "stray", "negated", "cartan", "empty", "offdiagonal"])
@pytest.mark.parametrize("label", ["B3", "G2"])
def test_verify_axioms_rejects_corrupted_basis(label, case):
    rep = get_rep(*_system(label))
    sh, sx = chevalley_oracle.sparse_basis(*_corrupted_basis(rep, case))
    message = _corruption_message(rep, case)
    with pytest.raises(SpanFailure, match=re.escape(message)) as raised:
        chevalley._verify_axioms(rep.rs, sh, sx, chevalley._coroot_matrices(rep.rs, sh))
    # the sweep over Root values stops at the same check, with the same text
    with pytest.raises(SpanFailure) as oracle:
        chevalley_oracle.sparse_verify_axioms(rep.rs, sh, sx, chevalley_oracle.sparse_coroots(rep.rs, sh))
    assert str(oracle.value) == str(raised.value)


def test_check_bracket_refuses_a_fractional_structure_constant():
    # [X_a1, X_a2] = (3/2) X_sum on A2, where r + 1 = 1: the integer part of
    # the ratio would pass, so the ratio must divide out before its size counts
    rep = get_rep("A", 2)
    sh, sx = chevalley_oracle.sparse_basis(rep.H, rep.X)
    a, b = rep.rs.simple(1).coeffs, rep.rs.simple(2).coeffs
    total = tuple(x + y for x, y in zip(a, b))
    br = {i: {j: 3 * v for j, v in row.items()} for i, row in sx[total].items()}
    sx[total] = {i: {j: 2 * v for j, v in row.items()} for i, row in sx[total].items()}
    coroots = chevalley._coroot_matrices(rep.rs, sh)
    nconst = {}
    with pytest.raises(SpanFailure, match=re.escape("|N| = 3/2 != r+1 = 1 for")):
        chevalley._check_bracket(rep.rs, coroots, sx, a, b, br, nconst)
    assert nconst == {}


def test_echelon_accepts_exactly_the_rank_raising_rows():
    rng = random.Random(4)
    for _ in range(200):
        echelon, accepted = linalg.Echelon(), []
        for _ in range(rng.randint(1, 8)):
            row = [rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(5)]
            raises = linalg.rank(accepted + [row]) == len(accepted) + 1
            assert echelon.add(dict(enumerate(row))) == raises
            if raises:
                accepted.append(row)


def test_build_rep_inverts_one_cartan_block(monkeypatch):
    # the H_i weights at l diagonal rows, 5 x 5 on D5; a dense recipe over
    # every cell inverts the 45 x 45 block of the whole basis
    sizes, ranks = [], []
    inverse, rank = linalg.rational_inverse, linalg.rank
    monkeypatch.setattr(linalg, "rational_inverse", lambda m: sizes.append(len(m)) or inverse(m))
    monkeypatch.setattr(linalg, "rank", lambda m: ranks.append(1) or rank(m))
    chevalley.build_rep("D", 5)
    assert sizes == [5]
    # one rank per candidate position and root made this 181
    assert len(ranks) <= 10


def test_ad_weyl_sends_root_vectors_to_root_vectors():
    for t, r in [("A", 3), ("G2", 2)]:
        rep = get_rep(t, r)
        for i in range(1, rep.rank + 1):
            nw = chevalley.weyl_representative(rep, (i,))
            act = rootsys.weyl_action(rep.rs, (i,))
            for root in rep.rs.roots:
                ad = chevalley.weyl_adjoint(nw, rep.X[root.coeffs])
                image = rep.X[act(root).coeffs]
                plus = linalg.mat_eq(ad, image)
                minus = linalg.mat_eq(ad, linalg_oracle.mat_scale(image, -1))
                assert plus or minus


def test_ad_longest_solves_a0(rep_a2, rep_a3, rep_g2):
    # existence of nonzero rational c with Ad(n(wbar))(A_0^-(c)) = A_0^+
    for rep in (rep_a2, rep_a3, rep_g2):
        nw = chevalley.weyl_representative(rep, rootsys.longest_weyl_word(rep.rs))
        c = []
        for i in range(1, rep.rank + 1):
            ad = chevalley.weyl_adjoint(nw, rep.x_neg(i))
            dec = chevalley.decompose_in_basis(rep, ad)
            live = {k: v for k, v in dec.items() if v}
            assert len(live) == 1
            ((kind, key), lam) = next(iter(live.items()))
            assert kind == "X" and Root(key).is_simple()
            c.append(1 / lam)
        assert linalg.mat_eq(chevalley.weyl_adjoint(nw, rep.a0_minus(c)), rep.a0_plus())


def test_w_basis_full_rank():
    for t, r in [("A", 3), ("A", 4), ("G2", 2), ("B", 2)]:
        rep = get_rep(t, r)
        a0 = rep.a0_plus()
        w = [linalg_oracle.bracket(rep.x_neg(i), a0) for i in range(1, rep.m + 1)]
        vectors = [[x for row in mat for x in row] for mat in w]
        for idx in rep.rs.comp_roots:
            vectors.append([x for row in rep.x_neg(idx) for x in row])
        assert linalg.rank(vectors) == rep.rs.m + rep.rank


def test_decompose_basics(rep_a3):
    a = linalg.mat_add(rep_a3.H[0], linalg_oracle.mat_scale(rep_a3.X[(1, 0, 0)], Fraction(2)))
    dec = chevalley.decompose_in_basis(rep_a3, a)
    nonzero = {k: v for k, v in dec.items() if v}
    assert nonzero == {("H", 1): Fraction(1), ("X", (1, 0, 0)): Fraction(2)}


def test_decompose_rejects_identity(rep_a3):
    with pytest.raises(NotInLieAlgebra):
        chevalley.decompose_in_basis(rep_a3, linalg.eye(4))


def _outside_the_span(rep):
    """Three matrices just off the span of the basis: a perturbed support
    cell, a non-zero cell that no basis matrix reaches (with that cell),
    and the identity, a diagonal off the span of the H_i."""
    n = rep.dim
    mats = list(rep.H) + list(rep.X.values())
    reached = [[any(mat[r][c] for mat in mats) for c in range(n)] for r in range(n)]
    a = linalg_oracle.combination([(Fraction(k + 2, 3), mat) for k, mat in enumerate(mats)], n, Fraction(0))
    r, c = next((r, c) for r in range(n) for c in range(n) if reached[r][c] and r != c)
    perturbed = [list(row) for row in a]
    perturbed[r][c] += 1
    yield perturbed, None
    off = next(((r, c) for r in range(n) for c in range(n) if not reached[r][c]), None)
    if off:
        stray = linalg.zeros(n)
        stray[off[0]][off[1]] = Fraction(1)
        yield stray, off
    yield linalg.eye(n), None


@pytest.mark.parametrize("label", ["B3", "C3", "D4", "G2"])
def test_decompose_refuses_each_way_out_of_the_span(label):
    rep = get_rep(*_system(label))
    recipe = chevalley_oracle.solving_recipe(rep)
    inputs = list(_outside_the_span(rep))
    assert len(inputs) == (2 if label == "C3" else 3)  # C3 reaches every cell
    for a, cell in inputs:
        messages = []
        for decompose in (chevalley.decompose_in_basis,
                          lambda rep, a: chevalley_oracle.decompose_in_basis(rep, a, recipe)):
            with pytest.raises(NotInLieAlgebra) as info:
                decompose(rep, a)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        if cell:
            assert messages[0] == "entry (%d, %d) is outside the span" % cell


def test_decompose_refuses_a_matrix_of_another_size(rep_a2):
    # a 4 x 4 matrix was read through its top-left 3 x 3 block, and a 2 x 2
    # one raised a bare IndexError
    plane = [row + [Fraction(0)] for row in rep_a2.a0_plus()] + [[Fraction(5)] * 4]
    for a in (plane, [row[:2] for row in rep_a2.a0_plus()[:2]], rep_a2.a0_plus()[:2]):
        with pytest.raises(DimMismatch):
            chevalley.decompose_in_basis(rep_a2, a)
    assert chevalley.decompose_in_basis(rep_a2, rep_a2.a0_plus())[("X", (1, 0))] == 1


def test_sign_table_flips_three_g2_roots():
    assert chevalley._SIGNS["G2"][(3, 2)] == -1
    # every key is the coefficient vector of a positive, non-simple root
    for label, table in chevalley._SIGNS.items():
        rs = get_rep(*_system(label)).rs
        assert all(rs.contains(Root(k)) and sum(k) > 1 for k in table)
    # the table lists sign flips only; every other root keeps +1
    assert all(v == -1 for table in chevalley._SIGNS.values() for v in table.values())


def test_a0_refuses_coefficients_of_another_length(rep_a2):
    # a third coefficient used to be dropped, and a missing one raised a
    # bare IndexError
    for s in ([1, 2, 3], [1]):
        with pytest.raises(DimMismatch):
            rep_a2.a0_plus(s)
        with pytest.raises(DimMismatch):
            rep_a2.a0_minus(s)
    assert linalg.mat_eq(rep_a2.a0_plus([1, 2]), [[0, 1, 0], [0, 0, 2], [0, 0, 0]])


@pytest.mark.parametrize("system", ALL_SYSTEMS)
def test_integer_coroot_coefficients_equal_the_bilinear_form(system):
    rs = rootsys.build_root_system(*system)
    for root in rs.roots:
        want = chevalley_oracle.coroot_coefficients(rs, root)
        assert chevalley._coroot_coefficients(rs, root) == want


def _height_counts(rs):
    """The complementary roots by |height|, and by k the number of positive
    roots of height k less the number of height k + 1 where that is not 0."""
    comp = Counter(-rs.neg_order[j - 1].height() for j in rs.comp_roots)
    pos = Counter(r.height() for r in rs.roots if r.height() > 0)
    return comp, {k: pos[k] - pos[k + 1] for k in pos if pos[k] != pos[k + 1]}


def _exponents(type_label, rank):
    """The exponents of the Weyl group, ascending."""
    if type_label == "A":
        return list(range(1, rank + 1))
    if type_label in "BC":
        return list(range(1, 2 * rank, 2))
    if type_label == "D":
        return sorted(list(range(1, 2 * rank - 2, 2)) + [rank - 1])
    return [1, 5]


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=_label)
def test_complementary_heights_are_the_exponents(system):
    # Kostant (Amer. J. Math. 81, 1959): the exponent k occurs as often as
    # the number of positive roots of height k exceeds that of height k + 1
    rs = get_rep(*system).rs
    comp, want = _height_counts(rs)
    assert comp == want
    assert sorted(comp.elements()) == _exponents(*system)


@pytest.mark.parametrize("system", [_system(label) for label in GRID], ids=_label)
def test_invariant_orders_are_the_exponents(system):
    res = get_pipeline(*system)
    neg_order = res.rep.rs.neg_order
    h = res.invariants.h
    assert {j: p.order() for j, p in h.items()} == {j: -neg_order[j - 1].height() for j in h}
    assert sorted(p.order() for p in h.values()) == _exponents(*system)


def test_exponent_checks_fail_on_wrong_heights():
    # B3's complementary roots have heights 1, 3, 5; moving the one of
    # height 5 to height 4 breaks both the count and the exponent list
    rs = get_rep("B", 3).rs
    top = next(j for j in rs.comp_roots if rs.neg_order[j - 1].height() == -5)
    other = next(i for i, b in enumerate(rs.neg_order, 1) if b.height() == -4)
    moved = dataclasses.replace(rs, comp_roots=tuple(sorted(set(rs.comp_roots) - {top} | {other})))
    comp, want = _height_counts(moved)
    assert comp != want and sorted(comp.elements()) != _exponents("B", 3)
    assert _height_counts(rs)[0] == want


@pytest.mark.parametrize("label", GRID)
def test_structure_constants_are_antisymmetric(label):
    nconst = get_rep(*_system(label)).nconst
    assert nconst or label == "A1"
    for (a, b), n in nconst.items():
        assert type(n) is int
        assert nconst[(b, a)] == -n


def test_axiom_sweep_brackets_each_unordered_pair_once(monkeypatch):
    rep = get_rep("D", 5)
    sh, sx = chevalley_oracle.sparse_basis(rep.H, rep.X)
    brackets, products = [], []
    sp_bracket, sp_mul = chevalley._sp_bracket, chevalley._sp_mul
    coroots = chevalley._coroot_matrices(rep.rs, sh)
    monkeypatch.setattr(chevalley, "_sp_bracket", lambda a, b: brackets.append(1) or sp_bracket(a, b))
    monkeypatch.setattr(chevalley, "_sp_mul", lambda a, b: products.append(1) or sp_mul(a, b))
    chevalley._verify_axioms(rep.rs, sh, sx, coroots)
    l, roots, n = rep.rank, rep.rs.roots, rep.dim
    # the columns and the rows that hold a non-zero entry of each X_a
    cols = {a: {c for r in range(n) for c in range(n) if rep.X[a.coeffs][r][c]} for a in roots}
    rows = {a: {r for r in range(n) if any(rep.X[a.coeffs][r])} for a in roots}
    chained = sum(
        1 for k, a in enumerate(roots) for b in roots[k:] if cols[a] & rows[b] or cols[b] & rows[a]
    )
    # one fused bracket each: [H_i, H_j], then one per unordered pair of
    # roots, a with itself included, where X_a X_b or X_b X_a can be
    # non-zero; [H_i, X_a] is checked on the cells of X_a, with no product
    assert len(brackets) == l * l + chained and products == []
    # a third of the sweep that brackets every unordered pair
    assert 3 * len(brackets) <= l * l + l * len(roots) + len(roots) * (len(roots) + 1) // 2


@pytest.mark.parametrize("label", ["B3", "G2", "D5"])
def test_axiom_sweep_builds_no_root(label, monkeypatch):
    # the sweep reads roots as coefficient vectors and integer codes
    rep = get_rep(*_system(label))
    sh, sx = chevalley_oracle.sparse_basis(rep.H, rep.X)
    coroots = chevalley._coroot_matrices(rep.rs, sh)
    built = []
    post_init = Root.__post_init__
    monkeypatch.setattr(Root, "__post_init__", lambda root: built.append(root) or post_init(root))
    assert chevalley._verify_axioms(rep.rs, sh, sx, coroots) == rep.nconst
    assert built == []


def test_fused_bracket_is_the_difference_of_the_products():
    rng = random.Random(7)
    for _ in range(200):
        a, b = ({r: {c: rng.choice([-2, -1, 1, 3]) for c in rng.sample(range(5), 2)}
                 for r in rng.sample(range(5), 3)} for _ in range(2))
        want = chevalley._sp_add(chevalley._sp_mul(a, b), chevalley._sp_mul(b, a), -1)
        assert chevalley._sp_bracket(a, b) == want


def test_weyl_representative_builds_each_simple_representative_once(monkeypatch):
    # each distinct n(w_i) is read once, as columns of ints through the
    # exp_cells, with no matrix product and no Fraction
    rep = get_rep("B", 3)
    word = rootsys.longest_weyl_word(rep.rs)
    want = chevalley.weyl_representative(rep, word)
    built, columns = [], []
    simple, signed = chevalley._simple_columns, chevalley._signed_columns
    monkeypatch.setattr(chevalley, "_simple_columns", lambda rep, i: built.append(i) or simple(rep, i))
    monkeypatch.setattr(chevalley, "_signed_columns", lambda cols: columns.append(cols) or signed(cols))
    monkeypatch.setattr(linalg, "mat_mul", None)
    assert chevalley.weyl_representative(rep, word) == want
    assert len(word) == 9 and sorted(built) == [1, 2, 3]
    assert len(columns) == 3 and all(len(cols) == rep.dim for cols in columns)
    assert all(type(x) is int for cols in columns for col in cols for x in col.values())


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=_label)
def test_weyl_representative_is_the_dense_product(system):
    # the columns composed by relabelling are the dense product of the
    # simple representatives, for the longest word and each simple index
    rep = get_rep(*system)
    for word in [rootsys.longest_weyl_word(rep.rs)] + [(i,) for i in range(1, rep.rank + 1)]:
        nw = chevalley.weyl_representative(rep, word)
        assert all(type(s) is int for _, s in nw)
        assert linalg_oracle.signed_permutation(nw) == chevalley_oracle.weyl_representative(rep, word)


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=_label)
def test_weyl_adjoint_is_the_dense_conjugation(system):
    # Ad(n(wbar))(M) by relabelling equals N M N^T multiplied out, on every
    # H_i and X_beta
    rep = get_rep(*system)
    nw = chevalley.weyl_representative(rep, rootsys.longest_weyl_word(rep.rs))
    dense = linalg_oracle.signed_permutation(nw)
    transpose = [list(col) for col in zip(*dense)]
    for mat in list(rep.H) + list(rep.X.values()):
        assert chevalley.weyl_adjoint(nw, mat) == linalg_oracle.product([dense, mat, transpose])


@pytest.mark.parametrize("entries", [
    [[0, 1], [1, 1]],  # two non-zero entries in a row
    [[0, 2], [Fraction(1, 2), 0]],  # one per row and column, not +-1
    [[1, 0], [1, 0]],  # a column with two, a column with none
    [[0, 0], [0, 1]],  # a zero row
])
def test_a_non_signed_permutation_is_refused(entries):
    columns = [{r: x for r, x in enumerate(col) if x} for col in zip(*entries)]
    with pytest.raises(StructureViolation, match="signed permutation"):
        chevalley._signed_columns(columns)


class _CountedPowers:
    """A scalar stand-in that records the exponents it is raised to."""

    def __init__(self):
        self.exponents = []

    def __pow__(self, k):
        self.exponents.append(k)
        return Fraction(2) ** k

    @staticmethod
    def zero():
        return Fraction(0)


def test_torus_element_raises_each_distinct_power_once():
    rep = get_rep("B", 3)
    for i in range(1, rep.rank + 1):
        z = _CountedPowers()
        t = factor_oracle.torus_letter(rep, i, z)
        diagonal = [int(rep.H[i - 1][j][j]) for j in range(rep.dim)]
        assert sorted(z.exponents) == sorted(set(diagonal))
        assert [t[j][j] for j in range(rep.dim)] == [Fraction(2) ** k for k in diagonal]


# ----- corrupted inputs of build_rep, each with the check it trips first -----
#
# One entry of a simple generator E_i, written into _simple_generators'
# output, or one sign of _SIGNS.  The bracket recursion only builds, and
# refuses a root vector only when its bracket does not divide by r + 1;
# every other corruption is refused by the sweep of _verify_axioms.  On B3
# and G2 each single corrupted entry and each non-unit sign raises
# SpanFailure (test_build_rep_refuses_every_corrupted_entry_and_sign).
# The cases below name the check each one trips first:
#
# - an entry that puts H_i = [E_i, F_i] off the diagonal: "H_1 is not
#   diagonal", B3's (0, 0, 0, 1) among them, a diagonal entry of E_1;
# - an entry that breaks a weight: "[H_1, X_alpha_1] is off";
# - an entry whose bracket does not divide: "root vector ... is not
#   integral", G2's (0, 0, 0, 1) among them, at (2, 1);
# - sign 0, a zero X_gamma: "[X_a, X_b] not proportional to X_sum" for the
#   pair that builds gamma;
# - sign 2, twice X_gamma: "|N| = -1/2 != r+1 = 1" for that pair.

GENERATOR_CORRUPTIONS = {
    "B3": (
        ((0, 5, 0, 1), "H_1 is not diagonal"),
        ((0, 1, 0, 1), "[H_1, X_(1, 0, 0)] is off"),
        ((0, 0, 0, 1), "H_1 is not diagonal"),
        ((2, 2, 2, 1), "root vector for (0, 1, 2) is not integral"),
    ),
    "G2": (
        ((0, 3, 1, 2), "H_1 is not diagonal"),
        ((0, 2, 3, 3), "[H_1, X_(1, 0)] is off"),
        ((0, 0, 0, 1), "root vector for (2, 1) is not integral"),
        ((0, 2, 1, 1), "root vector for (2, 1) is not integral"),
    ),
}


def _with_corrupted_entry(entry, monkeypatch):
    """_simple_generators with the entry (r, c) of E_i set to v, for
    entry = (i, r, c, v); F_i is formed before, from the true E_i."""
    i, r, c, v = entry
    generators = chevalley._simple_generators

    def corrupted(rs):
        n, E, F = generators(rs)
        E[i].setdefault(r, {})[c] = v
        return n, E, F

    monkeypatch.setattr(chevalley, "_simple_generators", corrupted)


@pytest.mark.parametrize("label, entry, message", [
    (label, entry, message)
    for label, cases in GENERATOR_CORRUPTIONS.items() for entry, message in cases
])
def test_build_rep_refuses_a_corrupted_generator_entry(label, entry, message, monkeypatch):
    _with_corrupted_entry(entry, monkeypatch)
    with pytest.raises(SpanFailure, match="^%s$" % re.escape(message)):
        chevalley.build_rep(*_system(label))


@pytest.mark.parametrize("label, root, pair", [
    ("B3", (0, 1, 1), ((0, 0, 1), (0, 1, 0))),
    ("G2", (1, 1), ((0, 1), (1, 0))),
], ids=["B3", "G2"])
@pytest.mark.parametrize("sign, message", [
    (0, "[X_%r, X_%r] not proportional to X_sum"),
    (2, "|N| = -1/2 != r+1 = 1 for %r, %r"),
], ids=["sign0", "sign2"])
def test_build_rep_refuses_a_corrupted_calibration_sign(label, root, pair, sign, message, monkeypatch):
    monkeypatch.setitem(chevalley._SIGNS, label, {**chevalley._SIGNS.get(label, {}), root: sign})
    with pytest.raises(SpanFailure, match="^%s$" % re.escape(message % pair)):
        chevalley.build_rep(*_system(label))


@pytest.mark.parametrize("label", ["B3", "G2"])
def test_build_rep_refuses_every_corrupted_entry_and_sign(label, monkeypatch):
    # every single entry of every E_i changed to another value in -3..3,
    # and every non-simple positive root's sign set to each of -3, -2, 0, 2
    # and 3: each build raises SpanFailure.  Sign -1 gives another valid
    # basis, which builds.
    type_label, rank = _system(label)
    rs = get_rep(type_label, rank).rs
    n, E, _ = chevalley._simple_generators(rs)
    refused = 0
    for i, e in enumerate(E):
        for r in range(n):
            for c in range(n):
                for v in range(-3, 4):
                    if v != e.get(r, {}).get(c, 0):
                        with monkeypatch.context() as patch:
                            _with_corrupted_entry((i, r, c, v), patch)
                            with pytest.raises(SpanFailure):
                                chevalley.build_rep(type_label, rank)
                        refused += 1
    assert refused == len(E) * n * n * 6
    signs = chevalley._SIGNS.get(label, {})
    for root in rs.roots:
        if root.height() > 1:
            for sign in (-3, -2, 0, 2, 3):
                monkeypatch.setitem(chevalley._SIGNS, label, {**signs, root.coeffs: sign})
                with pytest.raises(SpanFailure):
                    chevalley.build_rep(type_label, rank)
            monkeypatch.setitem(chevalley._SIGNS, label, {**signs, root.coeffs: -1})
            assert chevalley.build_rep(type_label, rank).rs.label == label


@pytest.mark.parametrize("label", ["B3", "G2"])
def test_descent_is_refused_for_a_simple_root(label):
    # every positive root the recursion meets is simple or has a descent;
    # a simple root has none
    rs = get_rep(*_system(label)).rs
    for i in range(1, rs.rank + 1):
        alpha = rs.simple(i).coeffs
        with pytest.raises(SpanFailure, match="^no descent for %s$" % re.escape(repr(alpha))):
            chevalley._decomposition_step(rs, alpha)


def test_divided_powers_refuse_a_non_nilpotent_matrix():
    # X = (2) on a line: X^k/k! = 2^k/k! stays integral through k = 2 > n
    with pytest.raises(SpanFailure, match="^root vector is not nilpotent$"):
        chevalley._divided_power_cells({0: {0: 2}}, 1)


def test_sweep_refuses_a_bracket_that_should_vanish():
    # G2: one cell of X_(2, 1) negated keeps its weights, and the first
    # pair whose bracket it breaks is (alpha_2, (2, 1)), whose sum (2, 2) is
    # no root
    rep = get_rep("G2", 2)
    X = {coeffs: [list(row) for row in mat] for coeffs, mat in rep.X.items()}
    X[(2, 1)][5][3] *= -1
    sh, sx = chevalley_oracle.sparse_basis(rep.H, X)
    with pytest.raises(SpanFailure, match=re.escape("[X_(0, 1), X_(2, 1)] should vanish")):
        chevalley._verify_axioms(rep.rs, sh, sx, chevalley._coroot_matrices(rep.rs, sh))
    # B3: a non-zero bracket for (alpha_1, alpha_1), 2 alpha_1 being no root
    rep = get_rep("B", 3)
    sh, sx = chevalley_oracle.sparse_basis(rep.H, rep.X)
    a = rep.rs.simple(1).coeffs
    with pytest.raises(SpanFailure, match=re.escape("[X_%r, X_%r] should vanish" % (a, a))):
        chevalley._check_bracket(rep.rs, chevalley._coroot_matrices(rep.rs, sh), sx, a, a, {0: {0: 1}}, {})


@pytest.mark.parametrize("label", ["B3", "G2"])
def test_weyl_representative_refuses_a_corrupted_exponential_cell(label):
    # a fresh rep, as its exp_cells are corrupted in place
    rep = chevalley.build_rep(*_system(label))
    alpha = rep.rs.simple(1).coeffs
    r, c, k, p = rep.exp_cells[alpha][0]
    rep.exp_cells[alpha] = ((r, c, k, 2 * p),) + rep.exp_cells[alpha][1:]
    with pytest.raises(StructureViolation, match=r"^n\(w\) is not a signed permutation matrix$"):
        chevalley.weyl_representative(rep, (1,))
    assert chevalley.weyl_representative(rep, (2,)) == chevalley.weyl_representative(get_rep(*_system(label)), (2,))


def test_a0_refuses_a_zero_coefficient(rep_a2):
    with pytest.raises(ValueError, match="^principal nilpotent coefficients must be nonzero$"):
        rep_a2.a0_plus([1, 0])


def _cells_of(triples):
    out = {}
    for r, c, v in triples:
        out.setdefault(r, {})[c] = v
    return out


def _written_out_generators(rs):
    """(dim, E, F) as pvext.chevalley wrote each type's simple generators
    out on its own, before B, C and D shared one rule."""
    l, t = rs.rank, rs.type_label
    if t == "A":
        return (l + 1, [_cells_of([(i, i + 1, 1)]) for i in range(l)],
                [_cells_of([(i + 1, i, 1)]) for i in range(l)])
    if t == "C":
        E = [_cells_of([(i, i + 1, 1), (2 * l - 2 - i, 2 * l - 1 - i, -1)]) for i in range(l - 1)]
        F = [_cells_of([(i + 1, i, 1), (2 * l - 1 - i, 2 * l - 2 - i, -1)]) for i in range(l - 1)]
        return 2 * l, E + [_cells_of([(l - 1, l, 1)])], F + [_cells_of([(l, l - 1, 1)])]
    if t == "B":
        E = [_cells_of([(i, i + 1, 1), (2 * l - 1 - i, 2 * l - i, -1)]) for i in range(l - 1)]
        F = [_cells_of([(i + 1, i, 1), (2 * l - i, 2 * l - 1 - i, -1)]) for i in range(l - 1)]
        return (2 * l + 1, E + [_cells_of([(l - 1, l, 1), (l, l + 1, 2)])],
                F + [_cells_of([(l, l - 1, 2), (l + 1, l, 1)])])
    if t == "D":
        E = [_cells_of([(i, i + 1, 1), (2 * l - 2 - i, 2 * l - 1 - i, -1)]) for i in range(l - 1)]
        F = [_cells_of([(i + 1, i, 1), (2 * l - 1 - i, 2 * l - 2 - i, -1)]) for i in range(l - 1)]
        return (2 * l, E + [_cells_of([(l - 2, l, 1), (l - 1, l + 1, -1)])],
                F + [_cells_of([(l, l - 2, 1), (l + 1, l - 1, -1)])])
    e1 = _cells_of([(0, 2, 1), (5, 0, -2), (3, 4, 1), (1, 6, -1)])
    f1 = _cells_of([(2, 0, 2), (0, 5, -1), (4, 3, 1), (6, 1, -1)])
    e2 = _cells_of([(2, 3, -1), (6, 5, 1)])
    f2 = _cells_of([(3, 2, -1), (5, 6, 1)])
    return 7, [e1, e2], [f1, f2]


@pytest.mark.parametrize("system", ALL_SYSTEMS, ids=lambda s: "%s%d" % s if s[0] != "G2" else "G2")
def test_generators_are_the_written_out_tables(system):
    # chevalley_oracle.build_rep calls _simple_generators itself, so only
    # these tables catch a change of the generators
    rs = rootsys.build_root_system(*system)
    assert chevalley._simple_generators(rs) == _written_out_generators(rs)


def test_generators_refuse_an_unsupported_type():
    rs = dataclasses.replace(rootsys.build_root_system("A", 2), type_label="E")
    with pytest.raises(UnsupportedRep, match="^no representation for type E$"):
        chevalley._simple_generators(rs)


def test_cartan_solve_refuses_dependent_weights():
    # H_2 = 2 H_1 leaves one independent weight row
    with pytest.raises(SpanFailure, match="^Chevalley basis is not linearly independent$"):
        chevalley._cartan_solve([{0: {0: 1}, 1: {1: -1}}, {0: {0: 2}, 1: {1: -2}}], 2)


@pytest.mark.parametrize("label", ["B3", "G2"])
def test_complementary_roots_refuse_corrupted_vectors(label):
    rep = get_rep(*_system(label))
    rs0 = rootsys.build_root_system(*_system(label))
    _, sx = chevalley_oracle.sparse_basis(rep.H, rep.X)
    a0 = rep.a0_plus()
    W = {b.coeffs: chevalley_oracle.sparse(linalg_oracle.bracket(rep.X[b.coeffs], a0), "W")
         for b in rs0.neg_order}
    # the root vectors of height -1 made zero, with the W intact
    zeroed = {**sx, **{rs0.neg_order[k - 1].coeffs: {} for k in rs0.band(-1)}}
    with pytest.raises(SpanFailure, match="^cannot complete level -1$"):
        chevalley._complementary_root_values(rs0, zeroed, W)
    # the W of a root of height -2 made zero
    W[rs0.neg_order[rs0.band(-2)[0] - 1].coeffs] = {}
    with pytest.raises(SpanFailure, match="^W vectors at height -1 are dependent$"):
        chevalley._complementary_root_values(rs0, sx, W)
    with pytest.raises(SpanFailure, match=r"^W basis of b\^- has deficient rank$"):
        chevalley._verify_w_basis(rep, W, sx)


def test_coroot_coefficients_refuse_the_lengths_of_another_type():
    # B3's roots with C3's root lengths: (0, 1, 2) gets a coefficient 1/2
    rs = dataclasses.replace(rootsys.build_root_system("B", 3), type_label="C")
    message = "non-integral coroot coefficient for Root(coeffs=(0, 1, 2))"
    with pytest.raises(SpanFailure, match="^%s$" % re.escape(message)):
        chevalley._coroot_coefficients(rs, Root((0, 1, 2)))


def test_coroot_coefficients_refuse_a_root_norm_of_zero():
    # G2's roots with A2's root lengths: (1, 1) pairs to 1 - 1 = 0 with
    # itself, which no root of a positive definite form does
    rs = dataclasses.replace(rootsys.build_root_system("G2", 2), type_label="A")
    message = "root norm 0 of Root(coeffs=(1, 1)) is not positive"
    with pytest.raises(SpanFailure, match="^%s$" % re.escape(message)):
        chevalley._coroot_coefficients(rs, Root((1, 1)))
