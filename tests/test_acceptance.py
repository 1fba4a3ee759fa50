"""Acceptance suite: one test per criterion, zero tolerance throughout.

Each criterion prints an explicit pass line (run with -s to see them all);
expected values quoted from the worked examples are entered by hand here,
independent of the code paths that produce them.
"""

import random
import time
from fractions import Fraction

from pvext import bruhat, chevalley, construct, gauge, linalg, symgroup
from pvext.diffpoly import DiffPoly, parse
from pvext.liouville_expr import LiouvExpr

import chevalley_oracle
import linalg_oracle
from conftest import constant_factor, get_pipeline, get_rep


def announce(number, text):
    print("criterion %d: PASS - %s" % (number, text))


# --------------------------------------------------------------- criterion 1

def test_criterion_1_sl4_stage1():
    start = time.perf_counter()
    result = construct.run_pipeline("A", 3)
    elapsed = time.perf_counter() - start
    v = result.stage1.v
    assert v[4] == parse("0 - n2' n1")
    assert v[5] == parse("0 - n3' n2")
    assert v[6] == parse("n3 n4' - n5' n1 + n3' n2 n1")
    assert elapsed < 5.0, "stage-1 derivation took %.2fs" % elapsed
    announce(1, "stage-1 coefficients exact, %.2fs < 5s" % elapsed)


# --------------------------------------------------------------- criterion 2

def test_criterion_2_sl4_stage2(sl4_result):
    g = sl4_result.stage2.g
    assert [x.text() for x in g] == ["-η1", "-η2", "-η3"]
    ell = sl4_result.stage2.ell
    for i, want in enumerate(
        ["0-n4", "n4 - n5", "n5", "0-n6", "n6", "0"], start=0
    ):
        assert ell[i] == parse(want)
    p = sl4_result.stage2.p
    wants = [
        "0 - n1^2 + n2 n1",
        "0 - n2^2 + n3 n2",
        "0 - n3^2",
        "0 - n2 n4 + n1 (n2^2 - n4 - n3 n2 + n5)",
        "0 - n5 n2 + n3 (n4 - n5 + n2 n3)",
        "0 - n1 n3 n4 - n1 n6 - n5 n4 + n5 n2 n1 - n3^2 n2 n1 + n3 n5 n1 - n3 n6",
    ]
    for i, want in enumerate(wants):
        assert p[i] == parse(want)
    assert len(p[5].terms) == 7
    announce(2, "stage-2 g, all six l_i and p_i exact (p_6 has seven terms)")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_sl4_liouville(sl4_result):
    rep = sl4_result.rep
    data = sl4_result.liouville
    want = [[DiffPoly.rational(-x) for x in row] for row in rep.a0_minus()]
    for i, gb in enumerate([parse("0-n3"), parse("0-n2"), parse("0-n1")]):
        want = linalg.mat_add(want, [[gb * x for x in row] for row in rep.H[i]])
    assert linalg.mat_eq([list(r) for r in data.A_L], want)
    assert linalg.mat_eq(
        linalg_oracle.signed_permutation(data.nw),
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
    )
    g1 = LiouvExpr.scalar(parse("-2 n3 + n2"))
    g2 = LiouvExpr.scalar(parse("-2 n2 + n1 + n3"))
    g3 = LiouvExpr.scalar(parse("-2 n1 + n2"))
    a1, a2, a3 = (LiouvExpr.integral(LiouvExpr.exp_integral(g)) for g in (g1, g2, g3))
    assert list(data.z) == [
        LiouvExpr.exp_integral(LiouvExpr.scalar(parse("0 - n3"))),
        LiouvExpr.exp_integral(LiouvExpr.scalar(parse("0 - n2"))),
        LiouvExpr.exp_integral(LiouvExpr.scalar(parse("0 - n1"))),
    ]
    assert list(data.y) == [
        -a1,
        -a2,
        -a3,
        LiouvExpr.integral(a1 * LiouvExpr.exp_integral(g2)),
        LiouvExpr.integral(a2 * LiouvExpr.exp_integral(g3)),
        LiouvExpr.integral(a3 * a1 * LiouvExpr.exp_integral(g2)),
    ]
    announce(3, "A_L, z_1..z_3 and y_1..y_6 match the printed expressions")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_sl4_elimination(sl4_result):
    f = sl4_result.invariants.f
    assert f[4] == parse("n1' + n1^2")
    assert f[5] == parse("n2' + n1' + n1^2 + n2(n2 - n1)")
    assert f[6] == parse("n1'' + 3 n1 n1' + n1^3 - n3 n1' - n3 n1^2")
    announce(4, "f_4, f_5, f_6 exact")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_sl4_invariants(sl4_result):
    inv = sl4_result.invariants
    assert inv.lhat[3] == parse("n3' + n2' + n1'")
    assert inv.lhat[5] == parse("n2'' + 2 n1''")
    assert inv.lhat[6] == parse("n1'''")
    sigma = {i: DiffPoly.eta(i) for i in (1, 2, 3)}
    sigma.update(inv.f)
    q = {
        i: (sl4_result.h_raw[i - 1] - DiffPoly.eta(i, 1) - sl4_result.stage2.ell[i - 1]).substitute(sigma)
        for i in (3, 5, 6)
    }
    assert inv.phat[3] == inv.pbar[5] + q[3]
    assert inv.phat[5] == inv.pbar[5].derive() + inv.pbar[6] + q[5]
    assert inv.phat[6] == inv.pbar[6].derive() + q[6]
    announce(5, "linear parts exact; nonlinear combination identities equal both ways")


# --------------------------------------------------------------- criterion 6

def _g2_printed_h6():
    """The printed expansion of the second invariant, entered verbatim;
    written in terms of the first invariant h1 and eta_1, eta_2."""
    h1 = parse("n2' + 3 n1' + 3 n1^2 + n2^2 - 3 n1 n2")
    h1p, h1pp, h1ppp = h1.derive(), h1.derive(2), h1.derive(3)
    n1, n2 = parse("n1"), parse("n2")
    n1p, n1pp, n1ppp = parse("n1'"), parse("n1''"), parse("n1'''")
    n14, n15, n2p = parse("n1[4]"), parse("n1[5]"), parse("n2'")
    expr = (
        (2 * n1ppp + 4 * n1 * n1pp + 6 * n1p ** 2 + (4 * n1 ** 2 - 2 * h1) * n1p
         - 2 * n1 * h1p + 2 * n1 ** 4 + 2 * h1 * n1 ** 2) * n2p
        - 2 * n15 - 10 * n1 * n14
        + (-26 * n1p + 2 * n2 ** 2 - 6 * n1 * n2 - 16 * n1 ** 2 + 2 * h1) * n1ppp
        - 19 * n1pp ** 2
        + (6 * h1p - 90 * n1 * n1p + 4 * n1 * n2 ** 2 - 12 * n1 ** 2 * n2
           - 14 * n1 ** 3 + 8 * h1 * n1) * n1pp
        - 18 * n1p ** 3
        + (6 * n2 ** 2 - 18 * n1 * n2 - 39 * n1 ** 2 + 2 * h1) * n1p ** 2
        + (6 * h1pp + 10 * n1 * h1p + 12 * n1 ** 2 * h1
           + (4 * n1 ** 2 - 2 * h1) * n2 ** 2 + (6 * h1 * n1 - 12 * n1 ** 3) * n2) * n1p
        + 2 * n1 * h1ppp + 4 * n1 ** 2 * h1pp
        + (-2 * n1 * n2 ** 2 + 6 * n1 ** 2 * n2 - 2 * n1 ** 3) * h1p
        + (2 * n1 ** 4 + 2 * h1 * n1 ** 2) * n2 ** 2
        + (-6 * n1 ** 5 - 6 * h1 * n1 ** 3) * n2
        + 5 * n1 ** 6 + 6 * h1 * n1 ** 4 - 3 * h1 ** 2 * n1 ** 2
    )
    return expr * Fraction(-1, 4)


def test_criterion_6_g2_invariants(g2_result):
    inv = g2_result.invariants
    assert inv.h[2] == parse("n2' + 3(n1' + n1^2) + n2^2 - 3 n1 n2")
    # the shipped sign calibration reproduces the printed h_6 term for term
    assert inv.h[6] == _g2_printed_h6()
    announce(6, "G2 h_1 exact; h_6 matches the printed expansion term for term")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_end_to_end():
    budgets = {("A", 1): 60.0, ("A", 2): 60.0, ("A", 3): 60.0, ("G2", 2): 120.0}
    times = {}
    for (t, r), budget in budgets.items():
        result = get_pipeline(t, r)
        start = time.perf_counter()
        report = construct.verify_end_to_end(result.rep, result.liouville, result.invariants)
        elapsed = time.perf_counter() - start
        assert report["status"] == "ok"
        assert elapsed < budget, "%s_%d end-to-end took %.1fs" % (t, r, elapsed)
        times[(t, r)] = elapsed
    announce(
        7,
        "d(Y) - A_G(h) Y = 0 entrywise for A1, A2, A3 (%.2fs) and G2 (%.2fs)"
        % (times[("A", 3)], times[("G2", 2)]),
    )


# --------------------------------------------------------------- criterion 8

def test_criterion_8a_chevalley_axioms():
    for t, r in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("G2", 2)]:
        rep = get_rep(t, r)
        # rebuild-independent check: rerun the exhaustive verifier
        sh, sx = chevalley_oracle.sparse_basis(rep.H, rep.X)
        chevalley._verify_axioms(rep.rs, sh, sx, chevalley._coroot_matrices(rep.rs, sh))
    announce(8, "(a) Chevalley axioms exhaustively for A_1..A_4 and G2")


def _random_poly(rng, nvars=3, max_order=2, nterms=4):
    p = DiffPoly.zero()
    for _ in range(rng.randint(1, nterms)):
        mono = DiffPoly.rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            mono = mono * DiffPoly.eta(rng.randint(1, nvars), rng.randint(0, max_order))
        p = p + mono
    return p


def test_criterion_8b_leibniz_and_prolongation():
    rng = random.Random(801)
    for _ in range(1000):
        p = _random_poly(rng)
        q = _random_poly(rng)
        assert (p * q).derive() == p.derive() * q + p * q.derive()
        sigma = {i: _random_poly(rng, nvars=2, max_order=1, nterms=2) for i in (1, 2, 3)}
        assert p.derive().substitute(sigma) == p.substitute(sigma).derive()
    announce(8, "(b) Leibniz and substitution-prolongation on 1000 randomized polynomials")


def _random_factor(rep, rng):
    kind = rng.choice(["unipotent", "torus", "weyl"])
    if kind == "unipotent":
        root = rng.choice(rep.rs.neg_order + tuple(-b for b in rep.rs.neg_order))
        arg = DiffPoly.eta(rng.randint(1, rep.m), rng.randint(0, 1)) * rng.randint(1, 3)
        return symgroup.unipotent_matrix(rep, root, arg)
    if kind == "torus":
        z = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
        return symgroup.torus_matrix(rep, rng.randint(1, rep.rank), z)
    word = tuple(rng.randint(1, rep.rank) for _ in range(rng.randint(1, 3)))
    return constant_factor(chevalley_oracle.weyl_representative(rep, word))


def _dp_lift(m):
    return [
        [x if isinstance(x, DiffPoly) else DiffPoly.rational(x) for x in row]
        for row in m
    ]


def test_criterion_8c_product_rule():
    rng = random.Random(802)
    count = 0
    for t, r in [("A", 2), ("A", 3)]:
        rep = get_rep(t, r)
        for _ in range(100):
            a = _random_factor(rep, rng)
            b = _random_factor(rep, rng)
            ab = linalg.mat_mul(a.rows, b.rows)
            dab = [[x.derive() if isinstance(x, DiffPoly) else Fraction(0) for x in row] for row in ab]
            lhs = linalg.mat_mul(dab, linalg.mat_mul(b.inv, a.inv))
            rhs = linalg.mat_add(
                symgroup.log_derivative(a), symgroup.adjoint(a, symgroup.log_derivative(b))
            )
            assert linalg.mat_eq(_dp_lift(lhs), _dp_lift(rhs))
            count += 1
    assert count == 200
    announce(8, "(c) logarithmic-derivative product rule on 200 structured products")


def test_criterion_8d_logderiv_decomposable():
    rng = random.Random(803)
    for t, r in [("A", 2), ("A", 3), ("G2", 2)]:
        rep = get_rep(t, r)
        for _ in range(15):
            factors = [_random_factor(rep, rng) for _ in range(rng.randint(1, 4))]
            ld = symgroup.log_derivative(factors)
            chevalley.decompose_in_basis(rep, _dp_lift(ld))
    announce(8, "(d) every generated group element has decomposable log derivative")


def test_criterion_8e_full_rank_claims():
    for t, r in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("G2", 2)]:
        result = get_pipeline(t, r)
        rep = result.rep
        heights = rep.rs.heights_of_order()
        comp = set(rep.rs.comp_roots)
        # Lemma on the adjoint coefficients: per-height square full rank
        for q in sorted(set(heights), reverse=True):
            eqs = [i + 1 for i, h in enumerate(heights) if h == q and (i + 1) not in comp]
            unknowns = [i + 1 for i, h in enumerate(heights) if h == q - 1]
            assert len(eqs) == len(unknowns)
            if eqs:
                mat = [
                    [result.stage2.ell[i - 1].coefficient_of_jet(k, 0) for k in unknowns]
                    for i in eqs
                ]
                assert linalg.rank(mat) == len(eqs)
        # triangular-system full rank per height band
        noncomp_simple = [
            i + 1 for i, h in enumerate(heights) if h == -1 and (i + 1) not in comp
        ]
        for q in sorted(set(heights), reverse=True):
            band = [i + 1 for i, h in enumerate(heights) if h == q - 1]
            if not band:
                continue
            mat = [
                [result.invariants.lbar[k].coefficient_of_jet(v, abs(q)) for v in noncomp_simple]
                for k in band
            ]
            assert linalg.rank(mat) == len(band)
        # invariant system full rank, derivatives ignored
        compidx = sorted(rep.rs.comp_roots)
        ignore = [
            [
                sum(
                    (result.invariants.lhat[j].coefficient_of_jet(v, k) for k in range(rep.m + 1)),
                    Fraction(0),
                )
                for v in range(1, rep.rank + 1)
            ]
            for j in compidx
        ]
        assert linalg.rank(ignore) == rep.rank
    announce(8, "(e) full-rank facts of the three elimination lemmas for A_1..A_5 and G2")


# --------------------------------------------------------------- criterion 9

def _random_sl(n, rng, steps=8):
    m = linalg.eye(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        gen = linalg.eye(n)
        gen[i][j] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        m = linalg.mat_mul(m, gen)
    return m


def test_criterion_9_bruhat():
    rng = random.Random(900)
    for trial in range(500):
        n = 3 if trial % 2 == 0 else 4
        m = _random_sl(n, rng)
        form = bruhat.bruhat_decompose(m, "negative")
        assert linalg.mat_eq(form.recompose(), m)
        assert bruhat.bruhat_decompose(form.recompose(), "negative") == form
    for _ in range(50):
        x = Fraction(rng.randint(1, 40), rng.randint(1, 7)) * rng.choice([1, -1])
        lhs = linalg.mat_mul([[0, 1], [-1, 0]], [[1, 0], [x, 1]])
        rhs = linalg.mat_mul(
            linalg.mat_mul([[1, 0], [-1 / x, 1]], [[x, 0], [0, 1 / x]]),
            [[1, 1 / x], [0, 1]],
        )
        assert linalg.mat_eq(lhs, rhs)
    announce(9, "500 random SL3/SL4 matrices recompose bit-exactly; 50 SL2 relation checks")


# -------------------------------------------------------------- criterion 10

def _random_plane_matrix(rep, rng):
    def poly():
        p = DiffPoly.zero()
        for _ in range(rng.randint(0, 3)):
            mono = DiffPoly.rational(Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 2)):
                mono = mono * DiffPoly.eta(rng.randint(1, rep.rank), rng.randint(0, 1))
            p = p + mono
        return p

    a = [
        [x if isinstance(x, DiffPoly) else DiffPoly.rational(x) for x in row]
        for row in rep.a0_plus()
    ]
    for i in range(rep.rank):
        p = poly()
        a = linalg.mat_add(a, [[p * x for x in row] for row in rep.H[i]])
    for b in rep.rs.neg_order:
        p = poly()
        a = linalg.mat_add(a, [[p * x for x in row] for row in rep.X[b.coeffs]])
    return a


def test_criterion_10_gauge():
    rng = random.Random(1000)
    rep1 = get_rep("A", 1)
    a = [[parse("0"), parse("1")], [parse("n1' + n1^2"), parse("0")]]
    g, word, f = gauge.normalize_to_AG(rep1, a)
    assert f == {1: parse("n1' + n1^2")}
    count = 0
    for t, r in [("A", 2), ("A", 3)]:
        rep = get_rep(t, r)
        for _ in range(50):
            matrix = _random_plane_matrix(rep, rng)
            gauge.normalize_to_AG(rep, matrix)  # post-verified internally
            count += 1
    assert count == 100
    announce(10, "100 randomized plane normalizations post-verified; Riccati f exact")
