import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from pvext import bruhat, chevalley, construct, diffpoly, linalg, rootsys, symgroup
from pvext.diffpoly import DiffPoly, parse
from pvext.errors import IdentityFailure, RankFailure, StructureViolation, VerificationFailure
from pvext.liouville_expr import LiouvExpr

import chevalley_oracle
import construct_oracle
import factor_oracle
import linalg_oracle
from conftest import ALL_SYSTEMS, get_pipeline, get_rep, neumann_inverse
from liouville_oracle import verify_by_liouville_product
from report_oracle import report_json_obj, tree_json_obj


def eta(i, k=0):
    return DiffPoly.eta(i, k)


# ----- stage 1 -----

def test_sl4_stage1(sl4_result):
    v = sl4_result.stage1.v
    assert v[4] == parse("0 - n2' n1")
    assert v[5] == parse("0 - n3' n2")
    assert v[6] == parse("n3 n4' - n5' n1 + n3' n2 n1")


def test_a1_stage1_empty():
    res = get_pipeline("A", 1)
    assert res.stage1.v == {}


def test_a2_v3_two_ways():
    # basis decomposition against the raw matrix entry of d(u) u^{-1}
    rep = get_rep("A", 2)
    u = construct.unipotent_product(rep, [eta(1), eta(2), eta(3)])
    uinv = neumann_inverse(u, DiffPoly.rational(1))
    ld = linalg.mat_mul([[x.derive() for x in row] for row in u], uinv)
    dec = chevalley.decompose_in_basis(rep, ld)
    coef = dec[("X", (-1, -1))]
    entry = ld[2][0]  # X_{-a1-a2} = E_31 in the defining representation
    assert coef == entry
    assert coef - eta(3, 1) == get_pipeline("A", 2).stage1.v[3]


# ----- stage 2 -----

def test_sl4_stage2_g(sl4_result):
    assert [g.text() for g in sl4_result.stage2.g] == ["-η1", "-η2", "-η3"]


def test_sl4_stage2_ell(sl4_result):
    ell = sl4_result.stage2.ell
    assert ell[0] == parse("0 - n4")
    assert ell[1] == parse("n4 - n5")
    assert ell[2] == parse("n5")
    assert ell[3] == parse("0 - n6")
    assert ell[4] == parse("n6")
    assert ell[5].is_zero()


def test_sl4_stage2_p(sl4_result):
    p = sl4_result.stage2.p
    assert p[0] == parse("0 - n1^2 + n2 n1")
    assert p[1] == parse("0 - n2^2 + n3 n2")
    assert p[2] == parse("0 - n3^2")
    assert p[3] == parse("0 - n2 n4 + n1 (n2^2 - n4 - n3 n2 + n5)")
    assert p[4] == parse("0 - n5 n2 + n3 (n4 - n5 + n2 n3)")
    assert p[5] == parse(
        "0 - n1 n3 n4 - n1 n6 - n5 n4 + n5 n2 n1 - n3^2 n2 n1 + n3 n5 n1 - n3 n6"
    )
    assert len(p[5].terms) == 7


def test_stage2_identity_at_zero(sl4_result):
    # substituting eta = 0 collapses Ad(u)(A_0^+) back to A_0^+
    rep = sl4_result.rep
    zeros = {i: DiffPoly.zero() for i in range(1, 7)}
    for g in sl4_result.stage2.g:
        assert g.substitute(zeros).is_zero()
    for e, p in zip(sl4_result.stage2.ell, sl4_result.stage2.p):
        assert e.substitute(zeros).is_zero()
        assert p.substitute(zeros).is_zero()


# ----- A_L -----

def test_sl4_A_L(sl4_result):
    rep = sl4_result.rep
    data = sl4_result.liouville
    assert data.c == (Fraction(-1), Fraction(-1), Fraction(-1))
    assert [g.text() for g in data.gbar] == ["-η3", "-η2", "-η1"]
    want = [[DiffPoly.rational(-x) for x in row] for row in rep.a0_minus()]
    for i, gb in zip(range(3), [parse("0-n3"), parse("0-n2"), parse("0-n1")]):
        want = linalg.mat_add(want, [[gb * x for x in row] for row in rep.H[i]])
    assert linalg.mat_eq([list(r) for r in data.A_L], want)


def test_a1_A_L():
    res = get_pipeline("A", 1)
    rep = res.rep
    assert linalg.mat_eq(
        linalg_oracle.signed_permutation(res.liouville.nw), [[0, 1], [-1, 0]]
    )
    assert res.liouville.c == (Fraction(-1),)
    assert res.liouville.gbar[0] == parse("0 - n1")


def test_g2_A_L(g2_result):
    # the Cartan coordinate attached to the first subtorus is -eta_1; the
    # printed example uses the inverse coordinate on that subtorus, so the
    # exponentials agree after inverting z_1 (the integrals y are identical)
    assert [g.text() for g in g2_result.liouville.gbar] == ["-η1", "-η2"]
    assert g2_result.liouville.c == (Fraction(-1), Fraction(-1))


# ----- Liouville tower -----

def _sl4_tower():
    g1 = LiouvExpr.scalar(parse("-2 n3 + n2"))
    g2 = LiouvExpr.scalar(parse("-2 n2 + n1 + n3"))
    g3 = LiouvExpr.scalar(parse("-2 n1 + n2"))
    a1, a2, a3 = (LiouvExpr.integral(LiouvExpr.exp_integral(g)) for g in (g1, g2, g3))
    z = [
        LiouvExpr.exp_integral(LiouvExpr.scalar(parse("0 - n3"))),
        LiouvExpr.exp_integral(LiouvExpr.scalar(parse("0 - n2"))),
        LiouvExpr.exp_integral(LiouvExpr.scalar(parse("0 - n1"))),
    ]
    y = [
        -a1,
        -a2,
        -a3,
        LiouvExpr.integral(a1 * LiouvExpr.exp_integral(g2)),
        LiouvExpr.integral(a2 * LiouvExpr.exp_integral(g3)),
        LiouvExpr.integral(a3 * a1 * LiouvExpr.exp_integral(g2)),
    ]
    return z, y


def test_sl4_liouville_tower(sl4_result):
    z, y = _sl4_tower()
    assert list(sl4_result.liouville.z) == z
    assert list(sl4_result.liouville.y) == y


def test_g2_y3(g2_result):
    y = g2_result.liouville.y
    integrands = g2_result.liouville.y_integrands
    assert y[2] == LiouvExpr.integral(y[0] * integrands[1])


def test_z_derivatives_match_gbar(sl4_result, g2_result):
    for res in (sl4_result, g2_result):
        for zi, gi in zip(res.liouville.z, res.liouville.gbar):
            assert zi.derive() == LiouvExpr.scalar(gi) * zi


def test_y_derivatives_match_integrands(sl4_result):
    for yi, fi in zip(sl4_result.liouville.y, sl4_result.liouville.y_integrands):
        assert yi.derive() == fi


# ----- logderiv_Y -----

def test_sl4_h(sl4_result):
    h = sl4_result.h_raw
    assert h[0] == parse("n1' - n4 + n1^2")
    assert h[1] == parse("n2' + n4 - n5 + n2(n2 - n1)")
    assert h[2] == parse("n3' + n5 + n3(n3 - n2)")
    q4 = parse("n5 n1 - (n2(n2 - n1)) n1 - n3 n4 - n2' n1")
    assert h[3] == parse("n4' - n6") + q4
    q5 = parse("n3 n4 - n5 n1 - (n3(n3 - n2)) n2 - n3' n2")
    assert h[4] == parse("n5' + n6") + q5
    q6 = parse(
        "n3^2 (n1 n2 - n4) + n3 (n4 n2 - n1 n2^2) + n5 (n1^2 - n4)"
        "+ n3 n4' - n5' n1 + n3' n2 n1"
    )
    assert h[5] == parse("n6'") + q6


def test_g2_h1(g2_result):
    assert g2_result.h_raw[0] == parse("n1' - n3 + n1^2")


# ----- elimination -----

def test_sl4_elimination(sl4_result):
    f = sl4_result.invariants.f
    assert f[4] == parse("n1' + n1^2")
    assert f[5] == parse("n2' + n1' + n1^2 + n2(n2 - n1)")
    assert f[6] == parse("n1'' + 3 n1 n1' + n1^3 - n3 n1' - n3 n1^2")


def test_g2_elimination_order(g2_result):
    assert sorted(g2_result.invariants.f) == [3, 4, 5, 6]
    assert g2_result.invariants.f[3] == parse("n1' + n1^2")


def test_elimination_solves_noncomplementary(sl4_result):
    # substituting f back into the non-complementary h_i gives exactly zero
    sigma = {i: eta(i) for i in (1, 2, 3)}
    sigma.update(sl4_result.invariants.f)
    comp = set(sl4_result.rep.rs.comp_roots)
    for i in range(1, 7):
        substituted = sl4_result.h_raw[i - 1].substitute(sigma)
        if i in comp:
            assert substituted == sl4_result.invariants.h[i]
        else:
            assert substituted.is_zero()


# ----- invariants -----

def test_sl4_invariant_linear_parts(sl4_result):
    lhat = sl4_result.invariants.lhat
    assert lhat[3] == parse("n3' + n2' + n1'")
    assert lhat[5] == parse("n2'' + 2 n1''")
    assert lhat[6] == parse("n1'''")


def test_sl4_combination_identities(sl4_result):
    # phat_3 = pbar_5 + q_3; phat_5 = pbar_5' + pbar_6 + q_5; phat_6 = pbar_6' + q_6
    inv = sl4_result.invariants
    sigma = {i: eta(i) for i in (1, 2, 3)}
    sigma.update(inv.f)
    q = {}
    for i in (3, 5, 6):
        q[i] = (
            sl4_result.h_raw[i - 1] - eta(i, 1) - sl4_result.stage2.ell[i - 1]
        ).substitute(sigma)
    assert inv.phat[3] == inv.pbar[5] + q[3]
    assert inv.phat[5] == inv.pbar[5].derive() + inv.pbar[6] + q[5]
    assert inv.phat[6] == inv.pbar[6].derive() + q[6]


def test_a1_invariant():
    res = get_pipeline("A", 1)
    assert res.invariants.h == {1: parse("n1' + n1^2")}


def test_g2_first_invariant(g2_result):
    assert g2_result.invariants.h[2] == parse(
        "n2' + 3(n1' + n1^2) + n2^2 - 3 n1 n2"
    )


# ----- A_G -----

def test_a1_A_G():
    res = get_pipeline("A", 1)
    want = [[DiffPoly.zero(), DiffPoly.rational(1)], [parse("n1' + n1^2"), DiffPoly.zero()]]
    assert linalg.mat_eq([list(r) for r in res.A_G], want)


def test_g2_A_G_shape(g2_result):
    rep = g2_result.rep
    want = [[DiffPoly.rational(x) for x in row] for row in rep.a0_plus()]
    want = linalg.mat_add(
        want, [[g2_result.invariants.h[2] * x for x in row] for row in rep.x_neg(2)]
    )
    want = linalg.mat_add(
        want, [[g2_result.invariants.h[6] * x for x in row] for row in rep.x_neg(6)]
    )
    assert linalg.mat_eq([list(r) for r in g2_result.A_G], want)


def test_A_G_at_zero(sl4_result):
    # specializing eta = 0 leaves A_0^+ plus the constant terms h(0)
    rep = sl4_result.rep
    zeros = {i: DiffPoly.zero() for i in range(1, 4)}
    values, matrix = construct.specialize(rep, sl4_result.invariants, zeros)
    assert all(v.is_zero() for v in values.values())
    assert linalg.mat_eq(matrix, [[DiffPoly.rational(x) for x in row] for row in rep.a0_plus()])


# ----- specialize -----

def test_specialize_identity(sl4_result):
    ident = {i: eta(i) for i in range(1, 4)}
    values, matrix = construct.specialize(sl4_result.rep, sl4_result.invariants, ident)
    assert values == sl4_result.invariants.h
    assert linalg.mat_eq(matrix, [list(r) for r in sl4_result.A_G])


def test_specialize_a1():
    res = get_pipeline("A", 1)
    values, matrix = construct.specialize(res.rep, res.invariants, {1: DiffPoly.zero()})
    assert values[1].is_zero()
    assert linalg.mat_eq(matrix, [[parse("0"), parse("1")], [parse("0"), parse("0")]])
    values, _ = construct.specialize(res.rep, res.invariants, {1: eta(1)})
    assert values[1] == parse("n1' + n1^2")


def _evaluate_at_constants(poly, constants):
    """Independent oracle: evaluate with eta_i -> c_i, derivatives -> 0."""
    total = Fraction(0)
    for mon, coeff in poly.terms.items():
        value = coeff
        for jv, e in mon:
            if jv.order > 0:
                value = Fraction(0)
                break
            value *= Fraction(constants[jv.var]) ** e
        total += value
    return total


def test_specialize_constants_oracle(sl4_result):
    constants = {1: Fraction(2), 2: Fraction(-1, 3), 3: Fraction(5)}
    sigma = {i: DiffPoly.rational(c) for i, c in constants.items()}
    values, _ = construct.specialize(sl4_result.rep, sl4_result.invariants, sigma)
    for j, hj in sl4_result.invariants.h.items():
        want = _evaluate_at_constants(hj, constants)
        assert values[j] == DiffPoly.rational(want)


# ----- end to end -----

def test_end_to_end_small():
    for t, r in [("A", 1), ("A", 2)]:
        res = get_pipeline(t, r)
        report = construct.verify_end_to_end(res.rep, res.liouville, res.invariants)
        assert report["status"] == "ok"


def test_end_to_end_detects_corruption():
    res = get_pipeline("A", 1)
    bad = dict(res.invariants.h)
    bad[1] = bad[1] + DiffPoly.rational(1)
    broken = construct.InvariantSet(
        f=res.invariants.f,
        h=bad,
        lhat=res.invariants.lhat,
        phat=res.invariants.phat,
        lbar=res.invariants.lbar,
        pbar=res.invariants.pbar,
    )
    with pytest.raises(IdentityFailure):
        construct.verify_end_to_end(res.rep, res.liouville, broken)


# Report digests of the grid systems, recorded by perfbench/record_digests.py.
DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)
# Report digests of systems beyond the grid, and B6, C6 and D6 from the
# rank-6 digests that tests/check_rank6_digests.py checks.
HERE = Path(__file__).resolve().parent
BEYOND_GRID = json.loads((HERE / "digests_beyond_grid.json").read_text())
RANK6 = json.loads((HERE / "digests_rank6.json").read_text())
DIGESTS_TESTED = dict(DIGESTS, **BEYOND_GRID, B6=RANK6["B6"], C6=RANK6["C6"], D6=RANK6["D6"])


def test_end_to_end_across_types():
    # beyond the required systems: the defining identity holds for every
    # system whose report digest is tested below
    for label in sorted(DIGESTS_TESTED):
        res = get_pipeline(label[0], int(label[1:]))
        report = construct.verify_end_to_end(res.rep, res.liouville, res.invariants)
        assert report["status"] == "ok"


def _corrupted(inv, part, index, delta):
    """The invariant set with inv.<part>[index] perturbed by delta."""
    values = dict(getattr(inv, part))
    values[index] = values[index] + delta
    return dataclasses.replace(inv, **{part: values})


def _verdict(check, res, inv):
    try:
        check(res.rep, res.liouville, inv)
    except IdentityFailure:
        return "rejected"
    return "accepted"


@pytest.mark.parametrize(
    "system", [("A", 1), ("A", 2), ("A", 3), ("G2", 2)], ids=["A1", "A2", "A3", "G2"]
)
def test_end_to_end_agrees_with_the_liouvillian_oracle(system):
    res = get_pipeline(*system)
    inv = res.invariants
    cases = [
        (inv, "accepted"),
        (_corrupted(inv, "h", max(inv.h), DiffPoly.rational(1)), "rejected"),
    ]
    if inv.f:
        cases.append((_corrupted(inv, "f", max(inv.f), DiffPoly.eta(1)), "rejected"))
    for case, want in cases:
        assert _verdict(construct.verify_end_to_end, res, case) == want
        assert _verdict(verify_by_liouville_product, res, case) == want


@pytest.mark.parametrize("part", ["h", "f"])
def test_end_to_end_detects_nonconstant_corruption_on_b3(part):
    res = get_pipeline("B", 3)
    values = getattr(res.invariants, part)
    delta = DiffPoly.eta(1, 1) * DiffPoly.eta(2)
    for index in (min(values), max(values)):
        broken = _corrupted(res.invariants, part, index, delta)
        with pytest.raises(IdentityFailure):
            construct.verify_end_to_end(res.rep, res.liouville, broken)


def test_end_to_end_failure_names_the_system():
    res = get_pipeline("B", 3)
    broken = _corrupted(res.invariants, "h", max(res.invariants.h), DiffPoly.eta(1, 1))
    product = r"^B3: \(d\(Y\) - A_G\(h\) Y\) \(n\(wbar\) T\)\^-1 is nonzero at entry"
    with pytest.raises(IdentityFailure, match=product):
        construct.verify_end_to_end(res.rep, res.liouville, broken)
    al = [list(row) for row in res.liouville.A_L]
    al[0][0] = al[0][0] + DiffPoly.eta(1)
    bad_tower = dataclasses.replace(res.liouville, A_L=tuple(tuple(r) for r in al))
    tower = r"^B3: ldelta\(t\(z\)u\(y\)\) - A_L is nonzero at entry"
    with pytest.raises(IdentityFailure, match=tower):
        construct.verify_end_to_end(res.rep, bad_tower, res.invariants)


# ----- determinism and report -----

def test_pipeline_determinism():
    one = construct.report_json(construct.run_pipeline("A", 2))
    two = construct.report_json(construct.run_pipeline("A", 2))
    assert one == two


def test_report_contains_all_sections(sl4_result):
    report = report_json_obj(sl4_result)
    for key in ("stage1", "stage2", "A_L", "z", "y", "h_raw", "f", "invariants", "A_G"):
        assert key in report


GRID = [("A", r) for r in range(1, 6)] + [
    (t, r) for t in "BC" for r in (2, 3, 4)
] + [("D", 3), ("D", 4), ("D", 5), ("G2", 2)]


@pytest.mark.parametrize(
    "system", GRID + [("A", 6)], ids=lambda s: s[0] if s[0] == "G2" else "%s%d" % s
)
def test_report_writer_matches_the_dict_oracle(system):
    res = get_pipeline(*system)
    got = construct.report_json(res)
    want = json.dumps(report_json_obj(res), sort_keys=True, indent=1)
    # a plain flag: pytest's own diff of two megabyte strings takes minutes
    same = got == want
    assert same, _first_difference(got, want)


def _first_difference(got, want):
    at = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
    )
    lo = max(at - 40, 0)
    return "first difference at offset %d: %r != %r" % (at, got[lo : at + 40], want[lo : at + 40])


@pytest.mark.parametrize(
    "system", GRID + [("D", 6)], ids=lambda s: s[0] if s[0] == "G2" else "%s%d" % s
)
def test_characters_equal_the_torus_conjugation(system):
    # the oracle conjugates X_i by t(z): Ad(t(z)) X_i = chi_i X_i, and the
    # integrand of y_i is c_i / chi_i
    res = get_pipeline(*system)
    rep, data = res.rep, res.liouville
    torus = [factor_oracle.torus_matrix(rep, i, zi) for i, zi in enumerate(data.z, start=1)]
    for i in range(1, rep.rank + 1):
        x = rep.x_neg(i)
        ad = symgroup.adjoint(torus, x)
        chi = chevalley.decompose_in_basis(rep, ad)[("X", rep.rs.neg_order[i - 1].coeffs)]
        assert linalg.mat_eq(ad, linalg_oracle.combination([(chi, x)], rep.dim, LiouvExpr.zero()))
        assert data.y_integrands[i - 1] == chi ** -1 * data.c[i - 1]


def test_report_writer_refuses_values_it_cannot_render():
    refused = [
        ([Fraction(1, 2)], "cannot render a Fraction in the report"),
        ({"x": 1.5}, "cannot render a float in the report"),
        ({"x": True}, "cannot render a bool in the report"),
        ([None], "cannot render a NoneType in the report"),
        ({1: "a"}, r"report keys must be strings, got \[1\]"),
        ({"a": 1, 2: "b"}, r"report keys must be strings, got \['a', 2\]"),
    ]
    for value, message in refused:
        with pytest.raises(TypeError, match="^%s$" % message):
            "".join(construct._json_chunks(value))


def test_report_writer_reindents_a_nested_expression_met_at_another_depth():
    # g is the integrand of the exponential and the argument of the squared
    # integral (one level deeper, under "base"), and x is met at five depths:
    # the writer renders g once and moves it both deeper and shallower
    g = LiouvExpr.scalar(parse("n1' n2 - 1/2 n1^2")) + LiouvExpr.integral(parse("n2"))
    x = LiouvExpr.exp_integral(g) * LiouvExpr.integral(g) ** 2 + LiouvExpr.integral(g)
    tree = {"deep": [[[[x]]]], "top": x, "a": [x, {"b": [x]}], "z": [[x, g]]}
    want = json.dumps(tree_json_obj(tree), sort_keys=True, indent=1)
    assert "".join(construct._json_chunks(tree)) == want


def test_report_renders_each_nested_expression_once(monkeypatch):
    # D5's y_1..y_5 hold 20 expressions whose integrands and integral
    # arguments are 25 distinct interned ones, met 330 times: 45 trees,
    # against 350 when every occurrence was rendered.  Canonical strings,
    # which build trees too, are not counted.
    res = get_pipeline("D", 5)
    built = []
    tree = LiouvExpr._json_tree

    def counted(self, poly, nested):
        if nested is construct._Nested:
            built.append(self)
        return tree(self, poly, nested)

    monkeypatch.setattr(LiouvExpr, "_json_tree", counted)
    "".join(construct._json_chunks(res.liouville.y))
    assert len(built) == 45
    built.clear()
    construct.report_json(res)
    assert len(built) == len(set(map(id, built))) == 55


def test_report_writer_renders_empty_containers_as_json_does():
    for value in ({}, [], [[]], {"a": {}}, [{}, [], [[], {}]], {"a": [], "b": {"c": []}}):
        assert "".join(construct._json_chunks(value)) == json.dumps(value, sort_keys=True, indent=1)


def test_structural_claims_across_systems():
    # Every structural lemma assertion runs inside the pipeline; a failure
    # for any supported system would raise here.
    for t, r in [("A", 1), ("A", 2), ("A", 4), ("B", 2), ("C", 3), ("D", 3), ("G2", 2)]:
        get_pipeline(t, r)


@pytest.mark.parametrize("label", sorted(DIGESTS_TESTED))
def test_report_matches_recorded_digest(label):
    # streamed, as `pvext derive` writes it: B6's report is 239 MB of text
    digest = hashlib.sha256()
    for chunk in construct.report_chunks(get_pipeline(label[0], int(label[1:]))):
        digest.update(chunk.encode("utf-8"))
    assert digest.hexdigest() == DIGESTS_TESTED[label]


def test_pipeline_multiplies_no_polynomial_matrix(monkeypatch):
    # the stages act on Chevalley coordinates, and words of letters act by
    # chevalley.letter_product: the pipeline makes no dense matrix product
    operands = []
    mat_mul = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: operands.extend((a, b)) or mat_mul(a, b))
    construct.run_pipeline("B", 3)
    assert operands == []
    # the patch is live: a product that pvext makes through linalg.mat_mul
    # is recorded
    bruhat.act_on_normal_form(linalg.eye(2), [[0, 1], [-1, 0]])
    assert operands


def test_pipeline_never_multiplies_by_the_dense_longest_representative(monkeypatch):
    # n(wbar) acts by relabelling only: neither a matrix product nor the
    # Gauss-Jordan inverse sees it as a dense operand, in the pipeline or in
    # the end-to-end check
    rep = get_rep("B", 3)
    nw = chevalley_oracle.weyl_representative(rep, rootsys.longest_weyl_word(rep.rs))
    operands = []
    mat_mul, inverse = linalg.mat_mul, linalg.rational_inverse
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: operands.extend((a, b)) or mat_mul(a, b))
    monkeypatch.setattr(linalg, "rational_inverse", lambda m: operands.append(m) or inverse(m))
    res = construct.run_pipeline("B", 3)
    construct.verify_end_to_end(res.rep, res.liouville, res.invariants)
    assert operands
    shaped = [m for m in operands if len(m) == len(nw) and all(len(r) == len(nw) for r in m)]
    assert not any(linalg.mat_eq(m, nw) for m in shaped)


@pytest.mark.parametrize("system", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)])
def test_longest_representative_is_inverted_by_its_transpose(system):
    rep = get_rep(*system)
    nw = chevalley.weyl_representative(rep, rootsys.longest_weyl_word(rep.rs))
    dense = linalg_oracle.signed_permutation(nw)
    assert [list(col) for col in zip(*dense)] == linalg.rational_inverse(dense)


def _corrupted_tower(data, part):
    """The Liouvillian data with one tower entry perturbed."""
    drift = LiouvExpr.integral(LiouvExpr.scalar(eta(1)))
    y = list(data.y)
    if part == "first y":
        y[0] = y[0] + drift
    elif part == "last y":
        y[-1] = y[-1] + drift
    else:
        z = list(data.z)
        z[0] = LiouvExpr.exp_integral(LiouvExpr.scalar(data.gbar[0] + eta(1)))
        return dataclasses.replace(data, z=tuple(z))
    return dataclasses.replace(data, y=tuple(y))


@pytest.mark.parametrize("part", ["first y", "last y", "z_1"])
@pytest.mark.parametrize("system", [("B", 3), ("G2", 2)], ids=["B3", "G2"])
def test_end_to_end_detects_tower_corruption(system, part):
    res = get_pipeline(*system)
    broken = _corrupted_tower(res.liouville, part)
    with pytest.raises(IdentityFailure, match=r"ldelta\(t\(z\)u\(y\)\) - A_L"):
        construct.verify_end_to_end(res.rep, broken, res.invariants)


@pytest.mark.parametrize("system", [("B", 3), ("G2", 2)], ids=["B3", "G2"])
def test_tower_checks_take_independent_routes(system):
    """One divided-power cell of the first root of height -2 is corrupted.
    No simple representative reads it, and its letter u(y_(l+1)) is not
    the tower's last, whose matrix ldelta(t(z)u(y)) never reads.  The
    coordinate check of liouville_solutions, which reads the structure
    constants and the characters, still passes and returns the same
    tower, and the matrix re-check of verify_end_to_end, which acts with
    the letters' cells, fires."""
    res = get_pipeline(*system)
    rep = res.rep
    root = rep.rs.neg_order[rep.rank].coeffs
    (r, c, k, p), *rest = rep.exp_cells[root]
    bad = dataclasses.replace(rep, exp_cells={**rep.exp_cells, root: ((r, c, k, p + 1), *rest)})
    data = construct.liouville_solutions(bad, construct.build_A_L(bad, res.stage2), res.stage1)
    assert data == res.liouville
    message = "%s: ldelta(t(z)u(y)) - A_L is nonzero at entry" % rep.rs.label
    with pytest.raises(IdentityFailure, match="^%s" % re.escape(message)):
        construct.verify_end_to_end(bad, data, res.invariants)


@pytest.mark.parametrize("part", ["first y", "last y", "z_1"])
@pytest.mark.parametrize("system", [("B", 3), ("G2", 2)], ids=["B3", "G2"])
def test_tower_check_in_coordinates_names_the_corrupted_key(system, part):
    """A drift in y_1 or y_m first shows in the coordinate of X_1 or X_m, and
    a drift in z_1 in the coordinate z_1'/z_1 of H_1, the first key."""
    res = get_pipeline(*system)
    rs = res.rep.rs
    key = {
        "first y": "X_%s" % (rs.neg_order[0].coeffs,),
        "last y": "X_%s" % (rs.neg_order[-1].coeffs,),
        "z_1": "H_1",
    }[part]
    message = "%s: liouville_solutions: ldelta(t(z)u(y)) - A_L is nonzero at %s" % (rs.label, key)
    with pytest.raises(VerificationFailure, match="^%s$" % re.escape(message)):
        construct._check_tower_coordinates(res.rep, _corrupted_tower(res.liouville, part))


# ----- the principal grading -----


def _args_with(rep, i, extra):
    """The arguments eta_1..eta_m of u(eta) with eta_i replaced by
    eta_i + extra.  u stays a product of root factors, so every stage output
    stays in the Lie algebra and only the coefficients are wrong."""
    args = [eta(k) for k in range(1, rep.m + 1)]
    args[i - 1] = args[i - 1] + extra
    return args


def _not_of_weight(label, where, w, variables):
    return "^%s$" % re.escape(
        "%s: %s is not homogeneous of weight %d in eta_1..eta_%d"
        % (label, where, w, variables)
    )


# per system: the simple index whose coefficient in Ad(u)(A_0^+) and in
# ldelta(Y) first carries the term eta_1 given to eta_(l+1), and the first
# invariant h_j that reads the image of eta_(l+1), with its weight
FAULT_SITES = {"B3": (1, 7, 4), "G2": (1, 2, 2)}


def _first_noncomplementary_simple(rs):
    return next(i for i in rs.band(-1) if i not in rs.comp_roots)


@pytest.mark.parametrize("system", [("B", 3), ("G2", 2)], ids=["B3", "G2"])
def test_grading_check_fires_on_each_coefficient_stage(system):
    """eta_(l+1), of weight 2, gains a term eta_1 of weight 1.

    Stage 1 meets it first in v_(l+1), whose X coefficient carries its
    derivative; Ad(u)(A_0^+) and ldelta(Y) meet it in the coefficient of a
    simple root, through the bracket of X_(l+1) with A_0^+.  The Cartan
    coefficients g_i read only eta_1..eta_l, so they are reached through
    eta_1 gaining eta_1^2 instead.
    """
    res = get_pipeline(*system)
    rep = res.rep
    label, l, m = rep.rs.label, rep.rank, rep.m
    simple = FAULT_SITES[label][0]
    bad = _args_with(rep, l + 1, eta(1))
    with pytest.raises(
        StructureViolation, match=_not_of_weight(label, "logderiv_unipotent: v_%d" % (l + 1), 3, m)
    ):
        construct.logderiv_unipotent(rep, bad)
    with pytest.raises(
        StructureViolation,
        match=_not_of_weight(label, "adjoint_on_A0: the X_%d coefficient" % simple, 2, m),
    ):
        construct.adjoint_on_A0(rep, bad)
    with pytest.raises(
        StructureViolation, match=_not_of_weight(label, "logderiv_Y: h_%d" % simple, 2, m)
    ):
        construct.logderiv_Y(rep, bad, res.liouville, res.stage2)
    with pytest.raises(
        StructureViolation, match=_not_of_weight(label, "adjoint_on_A0: g_1", 1, m)
    ):
        construct.adjoint_on_A0(rep, _args_with(rep, 1, eta(1) * eta(1)))


@pytest.mark.parametrize("system", [("B", 3), ("G2", 2)], ids=["B3", "G2"])
def test_grading_check_fires_on_the_eliminated_and_the_invariants(system):
    """eta_1 eta_1' (weight 3) is added to a raw h_i of weight 2, and a term
    eta_(l+1) to one image of sigma.

    The elimination solves for f in eta_1..eta_l by substituting images that
    its own checks have put in eta_1..eta_l, and a raw h_i in a variable
    sigma does not yet cover is a MissingAssignment; so no input of
    eliminate_noncomplementary reaches the check's missing-variable arm,
    and the corrupted image of sigma is handed to invariants instead.
    """
    res = get_pipeline(*system)
    rs = res.rep.rs
    label, l = rs.label, rs.rank
    extra = eta(1) * eta(1, 1)
    h = list(res.h_raw)
    h[_first_noncomplementary_simple(rs) - 1] += extra
    with pytest.raises(
        StructureViolation,
        match=_not_of_weight(label, "eliminate_noncomplementary: f_%d" % (l + 1), 2, l),
    ):
        construct.eliminate_noncomplementary(res.rep, h)
    comp = rs.comp_roots[0]  # the complementary index of height 1
    h = list(res.h_raw)
    h[comp - 1] += extra
    parts = construct.eliminate_noncomplementary(res.rep, h)
    with pytest.raises(
        StructureViolation, match=_not_of_weight(label, "invariants: h_%d" % comp, 2, l)
    ):
        construct.invariants(res.rep, h, parts)
    f, lbar, pbar, sigma, _ = construct.eliminate_noncomplementary(res.rep, list(res.h_raw))
    sigma = dict(sigma)
    sigma[l + 1] += eta(l + 1)
    _, j, w = FAULT_SITES[label]
    with pytest.raises(
        StructureViolation, match=_not_of_weight(label, "invariants: h_%d" % j, w, l)
    ):
        construct.invariants(res.rep, list(res.h_raw), (f, lbar, pbar, sigma, {}))


def test_height_system_rank_is_checked_where_it_is_solved():
    """Without its order-0 linear terms, a non-complementary h_i of height 1
    gives the height -1 system a zero row."""
    res = get_pipeline("B", 3)
    h = list(res.h_raw)
    i = _first_noncomplementary_simple(res.rep.rs)
    h[i - 1] -= sum(
        (eta(k) * h[i - 1].coefficient_of_jet(k, 0) for k in range(1, res.rep.m + 1)),
        DiffPoly.zero(),
    )
    with pytest.raises(RankFailure, match="^B3: eliminate_noncomplementary: height -1 system is rank-deficient$"):
        construct.eliminate_noncomplementary(res.rep, h)


def test_invariants_substitute_through_the_factor_trie(monkeypatch):
    # the pair products of term maps that D5's invariants multiply out: 57.6k
    # through the factor trie, 155.8k with one product of images per monomial
    res = get_pipeline("D", 5)
    h = list(res.h_raw)
    parts = construct.eliminate_noncomplementary(res.rep, h)
    pairs = []
    add_product, mul = diffpoly._Sum.add_product, DiffPoly.__mul__

    def counted_add_product(self, p, q, n=1):
        pairs.append(len(p._t) * len(q._t))
        return add_product(self, p, q, n)

    def counted_mul(self, other):
        if isinstance(other, DiffPoly):
            pairs.append(len(self._t) * len(other._t))
        return mul(self, other)

    monkeypatch.setattr(diffpoly._Sum, "add_product", counted_add_product)
    monkeypatch.setattr(DiffPoly, "__mul__", counted_mul)
    assert construct.invariants(res.rep, h, parts).h == res.invariants.h
    assert 0 < sum(pairs) <= 60_000


@pytest.mark.parametrize("system", [("B", 3), ("G2", 2)], ids=["B3", "G2"])
def test_ignored_derivative_rank_is_checked_on_the_invariants(system):
    """The last complementary raw h_j has the one linear term eta_j'.
    Without it, h_j(sigma) is a sum of products of at least two images, each
    without a constant term, so lhat_j = 0 and the ignored-derivative system
    has a zero row.  The prolonged system's rank check is not reached: its
    matrix is the same one (construct.invariants)."""
    res = get_pipeline(*system)
    label, j = res.rep.rs.label, res.rep.rs.comp_roots[-1]
    h = list(res.h_raw)
    h[j - 1] -= eta(j, 1)
    parts = construct.eliminate_noncomplementary(res.rep, h)
    message = "^%s: invariants: ignored-derivative invariant system is rank-deficient$" % label
    with pytest.raises(RankFailure, match=message):
        construct.invariants(res.rep, h, parts)


# ----- the stages' shape checks -----


def _fires(label, call, message):
    with pytest.raises(StructureViolation, match="^%s$" % re.escape(label + ": " + message)):
        call()


# per system: an index i and a term whose sum with eta_i gives v_i a linear
# term of its own weight
LINEAR_TERM = {"B3": (4, eta(5)), "G2": (3, eta(3))}


@pytest.mark.parametrize("system", [("B", 3), ("G2", 2)], ids=["B3", "G2"])
def test_stage_checks_fire_on_corrupted_arguments(system):
    """Each corruption keeps u(eta) a product of root factors and every stage
    output homogeneous, so only the check named fires.

    - eta_1 + eta_1^2 gives v_1 = 2 eta_1 eta_1'.
    - eta_(l+1) + eta_1' gives v_(l+1) the term eta_1'' of order 2; the X_1
      coefficient of Ad(u)(A_0^+) the derivative eta_1', through the
      bracket of X_(l+1) with A_0^+; and h_1 the linear term eta_1' that
      ell_1 lacks.
    - v_i gains a linear term from a second eta of the height of beta_i:
      on B3, eta_4 + eta_5 (both of height -2).  G2 has one root of each
      height below -1, so there eta_3 is doubled and v_3 gains eta_3'.
    - eta_1 replaced by 0 makes g_1 = -eta_1 vanish, and eta_2 replaced by
      eta_1 makes g_2 = -eta_1 a multiple of g_1.
    - 2 eta_1 leaves ldelta(Y) the Cartan component -eta_1 H_1, since the
      A_L of the true g_1 = -eta_1 cancels only the original one.
    - eta_j + eta_1 eta_1' for the first eta_j of height -3 gives h_j the
      term (eta_1 eta_1')' of order 2.
    The Cartan and positive components of ldelta(u) and the positive part
    of Ad(u)(A_0^+) are out of reach: brackets of negative root vectors are
    negative root vectors, and [X_-beta, X_alpha_i] is a positive root
    vector for no positive beta.
    """
    res = get_pipeline(*system)
    rep = res.rep
    label, l = rep.rs.label, rep.rank

    def stage1(i, extra):
        return lambda: construct.logderiv_unipotent(rep, _args_with(rep, i, extra))

    def stage2(i, extra):
        return lambda: construct.adjoint_on_A0(rep, _args_with(rep, i, extra))

    def ldelta_y(i, extra):
        args = _args_with(rep, i, extra)
        return lambda: construct.logderiv_Y(rep, args, res.liouville, res.stage2)

    i, extra = LINEAR_TERM[label]
    j = rep.rs.band(-3)[0]
    _fires(label, stage1(1, eta(1) * eta(1)), "logderiv_unipotent: v_1 should vanish")
    _fires(
        label,
        stage1(l + 1, eta(1, 1)),
        "logderiv_unipotent: v_%d has a term of order != 1" % (l + 1),
    )
    _fires(label, stage1(i, extra), "logderiv_unipotent: v_%d has a linear term" % i)
    _fires(
        label,
        stage2(l + 1, eta(1, 1)),
        "adjoint_on_A0: the X_1 coefficient contains derivatives",
    )
    _fires(label, stage2(1, -eta(1)), "adjoint_on_A0: the Cartan coefficient g_1 vanishes")
    _fires(
        label,
        stage2(2, eta(1) - eta(2)),
        "adjoint_on_A0: Cartan coefficients are linearly dependent",
    )
    _fires(label, ldelta_y(l + 1, eta(1, 1)), "logderiv_Y: q_1 has a linear term")
    _fires(label, ldelta_y(1, eta(1)), "logderiv_Y: H_1 component is nonzero")
    _fires(label, ldelta_y(j, eta(1) * eta(1, 1)), "logderiv_Y: q_%d has order > 1" % j)


@pytest.mark.parametrize("system", [("B", 3), ("G2", 2)], ids=["B3", "G2"])
def test_positive_part_check_fires_on_a_corrupted_A_L(system):
    """A_L + X_(l+1), with beta_(l+1) = -alpha_1 - alpha_2: the longest
    element of B3 and G2 is -1, so Ad(n(wbar)) maps X_(l+1) to a multiple
    of X_(alpha_1 + alpha_2), which the factor u_2(eta_2) brackets into
    eta_2 X_alpha_1 (the sign is that of the calibrated bases)."""
    res = get_pipeline(*system)
    rep = res.rep
    label, l = rep.rs.label, rep.rank
    al = linalg.mat_add([list(r) for r in res.liouville.A_L], rep.x_neg(l + 1))
    data = dataclasses.replace(res.liouville, A_L=tuple(tuple(r) for r in al))
    eta_args = [eta(k) for k in range(1, rep.m + 1)]
    _fires(
        label,
        lambda: construct.logderiv_Y(rep, eta_args, data, res.stage2),
        "logderiv_Y: positive component %r is DiffPoly(η2 +1)" % (rep.rs.simple(1).coeffs,),
    )


def _with_basis_matrix(rep, key, mat):
    """rep with the matrix of one basis key replaced; rep.cells, from which
    A_0^+, A_0^-, A_L and the Cartan sums are composed, keeps the true one."""
    kind, value = key
    if kind == "H":
        return dataclasses.replace(rep, H=rep.H[: value - 1] + (mat,) + rep.H[value:])
    return dataclasses.replace(rep, X={**rep.X, value: mat})


@pytest.mark.parametrize("system", [("B", 3), ("G2", 2)], ids=["B3", "G2"])
def test_build_A_L_checks_fire_on_a_corrupted_basis_matrix(system):
    """build_A_L conjugates rep.X and rep.H to find c and gbar, and checks
    the two identities on matrices composed from rep.cells.
    - X_1 + X_2 in place of X_1 is conjugated onto two root lines.
    - 2 X_1 halves c_1, so Ad(n(wbar))(A_0^-(c)) is 1/2 at a simple root.
    - 2 H_1 halves gbar_1 (the longest element of B3 and G2 is -1, so
      Ad(n(wbar)) H_1 = -H_1), and the Cartan identity fails."""
    res = get_pipeline(*system)
    rep = res.rep
    label = rep.rs.label
    x1 = ("X", rep.rs.neg_order[0].coeffs)
    corrupted = [
        (StructureViolation, (x1, linalg_oracle.mat_add(rep.x_neg(1), rep.x_neg(2))),
         "Ad(n(wbar)) sends X_1 off the root lines"),
        (VerificationFailure, (x1, linalg_oracle.mat_scale(rep.x_neg(1), 2)),
         "Ad(n(wbar))(A_0^-(c)) != A_0^+"),
        (VerificationFailure, (("H", 1), linalg_oracle.mat_scale(rep.H[0], 2)),
         "Ad(n(wbar))(sum gbar_i H_i) != -sum g_i H_i"),
    ]
    for error, (key, mat), message in corrupted:
        broken = _with_basis_matrix(rep, key, mat)
        with pytest.raises(error, match="^%s$" % re.escape("%s: build_A_L: %s" % (label, message))):
            construct.build_A_L(broken, res.stage2)


@pytest.mark.parametrize("system", [("B", 3), ("G2", 2)], ids=["B3", "G2"])
def test_integrand_order_check_fires_on_a_corrupted_v(system):
    # y_(l+1) integrates -v_(l+1) evaluated at y and its first derivatives
    res = get_pipeline(*system)
    rep = res.rep
    l = rep.rank
    v = dict(res.stage1.v)
    v[l + 1] = v[l + 1] + eta(1) * eta(1, 2)
    data = construct.build_A_L(rep, res.stage2)
    message = "%s: liouville_solutions: integrand of order > 1" % rep.rs.label
    with pytest.raises(StructureViolation, match="^%s$" % re.escape(message)):
        construct.liouville_solutions(rep, data, construct.Stage1Coeffs(v=v))


# ----- the coordinate stages against the matrix path -----

def _nonzero(coords):
    return {key: c for key, c in coords.items() if c}


@pytest.mark.parametrize(
    "system", ALL_SYSTEMS, ids=lambda s: s[0] if s[0] == "G2" else "%s%d" % s
)
def test_coordinate_stages_equal_the_matrix_path(system):
    """Stage 1, stage 2, ldelta(Y) and the tower, key by key with the zeros
    left out, against u, u^-1 and ldelta(u) multiplied out in matrices and
    decomposed (tests/construct_oracle.py)."""
    rep = get_rep(*system)
    rs, l = rep.rs, rep.rank
    eta_args = tuple(eta(i) for i in range(1, rep.m + 1))
    path = construct_oracle.UnipotentPath(rep, eta_args)
    simple = {("X", rs.simple(i).coeffs): DiffPoly.rational(1) for i in range(1, l + 1)}
    xkeys = [("X", b.coeffs) for b in rs.neg_order]

    stage1 = construct.logderiv_unipotent(rep, eta_args)
    got = {key: eta(i, 1) + stage1.v.get(i, 0) for i, key in enumerate(xkeys, start=1)}
    assert _nonzero(got) == path.ldelta_coordinates()

    stage2 = construct.adjoint_on_A0(rep, eta_args)
    got = dict(simple)
    got.update((("H", i), g) for i, g in enumerate(stage2.g, start=1))
    got.update((key, e + p) for key, e, p in zip(xkeys, stage2.ell, stage2.p))
    assert _nonzero(got) == path.adjoint_coordinates(rep.a0_plus())

    data = construct.liouville_solutions(rep, construct.build_A_L(rep, stage2), stage1)
    want = construct_oracle.tower_coordinates(rep, data.z, data.y)
    assert _nonzero(construct._check_tower_coordinates(rep, data)) == want

    h = construct.logderiv_Y(rep, eta_args, data, stage2)
    got = dict(simple)
    got.update(zip(xkeys, h))
    want = path.gauge_coordinates(chevalley.weyl_adjoint(data.nw, data.A_L))
    assert _nonzero(got) == want


# ----- exceptional isomorphisms -----


def _invariants(type_label, rank, relabel=None):
    """The invariants h_j in ascending complementary index j, with eta_i
    renamed eta_relabel[i] when a relabelling is given."""
    h = [hj for _, hj in sorted(get_pipeline(type_label, rank).invariants.h.items())]
    if relabel is None:
        return h
    sigma = {i: DiffPoly.eta(relabel.get(i, i)) for i in range(1, rank + 1)}
    return [hj.substitute(sigma) for hj in h]


SWAP_12 = {1: 2, 2: 1}


def test_d3_invariants_are_those_of_a3_under_the_swap_of_eta1_and_eta2():
    # A3 = D3 (the 4- and 6-dimensional representations); the central node
    # of D3 is alpha_1, that of A3 alpha_2
    a3 = _invariants("A", 3)
    assert _invariants("D", 3, SWAP_12) == a3
    # negative control: without the relabelling no invariant matches
    assert all(d != a for d, a in zip(_invariants("D", 3), a3))


def _c2_from_b2(b2, h2c):
    """What B2 = C2 predicts for C2's (h_2, h_4) from B2's, both in C2's
    labelling: h_2 = 2 h_2^B and h_4 = -h_4^B + (h_2)^2/4 - (h_2)''/2."""
    return [2 * b2[0], -b2[1] + Fraction(1, 4) * h2c * h2c - Fraction(1, 2) * h2c.derive(2)]


def test_c2_invariants_follow_from_those_of_b2_under_the_swap_of_eta1_and_eta2():
    # B2 = C2 (the 5- and 4-dimensional representations)
    c2 = _invariants("C", 2)
    assert _c2_from_b2(_invariants("B", 2, SWAP_12), c2[0]) == c2
    # negative control: without the relabelling neither relation holds
    assert all(x != y for x, y in zip(_c2_from_b2(_invariants("B", 2), c2[0]), c2))
