import dataclasses
import json
import random
import re
from fractions import Fraction

import pytest

from pvext import chevalley, cli, construct, gauge, linalg
from pvext.diffpoly import DiffPoly, lift_matrix, parse
from pvext.errors import DimMismatch, NonUnitScaling, VerificationFailure

from conftest import ALL_SYSTEMS, get_pipeline, get_rep
import diffpoly_oracle
import factor_oracle
import gauge_oracle
import linalg_oracle


def dp_matrix(rows):
    return [
        [x if isinstance(x, DiffPoly) else DiffPoly.rational(x) for x in row]
        for row in rows
    ]


def test_is_in_plane_basics(rep_a2):
    a0 = dp_matrix(rep_a2.a0_plus())
    ok, s = gauge.is_in_plane(rep_a2, a0)
    assert ok and s == (Fraction(1), Fraction(1))
    with_h = linalg.mat_add(a0, [[DiffPoly.eta(1) * x for x in row] for row in rep_a2.H[0]])
    ok, s = gauge.is_in_plane(rep_a2, with_h)
    assert ok and s == (Fraction(1), Fraction(1))
    bad = linalg.mat_add(a0, dp_matrix(rep_a2.X[(1, 1)]))
    ok, s = gauge.is_in_plane(rep_a2, bad)
    assert not ok and s is None


def test_is_in_plane_refuses_a_matrix_of_another_size(rep_a2):
    # the 3 x 3 plane matrix bordered by a fourth row and column was (True, (1, 1))
    bordered = [row + [0] for row in rep_a2.a0_plus()] + [[0, 0, 0, 7]]
    for a in (bordered, [row[:2] for row in rep_a2.a0_plus()[:2]]):
        with pytest.raises(DimMismatch):
            gauge.is_in_plane(rep_a2, a)


def test_riccati(rep_a1):
    a = [[parse("n1"), parse("1")], [parse("0"), parse("0 - n1")]]
    g, word, f = gauge.normalize_to_AG(rep_a1, a)
    assert f == {1: parse("n1' + n1^2")}
    want_u = factor_oracle.root_letter(rep_a1, rep_a1.rs.neg_order[0], parse("n1"))
    assert linalg.mat_eq(g, want_u)


def test_idempotence(rep_a1):
    a = [[DiffPoly.zero(), DiffPoly.rational(1)], [parse("n1' + n1^2"), DiffPoly.zero()]]
    g, word, f = gauge.normalize_to_AG(rep_a1, a)
    assert linalg.mat_eq(g, linalg.eye(2))
    assert f == {1: parse("n1' + n1^2")}


def test_rescaling_square(rep_a1):
    # s = 4 admits the rational rescaling z = 1/2
    a = [[DiffPoly.zero(), DiffPoly.rational(4)], [parse("n2"), DiffPoly.zero()]]
    g, word, f = gauge.normalize_to_AG(rep_a1, a)
    assert f == {1: parse("4 n2")}


def test_rescaling_radical_refused(rep_a1):
    a = [[DiffPoly.zero(), DiffPoly.rational(2)], [DiffPoly.zero(), DiffPoly.zero()]]
    radical = r"^A1: normalize_to_AG: rescaling needs the radical \(2\)\^\(1/2\)$"
    with pytest.raises(NonUnitScaling, match=radical):
        gauge.normalize_to_AG(rep_a1, a)


def test_rescaling_check_fires_on_a_wrong_character(monkeypatch):
    # the coordinates are rescaled by chevalley.character, and z is checked
    # through it: a character off by a factor of 2 fails the check
    rep = get_rep("B", 3)
    a = rep.a0_plus((4, Fraction(1, 4), 9))
    gauge.normalize_to_AG(rep, a)
    character = chevalley.character
    monkeypatch.setattr(chevalley, "character", lambda rs, z, beta: 2 * character(rs, z, beta))
    with pytest.raises(NonUnitScaling, match=r"^B3: normalize_to_AG: chi_alpha_1\(z\) s_1 != 1$"):
        gauge.normalize_to_AG(rep, a)


def test_normalize_refuses_a_matrix_of_another_size(rep_a1):
    for a in ([[0, 1, 0], [0, 0, 0]], [[0, 1]], [[0, 1], [0]]):
        with pytest.raises(DimMismatch):
            gauge.normalize_to_AG(rep_a1, [[Fraction(x) for x in row] for row in a])


def test_not_in_plane_rejected(rep_a2):
    # the message names the system, the stage and the offending coordinate
    # or entry
    plane = r"^A2: normalize_to_AG: matrix is not in the plane A_0\^\+\(s\) \+ b\^-: "
    a0 = rep_a2.a0_plus()
    cases = [
        (linalg.eye(3), r"entry \(2, 2\) is outside the span$"),
        (dp_matrix(rep_a2.X[(1, 1)]), r"the X_\(1, 0\) coefficient is not a nonzero constant$"),
        (linalg.mat_add(dp_matrix(a0), [[DiffPoly.eta(1) * x for x in row] for row in rep_a2.X[(0, 1)]]),
         r"the X_\(0, 1\) coefficient is not a nonzero constant$"),
        (linalg.mat_add(a0, rep_a2.X[(1, 1)]), r"the X_\(1, 1\) coefficient is nonzero$"),
    ]
    for a, what in cases:
        with pytest.raises(VerificationFailure, match=plane + what):
            gauge.normalize_to_AG(rep_a2, a)
        assert gauge.is_in_plane(rep_a2, a) == (False, None)


def test_cross_check_with_construct_invariants():
    # gauge-normalizing A_0^+ + sum eta_i H_i reproduces the pipeline's
    # invariants: the same triangular eliminations running in another guise
    for t, r in [("A", 2), ("A", 3), ("G2", 2)]:
        res = get_pipeline(t, r)
        rep = res.rep
        a = dp_matrix(rep.a0_plus())
        for i in range(rep.rank):
            a = linalg.mat_add(
                a, [[DiffPoly.eta(i + 1) * x for x in row] for row in rep.H[i]]
            )
        g, word, f = gauge.normalize_to_AG(rep, a)
        assert f == res.invariants.h


def _random_poly(rng, nvars, max_degree=2):
    p = DiffPoly.zero()
    for _ in range(rng.randint(0, 3)):
        mono = DiffPoly.rational(Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(1, max_degree)):
            mono = mono * DiffPoly.eta(rng.randint(1, nvars), rng.randint(0, 1))
        p = p + mono
    return p


def test_randomized_plane_matrices():
    rng = random.Random(31)
    for t, r in [("A", 2), ("A", 3)]:
        rep = get_rep(t, r)
        for _ in range(12):
            a = dp_matrix(rep.a0_plus())
            for i in range(rep.rank):
                p = _random_poly(rng, rep.rank)
                a = linalg.mat_add(a, [[p * x for x in row] for row in rep.H[i]])
            for b in rep.rs.neg_order:
                p = _random_poly(rng, rep.rank)
                a = linalg.mat_add(
                    a, [[p * x for x in row] for row in rep.X[b.coeffs]]
                )
            g, word, f = gauge.normalize_to_AG(rep, a)
            assert set(f) == set(rep.rs.comp_roots)


def test_rescaling_nonsymmetric_cartan():
    # det of the G2 Cartan matrix is 1: every rational s rescales rationally
    rep = get_rep("G2", 2)
    a = dp_matrix(linalg.mat_add(
        linalg_oracle.mat_scale(rep.X[(1, 0)], Fraction(2)),
        linalg_oracle.mat_scale(rep.X[(0, 1)], Fraction(3)),
    ))
    a = linalg.mat_add(a, [[DiffPoly.eta(1) * x for x in row] for row in rep.H[0]])
    ok, s = gauge.is_in_plane(rep, a)
    assert ok and s == (Fraction(2), Fraction(3))
    g, word, f = gauge.normalize_to_AG(rep, a)
    assert set(f) == {2, 6}


def test_rescaling_b2_square_and_radical():
    rep = get_rep("B", 2)
    base = linalg.mat_add(
        linalg_oracle.mat_scale(rep.X[(1, 0)], Fraction(4)),
        dp_matrix(rep.X[(0, 1)]),
    )
    a = dp_matrix(base)
    a = linalg.mat_add(a, [[DiffPoly.eta(2) * x for x in row] for row in rep.H[1]])
    g, word, f = gauge.normalize_to_AG(rep, a)  # s = (4, 1): z_2 = 1/2
    assert set(f) == set(rep.rs.comp_roots)
    bad = dp_matrix(linalg.mat_add(
        linalg_oracle.mat_scale(rep.X[(1, 0)], Fraction(2)),
        dp_matrix(rep.X[(0, 1)]),
    ))
    with pytest.raises(NonUnitScaling):
        gauge.normalize_to_AG(rep, bad)


def test_rescaling_a2_cube():
    # s = (8, 1) needs 8^(2/3) = 4: rational, so the rescale succeeds
    rep = get_rep("A", 2)
    a = dp_matrix(linalg.mat_add(
        linalg_oracle.mat_scale(rep.X[(1, 0)], Fraction(8)),
        dp_matrix(rep.X[(0, 1)]),
    ))
    a = linalg.mat_add(a, [[DiffPoly.eta(1) * x for x in row] for row in rep.H[0]])
    g, word, f = gauge.normalize_to_AG(rep, a)
    assert set(f) == set(rep.rs.comp_roots)


def test_nth_root_is_exact_beyond_float_range():
    assert gauge._nth_root(Fraction(10 ** 400), 2) == 10 ** 200
    assert gauge._nth_root(Fraction(-(10 ** 300), 7 ** 399), 3) == Fraction(-(10 ** 100), 7 ** 133)
    assert gauge._nth_root(Fraction(10 ** 400 + 1), 2) is None
    assert gauge._nth_root(Fraction(2), 2) is None
    assert gauge._nth_root(Fraction(27, 8), 3) == Fraction(3, 2)


def test_normalize_decomposes_no_constant_matrix_twice(monkeypatch, rep_a3):
    # the running matrix is carried in coordinates, so the input is lifted
    # and decomposed once, by the plane test, and never again, a torus
    # rescaling included; each root letter's t is derived once, by the
    # coordinate gauge step, and the g-check derives in its accumulators
    seen, derived, lifted = [], [], []
    decompose, derive, lift = chevalley.decompose_in_basis, DiffPoly.derive, gauge.lift_matrix

    def recording(rep, a):
        seen.append(a)
        return decompose(rep, a)

    monkeypatch.setattr(chevalley, "decompose_in_basis", recording)
    monkeypatch.setattr(DiffPoly, "derive", lambda p: derived.append(p) or derive(p))
    monkeypatch.setattr(gauge, "lift_matrix", lambda a: lifted.append(a) or lift(a))
    constants = list(rep_a3.H) + [rep_a3.x_neg(j) for j in range(1, rep_a3.m + 1)]
    for s in (None, (16, 1, 1)):  # s_1 = 2^4, det C = 4
        a = linalg.mat_add(rep_a3.a0_plus(s), rep_a3.x_neg(rep_a3.m))
        a = linalg.mat_add(a, [[DiffPoly.eta(1) * x for x in row] for row in rep_a3.H[0]])
        del seen[:], derived[:], lifted[:]
        _, word, _ = gauge.normalize_to_AG(rep_a3, a)
        assert len(seen) == 1 and len(lifted) == 1
        assert not any(a is c for a in seen for c in constants)
        letters = [t for (kind, _), t in word if kind == "X"]
        assert len(letters) == 6 and any(letters)
        assert sorted(map(id, derived)) == sorted(map(id, letters))


def test_every_level_of_the_normalization_has_columns():
    # normalize_to_AG solves level 0 for the W of band -1 and each level q
    # for the W of band q - 1: the heights run -1, -2, ... without a gap,
    # so only the last level has no band below.  That level holds the
    # lowest root alone, and it is complementary, so every level has
    # columns and every f_j is solved at its own level.
    for system in ALL_SYSTEMS:
        rs = get_rep(*system).rs
        assert list(rs.bands) == list(range(-1, -len(rs.bands) - 1, -1)), system
        assert rs.bands[-len(rs.bands)] == (rs.m,) and rs.m in rs.comp_roots, system


def _gauges_to(g, a, want):
    """g' + g a == want g: gauge(g, a) == want for an invertible g."""
    g, a = lift_matrix(g), lift_matrix(a)
    lhs = linalg.mat_add(linalg_oracle.mat_derive(g), linalg.mat_mul(g, a))
    return linalg.mat_eq(lhs, linalg.mat_mul(want, g))


SCALES = (Fraction(2), Fraction(1, 2), Fraction(3, 2))
SYSTEMS = [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("G2", 2), ("D", 4)]
SYSTEM_IDS = ["A2", "A3", "B3", "C3", "G2", "D4"]


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
@pytest.mark.parametrize("rescaled", [False, True], ids=["s=1", "rescaled"])
def test_returned_transform_gauges_the_input_to_A_G(system, rescaled):
    rep = get_rep(*system)
    rng = random.Random("%s%d:%s" % (system + (rescaled,)))
    # each s_i a d-th power, d = |det C|, so that the torus rescaling is rational
    d = round(abs(linalg.det([[Fraction(c) for c in row] for row in rep.rs.cartan])))
    for _ in range(2):
        s = [rng.choice(SCALES) ** d for _ in range(rep.rank)]
        a = dp_matrix(rep.a0_plus(s if rescaled else None))
        for mat in list(rep.H) + [rep.X[b.coeffs] for b in rep.rs.neg_order[:3]]:
            p = _random_poly(rng, rep.rank, max_degree=1)
            a = linalg.mat_add(a, [[p * x for x in row] for row in mat])
        g, word, f = gauge.normalize_to_AG(rep, a)
        assert (word[0][0][0] == "H") == rescaled  # the constant torus letters come first
        assert _gauges_to(g, a, construct.assemble_A_G(rep, f))


def test_cli_transform_gauges_the_input_to_A_G(tmp_path, capsys, rep_a2):
    # A_0^+ + eta_1 H_1 + eta_2 H_2 needs three factors that do not commute
    a = dp_matrix(rep_a2.a0_plus())
    for i in range(2):
        a = linalg.mat_add(a, [[DiffPoly.eta(i + 1) * x for x in row] for row in rep_a2.H[i]])
    m = tmp_path / "plane.json"
    rows = [[diffpoly_oracle.DiffPoly(x.terms).to_json_obj() for x in row] for row in a]
    m.write_text(json.dumps(rows))
    assert cli.main(["gauge-normalize", "--type", "A", "--rank", "2", "--matrix", str(m)]) == 0
    out = json.loads(capsys.readouterr().out)
    g = [[DiffPoly.from_json_obj(x) if isinstance(x, dict) else Fraction(x) for x in row]
         for row in out["transform"]]
    f = {int(k): DiffPoly.from_json_obj(v) for k, v in out["f"].items()}
    assert _gauges_to(g, a, construct.assemble_A_G(rep_a2, f))


def _fraction_plane_matrix(rep, rng, s=None):
    """A_0^+(s) plus seeded rational multiples of every H_i and X_b, b < 0,
    as a matrix of Fractions."""
    a = rep.a0_plus(s)
    for mat in list(rep.H) + [rep.X[b.coeffs] for b in rep.rs.neg_order]:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        a = linalg.mat_add(a, [[c * x for x in row] for row in mat])
    return a


def _plane_matrix(rep, rng, s=None):
    """A_0^+(s) plus seeded polynomial multiples of every H_i and X_b, b < 0."""
    a = dp_matrix(rep.a0_plus(s))
    for mat in list(rep.H) + [rep.X[b.coeffs] for b in rep.rs.neg_order]:
        p = _random_poly(rng, rep.rank, max_degree=1)
        a = linalg.mat_add(a, [[p * x for x in row] for row in mat])
    return a


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_normalize_agrees_with_the_matrix_loop(system):
    rep = get_rep(*system)
    rng = random.Random("oracle:%s%d" % system)
    d = round(abs(linalg.det([[Fraction(c) for c in row] for row in rep.rs.cartan])))
    for index in range(4):
        s = [rng.choice(SCALES) ** d for _ in range(rep.rank)] if index % 2 else None
        a = _plane_matrix(rep, rng, s)
        inputs = [a, _fraction_plane_matrix(rep, rng, s)]
        for a in inputs:
            g, word, f = gauge.normalize_to_AG(rep, a)
            want_g, want_word, want_f = gauge_oracle.normalize_to_AG(rep, a)
            assert g == want_g
            assert [list(map(type, row)) for row in g] == [list(map(type, row)) for row in want_g]
            assert word == want_word
            assert [type(t) for _, t in word] == [type(t) for _, t in want_word]
            assert (word[0][0] == ("H", 1)) == (s is not None)
            assert f == want_f


def _random_coordinates(rep, rng):
    coords = {}
    for key in rep.basis_order:
        if rng.random() < 0.7:
            coords[key] = _random_poly(rng, rep.rank, max_degree=1) + rng.randint(-2, 2)
    return coords


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_unipotent_adjoint_is_conjugation_on_coordinates(system):
    # exp(t ad X_b) on coordinates against decompose(u A u^-1), u = u_b(t)
    rep = get_rep(*system)
    rng = random.Random("adjoint:%s%d" % system)
    for b in rep.rs.neg_order:
        coords = _random_coordinates(rep, rng)
        a = linalg_oracle.combination(
            [(c, rep.H[key - 1] if kind == "H" else rep.X[key]) for (kind, key), c in coords.items()],
            rep.dim, DiffPoly.zero(),
        )
        t = _random_poly(rng, rep.rank) - 1
        u = factor_oracle.root_letter(rep, b, t)
        conj = linalg_oracle.mat_mul(linalg_oracle.mat_mul(u, a), factor_oracle.root_letter(rep, b, -t))
        want = {k: v for k, v in chevalley.decompose_in_basis(rep, conj).items() if v}
        assert chevalley.unipotent_adjoint(rep, b, t, coords) == want


@pytest.mark.parametrize("system", SYSTEMS, ids=SYSTEM_IDS)
def test_unipotent_gauge_is_the_gauge_on_coordinates(system):
    # Ad(u)(A) + t' X_b on coordinates against decompose(u A u^-1 + u' u^-1)
    rep = get_rep(*system)
    rng = random.Random("gauge:%s%d" % system)
    for b in rep.rs.neg_order:
        coords = _random_coordinates(rep, rng)
        a = linalg_oracle.combination(
            [(c, rep.H[key - 1] if kind == "H" else rep.X[key]) for (kind, key), c in coords.items()],
            rep.dim, DiffPoly.zero(),
        )
        t = _random_poly(rng, rep.rank) - 1
        u, uinv = factor_oracle.root_letter(rep, b, t), factor_oracle.root_letter(rep, b, -t)
        conj = linalg_oracle.mat_mul(linalg_oracle.mat_mul(u, a), uinv)
        ldelta = linalg_oracle.mat_mul(linalg_oracle.mat_derive(u), uinv)
        want = {k: v for k, v in chevalley.decompose_in_basis(rep, linalg.mat_add(conj, ldelta)).items() if v}
        assert chevalley.unipotent_gauge(rep, b, t, coords) == want
        dt = t.derive()
        assert chevalley.unipotent_gauge(rep, b, t, {}) == ({("X", b.coeffs): dt} if dt else {})


def test_residual_check_fires_on_a_flipped_structure_constant():
    # a wrong [X_b, X_a] moves the gauged coordinates off the W-basis solve
    rep = get_rep("A", 3)
    a = dp_matrix(rep.a0_plus())
    for i in range(rep.rank):
        a = linalg.mat_add(a, [[DiffPoly.eta(i + 1) * x for x in row] for row in rep.H[i]])
    gauge.normalize_to_AG(rep, a)
    simple = {rep.rs.simple(i).coeffs for i in range(1, rep.rank + 1)}
    flips = [(b, s) for b, s in rep.nconst if s in simple and sum(b) < -1]
    assert flips
    for key in flips:
        nconst = dict(rep.nconst)
        nconst[key] = -nconst[key]
        with pytest.raises(
            VerificationFailure,
            match=r"^A3: normalize_to_AG: residual coordinates are not those of A_G\(f\)$",
        ):
            gauge.normalize_to_AG(dataclasses.replace(rep, nconst=nconst), a)


@pytest.mark.parametrize("system", [("A", 3), ("B", 3), ("G2", 2)], ids=["A3", "B3", "G2"])
def test_no_flipped_structure_constant_passes_unnoticed(system):
    # the residual or the matrix g-check catches every sign the coordinate
    # action uses; a flip that changes nothing is a constant it never reads
    rep = get_rep(*system)
    a = _plane_matrix(rep, random.Random("flip:%s%d" % system))
    g, _, f = gauge.normalize_to_AG(rep, a)
    caught = 0
    for key in rep.nconst:
        nconst = dict(rep.nconst)
        nconst[key] = -nconst[key]
        try:
            got_g, _, got_f = gauge.normalize_to_AG(dataclasses.replace(rep, nconst=nconst), a)
        except VerificationFailure:
            caught += 1
        else:
            assert got_g == g and got_f == f
    assert caught


@pytest.mark.parametrize("system, fired", [(("B", 3), 8), (("G2", 2), 4)], ids=["B3", "G2"])
def test_g_check_fires_on_a_doubled_exponential_cell(system, fired):
    # u_b(x) is built from exp_cells, the coordinate action from nconst: a
    # doubled cell of a root used as a factor leaves the residual right and
    # g wrong, and only the matrix check of g sees it
    rep = get_rep(*system)
    a = _plane_matrix(rep, random.Random("cells:%s%d" % system))
    g, _, f = gauge.normalize_to_AG(rep, a)
    message = r"^%s: normalize_to_AG: g' \+ g a - A_G\(f\) g is nonzero at entry \(\d+, \d+\)$" % (
        rep.rs.label
    )
    caught = []
    for key, cells in rep.exp_cells.items():
        r, c, k, p = cells[-1]
        broken = dataclasses.replace(
            rep, exp_cells={**rep.exp_cells, key: cells[:-1] + ((r, c, k, 2 * p),)}
        )
        try:
            got_g, _, got_f = gauge.normalize_to_AG(broken, a)
        except VerificationFailure as exc:
            assert re.match(message, str(exc))
            caught.append(key)
        else:
            # a positive root, or a root whose factor is never taken
            assert got_g == g and got_f == f
    assert len(caught) == fired
    assert all(sum(key) < 0 for key in caught)


def test_g_check_fires_on_a_corrupted_torus_diagonal():
    # t(z) is built from the diagonals of the H_i (torus_element), the
    # rescaled coordinates from the characters: one diagonal entry of H_j
    # off by one leaves the residual right and g wrong by z_j at one row
    rep = get_rep("B", 3)
    s = (4, Fraction(1, 4), 9)
    a = _plane_matrix(rep, random.Random("torus:B3"), s)
    g, word, f = gauge.normalize_to_AG(rep, a)
    z = gauge._torus_rescaling(rep, s)
    assert word[:3] == [(("H", j), zj) for j, zj in enumerate(z, start=1)]
    assert all(zj != 1 for zj in z)
    message = r"^B3: normalize_to_AG: g' \+ g a - A_G\(f\) g is nonzero at entry \(\d+, \d+\)$"
    for j in range(rep.rank):
        for r in range(rep.dim):
            h = [list(row) for row in rep.H[j]]
            h[r][r] += 1
            broken = dataclasses.replace(rep, H=rep.H[:j] + (h,) + rep.H[j + 1:])
            with pytest.raises(VerificationFailure, match=message):
                gauge.normalize_to_AG(broken, a)


THROUGH_RANK_5_AND_A6 = [("A", r) for r in range(1, 7)] + [
    (t, r) for t in "BC" for r in (2, 3, 4, 5)
] + [("D", 3), ("D", 4), ("D", 5), ("G2", 2)]


def _weyl_image(res):
    """B = Ad(n(wbar))(A_L), the plane matrix whose generic normal form the
    pipeline derives."""
    return chevalley.weyl_adjoint(res.liouville.nw, res.liouville.A_L)


@pytest.mark.parametrize(
    "system", THROUGH_RANK_5_AND_A6, ids=lambda s: s[0] if s[0] == "G2" else "%s%d" % s
)
def test_normalizing_the_weyl_image_of_A_L_gives_h_and_U(system):
    # the unipotent normal form is unique, so gauge normalization, which
    # solves for letter parameters band by band, must land on the pipeline's
    # invariants and on its U = u(eta_1..eta_l, f_(l+1)..f_m)
    res = get_pipeline(*system)
    rep, inv = res.rep, res.invariants
    g, _, f = gauge.normalize_to_AG(rep, _weyl_image(res))
    assert f == inv.h
    u = construct.unipotent_product(
        rep, [DiffPoly.eta(i) if i <= rep.rank else inv.f[i] for i in range(1, rep.m + 1)]
    )
    assert linalg.mat_eq(g, u)


@pytest.mark.parametrize("system", [("A", 1), ("A", 3), ("B", 3), ("D", 4), ("G2", 2)],
                         ids=lambda s: s[0] if s[0] == "G2" else "%s%d" % s)
def test_a_corrupted_coordinate_of_the_weyl_image_changes_h(system):
    # one b^- coordinate of B, that of the lowest root, raised by one
    res = get_pipeline(*system)
    rep = res.rep
    lowest = rep.X[rep.rs.neg_order[-1].coeffs]
    corrupted = linalg.mat_add(_weyl_image(res), lowest)
    _, _, f = gauge.normalize_to_AG(rep, corrupted)
    assert f != res.invariants.h


def _random_specialization(rng, l):
    """A seeded differential substitution of eta_1..eta_l: each eta_i goes
    to c_0 + c_1 eta_j + c_2 eta_k' + c_3 eta_j eta_k, with j, k and the
    non-zero small c drawn."""
    sigma = {}
    for i in range(1, l + 1):
        j, k = rng.randint(1, l), rng.randint(1, l)
        c = [rng.choice([-2, -1, 1, 2, 3]) for _ in range(4)]
        sigma[i] = (c[0] + c[1] * DiffPoly.eta(j) + c[2] * DiffPoly.eta(k, 1)
                    + c[3] * DiffPoly.eta(j) * DiffPoly.eta(k))
    return sigma


def _normalized_specialization(res, sigma):
    """f of normalize_to_AG(sigma(B)), B the Weyl image of A_L."""
    image = [[x.substitute(sigma) for x in row] for row in lift_matrix(_weyl_image(res))]
    return gauge.normalize_to_AG(res.rep, image)[2]


@pytest.mark.parametrize(
    "system", THROUGH_RANK_5_AND_A6, ids=lambda s: s[0] if s[0] == "G2" else "%s%d" % s
)
def test_specialization_commutes_with_normalization(system):
    # normalizing sigma(B) gives the invariants of sigma(B), and h is a
    # differential polynomial in eta, so they are sigma(h)
    res = get_pipeline(*system)
    sigma = _random_specialization(random.Random(3700), res.rep.rank)
    normalized = _normalized_specialization(res, sigma)
    assert normalized == construct.specialize(res.rep, res.invariants, sigma)[0]
    # negative control: the invariants specialized with eta_1's constant
    # raised by one (normalizing sigma(B) is the cost, so it is done once)
    changed = dict(sigma)
    changed[1] = sigma[1] + 1
    assert normalized != construct.specialize(res.rep, res.invariants, changed)[0]
