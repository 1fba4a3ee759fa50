import re
from dataclasses import replace
from fractions import Fraction

import pytest

from pvext import rootsys
from pvext.errors import DependentRoots, NotARoot, StructureViolation, UnsupportedType
from pvext.rootsys import Root

import chevalley_oracle
from chevalley_oracle import cartan_integer


def eps_realization_a3():
    """Independent oracle: the standard A_3 realization in R^4."""
    eps = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def minus(a, b):
        return tuple(x - y for x, y in zip(a, b))

    simples = [minus(eps[i], eps[i + 1]) for i in range(3)]

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    return simples, dot


def test_a3_roots():
    rs = rootsys.build_root_system("A", 3)
    assert rs.m == 6
    negatives = {r.coeffs for r in rs.neg_order}
    assert negatives == {
        (-1, 0, 0), (0, -1, 0), (0, 0, -1),
        (-1, -1, 0), (0, -1, -1), (-1, -1, -1),
    }


def test_g2_roots():
    rs = rootsys.build_root_system("G2", 2)
    assert rs.m == 6
    assert Root((-3, -2)) in rs.neg_order


# every supported system through rank 12: 12 of A, 11 of B and of C, 10 of D, and G2
SYSTEMS_TO_RANK_12 = (
    [("A", r) for r in range(1, 13)]
    + [(t, r) for t in "BC" for r in range(2, 13)]
    + [("D", r) for r in range(3, 13)]
    + [("G2", 2)]
)


def test_positive_roots_are_those_of_the_root_string_closure():
    assert len(SYSTEMS_TO_RANK_12) == 45
    for t, r in SYSTEMS_TO_RANK_12:
        cartan = rootsys._cartan_matrix(t, r)
        assert rootsys._generate_positive(cartan, r) == chevalley_oracle.positive_roots_by_strings(
            cartan, r
        ), (t, r)


def test_a1_trivial():
    rs = rootsys.build_root_system("A", 1)
    assert {r.coeffs for r in rs.roots} == {(1,), (-1,)}
    assert rs.m == 1
    assert rs.neg_order == (Root((-1,)),)


def test_inadmissible():
    with pytest.raises(UnsupportedType):
        rootsys.build_root_system("E", 8)
    with pytest.raises(UnsupportedType):
        rootsys.build_root_system("B", 1)
    with pytest.raises(UnsupportedType):
        rootsys.build_root_system("D", 2)
    with pytest.raises(UnsupportedType):
        rootsys.build_root_system("G2", 3)


def test_ordering_a3(rep_a3):
    # after complementary installation: the worked ordering
    rs = rep_a3.rs
    assert [r.coeffs for r in rs.neg_order] == [
        (-1, 0, 0), (0, -1, 0), (0, 0, -1),
        (-1, -1, 0), (0, -1, -1), (-1, -1, -1),
    ]
    assert rs.comp_roots == (3, 5, 6)


def test_ordering_g2(rep_g2):
    rs = rep_g2.rs
    assert [r.coeffs for r in rs.neg_order] == [
        (-1, 0), (0, -1), (-1, -1), (-2, -1), (-3, -1), (-3, -2),
    ]
    assert rs.comp_roots == (2, 6)


def test_ordering_invariants():
    for t, r in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)]:
        rs = rootsys.build_root_system(t, r)
        heights = [b.height() for b in rs.neg_order]
        assert heights == sorted(heights, reverse=True)


def test_mixed_sign_rejected():
    with pytest.raises(NotARoot):
        Root((1, -1))


@pytest.mark.parametrize("i", [0, 4, -1])
def test_simple_root_index_out_of_range_is_refused(i):
    # 0 and rank + 1 are past either end, and -1 would index the last root
    rs = rootsys.build_root_system("A", 3)
    with pytest.raises(NotARoot, match=re.escape("no simple root %d in rank 3" % i)):
        rs.simple(i)
    assert [rs.simple(j).coeffs for j in (1, 2, 3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_tables_are_those_of_the_roots():
    # codes add as the vectors do; pairings are the Cartan matrix's;
    # negations and simple roots are the system's own values, built once;
    # finalize_order carries the tables over unchanged
    rs = rootsys.build_root_system("B", 3)
    for root in rs.roots:
        c = root.coeffs
        assert rs.codes[c] == sum(k * 16 ** j for j, k in enumerate(c))
        assert rs.root_of_code[rs.codes[c]] == c
        assert rs.pairings[c] == tuple(rootsys.pairing(rs.cartan, c, i) for i in range(3))
        assert rs.negative(root) == -root and rs.negative(root) in rs.roots
    assert rs.simple(2) is rs.simple(2)
    final = rootsys.finalize_order(rs, [rs.neg_order[0]])
    for table in ("codes", "root_of_code", "pairings"):
        assert getattr(final, table) is getattr(rs, table)
    assert final.simple(1) is rs.simple(1)


def test_cartan_diagonal():
    rs = rootsys.build_root_system("A", 3)
    for i in range(1, 4):
        assert cartan_integer(rs, rs.simple(i), rs.simple(i)) == 2


def test_cartan_a3_against_realization():
    rs = rootsys.build_root_system("A", 3)
    simples, dot = eps_realization_a3()
    for i in range(3):
        for j in range(3):
            oracle = Fraction(2 * dot(simples[i], simples[j]), dot(simples[j], simples[j]))
            assert cartan_integer(rs, rs.simple(i + 1), rs.simple(j + 1)) == oracle
    assert cartan_integer(rs, rs.simple(1), rs.simple(2)) == -1


def test_cartan_g2_short_long():
    rs = rootsys.build_root_system("G2", 2)
    # forced by -3a1 - a2 being a root; cross-check via the root string:
    # the string extends three steps against beta = -a1
    assert cartan_integer(rs, rs.simple(2), rs.simple(1)) == -3
    r, q = rootsys.root_string(rs, rs.simple(2).coeffs, (-rs.simple(1)).coeffs)
    assert (r, q) == (3, 0)


def test_cartan_not_a_root():
    rs = rootsys.build_root_system("A", 2)
    with pytest.raises(NotARoot):
        cartan_integer(rs, Root((2, 0)), rs.simple(1))


def test_root_string_examples():
    rs = rootsys.build_root_system("A", 3)
    # r, q maximal with alpha - r beta and alpha + q beta roots
    assert rootsys.root_string(rs, rs.simple(2).coeffs, (-rs.simple(1)).coeffs) == (1, 0)
    assert rootsys.root_string(rs, rs.simple(1).coeffs, rs.simple(3).coeffs) == (0, 0)


def test_root_string_oracle_all_pairs():
    for t, r in [("A", 3), ("G2", 2), ("B", 3), ("C", 4), ("D", 4)]:
        rs = rootsys.build_root_system(t, r)
        for alpha in rs.roots:
            for beta in rs.roots:
                if alpha.coeffs in (beta.coeffs, (-beta).coeffs):
                    continue
                got = rootsys.root_string(rs, alpha.coeffs, beta.coeffs)
                assert got == chevalley_oracle.root_string(rs, alpha, beta)


def test_root_string_dependent():
    rs = rootsys.build_root_system("A", 2)
    for beta in (rs.simple(1), -rs.simple(1)):
        with pytest.raises(DependentRoots):
            rootsys.root_string(rs, rs.simple(1).coeffs, beta.coeffs)


def test_root_string_refuses_a_vector_that_is_no_root():
    rs = rootsys.build_root_system("A", 2)
    for alpha, beta in (((2, 0), (0, 1)), ((0, 1), (1, -1))):
        with pytest.raises(NotARoot, match="^string endpoints must be roots$"):
            rootsys.root_string(rs, alpha, beta)


def test_longest_word_a1():
    rs = rootsys.build_root_system("A", 1)
    assert rootsys.longest_weyl_word(rs) == (1,)


def test_longest_word_g2():
    rs = rootsys.build_root_system("G2", 2)
    assert rootsys.longest_weyl_word(rs) == (2, 1, 2, 1, 2, 1)


# The longest words of the grid systems, pinned: A_L, c and gbar depend on them.
LONGEST_WORDS = {
    "A1": (1,),
    "A2": (2, 1, 2),
    "A3": (3, 2, 3, 1, 2, 3),
    "A4": (4, 3, 4, 2, 3, 4, 1, 2, 3, 4),
    "A5": (5, 4, 5, 3, 4, 5, 2, 3, 4, 5, 1, 2, 3, 4, 5),
    "B2": (2, 1, 2, 1),
    "B3": (3, 2, 3, 2, 1, 2, 3, 2, 1),
    "B4": (4, 3, 4, 3, 2, 3, 4, 3, 2, 1, 2, 3, 4, 3, 2, 1),
    "C2": (2, 1, 2, 1),
    "C3": (3, 2, 3, 2, 1, 2, 3, 2, 1),
    "C4": (4, 3, 4, 3, 2, 3, 4, 3, 2, 1, 2, 3, 4, 3, 2, 1),
    "D3": (3, 2, 1, 3, 2, 1),
    "D4": (4, 3, 2, 4, 3, 2, 1, 2, 4, 3, 2, 1),
    "D5": (5, 4, 3, 5, 4, 3, 2, 3, 5, 4, 3, 2, 1, 2, 3, 5, 4, 3, 2, 1),
    "G2": (2, 1, 2, 1, 2, 1),
}


@pytest.mark.parametrize("label", sorted(LONGEST_WORDS))
def test_longest_word_is_pinned_across_the_grid(label):
    type_label, rank = ("G2", 2) if label == "G2" else (label[0], int(label[1:]))
    rs = rootsys.build_root_system(type_label, rank)
    assert rs.label == label
    assert rootsys.longest_weyl_word(rs) == LONGEST_WORDS[label]


def test_longest_word_check_recomputes_the_simple_images(monkeypatch):
    # the post-hoc check takes w(alpha_j) from weyl_action, not from the
    # search's bookkeeping: a wrong action is caught
    rs = rootsys.build_root_system("B", 3)
    monkeypatch.setattr(rootsys, "weyl_action", lambda rs, word: lambda root: root)
    with pytest.raises(StructureViolation, match="failed to negate"):
        rootsys.longest_weyl_word(rs)


def test_longest_word_a3_action():
    rs = rootsys.build_root_system("A", 3)
    word = rootsys.longest_weyl_word(rs)
    assert len(word) == 6
    act = rootsys.weyl_action(rs, word)
    for i in range(1, 4):
        assert act(rs.simple(i)) == -rs.simple(4 - i)


def test_reflection_permutes_roots():
    for t, r in [("A", 3), ("G2", 2), ("B", 2)]:
        rs = rootsys.build_root_system(t, r)
        for alpha in rs.roots:
            for beta in rs.roots:
                n = cartan_integer(rs, beta, alpha)
                image = tuple(b - n * a for b, a in zip(beta.coeffs, alpha.coeffs))
                assert rs.contains(Root(image))


def test_height_additive():
    for t, r in [("A", 3), ("G2", 2)]:
        rs = rootsys.build_root_system(t, r)
        for a in rs.roots:
            for b in rs.roots:
                total = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
                if chevalley_oracle._is_root(rs, total):
                    assert Root(total).height() == a.height() + b.height()


BAND_SYSTEMS = tuple(sorted(LONGEST_WORDS)) + ("A6", "A7", "B5", "C5", "D6")


def _grouping(rs):
    """Height -> the 1-based neg_order indices of that height, built from
    the coefficient sums, highest height first."""
    heights = [sum(b.coeffs) for b in rs.neg_order]
    return {
        q: tuple(i for i, h in enumerate(heights, start=1) if h == q)
        for q in sorted(set(heights), reverse=True)
    }


@pytest.mark.parametrize("label", BAND_SYSTEMS)
def test_height_bands_partition_the_order(label):
    type_label, rank = ("G2", 2) if label == "G2" else (label[0], int(label[1:]))
    rs = rootsys.build_root_system(type_label, rank)
    systems = [rs]
    if label in LONGEST_WORDS:
        from conftest import get_rep

        systems.append(get_rep(type_label, rank).rs)
    for rs in systems:
        assert list(rs.bands.items()) == list(_grouping(rs).items())
        assert sorted(i for band in rs.bands.values() for i in band) == list(range(1, rs.m + 1))
        assert list(rs.bands) == list(range(-1, -len(rs.bands) - 1, -1))
        assert rs.band(0) == () and rs.band(-len(rs.bands) - 1) == ()
    # the cached bands are not carried into a reordered copy
    flipped = replace(rs, neg_order=rs.neg_order[::-1])
    assert flipped.bands == _grouping(flipped)
    assert rs.m == 1 or flipped.bands != rs.bands


def test_ordering_deterministic():
    one = rootsys.build_root_system("A", 4)
    two = rootsys.build_root_system("A", 4)
    assert one.neg_order == two.neg_order


def test_serialization(rep_a3):
    obj = rep_a3.rs.to_json_obj()
    assert obj["type"] == "A" and obj["rank"] == 3
    assert obj["neg_order"][0] == [-1, 0, 0]
    assert obj["comp"] == [3, 5, 6]


def test_complementary_indices_maximal_per_height():
    from conftest import get_rep

    for t, r in [("A", 3), ("A", 4), ("B", 2), ("C", 3), ("D", 4), ("G2", 2)]:
        rs = get_rep(t, r).rs
        comp = set(rs.comp_roots)
        heights = rs.heights_of_order()
        for q in set(heights):
            block = [i + 1 for i, h in enumerate(heights) if h == q]
            comp_here = [i for i in block if i in comp]
            noncomp = [i for i in block if i not in comp]
            assert all(c > n for c in comp_here for n in noncomp)


def test_weyl_sample_permutes_roots():
    import random

    rng = random.Random(55)
    for t, r in [("A", 3), ("B", 2), ("G2", 2)]:
        rs = rootsys.build_root_system(t, r)
        for _ in range(20):
            word = tuple(rng.randint(1, r) for _ in range(rng.randint(0, 6)))
            act = rootsys.weyl_action(rs, word)
            images = {act(root).coeffs for root in rs.roots}
            assert images == {root.coeffs for root in rs.roots}


def test_half_lengths_refuse_an_unknown_type():
    # build_root_system refuses the type before it asks for lengths
    with pytest.raises(UnsupportedType, match="^E$"):
        rootsys._simple_half_lengths("E", 6)


def test_root_count_is_checked_against_the_known_count(monkeypatch):
    monkeypatch.setitem(rootsys.TYPES, "A", (1, lambda l: l))
    with pytest.raises(UnsupportedType, match="^generated 6 positive roots for A_3, expected 3$"):
        rootsys.build_root_system("A", 3)


def test_reflection_refuses_a_vector_that_is_no_root():
    rs = rootsys.build_root_system("A", 2)
    with pytest.raises(NotARoot, match=re.escape("Root(coeffs=(2, 0))")):
        rootsys.weyl_action(rs, (1,))(Root((2, 0)))


@pytest.mark.parametrize("i", [0, 4])
def test_reflection_refuses_a_simple_index_out_of_range(i):
    # 0 would reflect in alpha_3 through index -1, and 4 would index past the end
    rs = rootsys.build_root_system("A", 3)
    with pytest.raises(NotARoot, match="^no simple root %d in rank 3$" % i):
        rootsys.weyl_action(rs, (i,))(rs.simple(1))


def test_longest_word_length_is_checked():
    # one negative root short: the search runs one letter past m
    rs = rootsys.build_root_system("A", 3)
    short = replace(rs, neg_order=rs.neg_order[:-1])
    with pytest.raises(StructureViolation, match="^longest word has length 6, not 5$"):
        rootsys.longest_weyl_word(short)
