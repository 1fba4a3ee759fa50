"""Root systems of the classical types A, B, C, D and of G2.

Roots are integer coefficient vectors over the simple basis.  The negative
roots carry the canonical ordering used throughout the construction: heights
non-increasing, complementary roots placed last within each height block,
and ascending lexicographic order on coefficient vectors otherwise.

A RootSystem keeps tables built once from its roots: the integer code of
each root, under which a sum or difference of two roots is a root iff its
code is one (RootSystem.codes), the Cartan pairings of each root, its
simple roots and the negation of each root as its own Root values.
root_string counts string lengths on the codes.
"""

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import DependentRoots, NotARoot, StructureViolation, UnsupportedType


@dataclass(frozen=True)
class Root:
    """A root as its integer coefficient vector over the simple roots."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(k) for k in self.coeffs))
        pos = any(k > 0 for k in self.coeffs)
        neg = any(k < 0 for k in self.coeffs)
        if pos and neg:
            raise NotARoot("mixed-sign coefficient vector %r" % (self.coeffs,))

    def __neg__(self):
        return Root(tuple(-k for k in self.coeffs))

    def height(self):
        return sum(self.coeffs)

    def is_positive(self):
        return self.height() > 0

    def is_simple(self):
        return sum(abs(k) for k in self.coeffs) == 1 and self.height() == 1


@dataclass(frozen=True)
class RootSystem:
    type_label: str
    rank: int
    cartan: tuple  # cartan[i][j] = <alpha_i, alpha_j>, 0-based rows/cols
    roots: tuple  # all of Phi
    neg_order: tuple  # beta_1..beta_m in the canonical ordering
    comp_roots: tuple = ()  # 1-based indices into neg_order, set later

    @property
    def m(self):
        return len(self.neg_order)

    @property
    def label(self):
        """The system's name: "G2", or type and rank such as "B4"."""
        if self.type_label == "G2":
            return "G2"
        return "%s%d" % (self.type_label, self.rank)

    def simple(self, i):
        """The i-th simple root, 1-based; NotARoot for any other i.  An i
        below 1 is refused before the lookup, where -1 would index the last
        simple root."""
        if i < 1 or i > self.rank:
            raise NotARoot("no simple root %r in rank %d" % (i, self.rank))
        return self._simple_roots[i - 1]

    def negative(self, root):
        """-root for a root of the system: the system's own Root, so no new
        one is built and validated."""
        return self._negatives[root.coeffs]

    def contains(self, root):
        return root.coeffs in self.codes

    # Derived data is cached on first use, outside the fields, so that
    # `replace` never carries a stale copy; finalize_order carries over
    # those in _ROOT_TABLES, which depend on roots and cartan alone.
    @cached_property
    def _simple_roots(self):
        return tuple(Root(tuple(int(j == i) for j in range(self.rank))) for i in range(self.rank))

    @cached_property
    def _negatives(self):
        own = {r.coeffs: r for r in self.roots}
        return {c: own[tuple(-k for k in c)] for c in own}

    @cached_property
    def codes(self):
        """Coefficient vector -> the integer code sum_j k_j 16^j of each root.

        Codes add as the vectors do.  No root has a coefficient above 3 in
        absolute value (G2's 3 alpha_1 + 2 alpha_2 is the largest), so the
        sum or difference of two roots has digits below 8 in absolute
        value, where the balanced base-16 expansion is unique: such a
        vector is 0 iff its code is 0, and a root iff its code is a root's
        code (root_of_code)."""
        return {r.coeffs: sum(k << 4 * j for j, k in enumerate(r.coeffs)) for r in self.roots}

    @cached_property
    def root_of_code(self):
        """The inverse of codes: code -> coefficient vector."""
        return {code: coeffs for coeffs, code in self.codes.items()}

    @cached_property
    def pairings(self):
        """Coefficient vector -> (<root, alpha_1>, ..., <root, alpha_l>) of
        each root, read from the integer Cartan matrix; a negative root's
        are its positive's negated, the pairing being linear."""
        out = {}
        for r in self.roots:
            if r.height() > 0:
                p = tuple(pairing(self.cartan, r.coeffs, i) for i in range(self.rank))
                out[r.coeffs] = p
                out[tuple(-k for k in r.coeffs)] = tuple(-x for x in p)
        return out

    @cached_property
    def bands(self):
        """Height -> the ascending 1-based indices of neg_order at that
        height, inserted in neg_order's order of heights -1, -2, ..."""
        out = {}
        for i, b in enumerate(self.neg_order, start=1):
            out.setdefault(b.height(), []).append(i)
        return {h: tuple(band) for h, band in out.items()}

    def band(self, height):
        """The indices of one height; () when no root has it."""
        return self.bands.get(height, ())

    def heights_of_order(self):
        return tuple(b.height() for b in self.neg_order)

    def root_lengths(self):
        """The integer (alpha_i, alpha_i)/2 per simple root, short roots
        normalized to 1."""
        return _simple_half_lengths(self.type_label, self.rank)

    def to_json_obj(self):
        return {
            "type": self.type_label,
            "rank": self.rank,
            "neg_order": [list(b.coeffs) for b in self.neg_order],
            "comp": list(self.comp_roots),
        }


def _cartan_matrix(type_label, rank):
    l = rank
    c = [[0] * l for _ in range(l)]
    for i in range(l):
        c[i][i] = 2
    if type_label in ("A", "B", "C"):
        for i in range(l - 1):
            c[i][i + 1] = c[i + 1][i] = -1
        if type_label == "B" and l >= 2:
            # alpha_l short
            c[l - 2][l - 1] = -2
            c[l - 1][l - 2] = -1
        elif type_label == "C" and l >= 2:
            # alpha_l long
            c[l - 2][l - 1] = -1
            c[l - 1][l - 2] = -2
    elif type_label == "D":
        for i in range(l - 2):
            c[i][i + 1] = c[i + 1][i] = -1
        c[l - 3][l - 1] = c[l - 1][l - 3] = -1
    elif type_label == "G2":
        c = [[2, -1], [-3, 2]]
    return tuple(tuple(row) for row in c)


def _simple_half_lengths(type_label, rank):
    l = rank
    if type_label == "A" or type_label == "D":
        return (1,) * l
    if type_label == "B":
        return (2,) * (l - 1) + (1,)
    if type_label == "C":
        return (1,) * (l - 1) + (2,)
    if type_label == "G2":
        return (1, 3)
    raise UnsupportedType(type_label)


# Each supported type: its least rank and its number of positive roots at
# rank l.
TYPES = {
    "A": (1, lambda l: l * (l + 1) // 2),
    "B": (2, lambda l: l * l),
    "C": (2, lambda l: l * l),
    "D": (3, lambda l: l * (l - 1)),
    "G2": (2, lambda l: 6),
}


def pairing(cartan, coeffs, i):
    """<alpha, alpha_i> for alpha given by its coefficient vector, 0-based i."""
    return sum(k * cartan[j][i] for j, k in enumerate(coeffs))


def _generate_positive(cartan, rank):
    """All positive roots: the orbit of the simple roots under the simple
    reflections s_i(a) = a - <a, a_i> a_i, each applied where <a, a_i> < 0.

    Each image is a positive root: s_i permutes the positive roots other
    than a_i, which has <a_i, a_i> = 2, and it raises the height.  Every
    positive root is reached, by induction on the height: a non-simple
    positive b has some <b, a_i> > 0, as (b, b) = sum_i c_i (b, a_i) > 0
    with every c_i >= 0, and then s_i b is a positive root of lower height
    with <s_i b, a_i> = -<b, a_i> < 0, whose image under s_i is b.
    """
    roots, todo = set(), [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    while todo:
        alpha = todo.pop()
        if alpha in roots:
            continue
        roots.add(alpha)
        for i in range(rank):
            p = pairing(cartan, alpha, i)
            if p < 0:
                todo.append(alpha[:i] + (alpha[i] - p,) + alpha[i + 1 :])
    return roots


def check_admissible(type_label, rank):
    """Raise UnsupportedType unless the type is known, G2 has rank 2 and the
    rank is at least the type's least rank."""
    if type_label not in TYPES:
        raise UnsupportedType("unknown type %r" % type_label)
    if type_label == "G2" and rank != 2:
        raise UnsupportedType("G2 has rank 2")
    if rank < TYPES[type_label][0]:
        raise UnsupportedType("%s requires rank >= %d" % (type_label, TYPES[type_label][0]))


def build_root_system(type_label, rank):
    """Construct the full root system with the provisional negative ordering.

    Complementary-root indices start empty; they are computed from a matrix
    representation by chevalley.build_rep and installed by finalize_order,
    which applies order_negative_roots again.
    """
    check_admissible(type_label, rank)
    cartan = _cartan_matrix(type_label, rank)
    pos = _generate_positive(cartan, rank)
    expected = TYPES[type_label][1](rank)
    if len(pos) != expected:
        raise UnsupportedType(
            "generated %d positive roots for %s_%d, expected %d"
            % (len(pos), type_label, rank, expected)
        )
    roots = tuple(
        [Root(v) for v in sorted(pos)] + [Root(tuple(-k for k in v)) for v in sorted(pos)]
    )
    return RootSystem(
        type_label=type_label,
        rank=rank,
        cartan=cartan,
        roots=roots,
        neg_order=order_negative_roots(roots, ()),
    )


def order_negative_roots(roots, comp_roots):
    """Canonical ordering of the negative roots.

    Heights non-increasing; within a height block the non-complementary
    roots come first in ascending lexicographic order on coefficient
    vectors, then the complementary roots, also in lexicographic order.
    comp_roots is a collection of Root values (empty on the first pass).
    """
    comp = {r.coeffs for r in comp_roots}
    negatives = [r for r in roots if r.height() < 0]
    return tuple(
        sorted(
            negatives,
            key=lambda b: (-b.height(), b.coeffs in comp, b.coeffs),
        )
    )


_ROOT_TABLES = ("_simple_roots", "_negatives", "codes", "root_of_code", "pairings")


def finalize_order(rs, comp_roots):
    """Install complementary roots and return the reordered system."""
    order = order_negative_roots(rs.roots, comp_roots)
    comp_idx = tuple(
        sorted(order.index(r) + 1 for r in comp_roots)
    )
    out = replace(rs, neg_order=order, comp_roots=comp_idx)
    # the tables of roots and cartan, which the reordering leaves as they are
    out.__dict__.update((k, v) for k, v in rs.__dict__.items() if k in _ROOT_TABLES)
    return out


def root_string(rs, alpha, beta):
    """(r, q) with alpha - r*beta ... alpha + q*beta the beta-string, for
    the coefficient vectors alpha and beta of two roots with alpha != +-beta.

    r and q count the steps by -beta and by +beta from alpha that stay in
    Phi, on the integer codes: each vector tested is a root plus or minus a
    root, so its code decides it (RootSystem.codes)."""
    codes = rs.codes
    if alpha not in codes or beta not in codes:
        raise NotARoot("string endpoints must be roots")
    a, b = codes[alpha], codes[beta]
    if a == b or a == -b:
        raise DependentRoots("string through a dependent pair")
    counts = []
    for step in (-b, b):
        k, code = 0, a + step
        while code in rs.root_of_code:
            k, code = k + 1, code + step
        counts.append(k)
    return tuple(counts)


def _reflect_simple(rs, i, beta):
    """w_{alpha_i}(beta) = beta - <beta, alpha_i> alpha_i, 1-based i;
    <beta, alpha_i> is read from rs.pairings, so no bilinear form is
    evaluated.  NotARoot unless beta is a root and alpha_i a simple root
    (rs.simple)."""
    if not rs.contains(beta):
        raise NotARoot("%r" % (beta,))
    alpha, p = rs.simple(i).coeffs, rs.pairings[beta.coeffs][i - 1]
    return Root(tuple(b - p * a for b, a in zip(beta.coeffs, alpha)))


def weyl_action(rs, word):
    """Compose the reflections of a word (a tuple of 1-based simple
    indices); rightmost acts first."""

    def act(root):
        for i in reversed(word):
            root = _reflect_simple(rs, i, root)
        return root

    return act


def longest_weyl_word(rs):
    """A reduced word for the longest element, by greedy descent.

    Deterministic tie-break: the largest simple index that still lengthens
    the word is appended (this reproduces the alternating word for G2).
    The search tracks w(alpha_j) for the current w = s_{i_1} ... s_{i_k}:
    appending i gives w s_i(alpha_j) = w(alpha_j) - <alpha_j, alpha_i> w(alpha_i).

    Verified post hoc: the composite maps every positive root to a negative.
    The images of the simple roots are computed afresh with weyl_action,
    and every other root's by linearity: w is a composite of the linear
    reflections v -> v - <v, alpha_i> alpha_i, so a root
    beta = sum_j k_j alpha_j has w(beta) = sum_j k_j w(alpha_j), whose
    height is sum_j k_j ht(w(alpha_j)).
    """
    l = rs.rank
    images = [rs.simple(j).coeffs for j in range(1, l + 1)]
    word = []
    # a reduced word has rs.m letters, so a longer one stops the search
    while len(word) <= rs.m:
        candidate = next((i for i in range(l, 0, -1) if sum(images[i - 1]) > 0), None)
        if candidate is None:
            break
        word.append(candidate)
        wi = images[candidate - 1]
        images = [
            tuple(x - rs.cartan[j][candidate - 1] * y for x, y in zip(image, wi))
            for j, image in enumerate(images)
        ]
    act = weyl_action(rs, tuple(word))
    simple_heights = [act(rs.simple(j)).height() for j in range(1, l + 1)]
    for root in rs.roots:
        if root.is_positive() and sum(k * h for k, h in zip(root.coeffs, simple_heights)) >= 0:
            raise StructureViolation("longest element failed to negate %r" % (root,))
    if len(word) != rs.m:
        raise StructureViolation("longest word has length %d, not %d" % (len(word), rs.m))
    return tuple(word)
