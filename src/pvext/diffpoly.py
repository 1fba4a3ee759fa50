"""Exact sparse differential polynomials in jet variables over the rationals.

A differential polynomial lives in the ring Q{eta_1, ..., eta_m}.  The jet
variable eta_i^(k) is the k-th formal derivative of the indeterminate eta_i.

Storage uses the packed exponent vectors of Monagan and Pearce ("Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  A monomial is one int cut into FIELD_BITS-wide fields: field 0 holds
the total degree, and field s + 1 the exponent of the jet variable in slot
s.  Slots are handed out to jet variables on first use from one
process-wide registry, so the product of two monomials is the sum of their
ints.  A polynomial is one positive int denominator and a map from packed
monomials to nonzero int numerators, kept in lowest terms (the gcd of the
denominator and all numerators is 1), so equality is structural equality.

Every exponent and every total degree is at most EXPONENT_LIMIT (255).  An
exponent never exceeds the total degree of its monomial, so a product
whose two degree bounds add up to at most the limit carries out of no
field; a product that would exceed it raises ExponentOverflow instead of
wrapping.  At most MAX_SLOTS distinct jet variables can be registered.
"""

import threading
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import index, or_
from types import MappingProxyType
from typing import NamedTuple

from .errors import ExponentOverflow, MissingAssignment

FIELD_BITS = 8
EXPONENT_LIMIT = (1 << FIELD_BITS) - 1
MAX_SLOTS = 4096
_MASK = EXPONENT_LIMIT


def frac_text(q):
    """The canonical "p/q" text of an int or Fraction, e.g. "3/1"."""
    return "%d/%d" % (q.numerator, q.denominator)


def lift(x):
    """x as a DiffPoly; a rational becomes a constant polynomial."""
    return x if isinstance(x, DiffPoly) else DiffPoly.rational(x)


def _is_one(x):
    """x is int 1, Fraction(1) or the DiffPoly one."""
    return x._d == 1 and x._t == {0: 1} if isinstance(x, DiffPoly) else x == 1


def lift_matrix(m):
    return [[lift(x) for x in row] for row in m]


class JetVar(NamedTuple):
    """The formal symbol eta_var^(order); ordered by (var, order)."""

    var: int
    order: int


# ----- the slot registry -----

_LOCK = threading.Lock()
_SLOT = {}  # JetVar -> slot
_JETS = []  # slot -> JetVar


def _slot(jv):
    """The slot of a jet variable, registering it on first use."""
    slot = _SLOT.get(jv)
    if slot is None:
        with _LOCK:
            slot = _SLOT.get(jv)
            if slot is None:
                if len(_JETS) >= MAX_SLOTS:
                    raise ExponentOverflow(
                        "more than %d distinct jet variables" % MAX_SLOTS
                    )
                slot = len(_JETS)
                _JETS.append(jv)
                _SLOT[jv] = slot
    return slot


def _unit(slot):
    """The packed monomial of the jet variable in `slot`, to the first power."""
    return (1 << (FIELD_BITS * (slot + 1))) | 1


def _union(keys):
    """The bitwise or of packed monomials: its fields are nonzero exactly in
    the slots that occur."""
    return reduce(or_, keys, 0)


def _factors(key):
    """The (slot, exponent) pairs of a packed monomial, lowest slot first."""
    out = []
    rest = key >> FIELD_BITS
    while rest:
        shift = ((rest & -rest).bit_length() - 1) // FIELD_BITS * FIELD_BITS
        e = (rest >> shift) & _MASK
        out.append((shift // FIELD_BITS, e))
        rest ^= e << shift
    return out


def _monomial(key):
    """A packed monomial as the sorted tuple of (JetVar, exponent) pairs."""
    return tuple(sorted((_JETS[slot], e) for slot, e in _factors(key)))


_STEPS = {}  # slot -> _derivative_step(slot)


def _derivative_step(slot):
    """What the derivation adds to a monomial to trade one power of the
    slot's jet variable for one power of its next derivative; the degree
    is kept.

    The steps live in one process-wide table, read by _Sum.add_derivative
    and through it by DiffPoly.derive.  A slot's jet variable never changes
    and the registry only grows, so a step once stored stays right for the
    life of the process; two threads that compute one step store one value.
    """
    step = _STEPS.get(slot)
    if step is None:
        jv = _JETS[slot]
        step = _STEPS[slot] = _unit(_slot(JetVar(jv.var, jv.order + 1))) - _unit(slot)
    return step


def _ratio(c, d):
    """(numerator, denominator) of c/d in lowest terms, for d > 0."""
    g = gcd(c, d)
    return c // g, d // g


def _check_degrees(p, q):
    """Raise ExponentOverflow unless p*q fits the packed fields.

    The leading homogeneous part of a product over a domain is the product
    of the leading parts, so p*q has a monomial of degree deg p + deg q:
    the check rejects exactly the products that would not fit.
    """
    if p.degree() + q.degree() > EXPONENT_LIMIT:
        raise ExponentOverflow(
            "a product of degree %d exceeds the exponent limit %d"
            % (p.degree() + q.degree(), EXPONENT_LIMIT)
        )


def _drop_zeros(t, keys):
    for k in keys:
        if not t[k]:
            del t[k]


def _normal(t, d):
    """The DiffPoly t/d in lowest terms; t has no zero numerators."""
    if d != 1:
        if not t:
            d = 1
        else:
            g = gcd(d, *t.values())
            if g != 1:
                d //= g
                t = {k: c // g for k, c in t.items()}
    return DiffPoly(t, d)


def _image_power(sigma, images, slot, e):
    """The image of the jet variable in `slot` to the power e under the
    substitution sigma, cached in `images` (DiffPoly.substitute).  A module
    function rather than a closure of substitute: a recursive closure holds
    itself, and with it the cache, in a reference cycle that outlives the
    call until the cyclic garbage collector runs."""
    got = images.get((slot, e))
    if got is None:
        if e > 1:
            got = _image_power(sigma, images, slot, 1) ** e
        elif _JETS[slot].order == 0:
            try:
                got = lift(sigma[_JETS[slot].var])
            except KeyError:
                raise MissingAssignment("no assignment for eta_%d" % _JETS[slot].var) from None
        else:
            jv = _JETS[slot]
            got = _image_power(sigma, images, _slot(JetVar(jv.var, jv.order - 1)), 1).derive()
        images[slot, e] = got
    return got


def _trie_value(node, sigma, images):
    """The value of a node of DiffPoly.substitute's factor trie, as a _Sum:
    its numerator (under the key None) plus image(slot, e) times the value
    of the child, over its edges (slot, e).  A child that is a bare
    numerator n adds n * image(slot, e) without a product.  A module
    function, like _image_power, so that the recursion holds no cycle."""
    acc = _Sum()
    for factor, child in node.items():
        if factor is None:
            acc.add(_ONE, child)
        elif len(child) == 1 and None in child:
            acc.add(_image_power(sigma, images, *factor), child[None])
        else:
            acc.add_product(
                _image_power(sigma, images, *factor), _trie_value(child, sigma, images).result()
            )
    return acc


class _Sum:
    """A sum of rational multiples of DiffPolys, accumulated in one map
    over a common denominator."""

    __slots__ = ("t", "d")

    def __init__(self):
        self.t = {}
        self.d = 1

    def _scale_to(self, d):
        """Make d divide the common denominator; return the common one / d."""
        if self.d % d:
            common = self.d // gcd(self.d, d) * d
            f = common // self.d
            self.t = {k: c * f for k, c in self.t.items()}
            self.d = common
        return self.d // d

    def add(self, p, q=1):
        """Add q * p for a DiffPoly p and an int or Fraction q."""
        s = q.numerator * self._scale_to(p._d * q.denominator)
        t = self.t
        get = t.get
        for k, c in p._t.items():
            t[k] = get(k, 0) + s * c

    def add_product(self, p, q, n=1):
        """Add n * p * q for DiffPolys p, q and an int n, without building
        the product."""
        a, b = p._t, q._t
        if not a or not b:
            return
        _check_degrees(p, q)
        s = n * self._scale_to(p._d * q._d)
        if len(a) > len(b):
            a, b = b, a
        t = self.t
        get = t.get
        for k1, c1 in a.items():
            c1 *= s
            for k2, c2 in b.items():
                k = k1 + k2
                t[k] = get(k, 0) + c1 * c2

    def add_derivative(self, p, n=1):
        """Add n * p' for a DiffPoly p and an int n, without building p'.

        The derivation sends a monomial prod v_s^e_s to the sum over its
        factors of e_s times the monomial with one v_s traded for its next
        derivative: the key plus the slot's step."""
        s = n * self._scale_to(p._d)
        t = self.t
        get = t.get
        steps = _STEPS
        for key, c in p._t.items():
            c *= s
            for slot, e in _factors(key):
                step = steps.get(slot)
                if step is None:
                    step = _derivative_step(slot)
                k = key + step
                t[k] = get(k, 0) + c * e

    def add_pair(self, x, y, n=1):
        """Add n * x * y for DiffPoly or rational x and y and an int n."""
        if isinstance(x, DiffPoly):
            if isinstance(y, DiffPoly):
                self.add_product(x, y, n)
            else:
                self.add(x, y * n)
        else:
            self.add(lift(y), x * n)

    def is_zero(self):
        """Whether the sum is zero: every numerator over the one positive
        common denominator is 0."""
        return not any(self.t.values())

    def result(self, d=1):
        """The accumulated sum divided by d."""
        return _normal({k: c for k, c in self.t.items() if c}, self.d * d)


class DiffPoly:
    """A differential polynomial with exact rational coefficients.

    The zero polynomial is the empty map over denominator 1.  Instances are
    treated as immutable values: arithmetic never changes an operand.
    """

    __slots__ = ("_t", "_d", "_deg")

    def __init__(self, t=None, d=1):
        """Internal: `t` maps packed monomials to nonzero int numerators over
        the positive int `d`, in lowest terms.  Use the constructors below."""
        self._t = {} if t is None else t
        self._d = d
        self._deg = None

    # ----- constructors -----

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def rational(cls, value):
        q = Fraction(value)
        if q == 0:
            return cls()
        return cls({0: q.numerator}, q.denominator)

    @classmethod
    def eta(cls, var, order=0, coeff=1):
        """The single jet variable coeff * eta_var^(order)."""
        return cls.monomial([(var, order, 1)], coeff)

    @classmethod
    def monomial(cls, jets, coeff=1):
        """Build coeff * prod eta_v^(k)^e from an iterable of (v, k, e).

        Variables and orders are ints, orders and exponents nonnegative
        (ValueError otherwise); a total degree above EXPONENT_LIMIT raises
        ExponentOverflow.
        """
        q = Fraction(coeff)
        exps = {}
        for v, k, e in jets:
            jv = JetVar(index(v), index(k))
            if jv.order < 0 or index(e) < 0:
                raise ValueError("negative order or exponent in a monomial")
            exps[jv] = exps.get(jv, 0) + e
        degree = sum(exps.values())
        if degree > EXPONENT_LIMIT:
            raise ExponentOverflow(
                "a monomial of degree %d exceeds the exponent limit %d"
                % (degree, EXPONENT_LIMIT)
            )
        if q == 0:
            return cls()
        key = sum(e * _unit(_slot(jv)) for jv, e in exps.items() if e)
        return cls({key: q.numerator}, q.denominator)

    # ----- ring structure -----

    def __bool__(self):
        return bool(self._t)

    def is_zero(self):
        return not self._t

    def __eq__(self, other):
        if isinstance(other, DiffPoly):
            return self._d == other._d and self._t == other._t
        if isinstance(other, (int, Fraction)):
            return self == DiffPoly.rational(other)
        return NotImplemented

    def __hash__(self):
        # a rational polynomial equals its Fraction, so it hashes as one
        if self.is_rational():
            return hash(self.constant_term())
        return hash((self._d, frozenset(self._t.items())))

    def __reduce__(self):
        # packed keys depend on this process's slot registry; a pickle
        # carries the canonical terms instead
        return (DiffPoly.from_json_obj, (self.to_json_obj(),))

    def __neg__(self):
        return DiffPoly({k: -c for k, c in self._t.items()}, self._d)

    def _combine(self, other, sign):
        """self + sign * other."""
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.rational(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            out = dict(self._t)
        else:
            common = d1 // gcd(d1, d2) * d2
            f = common // d1
            out = {k: c * f for k, c in self._t.items()}
            sign *= common // d2
            d1 = common
        get = out.get
        for k, c in other._t.items():
            out[k] = get(k, 0) + sign * c
        _drop_zeros(out, other._t)
        return _normal(out, d1)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return DiffPoly()
            n = other.numerator
            return _normal({k: c * n for k, c in self._t.items()}, self._d * other.denominator)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return DiffPoly()
        _check_degrees(self, other)
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        if len(a) > 1:
            _drop_zeros(out, [k for k, c in out.items() if not c])
        return _normal(out, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("DiffPoly powers must be nonnegative integers")
        result = DiffPoly.rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    @staticmethod
    def dot(pairs):
        """sum x*y over the pairs (x, y) of DiffPoly or rational entries,
        accumulated in one map; the zero polynomial when every product
        vanishes.  A lone pair of a DiffPoly p and a one (int 1,
        Fraction(1) or the DiffPoly one), either way round, gives p itself.

        Proof that p is what the sum gives, in value, denominator and term
        order.  p is stored in lowest terms: non-zero numerators over a
        positive d coprime to their gcd, or the empty map over 1, which the
        sum also gives, since it skips a zero p.  A rational one makes the
        sum's denominator d and adds p's numerators times 1 in p's key
        order.  The DiffPoly one, {0: 1} over 1, scales by 1 too, and
        add_product runs its outer loop over one key (the one's, or p's
        when p has one term), so it adds p's numerators at k + 0 = k in
        p's key order; deg p + 0 passes the degree check that p passed.
        result() keeps the non-zero numerators over d and divides by their
        gcd with d, which is 1: p's own map.
        """
        pairs = list(pairs)
        if len(pairs) == 1:
            x, y = pairs[0]
            if isinstance(y, DiffPoly) and _is_one(x):
                return y
            if isinstance(x, DiffPoly) and _is_one(y):
                return x
        acc = _Sum()
        for x, y in pairs:
            if x and y:
                acc.add_pair(x, y)
        return acc.result()

    # ----- differential structure -----

    def derive(self, times=1):
        """Apply the derivation eta_i^(k) -> eta_i^(k+1), Leibniz on products."""
        p = self
        for _ in range(times):
            acc = _Sum()
            acc.add_derivative(p)
            p = acc.result()
        return p

    def substitute(self, sigma, images=None):
        """Differential substitution eta_i^(k) -> sigma[i] derived k times.

        sigma maps var indices to DiffPoly images and must cover every
        variable occurring in the polynomial (MissingAssignment otherwise).
        `images` is a dict that caches the powers of the images of jet
        variables; one dict may serve several calls as long as no key of
        sigma changes its value in between.

        The monomials are evaluated through a trie of their factors, a
        multivariate Horner scheme (Ceberio and Kreinovich, ACM SIGSAM
        Bulletin 38, 2004).  Each monomial is decoded once, and its
        (slot, exponent) factors are ordered by a rank fixed for the call:
        the slot whose image has the most terms first, then the slot that
        occurs in the most monomials, then the lower slot.  The ordered
        factors spell the monomial's path from the root, and its numerator
        sits at the path's end.  The value of a node is its numerator plus,
        over its edges (slot, e), image(slot, e) times the value of the
        child, each edge one _Sum.add_product (_trie_value); the result is
        the root's value over the denominator.

        Proof that this is the substitution.  The substitution is a ring
        map, fixed by its images of the jet variables, so sigma(P) is the
        sum over the monomials c prod v_s^e_s of c prod image(s, e), in any
        order of the factors.  Unfolding the node values from the leaves,
        the value of a node is the sum, over the monomials whose path runs
        through it, of the numerator times the images of the factors below
        the node; at the root that is every monomial with all its factors.
        Distinct monomials have distinct factor sets, hence distinct paths,
        so each one is counted once.  Regrouping a sum of products by
        distributivity is exact over Q.  A monomial with no factor is the
        root's own numerator.

        Proof that ExponentOverflow comes only from a real product.  The
        trie forms two kinds of product: powers image(s, 1)^e in
        _image_power, which the per-monomial loop forms too, and an edge's
        image(s, e) times a child's value, which it raises on only when
        their degrees add up beyond the limit (_check_degrees, exact over a
        domain).  A child's value is a sum of products of images of the
        factors below the edge, one per monomial through it, so its degree
        is at most the degree of one such product, and the edge's product
        has at most the degree of that monomial's product of the images of
        its factors from the edge down, a genuine product of images.
        """
        if images is None:
            images = {}
        decoded = [(_factors(key), c) for key, c in self._t.items()]
        occurrences = {}
        for factors, _ in decoded:
            for slot, _ in factors:
                occurrences[slot] = occurrences.get(slot, 0) + 1
        rank = {
            slot: (-len(_image_power(sigma, images, slot, 1)._t), -n, slot)
            for slot, n in occurrences.items()
        }
        root = {}
        for factors, c in decoded:
            node = root
            for factor in sorted(factors, key=lambda f: rank[f[0]]):
                node = node.setdefault(factor, {})
            node[None] = c
        return _trie_value(root, sigma, images).result(self._d)

    def evaluate(self, value_of, ring):
        """The image under the ring map sending each jet variable jv to
        value_of(jv); `ring` is a class with zero() and rational(q)."""
        total = ring.zero()
        for key, c in self._t.items():
            acc = ring.rational(Fraction(c, self._d))
            for slot, e in _factors(key):
                acc = acc * (value_of(_JETS[slot]) ** e)
            total = total + acc
        return total

    # ----- structural queries -----

    def jet_variables(self):
        """Sorted list of the jet variables occurring in the polynomial."""
        return sorted(_JETS[slot] for slot, _ in _factors(_union(self._t)))

    def order(self):
        """Highest derivative order present; 0 for the zero polynomial."""
        return max((jv.order for jv in self.jet_variables()), default=0)

    def min_term_order(self):
        """Least order of a term (a constant term has order 0); 0 for zero."""
        return min(
            (max((_JETS[s].order for s, _ in _factors(k)), default=0) for k in self._t),
            default=0,
        )

    def degree(self):
        """Highest total monomial degree; 0 for the zero polynomial."""
        if self._deg is None:
            self._deg = max((k & _MASK for k in self._t), default=0)
        return self._deg

    def graded_split(self, weights, w):
        """(linear part, nonlinear part) when every term weighs w; None when
        one weighs otherwise or has a variable `weights` does not hold.

        eta_v^(k) weighs weights[v] + k >= 0, and a term the sum over the
        bits b of b times the sum of the fields of its key masked to the
        factors whose weight has bit b.  2^FIELD_BITS is 1 mod _MASK, so
        that field sum is the masked key mod _MASK, or _MASK when a
        non-zero masked key is 0 mod _MASK: it is at most the degree, at
        most EXPONENT_LIMIT = _MASK.
        """
        t = self._t
        masks = {}
        for slot, _ in _factors(_union(t)):
            jv = _JETS[slot]
            if jv.var not in weights:
                return None
            fw, b = weights[jv.var] + jv.order, 1
            while fw:
                if fw & 1:
                    masks[b] = masks.get(b, 0) | _MASK << FIELD_BITS * (slot + 1)
                fw, b = fw >> 1, b << 1
        masks = tuple(masks.items())
        linear, nonlinear = {}, {}
        for key, c in t.items():
            total = 0
            for b, mask in masks:
                if x := key & mask:
                    total += b * (x % _MASK or _MASK)
            if total != w:
                return None
            (linear if key & _MASK == 1 else nonlinear)[key] = c
        return _normal(linear, self._d), _normal(nonlinear, self._d)

    def constant_term(self):
        return Fraction(self._t.get(0, 0), self._d)

    def is_rational(self):
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def coefficient_of_jet(self, var, order):
        """Coefficient of the degree-one term eta_var^(order)."""
        slot = _SLOT.get(JetVar(var, order))
        if slot is None:
            return Fraction(0)
        return Fraction(self._t.get(_unit(slot), 0), self._d)

    @property
    def terms(self):
        """Read-only decoded view: sorted (JetVar, exponent) tuple -> Fraction."""
        d = self._d
        return MappingProxyType(
            {_monomial(k): Fraction(c, d) for k, c in self._t.items()}
        )

    # ----- serialization -----

    def to_json_obj(self):
        """Canonical JSON object: {"terms": [{"c": "p/q", "m": [[v,k,e],...]}]}.

        Monomial factors are listed with the highest jet first, matching the
        written convention eta_2' * eta_1.
        """
        t, d = self._t, self._d
        table = MonomialTable(self)
        return {
            "terms": [
                {
                    "c": "%d/1" % t[k] if d == 1 else "%d/%d" % _ratio(t[k], d),
                    "m": [[*table.jets[x >> FIELD_BITS], x & _MASK] for x in table[k][:0:-1]],
                }
                for k in table.ordered(self)
            ]
        }

    @classmethod
    def from_json_obj(cls, obj):
        """The polynomial of a to_json_obj object.  A coefficient is an int
        or a string such as "p/q"; a float or a bool as a coefficient, or a
        bool in a monomial triple, is a ValueError, so neither a binary
        float nor a truth value is read as a number."""
        acc = _Sum()
        for item in obj["terms"]:
            c, jets = item["c"], item["m"]
            if isinstance(c, (bool, float)):
                raise ValueError(
                    "polynomial coefficient %r is not exact; write it as an int or a"
                    " string like \"1/10\"" % (c,)
                )
            if any(isinstance(x, bool) for jet in jets for x in jet):
                raise ValueError("monomial triples hold ints, not booleans")
            acc.add(cls.monomial(jets, Fraction(c)))
        return acc.result()

    def __repr__(self):
        return "DiffPoly(%s)" % self.text()

    def text(self):
        """Human-readable rendering in the written notation."""
        if not self._t:
            return "0"
        chunks = []
        table = MonomialTable(self)
        for k in table.ordered(self):
            n, d = _ratio(self._t[k], self._d)
            coeff = str(n) if d == 1 else "%d/%d" % (n, d)
            factors = "".join(
                _jet_text(table.jets[x >> FIELD_BITS], x & _MASK) for x in table[k][:0:-1]
            )
            if not factors:
                body = coeff
            elif (n, d) == (1, 1):
                body = factors
            elif (n, d) == (-1, 1):
                body = "-" + factors
            else:
                body = coeff + factors
            if chunks and not body.startswith("-"):
                chunks.append("+" + body)
            else:
                chunks.append(body)
        return " ".join(chunks)


_ONE = DiffPoly({0: 1})


class MonomialTable(dict):
    """The canonical order of packed monomials, computed once per monomial
    and shared by every polynomial sorted or rendered against the table:
    packed monomial -> sort key.

    The sort key is the flat tuple (degree, c_1, ..., c_r) of the factor
    codes c = rank << FIELD_BITS | exponent in ascending order, rank the
    place of the factor's jet variable among the ranked ones.  Ranks order
    as the jet variables do and exponents fit the low field, so the codes
    compare as the (JetVar, exponent) pairs would.  Of two keys of one
    degree neither is a prefix of the other (its other exponents would add
    up to 0), so the keys order as the graded lexicographic order on the
    sorted (JetVar, exponent) tuples, the canonical order.  The table also
    keeps the JSON text [v, k, e] of each factor code, per depth.

    MonomialTable(p) ranks the jet variables of p; MonomialTable() ranks
    every registered one.  A key is read in one walk over its non-zero
    fields.  The field of a slot is non-zero exactly when the slot occurs,
    so a key has a field outside the ranked slots' fields exactly when one
    of its slots has no code.  Then the table ranks all registered jets
    again and clears every key computed earlier, so a sort that met the key
    sorts once more, with all its keys under the new ranks.
    """

    __slots__ = ("jets", "_code", "_shared", "_factor_json")

    def __init__(self, p=None):
        self._rank(range(len(_JETS)) if p is None else [s for s, _ in _factors(_union(p._t))])

    def _rank(self, slots):
        order = sorted(slots, key=_JETS.__getitem__)
        self.jets = [_JETS[s] for s in order]
        self._code = {FIELD_BITS * (s + 1): r << FIELD_BITS for r, s in enumerate(order)}
        self._shared = {}
        self._factor_json = {}
        self.clear()

    def __missing__(self, key):
        code, share = self._code, self._shared.setdefault  # one int object per distinct code
        codes, rest = [], key
        try:
            while rest > _MASK:  # some slot's field is left: read the top one
                shift = (rest.bit_length() - 1) // FIELD_BITS * FIELD_BITS
                e = rest >> shift
                codes.append(share(c := code[shift] | e, c))
                rest ^= e << shift
        except KeyError:
            self._rank(range(len(_JETS)))
            return self[key]
        got = self[key] = (rest, *sorted(codes))  # rest is the degree field
        return got

    def ordered(self, p):
        """The packed monomials of p in canonical order, leading term first."""
        jets = self.jets
        keys = sorted(p._t, key=self.__getitem__, reverse=True)
        if self.jets is not jets:  # re-ranked: the keys before are stale
            keys.sort(key=self.__getitem__, reverse=True)
        return keys

    def json_text(self, p, depth=0):
        """p.to_json_obj() as json.dumps(..., sort_keys=True, indent=1) writes it
        `depth` containers deep, in one pass and one join.  Each numerator's "c"
        text is built once per polynomial ("p/q" is ASCII: nothing to escape)."""
        t, d, pad = p._t, p._d, "\n" + " " * depth
        if not t:
            return '{%s "terms": []%s}' % (pad, pad)
        keys = self.ordered(p)
        factor_json = self._factor_json.get(depth)  # after ordered(), which may re-rank
        if factor_json is None:
            factor_json = self._factor_json[depth] = _FactorJson(self.jets, pad)
        heads, closed, empty = {}, pad + "   ]" + pad + "  }", "]" + pad + "  }"
        head_text = ',\n  {\n   "c": "%d/%d",\n   "m": ['.replace("\n", pad)
        out = ['{%s "terms": [' % pad]
        for codes, c in zip(map(self.__getitem__, keys), map(t.__getitem__, keys)):
            head = heads.get(c)
            if head is None:
                head = heads[c] = head_text % _ratio(c, d)
            if len(codes) > 1:
                out += head, factor_json[-codes[-1]]  # the first factor has no comma
                out += map(factor_json.__getitem__, codes[-2:0:-1])
                out.append(closed)
            else:
                out += head, empty
        out[1] = out[1][1:]  # nor does the first term
        out.append(pad + " ]" + pad + "}")
        return "".join(out)


class _FactorJson(dict):
    """Factor code x -> "," and the JSON text of its [v, k, e], each line led
    by `pad`; -x -> the same text without the comma."""

    __slots__ = ("jets", "pad")

    def __init__(self, jets, pad):
        self.jets, self.pad = jets, pad

    def __missing__(self, x):
        v, k = self.jets[abs(x) >> FIELD_BITS]
        text = ",\n    [\n     %d,\n     %d,\n     %d\n    ]" % (v, k, abs(x) & _MASK)
        got = self[x] = text.replace("\n", self.pad)[x < 0 :]
        return got


def _jet_text(jv, e):
    s = "η%d" % jv.var
    if 1 <= jv.order <= 3:
        s += "'" * jv.order
    elif jv.order:
        s += "[%d]" % jv.order
    if e != 1:
        s += "^%d" % e
    return s


# ----- parsing (fixtures, CLI input) -----


_DIGITS = frozenset("0123456789")
_NESTING_LIMIT = 100


class _Parser:
    """Recursive-descent parser for the written notation.

    Grammar: sum of terms; a term is a product of factors by juxtaposition
    or '*'; factors are rationals, jet variables like n1'' / eta2[4] with an
    optional ^k power, or parenthesized sums, nested at most _NESTING_LIMIT
    deep.  Variables accept the prefixes 'n', 'eta' and the unicode eta.
    Digits are the ASCII 0-9 only.
    """

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg):
        raise ValueError("parse error at %d: %s" % (self.pos, msg))

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        p = self.sum()
        if self.peek():
            self.error("trailing input")
        return p

    def sum(self):
        ch = self.peek()
        sign = 1
        if ch in "+-":
            self.pos += 1
            sign = -1 if ch == "-" else 1
        p = self.term() * sign
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                p = p + self.term()
            elif ch == "-":
                self.pos += 1
                p = p - self.term()
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                p = p * self.factor()
            elif ch in _DIGITS or ch.isalpha() or ch == "(" or ch == "η":
                p = p * self.factor()
            else:
                return p

    def factor(self):
        ch = self.peek()
        if ch == "(":
            if self.depth == _NESTING_LIMIT:
                self.error("nested too deeply")
            self.pos += 1
            self.depth += 1
            p = self.sum()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return self.power(p)
        if ch in _DIGITS:
            return self.power(DiffPoly.rational(self.number()))
        if ch.isalpha() or ch == "η":
            return self.power(self.jet())
        self.error("unexpected %r" % ch)

    def power(self, p):
        if self.peek() == "^":
            self.pos += 1
            if self.peek() == "-":
                self.error("negative powers are not supported")
            n = self.integer()
            if n > EXPONENT_LIMIT:
                self.error("exponent %d is above the limit %d" % (n, EXPONENT_LIMIT))
            return p ** n
        return p

    def integer(self):
        """A run of decimal digits: exponents, indices, orders, and the two
        halves of a rational."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        return int(self.text[start : self.pos])

    def number(self):
        num = self.integer()
        if self.peek() == "/":
            save = self.pos
            self.pos += 1
            if self.peek() in _DIGITS:
                return Fraction(num, self.integer())
            self.pos = save
        return Fraction(num)

    def jet(self):
        ch = self.peek()
        if ch == "η":
            self.pos += 1
        elif self.text.startswith("eta", self.pos):
            self.pos += 3
        elif ch == "n":
            self.pos += 1
        else:
            self.error("expected a variable")
        if self.peek() == "_":
            self.pos += 1
        var = self.integer()
        order = 0
        while self.peek() == "'":
            self.pos += 1
            order += 1
        if self.peek() == "[":
            self.pos += 1
            order = self.integer()
            if self.peek() != "]":
                self.error("expected ']'")
            self.pos += 1
        return DiffPoly.eta(var, order)


def parse(text):
    """Parse the written notation, e.g. "n1'' + 3 n1 n1' - 1/2 n3^2".

    The written input is the polynomial's source, so a written exponent or a
    product degree above EXPONENT_LIMIT is a ValueError here.
    """
    try:
        return _Parser(text).parse()
    except ExponentOverflow as exc:
        raise ValueError("parse error: %s" % exc) from None
