"""The tuple/Fraction DiffPoly: the reference the packed kernel is checked against.

Monomials are sorted tuples of ((var, order), exponent) pairs mapping to
nonzero Fraction coefficients, so equality of canonical forms is structural
equality.  This is the representation pvext.diffpoly used before it packed
exponents into integers; the property tests require both to agree.
"""

from fractions import Fraction

from pvext.diffpoly import JetVar
from pvext.errors import MissingAssignment


def frac_text(q):
    return "%d/%d" % (q.numerator, q.denominator)


def _merge_monomials(m1, m2):
    """Multiply two monomials (sorted pair tuples)."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        j1, e1 = m1[i]
        j2, e2 = m2[j]
        if j1 == j2:
            out.append((j1, e1 + e2))
            i += 1
            j += 1
        elif j1 < j2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _monomial_degree(mon):
    return sum(e for _, e in mon)


def _monomial_order(mon):
    return max((jv[1] for jv, _ in mon), default=0)


def term_sort_key(mon):
    """Canonical graded-lexicographic key; used descending for serialization."""
    return (_monomial_degree(mon), mon)


class DiffPoly:
    """A differential polynomial with exact rational coefficients (reference).

    The zero polynomial is the empty term map.  Instances are treated as
    immutable values: all arithmetic returns fresh objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    # ----- constructors -----

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def rational(cls, value):
        q = Fraction(value)
        if q == 0:
            return cls()
        return cls({(): q})

    @classmethod
    def eta(cls, var, order=0, coeff=1):
        """The single jet variable coeff * eta_var^(order)."""
        q = Fraction(coeff)
        if q == 0:
            return cls()
        return cls({((JetVar(var, order), 1),): q})

    @classmethod
    def monomial(cls, jets, coeff=1):
        """Build coeff * prod eta_v^(k)^e from an iterable of (v, k, e)."""
        q = Fraction(coeff)
        if q == 0:
            return cls()
        acc = {}
        for v, k, e in jets:
            jv = JetVar(v, k)
            acc[jv] = acc.get(jv, 0) + e
        mon = tuple(sorted((jv, e) for jv, e in acc.items() if e != 0))
        return cls({mon: q})

    # ----- ring structure -----

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, DiffPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == DiffPoly.rational(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return DiffPoly({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.rational(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return DiffPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.rational(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return DiffPoly()
            return DiffPoly({m: c * q for m, c in self.terms.items()})
        if not isinstance(other, DiffPoly):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _merge_monomials(m1, m2)
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    s = s + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return DiffPoly(out)

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

    # ----- differential structure -----

    def derive(self, times=1):
        """Apply the derivation eta_i^(k) -> eta_i^(k+1), Leibniz on products."""
        p = self
        for _ in range(times):
            out = {}
            for mon, c in p.terms.items():
                for idx, (jv, e) in enumerate(mon):
                    coeff = c * e
                    rest = list(mon)
                    if e == 1:
                        del rest[idx]
                    else:
                        rest[idx] = (jv, e - 1)
                    bumped = _merge_monomials(
                        tuple(rest), ((JetVar(jv.var, jv.order + 1), 1),)
                    )
                    s = out.get(bumped)
                    if s is None:
                        out[bumped] = coeff
                    else:
                        s = s + coeff
                        if s:
                            out[bumped] = s
                        else:
                            del out[bumped]
            p = DiffPoly(out)
        return p

    def substitute(self, sigma):
        """Differential substitution eta_i^(k) -> sigma[i] derived k times.

        sigma maps var indices to DiffPoly images and must cover every
        variable occurring in the polynomial (MissingAssignment otherwise).
        """
        cache = {}

        def image(jv):
            got = cache.get(jv)
            if got is not None:
                return got
            if jv.order == 0:
                try:
                    img = sigma[jv.var]
                except KeyError:
                    raise MissingAssignment(
                        "no assignment for eta_%d" % jv.var
                    ) from None
            else:
                img = image(JetVar(jv.var, jv.order - 1)).derive()
            cache[jv] = img
            return img

        total = DiffPoly()
        for mon, c in self.terms.items():
            acc = DiffPoly.rational(c)
            for jv, e in mon:
                acc = acc * (image(jv) ** e)
            total = total + acc
        return total

    # ----- structural queries -----

    def order(self):
        """Highest derivative order present; 0 for the zero polynomial."""
        return max((_monomial_order(m) for m in self.terms), default=0)

    def degree(self):
        """Highest total monomial degree; 0 for the zero polynomial."""
        return max((_monomial_degree(m) for m in self.terms), default=0)

    def linear_part(self):
        return DiffPoly(
            {m: c for m, c in self.terms.items() if _monomial_degree(m) == 1}
        )

    def nonlinear_part(self):
        return DiffPoly(
            {m: c for m, c in self.terms.items() if _monomial_degree(m) != 1}
        )

    def variables(self):
        """Sorted list of var indices occurring in the polynomial."""
        return sorted({jv.var for m in self.terms for jv, _ in m})

    def jet_variables(self):
        return sorted({jv for m in self.terms for jv, _ in m})

    def min_term_degree(self):
        return min((_monomial_degree(m) for m in self.terms), default=0)

    def constant_term(self):
        return self.terms.get((), Fraction(0))

    def is_rational(self):
        return not self.terms or list(self.terms) == [()]

    def coefficient_of_jet(self, var, order):
        """Coefficient of the degree-one term eta_var^(order)."""
        return self.terms.get(((JetVar(var, order), 1),), Fraction(0))

    def sorted_terms(self):
        """Terms in canonical order (graded lex, leading term first)."""
        return sorted(self.terms.items(), key=lambda t: term_sort_key(t[0]), reverse=True)

    # ----- serialization -----

    def to_json_obj(self):
        """Canonical JSON object: {"terms": [{"c": "p/q", "m": [[v,k,e],...]}]}.

        Monomial factors are listed with the highest jet first, matching the
        written convention eta_2' * eta_1.
        """
        items = []
        for mon, c in self.sorted_terms():
            factors = [[jv.var, jv.order, e] for jv, e in sorted(mon, reverse=True)]
            items.append({"c": frac_text(c), "m": factors})
        return {"terms": items}

    @classmethod
    def from_json_obj(cls, obj):
        out = {}
        for item in obj["terms"]:
            c = Fraction(item["c"])
            mon = tuple(sorted((JetVar(v, k), e) for v, k, e in item["m"]))
            if c:
                out[mon] = c
        return cls(out)

    def __repr__(self):
        return "DiffPoly(%s)" % self.text()

    def text(self):
        """Human-readable rendering in the written notation."""
        if not self.terms:
            return "0"
        chunks = []
        for mon, c in self.sorted_terms():
            factors = "".join(
                _jet_text(jv, e) for jv, e in sorted(mon, reverse=True)
            )
            if not factors:
                body = str(c)
            elif c == 1:
                body = factors
            elif c == -1:
                body = "-" + factors
            else:
                body = str(c) + factors
            if chunks and not body.startswith("-"):
                chunks.append("+" + body)
            else:
                chunks.append(body)
        return " ".join(chunks)


def _jet_text(jv, e):
    s = "η%d" % jv.var
    if 1 <= jv.order <= 3:
        s += "'" * jv.order
    elif jv.order:
        s += "[%d]" % jv.order
    if e != 1:
        s += "^%d" % e
    return s
