"""Closed expression algebra for Liouvillian generators.

Expressions are built from differential-polynomial scalars, formal integrals
int(f), and exponentials-of-integrals e^{int g}.  Every expression is kept
in a canonical normal form: a sum of terms

    coefficient * e^{int G} * prod Integral(arg_i)^{k_i}

where the coefficient is a DiffPoly, G is itself a normalized expression
(the integrands of merged exponential factors add up), and the integral
atoms are opaque: no linearity or integration-by-parts rewriting ever
happens under an integral sign.  Products of exponentials merge; integral
atoms compare by their normalized arguments.  Normalization is eager,
hence trivially idempotent, and equality is structural.

Exponential integrands and integral arguments are interned by structure:
each distinct normalized expression gets one positive integer id, keyed by
its term map, and a term refers to them by id.  The canonical string of an
interned expression is rendered on first use only, to sort terms for
output.
"""

import json
import threading
from fractions import Fraction

from .diffpoly import DiffPoly

_LOCK = threading.Lock()
_IDS = {}  # frozenset of a normalized expression's terms -> id
_BY_ID = []  # id-1 -> [LiouvExpr, canonical string or None until first use]

_NO_EXP = 0


def _intern(expr):
    """Intern a normalized expression, returning a positive integer id.

    The table is keyed by the term map, not by the canonical string, and
    the ids partition expressions exactly as string keys would.  Two
    normalized expressions are equal iff their term maps are: normalization
    is eager, and by induction on depth every integrand and integral
    argument in a key is a single id.  The canonical string is a function
    of the term map (each id stands for one string), and it determines the
    term map back: it lists every term once with its DiffPoly coefficient
    in canonical form, the string of its exponential integrand and those
    of its integral atoms with their powers, each of which names one id by
    induction.  So equal term maps and equal strings are the same relation.
    """
    key = frozenset(expr.terms.items())
    with _LOCK:
        got = _IDS.get(key)
        if got is not None:
            return got
        _BY_ID.append([expr, None])
        ident = len(_BY_ID)
        _IDS[key] = ident
        return ident


def _by_id(ident):
    return _BY_ID[ident - 1][0]


def _id_string(ident):
    entry = _BY_ID[ident - 1]
    if entry[1] is None:
        entry[1] = entry[0].canonical_string()
    return entry[1]


def _nested_json_obj(ident):
    return _by_id(ident).to_json_obj()


def _coerce_scalar(value):
    if isinstance(value, DiffPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return DiffPoly.rational(value)
    return None


class LiouvExpr:
    """A normalized Liouvillian expression; immutable value semantics."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    # ----- constructors -----

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.rational(1)

    @classmethod
    def rational(cls, q):
        p = DiffPoly.rational(q)
        if p.is_zero():
            return cls()
        return cls({(_NO_EXP, ()): p})

    @classmethod
    def scalar(cls, p):
        coerced = _coerce_scalar(p)
        if coerced is None:
            raise TypeError("scalar expects a DiffPoly or rational")
        if coerced.is_zero():
            return cls()
        return cls({(_NO_EXP, ()): coerced})

    @classmethod
    def integral(cls, arg):
        """The opaque atom int(arg)."""
        arg = as_expr(arg)
        ident = _intern(arg)
        return cls({(_NO_EXP, ((ident, 1),)): DiffPoly.rational(1)})

    @classmethod
    def exp_integral(cls, g):
        """e^{int g}; e^{int 0} is 1."""
        g = as_expr(g)
        if not g.terms:
            return cls.one()
        return cls({(_intern(g), ()): DiffPoly.rational(1)})

    # ----- ring structure -----

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, LiouvExpr):
            return self.terms == other.terms
        coerced = _coerce_scalar(other)
        if coerced is None:
            return NotImplemented
        return self == LiouvExpr.scalar(coerced)

    def __hash__(self):
        # a pure scalar equals its coefficient, so it hashes as that DiffPoly
        if not self.terms:
            return hash(0)
        if list(self.terms) == [(_NO_EXP, ())]:
            return hash(self.terms[_NO_EXP, ()])
        return hash(frozenset((k, hash(c)) for k, c in self.terms.items()))

    def __neg__(self):
        return LiouvExpr({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        other = as_expr(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return LiouvExpr(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-as_expr(other))

    def __rsub__(self, other):
        return (-self) + as_expr(other)

    def __mul__(self, other):
        other = as_expr(other)
        if self.terms == _ONE_TERMS:
            return other
        if other.terms == _ONE_TERMS:
            return self
        out = {}
        for (e1, a1), c1 in self.terms.items():
            for (e2, a2), c2 in other.terms.items():
                c = c1 * c2
                if not c:
                    continue
                if e1 == _NO_EXP:
                    e = e2
                elif e2 == _NO_EXP:
                    e = e1
                else:
                    g = _by_id(e1) + _by_id(e2)
                    e = _intern(g) if g.terms else _NO_EXP
                key = (e, _merge_atoms(a1, a2))
                s = out.get(key)
                if s is None:
                    out[key] = c
                else:
                    s = s + c
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return LiouvExpr(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n for an integer n.

        A single exponential monomial q e^{int G} (rational q, no integral
        atoms) is raised in one step to q^n e^{int nG}.  That is the n-fold
        product: a product multiplies the coefficients and adds the
        integrands of the exponentials, so n factors give q^n and
        G + ... + G = nG, and for n < 0 the inverse q^-1 e^{int -G} gives
        q^n and -nG the same way.  Other expressions are multiplied out
        and have no negative powers.
        """
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if len(self.terms) == 1:
            (e, atoms), c = next(iter(self.terms.items()))
            if not atoms and c.is_rational():
                g = _by_id(e) * n if e != _NO_EXP else LiouvExpr.zero()
                power_e = _intern(g) if g.terms else _NO_EXP
                return LiouvExpr({(power_e, ()): DiffPoly.rational(c.constant_term() ** n)})
        if n < 0:
            raise ValueError(
                "only exponential monomials with rational coefficients are invertible"
            )
        result = LiouvExpr.one()
        for _ in range(n):
            result = result * self
        return result

    # ----- differential structure -----

    def derive(self):
        """The derivation: d(int f) = f and d(e^{int g}) = g e^{int g}."""
        total = LiouvExpr.zero()
        for (e, atoms), c in self.terms.items():
            monomial = LiouvExpr({(e, atoms): DiffPoly.rational(1)})
            dc = c.derive()
            if dc:
                total = total + LiouvExpr({(e, atoms): dc})
            if e != _NO_EXP:
                total = total + (_by_id(e) * monomial) * c
            for idx, (ident, k) in enumerate(atoms):
                rest = list(atoms)
                if k == 1:
                    del rest[idx]
                else:
                    rest[idx] = (ident, k - 1)
                stub = LiouvExpr({(e, tuple(rest)): c * k})
                total = total + _by_id(ident) * stub
        return total

    # ----- serialization -----

    def _sorted_terms(self):
        def key(item):
            (e, atoms), _ = item
            estr = _id_string(e) if e != _NO_EXP else ""
            astr = tuple(sorted((_id_string(i), k) for i, k in atoms))
            return (estr, astr)

        return sorted(self.terms.items(), key=key)

    def to_json_obj(self):
        """Canonical tree: sum of products of scalar/expint/int factors."""
        return self._json_tree(DiffPoly.to_json_obj, _nested_json_obj)

    def _json_tree(self, poly, nested):
        """The to_json_obj() tree with poly(c) in place of the JSON object
        of each DiffPoly c in it, and nested(ident) in place of the tree of
        each exponential integrand and integral argument, by intern id."""
        if not self.terms:
            return {"op": "scalar", "p": poly(DiffPoly.zero())}
        terms = []
        for (e, atoms), c in self._sorted_terms():
            factors = [{"op": "scalar", "p": poly(c)}]
            if e != _NO_EXP:
                factors.append({"op": "expint", "k": 1, "g": nested(e)})
            for ident, k in sorted(atoms, key=lambda ik: (_id_string(ik[0]), ik[1])):
                node = {"op": "int", "arg": nested(ident)}
                if k != 1:
                    node = {"op": "pow", "k": k, "base": node}
                factors.append(node)
            if len(factors) == 1:
                terms.append(factors[0])
            else:
                terms.append({"op": "prod", "args": factors})
        if len(terms) == 1:
            return terms[0]
        return {"op": "sum", "args": terms}

    def canonical_string(self):
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    def __repr__(self):
        return "LiouvExpr(%s)" % self.text()

    def text(self):
        if not self.terms:
            return "0"
        chunks = []
        for (e, atoms), c in self._sorted_terms():
            bits = []
            if c.is_rational():
                q = c.constant_term()
                if q == -1:
                    bits.append("-")
                elif q != 1:
                    bits.append(str(q))
            else:
                bits.append("(%s)" % c.text())
            if e != _NO_EXP:
                bits.append("e^{∫(%s)}" % _by_id(e).text())
            for ident, k in sorted(atoms, key=lambda ik: (_id_string(ik[0]), ik[1])):
                atom = "∫(%s)" % _by_id(ident).text()
                bits.append(atom if k == 1 else atom + "^%d" % k)
            if not bits or bits == ["-"]:
                bits.append("1")
            chunks.append("".join(bits) if bits[0] != "-" else "-" + "".join(bits[1:]))
        out = chunks[0]
        for chunk in chunks[1:]:
            out += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
        return out


_ONE_TERMS = LiouvExpr.one().terms


def _merge_atoms(a1, a2):
    if not a1:
        return a2
    if not a2:
        return a1
    acc = dict(a1)
    for ident, k in a2:
        acc[ident] = acc.get(ident, 0) + k
    return tuple(sorted((i, k) for i, k in acc.items() if k))


def as_expr(value):
    if isinstance(value, LiouvExpr):
        return value
    coerced = _coerce_scalar(value)
    if coerced is None:
        raise TypeError("cannot coerce %r to LiouvExpr" % type(value))
    return LiouvExpr.scalar(coerced)

