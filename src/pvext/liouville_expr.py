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
interned expression, which sorts terms for output, is rendered on first
use only, by json_chunks: pvext's one JSON writer, also of every document.
"""

import threading
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .diffpoly import DiffPoly, MonomialTable

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
    """The canonical string of an interned expression: json.dumps(tree,
    sort_keys=True, separators=(",", ":")) of its tree, nested ones in full.

    It is json_chunks' text, json.dumps(tree, sort_keys=True, indent=1),
    without each line break and the indent after it, and with ":" for ": ".
    Proof.  json.dumps writes the same tokens in both, and indent=1 only
    adds a break and indent after each "[", "{" and ",", and before the
    closing bracket of a non-empty container, and writes ": " for ":".  A
    string never holds a raw newline (json escapes it), and a line starts
    with a token after its indent, so the breaks and indents are what goes.
    No string here (op names, keys, "p/q" coefficients) holds a colon, so
    every ": " is a key separator.
    """
    entry = _BY_ID[ident - 1]
    if entry[1] is None:
        lines = "".join(json_chunks(entry[0])).split("\n")
        entry[1] = "".join(line.lstrip(" ") for line in lines).replace(": ", ":")
    return entry[1]


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
        return cls.scalar(1)

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
        return LiouvExpr(_merge(dict(self.terms), as_expr(other).terms.items()))

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
        return LiouvExpr(_merge({}, _products(self.terms, other.terms)))

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
        out = {}
        for (e, atoms), c in self.terms.items():
            dc = c.derive()
            if dc:
                _merge(out, (((e, atoms), dc),))
            if e != _NO_EXP:
                _merge(out, _products(_by_id(e).terms, {(e, atoms): c}))
            for idx, (ident, k) in enumerate(atoms):
                # d(int f)^k = k f (int f)^(k-1)
                rest = atoms[:idx] + ((ident, k - 1),) * (k > 1) + atoms[idx + 1 :]
                _merge(out, _products(_by_id(ident).terms, {(e, rest): c * k}))
        return LiouvExpr(out)

    # ----- serialization -----

    def _sorted_terms(self):
        def key(item):
            (e, atoms), _ = item
            estr = _id_string(e) if e != _NO_EXP else ""
            astr = tuple(sorted((_id_string(i), k) for i, k in atoms))
            return (estr, astr)

        return sorted(self.terms.items(), key=key)

    def _json_tree(self):
        """The canonical tree, a sum of products of scalar, expint and int
        factors, for json_chunks: each DiffPoly coefficient as it is, and
        each exponential integrand and integral argument as the _Nested
        marker of its intern id."""
        if not self.terms:
            return {"op": "scalar", "p": DiffPoly.zero()}
        terms = []
        for (e, atoms), c in self._sorted_terms():
            factors = [{"op": "scalar", "p": c}]
            if e != _NO_EXP:
                factors.append({"op": "expint", "k": 1, "g": _Nested(e)})
            for ident, k in sorted(atoms, key=lambda ik: (_id_string(ik[0]), ik[1])):
                node = {"op": "int", "arg": _Nested(ident)}
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


def _merge(out, pairs):
    """Add each (key, coefficient) of pairs into the term map out, dropping
    a key whose coefficients cancel; returns out."""
    for k, c in pairs:
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _products(t1, t2):
    """The (key, coefficient) of each product of a term of t1 and one of t2,
    whose coefficient is not zero, DiffPoly being an integral domain."""
    for (e1, a1), c1 in t1.items():
        for (e2, a2), c2 in t2.items():
            if e1 == _NO_EXP:
                e = e2
            elif e2 == _NO_EXP:
                e = e1
            else:
                g = _by_id(e1) + _by_id(e2)
                e = _intern(g) if g.terms else _NO_EXP
            yield (e, _merge_atoms(a1, a2)), c1 * c2


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


class _Nested:
    """An exponential integrand or integral argument in a LiouvExpr's tree,
    by its intern id: json_chunks renders it once per value it writes."""

    __slots__ = ("ident",)

    def __init__(self, ident):
        self.ident = ident


def json_chunks(value):
    """The text json.dumps(value, sort_keys=True, indent=1) writes, in
    chunks, from one generator frame that keeps the open containers on a
    stack: the report, the CLI documents and the canonical strings.

    Dicts (string keys, in sorted() order, as sort_keys sorts them), lists
    and tuples render as json renders them, and a LiouvExpr as its small
    _json_tree.  Strings and ints render as json renders them, and a
    DiffPoly at its depth, through one MonomialTable shared by every
    polynomial of the value; its text is a chunk of its own.  Any other
    value is a TypeError: nothing is rendered by str().
    """
    return _chunks(value, 0, MonomialTable(), {})


def _chunks(value, base, table, memo):
    r"""json_chunks of a value that sits `base` containers deep.

    An interned expression nested in a LiouvExpr (an exponential integrand
    or an integral argument) is rendered once per value: the first time it
    is met, at depth `at`, its text is kept in `memo` under its intern id,
    and a later occurrence at depth d is that text with every "\n" followed
    by `at` spaces turned into "\n" followed by d spaces.  Proof that this
    is the text at depth d.  A container at depth d opens on its own line's
    tail, puts each item on a line led by d + 1 spaces and closes on a line
    led by d spaces, and a DiffPoly's text at depth d is json's, which
    indents the same way; so in a value rendered at depth d every line break
    is followed by d plus its line's nesting level in the value spaces, at
    least d.  No rendered string holds a raw newline (json escapes it as a
    backslash and an n, and the "c" texts are digits and "/"), so every
    "\n" is a line break.  Each break thus starts exactly one match of "\n"
    and `at` spaces, the matches do not overlap, and replacing each one
    moves its line from at + level spaces to d + level, as rendering at
    depth d would.  Polynomial texts are not kept: they make up nearly all
    of a report, and a memo of them would hold it whole.
    """
    stack = []  # per open container: iterator over (text before, item), closing text
    head = ""
    while True:
        if isinstance(value, LiouvExpr):
            value = value._json_tree()
        if isinstance(value, (dict, list, tuple)):
            pad = "\n" + " " * (base + len(stack) + 1)
            seps = [pad] + ["," + pad] * (len(value) - 1)
            if isinstance(value, dict):
                if not all(isinstance(key, str) for key in value):
                    raise TypeError("report keys must be strings, got %r" % (list(value),))
                opener, closer = "{", "}"
                items = [
                    (sep + encode_basestring_ascii(key) + ": ", value[key])
                    for sep, key in zip(seps, sorted(value))
                ]
            else:
                opener, closer = "[", "]"
                items = zip(seps, value)
            if value:
                stack.append((iter(items), pad[:-1] + closer))
                head += opener
            else:
                head += opener + closer
        else:
            depth = base + len(stack)
            if isinstance(value, DiffPoly):
                text = table.json_text(value, depth)
            elif isinstance(value, _Nested):
                got = memo.get(value.ident)
                if got is None:
                    text = "".join(_chunks(_by_id(value.ident), depth, table, memo))
                    memo[value.ident] = depth, text
                else:
                    at, text = got
                    if at != depth:
                        text = text.replace("\n" + " " * at, "\n" + " " * depth)
            elif isinstance(value, str):
                text = encode_basestring_ascii(value)
            elif type(value) is int:
                text = int.__repr__(value)
            else:
                raise TypeError("cannot render a %s in the report" % type(value).__name__)
            if head:
                yield head
                head = ""
            yield text
        while stack:
            items, closer = stack[-1]
            item = next(items, None)
            if item is not None:
                sep, value = item
                head += sep
                break
            head += closer
            stack.pop()
        else:
            if head:
                yield head
            return
