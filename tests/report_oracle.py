"""The dict-tree renderer the streaming writer replaced, kept as its
reference.

`report_json_obj` builds the whole report as nested dicts and lists, and
json.dumps(report_json_obj(r), sort_keys=True, indent=1) is the text that
`construct.report_json(r)` must equal byte for byte.  `tree_json_obj`
turns any tree the writer takes into the object json.dumps writes for it.
A LiouvExpr becomes `expr_json_obj`'s tree, its terms sorted by the
compact json.dumps text of their nested trees (`canonical_string`), found
here, independently of liouville_expr._id_string.
"""

import json
from fractions import Fraction

from pvext.diffpoly import DiffPoly, frac_text
from pvext.liouville_expr import _NO_EXP, LiouvExpr, _by_id

import diffpoly_oracle

_COMPACT = {}  # intern id -> compact string


def canonical_string(expr):
    """json.dumps(tree, sort_keys=True, separators=(",", ":")) of the
    expr_json_obj tree of a LiouvExpr."""
    return json.dumps(expr_json_obj(expr), sort_keys=True, separators=(",", ":"))


def compact_string(ident):
    """canonical_string of the interned expression `ident`, kept."""
    got = _COMPACT.get(ident)
    if got is None:
        got = _COMPACT[ident] = canonical_string(_by_id(ident))
    return got


def expr_json_obj(expr):
    """The canonical tree of a LiouvExpr, a sum of products of scalar,
    expint and int factors, each nested expression rendered in full: the
    terms in the order of the compact strings of their exponential
    integrand and integral atoms, the atoms of a term in theirs."""
    if not expr.terms:
        return {"op": "scalar", "p": poly_json_obj(DiffPoly.zero())}

    def term_key(item):
        (e, atoms), _ = item
        estr = compact_string(e) if e != _NO_EXP else ""
        return estr, tuple(sorted((compact_string(i), k) for i, k in atoms))

    terms = []
    for (e, atoms), c in sorted(expr.terms.items(), key=term_key):
        factors = [{"op": "scalar", "p": poly_json_obj(c)}]
        if e != _NO_EXP:
            factors.append({"op": "expint", "k": 1, "g": expr_json_obj(_by_id(e))})
        for ident, k in sorted(atoms, key=lambda ik: (compact_string(ik[0]), ik[1])):
            node = {"op": "int", "arg": expr_json_obj(_by_id(ident))}
            if k != 1:
                node = {"op": "pow", "k": k, "base": node}
            factors.append(node)
        terms.append(factors[0] if len(factors) == 1 else {"op": "prod", "args": factors})
    return terms[0] if len(terms) == 1 else {"op": "sum", "args": terms}


def poly_json_obj(p):
    """The JSON object of a DiffPoly, rendered by the reference from its
    decoded terms."""
    return diffpoly_oracle.DiffPoly(p.terms).to_json_obj()


def json_obj(value):
    """The JSON object of a DiffPoly, a LiouvExpr or a rational."""
    if isinstance(value, LiouvExpr):
        return expr_json_obj(value)
    if isinstance(value, (int, Fraction)):
        return frac_text(value)
    return poly_json_obj(value)


def matrix_json(m):
    return [[json_obj(x) for x in row] for row in m]


def tree_json_obj(value):
    """The tree with every DiffPoly and LiouvExpr replaced by its JSON
    object, each nested expression rendered in full."""
    if isinstance(value, (DiffPoly, LiouvExpr)):
        return json_obj(value)
    if isinstance(value, dict):
        return {key: tree_json_obj(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [tree_json_obj(item) for item in value]
    return value


def report_json_obj(result):
    """The full pipeline report with deterministic key order."""
    inv = result.invariants

    def listed(values):
        return [json_obj(v) for v in values]

    def keyed(values):
        return {str(k): json_obj(v) for k, v in sorted(values.items())}

    return {
        "system": {
            "type": result.rep.rs.type_label,
            "rank": result.rep.rs.rank,
            "root_system": result.rep.rs.to_json_obj(),
        },
        "stage1": {"v": keyed(result.stage1.v)},
        "stage2": {
            "g": listed(result.stage2.g),
            "ell": listed(result.stage2.ell),
            "p": listed(result.stage2.p),
        },
        "A_L": matrix_json(result.liouville.A_L),
        "c": [frac_text(x) for x in result.liouville.c],
        "gbar": listed(result.liouville.gbar),
        "z": listed(result.liouville.z),
        "y": listed(result.liouville.y),
        "h_raw": listed(result.h_raw),
        "f": keyed(inv.f),
        "invariants": {
            str(k): {
                "h": json_obj(inv.h[k]),
                "linear": json_obj(inv.lhat[k]),
                "nonlinear": json_obj(inv.phat[k]),
            }
            for k in sorted(inv.h)
        },
        "A_G": matrix_json(result.A_G),
    }
