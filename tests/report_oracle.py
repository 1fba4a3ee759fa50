"""The report builder the streaming writer replaced, kept as its reference.

`report_json_obj` builds the whole report as nested dicts and lists, and
json.dumps(report_json_obj(r), sort_keys=True, indent=1) is the text that
`construct.report_json(r)` must equal byte for byte.  `tree_json_obj`
turns any tree the report writer takes into the object json.dumps writes
for it.
"""

from pvext.construct import matrix_json
from pvext.diffpoly import DiffPoly, frac_text
from pvext.liouville_expr import LiouvExpr


def tree_json_obj(value):
    """The tree with every DiffPoly and LiouvExpr replaced by its
    to_json_obj() object, each nested expression rendered in full."""
    if isinstance(value, (DiffPoly, LiouvExpr)):
        return value.to_json_obj()
    if isinstance(value, dict):
        return {key: tree_json_obj(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [tree_json_obj(item) for item in value]
    return value


def report_json_obj(result):
    """The full pipeline report with deterministic key order."""
    inv = result.invariants
    report = {
        "system": {
            "type": result.rep.rs.type_label,
            "rank": result.rep.rs.rank,
            "root_system": result.rep.rs.to_json_obj(),
        },
        "stage1": {"v": {str(i): v.to_json_obj() for i, v in sorted(result.stage1.v.items())}},
        "stage2": {
            "g": [g.to_json_obj() for g in result.stage2.g],
            "ell": [e.to_json_obj() for e in result.stage2.ell],
            "p": [p.to_json_obj() for p in result.stage2.p],
        },
        "A_L": matrix_json(result.liouville.A_L),
        "c": [frac_text(x) for x in result.liouville.c],
        "gbar": [g.to_json_obj() for g in result.liouville.gbar],
        "z": [z.to_json_obj() for z in result.liouville.z],
        "y": [y.to_json_obj() for y in result.liouville.y],
        "h_raw": [h.to_json_obj() for h in result.h_raw],
        "f": {str(k): v.to_json_obj() for k, v in sorted(inv.f.items())},
        "invariants": {
            str(k): {
                "h": inv.h[k].to_json_obj(),
                "linear": inv.lhat[k].to_json_obj(),
                "nonlinear": inv.phat[k].to_json_obj(),
            }
            for k in sorted(inv.h)
        },
        "A_G": matrix_json(result.A_G),
    }
    return report
