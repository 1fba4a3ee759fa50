"""Command-line front end.

Subcommands: derive (run the full construction for a type/rank), verify
(byte-exact comparison of a derivation against golden fixtures), bruhat
(normal form of an exact SL_n matrix), gauge-normalize (gauge a plane
matrix to the generic shape).  Their JSON documents stream through one
writer, liouville_expr.json_chunks; only verify calls json.dumps, on the
fixture it compares with.  Exit codes: 0 ok, 1 usage error, 2
computation failure (running out of memory included), 3 fixture mismatch.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from . import bruhat as bruhat_mod
from . import chevalley, construct, gauge, rootsys
from .diffpoly import DiffPoly, frac_text, parse as parse_poly
from .errors import ExponentOverflow, PvextError, UnsupportedType
from .liouville_expr import json_chunks


def _write_output(chunks, path):
    """Write the text chunks to the file at `path` as they are, or to stdout
    ending in exactly one newline."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        tail = ""
        for chunk in chunks:
            sys.stdout.write(chunk)
            tail = chunk[-1:] or tail
        if tail != "\n":
            sys.stdout.write("\n")


def _check_output(path):
    """Refuse an --output path that is a directory or whose directory does
    not exist, before any work."""
    if os.path.isdir(path):
        raise ValueError("--output %s is a directory" % path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError("--output %s is in a directory that does not exist" % path)


def _report_text(result):
    lines = []
    rs = result.rep.rs
    lines.append("system %s rank %d  (m = %d)" % (rs.type_label, rs.rank, rs.m))
    lines.append(
        "negative roots: "
        + ", ".join("b%d=%r" % (i + 1, list(b.coeffs)) for i, b in enumerate(rs.neg_order))
    )
    lines.append("complementary indices: %s" % (list(rs.comp_roots),))
    for i, v in sorted(result.stage1.v.items()):
        lines.append("v_%d = %s" % (i, v.text()))
    for i, g in enumerate(result.stage2.g, 1):
        lines.append("g_%d = %s" % (i, g.text()))
    for i, e in enumerate(result.stage2.ell, 1):
        lines.append("l_%d = %s" % (i, e.text()))
    for i, p in enumerate(result.stage2.p, 1):
        lines.append("p_%d = %s" % (i, p.text()))
    lines.append("c = %s" % ([str(c) for c in result.liouville.c],))
    for i, g in enumerate(result.liouville.gbar, 1):
        lines.append("gbar_%d = %s" % (i, g.text()))
    for i, z in enumerate(result.liouville.z, 1):
        lines.append("z_%d = %s" % (i, z.text()))
    for i, y in enumerate(result.liouville.y, 1):
        lines.append("y_%d = %s" % (i, y.text()))
    for i, h in enumerate(result.h_raw, 1):
        lines.append("h_%d(full) = %s" % (i, h.text()))
    for k, f in sorted(result.invariants.f.items()):
        lines.append("f_%d = %s" % (k, f.text()))
    for k in sorted(result.invariants.h):
        lines.append("invariant h[%d] = %s" % (k, result.invariants.h[k].text()))
    return "\n".join(lines) + "\n"


def cmd_derive(args):
    result = construct.run_pipeline(args.type, args.rank)
    if args.format == "json":
        _write_output(construct.report_chunks(result), args.output)
    else:
        _write_output([_report_text(result)], args.output)
    return 0


def _default_fixtures():
    ref = resources.files("pvext").joinpath("data/fixtures.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _json_diff(a, b, path=""):
    """First path where the expected JSON-like value a and the derived b
    differ, or None."""
    if type(a) is not type(b):
        return "%s: type %s != %s" % (path or "/", type(a).__name__, type(b).__name__)
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in b:
                return "%s/%s: missing on the derived side" % (path, key)
            if key not in a:
                return "%s/%s: unexpected on the derived side" % (path, key)
            got = _json_diff(a[key], b[key], "%s/%s" % (path, key))
            if got:
                return got
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return "%s: length %d != %d" % (path or "/", len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            got = _json_diff(x, y, "%s[%d]" % (path, i))
            if got:
                return got
        return None
    if a != b:
        return "%s: %r != %r" % (path or "/", a, b)
    return None


def _read_json(path):
    """The JSON value in the file at `path`; nesting too deep for the decoder
    is a ValueError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % path) from None


def _load_fixtures(path):
    """Fixtures by name: each a {"type": str, "rank": int, "report": dict}."""
    fixtures = _read_json(path)
    if not isinstance(fixtures, dict) or not all(
        isinstance(spec, dict)
        and isinstance(spec.get("type"), str)
        and type(spec.get("rank")) is int
        and isinstance(spec.get("report"), dict)
        for spec in fixtures.values()
    ):
        raise ValueError('fixtures must map names to {"type", "rank", "report"}')
    return fixtures


def cmd_verify(args):
    fixtures = _load_fixtures(args.fixtures) if args.fixtures else _default_fixtures()
    failures = []
    for name in sorted(fixtures):
        spec = fixtures[name]
        result = construct.run_pipeline(spec["type"], spec["rank"])
        derived = construct.report_json(result)
        if derived != json.dumps(spec["report"], sort_keys=True, indent=1):
            where = _json_diff(spec["report"], json.loads(derived)) or (
                "/: same values, different bytes"
            )
            failures.append("%s: %s" % (name, where))
            sys.stderr.write("fixture %s MISMATCH at %s\n" % (name, where))
        else:
            sys.stdout.write("fixture %s ok\n" % name)
    if failures:
        return 3
    return 0


def _parse_matrix_entry(raw):
    if isinstance(raw, dict):
        return DiffPoly.from_json_obj(raw)
    if isinstance(raw, (bool, float)):
        raise ValueError(
            "matrix entry %r is not exact; write fractions as strings like \"1/10\"" % (raw,)
        )
    if isinstance(raw, int):
        return Fraction(raw)
    if not isinstance(raw, str):
        kind = "an array" if isinstance(raw, list) else "null"
        raise ValueError("matrix entry is %s; write entries as numbers or strings" % kind)
    text = raw.strip()
    if any(ch.isalpha() or ch == "η" for ch in text):
        return parse_poly(text)
    if not text.isascii():
        raise ValueError("matrix entry %r is not written in ASCII" % text)
    return Fraction(text)


def _load_matrix(path):
    data = _read_json(path)
    if not isinstance(data, list) or not data or not all(
        isinstance(row, list) and len(row) == len(data) for row in data
    ):
        raise ValueError("matrix file must hold a square array of rows")
    try:
        return [[_parse_matrix_entry(x) for x in row] for row in data]
    except (KeyError, TypeError, ZeroDivisionError, ExponentOverflow) as exc:
        raise ValueError("malformed matrix entry: %r" % (exc,)) from None


def _rational_entry(x):
    if isinstance(x, Fraction):
        return x
    if not x.is_rational():
        raise ValueError("bruhat needs rational entries, got %s" % x.text())
    return x.constant_term()


def cmd_bruhat(args):
    m = [[_rational_entry(x) for x in row] for row in _load_matrix(args.matrix)]
    form = bruhat_mod.bruhat_decompose(m, convention=args.convention)
    obj = {
        "w": form.perm,
        "word": form.word,
        "uprime": [[frac_text(x) for x in row] for row in form.uprime],
        "t": [frac_text(form.t[i][i]) for i in range(len(form.t))],
        "u": [[frac_text(x) for x in row] for row in form.u],
        "x": [frac_text(x) for x in form.x],
        "z": [frac_text(x) for x in form.z],
        "y": [frac_text(x) for x in form.y],
    }
    _write_output(json_chunks(obj), args.output)
    return 0


def cmd_gauge_normalize(args):
    type_label, rank = args.type, args.rank
    a = _load_matrix(args.matrix)
    # every supported representation has more rows than its rank (l + 1,
    # 2l + 1, 2l, 2l or 7), so a rank the matrix cannot hold is refused
    # before the representation is built
    if rank >= len(a):
        raise ValueError(
            "type %s rank %d needs at least a %dx%d matrix, the file holds %dx%d"
            % (type_label, rank, rank + 1, rank + 1, len(a), len(a))
        )
    rep = chevalley.build_rep(type_label, rank)
    if len(a) != rep.dim:
        raise ValueError(
            "type %s rank %d needs a %dx%d matrix, the file holds %dx%d"
            % (type_label, rank, rep.dim, rep.dim, len(a), len(a))
        )
    g, _, f = gauge.normalize_to_AG(rep, a)
    obj = {
        "transform": g,
        "f": {str(k): v for k, v in f.items()},
        "f_text": {str(k): v.text() for k, v in f.items()},
    }
    _write_output(json_chunks(obj), args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pvext",
        description="generic Picard-Vessiot constructions for classical groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="run the full construction")
    p.add_argument("--type", required=True, choices=rootsys.TYPES)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("verify", help="check derivations against golden fixtures")
    p.add_argument("--fixtures", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bruhat", help="Bruhat normal form of an exact SL_n matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--convention", default="negative", choices=("negative", "positive"))
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_bruhat)

    p = sub.add_parser("gauge-normalize", help="gauge a plane matrix to A_G(f)")
    p.add_argument("--type", required=True, choices=rootsys.TYPES)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--matrix", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gauge_normalize)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "output", None):
            _check_output(args.output)
        return args.func(args)
    except UnsupportedType as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 1
    except PvextError as exc:
        sys.stderr.write("computation failed: %s: %s\n" % (type(exc).__name__, exc))
        return 2
    except MemoryError:
        pass
    # out of memory; leaving the except clause freed the frames that held
    # the computation, so the message has room
    system = "%s rank %d " % (args.type, args.rank) if hasattr(args, "type") else ""
    sys.stderr.write("computation failed: MemoryError: %sran out of memory\n" % system)
    return 2


if __name__ == "__main__":
    sys.exit(main())
