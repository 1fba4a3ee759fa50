"""Record tests/cli_pins.json: seeded inputs for `pvext gauge-normalize` and
`pvext bruhat`, and the systems of `pvext derive --format text`, each with
the exact stdout the CLI printed for it.

    PYTHONPATH=src python3 tests/record_cli_pins.py

test_cli_pins.py replays every case and compares stdout byte for byte.  The
pins hold the output of the dense gauge and Bruhat kernels these cases were
first recorded with, and the text rendering of the polynomials (the same
monomial order as the JSON report) that the derive cases were recorded
with; re-record only for an intended change of output.
"""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from pvext import chevalley, cli, linalg
from pvext.diffpoly import DiffPoly, frac_text

import diffpoly_oracle

OUT = Path(__file__).resolve().parent / "cli_pins.json"

# (type, rank, s, terms): s None for A_0^+, else the simple-root scalings of
# A_0^+(s); terms the most terms in one added polynomial, 0 for the bare
# A_0^+(s), whose every root letter has t = 0 and whose transform still has
# DiffPoly entries
GAUGE_CASES = [
    ("A", 2, None, 2),
    ("B", 3, None, 2),
    ("G2", 2, None, 2),
    ("D", 4, None, 1),
    ("G2", 2, (2, 3), 2),
    ("B", 3, (4, Fraction(1, 4), 9), 2),
    ("A", 2, None, 0),
    ("G2", 2, (2, 3), 0),
]
BRUHAT_SIZES = (3, 4, 5, 6)
DERIVE_SYSTEMS = (("A", 3), ("B", 3), ("G2", 2))


def _poly(rng, rank, terms):
    p = DiffPoly.zero()
    for _ in range(rng.randint(0, terms)):
        mono = DiffPoly.rational(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)))
        mono = mono * DiffPoly.eta(rng.randint(1, rank), rng.randint(0, 1))
        p = p + mono
    return p


def plane_matrix(rep, s, terms, rng):
    """A_0^+(s) plus a seeded polynomial multiple of every H_i and of X_b for
    the first three negative roots b."""
    a = [[DiffPoly.rational(x) for x in row] for row in rep.a0_plus(s)]
    for mat in list(rep.H) + [rep.X[b.coeffs] for b in rep.rs.neg_order[:3]]:
        p = _poly(rng, rep.rank, terms)
        a = [[x + p * y if y else x for x, y in zip(ra, rm)] for ra, rm in zip(a, mat)]
    return [[diffpoly_oracle.DiffPoly(x.terms).to_json_obj() for x in row] for row in a]


def sl_matrix(n, rng):
    """A seeded det-1 rational matrix l p d u in a seeded Bruhat cell: l, u
    unit triangular, p a signed permutation and d diagonal."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = linalg.zeros(n)
    for j, i in enumerate(perm):
        m[i][j] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
    m[perm[0]][0] /= linalg.det(m)
    for lower in (True, False):
        e = linalg.eye(n)
        for i in range(n):
            for j in range(n):
                if (i > j) == lower and i != j and rng.random() < 0.6:
                    e[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        m = linalg.mat_mul(e, m) if lower else linalg.mat_mul(m, e)
    return [[frac_text(x) for x in row] for row in m]


def run_cli(args, matrix):
    """The stdout of `pvext ARGS --matrix FILE` with FILE holding matrix, or
    of `pvext ARGS` when matrix is None."""
    with tempfile.TemporaryDirectory() as tmp:
        if matrix is not None:
            path = Path(tmp) / "matrix.json"
            path.write_text(json.dumps(matrix))
            args = args + ["--matrix", str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(args)
    if code:
        raise SystemExit("pvext %s exited %d" % (" ".join(args), code))
    return out.getvalue()


def cases():
    out = []
    for type_label, rank, s, terms in GAUGE_CASES:
        rep = chevalley.build_rep(type_label, rank)
        label = type_label if type_label == "G2" else "%s%d" % (type_label, rank)
        name = "gauge-%s%s%s" % (label, "" if s is None else "-rescaled", "" if terms else "-bare")
        rng = random.Random(name)
        args = ["gauge-normalize", "--type", type_label, "--rank", str(rank)]
        out.append({"name": name, "args": args, "matrix": plane_matrix(rep, s, terms, rng)})
    for n in BRUHAT_SIZES:
        for convention in ("negative", "positive"):
            name = "bruhat-n%d-%s" % (n, convention)
            rng = random.Random(name)
            args = ["bruhat", "--convention", convention]
            out.append({"name": name, "args": args, "matrix": sl_matrix(n, rng)})
    for type_label, rank in DERIVE_SYSTEMS:
        label = type_label if type_label == "G2" else "%s%d" % (type_label, rank)
        args = ["derive", "--type", type_label, "--rank", str(rank), "--format", "text"]
        out.append({"name": "derive-text-%s" % label, "args": args, "matrix": None})
    return out


def main():
    pins = cases()
    for case in pins:
        case["stdout"] = run_cli(case["args"], case["matrix"])
    OUT.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
