"""Workloads of the pvext benchmark: inputs, operations and output oracles.

A workload turns a seed into passes of operations.  An operation is timed
around its calls into pvext only; its check runs afterwards, untimed, and
does not reuse the pvext code path it checks.  Inputs come from the seed
and are plain data built by this file.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

# The ROADMAP grid, and the systems of the README library flow.
DERIVE_GRID = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
               "C2", "C3", "C4", "D3", "D4", "D5", "G2")
VERIFY_GRID = ("A3", "G2", "B3", "C3", "D4", "C4", "B4")

# Golden reports shipped with pvext, by grid label.
FIXTURE_NAMES = {"A3": "SL4", "G2": "G2"}

# normal-forms: operations per pass.  Sized so that Bruhat and gauge each
# take about half of a pass; rejections are about 5% of the operations.
BRUHAT_SIZES = range(3, 9)
BRUHAT_PER_SIZE = 8  # per size and per convention
# label -> (plane matrices per pass, most terms in one entry)
GAUGE_SYSTEMS = {"A2": (8, 2), "A3": (8, 2), "B3": (3, 2), "C3": (4, 2),
                 "G2": (4, 2), "D4": (3, 1)}
GAUGE_RESCALED_EVERY = 4  # every 4th plane matrix of a system has s != 1
REJECT_BRUHAT = 3
REJECT_GAUGE = 4


def split_label(label):
    """("B", 4) for "B4"; G2 is its own type label."""
    if label == "G2":
        return "G2", 2
    return label[0], int(label[1:])


@dataclass
class Op:
    """One timed call into pvext.

    `call` does the timed work.  For a normal operation `check(output)`
    says whether the output is right; for a rejection `expect` names the
    exception that must be raised.
    """

    label: str
    call: object
    check: object = None
    expect: type = None


def run_op(op, tracer=None):
    """Run one operation; (start, seconds, ok).  A wrong output, an unexpected
    exception and a rejection that did not happen are all failures.  With
    a tracer, the call (not the check) is the operation's root span."""
    if tracer is not None:
        tracer.begin_op(op.label)
    start = perf_counter()
    try:
        out = op.call()
        exc = None
    except Exception as caught:  # every outcome is judged below
        out, exc = None, caught
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    if op.expect is not None:
        return start, seconds, isinstance(exc, op.expect)
    if exc is not None:
        return start, seconds, False
    try:
        return start, seconds, bool(op.check(out))
    except Exception:  # a check that cannot run on the output fails it
        return start, seconds, False


# ----- report oracle (derive, verify) -----


def _canonical(obj):
    return json.dumps(obj, sort_keys=True)


def report_digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ReportOracle:
    """Golden reports for A3 and G2, recorded SHA-256 digests otherwise."""

    def __init__(self, fixtures, digests):
        self.golden = {
            label: _canonical(fixtures[name]["report"])
            for label, name in FIXTURE_NAMES.items()
        }
        self.digests = dict(digests)

    def __call__(self, label, report):
        if label in self.golden:
            return _canonical(json.loads(report)) == self.golden[label]
        return report_digest(report) == self.digests.get(label)


def load_oracle(root):
    fixtures_path = Path(root) / "src" / "pvext" / "data" / "fixtures.json"
    fixtures = json.loads(fixtures_path.read_text(encoding="utf-8"))
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return ReportOracle(fixtures, digests)


def derive_op(pv, oracle, label):
    """`pvext derive --format json`: run_pipeline then report_json."""

    def call():
        return pv.construct.report_json(pv.construct.run_pipeline(*split_label(label)))

    return Op("derive:" + label, call, lambda report: oracle(label, report))


def verify_op(pv, oracle, label):
    """The README library flow: run_pipeline then verify_end_to_end."""

    def call():
        result = pv.construct.run_pipeline(*split_label(label))
        status = pv.construct.verify_end_to_end(
            result.rep, result.liouville, result.invariants
        )
        return result, status

    def check(out):
        result, status = out
        return (
            status.get("status") == "ok"
            and status.get("entries_checked") == result.rep.dim ** 2
            and oracle(label, pv.construct.report_json(result))
        )

    return Op("verify:" + label, call, check)


def _shuffled_grid(grid, make_op, seed):
    rng = random.Random(seed)

    def next_pass():
        labels = list(grid)
        rng.shuffle(labels)
        return [make_op(label) for label in labels]

    return next_pass


# ----- exact Fraction matrices, independent of pvext.linalg -----


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))
             for col in cols] for row in a]


def det(m):
    """Determinant by exact Gaussian elimination."""
    a = [list(map(Fraction, row)) for row in m]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            ratio = a[i][k] / a[k][k]
            if ratio:
                a[i] = [x - ratio * y for x, y in zip(a[i], a[k])]
    return out


def _unit_triangular(m, lower):
    n = len(m)
    return all(
        m[i][j] == (1 if i == j else 0)
        for i in range(n)
        for j in range(n)
        if i == j or (j > i if lower else j < i)
    )


def _diagonal(m):
    return all(not m[i][j] for i in range(len(m)) for j in range(len(m)) if i != j)


def weyl_representative(n, word):
    """n(w): the product of [[0, 1], [-1, 0]] blocks along the word."""
    out = identity(n)
    for i in word:
        block = identity(n)
        block[i - 1][i - 1] = block[i][i] = Fraction(0)
        block[i - 1][i] = Fraction(1)
        block[i][i - 1] = Fraction(-1)
        out = matmul(out, block)
    return out


def check_bruhat(m, convention):
    """u' n(w) t u rebuilt here equals the input, with the right shapes."""

    def check(form):
        n = len(m)
        lower = convention == "negative"
        uprime = [list(r) for r in form.uprime]
        t = [list(r) for r in form.t]
        u = [list(r) for r in form.u]
        if not (_unit_triangular(uprime, lower) and _unit_triangular(u, lower)
                and _diagonal(t)):
            return False
        nw = weyl_representative(n, form.word)
        if any(not nw[form.perm[k] - 1][k] for k in range(n)):
            return False
        diag = Fraction(1)
        for i in range(n):
            diag *= t[i][i]
        if det(nw) * diag != 1:
            return False
        return matmul(matmul(matmul(uprime, nw), t), u) == m

    return check


def _small_fraction(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def random_sl(n, values, shape):
    """L P D U: unit triangular L and U, a signed permutation P, diagonal D;
    det 1.  `shape` picks the permutation, hence the Bruhat cell, and which
    entries of L and U are nonzero; `values` picks the entries."""
    perm = list(range(n))
    shape.shuffle(perm)
    p = [[Fraction(0)] * n for _ in range(n)]
    for k, row in enumerate(perm):
        p[row][k] = Fraction(1)
    if det(p) < 0:
        p[perm[0]][0] = Fraction(-1)
    d = [_small_fraction(values) for _ in range(n - 1)]
    last = Fraction(1)
    for x in d:
        last /= x
    diag = [[Fraction(0)] * n for _ in range(n)]
    for i, x in enumerate(d + [last]):
        diag[i][i] = x
    lo, up = identity(n), identity(n)
    for i in range(n):
        for j in range(i):
            if shape.random() < 0.5:
                lo[i][j] = _small_fraction(values)
            if shape.random() < 0.5:
                up[j][i] = _small_fraction(values)
    return matmul(matmul(lo, p), matmul(diag, up))


# ----- gauge inputs -----


def _random_poly(DiffPoly, nvars, values, shape, max_terms):
    """A small differential polynomial: `shape` picks the jets, `values`
    the coefficients."""
    p = DiffPoly.zero()
    for _ in range(shape.randint(0, max_terms)):
        mono = DiffPoly.rational(values.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(shape.randint(1, 2)):
            mono = mono * DiffPoly.eta(shape.randint(1, nvars), shape.randint(0, 1))
        p = p + mono
    return p


def _add_multiple(a, p, mat):
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x:
                a[i][j] = a[i][j] + p * x


def _rescaling(rep, rng):
    """s with a rational torus rescaling: each s_i is a d-th power, d the
    determinant of the Cartan matrix, so that s_i^(C^-1) is rational."""
    d = int(abs(det(rep.rs.cartan)))
    return [Fraction(rng.randint(1, 3), rng.randint(1, 2)) ** d for _ in range(rep.rank)]


def plane_matrix(pv, rep, label, index, values, s=None):
    """A_0^+(s) plus a random element of b^- with polynomial entries.

    The jets of each entry depend only on (label, index), so every seed
    asks for the same amount of symbolic work; the seed picks the values.
    """
    DiffPoly = pv.diffpoly.DiffPoly
    shape = random.Random("plane:%s:%d" % (label, index))
    a = [[DiffPoly.rational(x) for x in row] for row in rep.a0_plus(s)]
    for mat in list(rep.H) + [rep.X[b.coeffs] for b in rep.rs.neg_order]:
        poly = _random_poly(DiffPoly, rep.rank, values, shape, GAUGE_SYSTEMS[label][1])
        _add_multiple(a, poly, mat)
    return a


def _is_unipotent(g):
    """Unit diagonal and an acyclic support for g - 1, hence g - 1 nilpotent."""
    n = len(g)
    if any(g[i][i] != 1 for i in range(n)):
        return False
    edges = {i: {j for j in range(n) if j != i and g[i][j]} for i in range(n)}
    indegree = {j: 0 for j in range(n)}
    for targets in edges.values():
        for j in targets:
            indegree[j] += 1
    ready = [j for j in range(n) if not indegree[j]]
    seen = 0
    while ready:
        i = ready.pop()
        seen += 1
        for j in edges[i]:
            indegree[j] -= 1
            if not indegree[j]:
                ready.append(j)
    return seen == n


def check_gauge(rep, unit):
    comp = set(rep.rs.comp_roots)

    def check(out):
        g, _factors, f = out
        return set(f) == comp and (not unit or _is_unipotent(g))

    return check


def _non_simple_positive_root(rep):
    return min(
        (r for r in rep.rs.roots if r.is_positive() and not r.is_simple()),
        key=lambda r: (r.height(), r.coeffs),
    )


def normal_forms_setup(pv):
    """Chevalley reps for the gauge systems, and one Bruhat call per size
    so that the per-size representation cache is filled before timing."""
    reps = {label: pv.chevalley.build_rep(*split_label(label)) for label in GAUGE_SYSTEMS}
    for n in BRUHAT_SIZES:
        pv.bruhat.bruhat_decompose(identity(n))
    return reps


def normal_forms_ops(pv, reps, seed):
    """One seeded, interleaved stream, run in the same order every pass.

    The shapes of the inputs (sizes, Bruhat cells, which jets appear) do not
    depend on the seed, so every seed asks for about the same work; the seed
    picks the values, the torus scalings and the interleaving.
    """
    rng = random.Random(seed)
    errors = pv.errors
    ops = []
    for n in BRUHAT_SIZES:
        for convention in ("negative", "positive"):
            for index in range(BRUHAT_PER_SIZE):
                shape = random.Random("bruhat:%d:%s:%d" % (n, convention, index))
                m = random_sl(n, rng, shape)
                ops.append(Op(
                    "bruhat:n%d:%s" % (n, convention),
                    lambda m=m, c=convention: pv.bruhat.bruhat_decompose(m, c),
                    check_bruhat(m, convention),
                ))
    for index in range(REJECT_BRUHAT):
        n = BRUHAT_SIZES[index % len(BRUHAT_SIZES)]
        m = random_sl(n, rng, random.Random("reject:%d" % index))
        m[0] = [2 * x for x in m[0]]
        ops.append(Op("reject:bruhat:n%d" % n,
                      lambda m=m: pv.bruhat.bruhat_decompose(m),
                      expect=errors.NotUnimodular))
    for label, (count, _terms) in GAUGE_SYSTEMS.items():
        rep = reps[label]
        for index in range(count):
            rescaled = index % GAUGE_RESCALED_EVERY == GAUGE_RESCALED_EVERY - 1
            s = _rescaling(rep, rng) if rescaled else None
            a = plane_matrix(pv, rep, label, index, rng, s)
            ops.append(Op(
                "gauge:%s%s" % (label, ":rescaled" if rescaled else ""),
                lambda rep=rep, a=a: pv.gauge.normalize_to_AG(rep, a),
                check_gauge(rep, unit=not rescaled),
            ))
    labels = list(GAUGE_SYSTEMS)
    for index in range(REJECT_GAUGE):
        label = labels[index % len(labels)]
        rep = reps[label]
        a = plane_matrix(pv, rep, label, GAUGE_SYSTEMS[label][0] + index, rng)
        gamma = _non_simple_positive_root(rep)
        _add_multiple(a, pv.diffpoly.DiffPoly.rational(rng.randint(1, 3)), rep.X[gamma.coeffs])
        ops.append(Op("reject:gauge:%s" % label,
                      lambda rep=rep, a=a: pv.gauge.normalize_to_AG(rep, a),
                      expect=errors.VerificationFailure))
    rng.shuffle(ops)
    return lambda: ops


@dataclass
class Workload:
    setup: object  # pv -> context; its time is part of setup_s
    ops: object  # (pv, context, oracle, seed) -> (() -> [Op] of the next pass)


WORKLOADS = {
    "derive": Workload(
        lambda pv: None,
        lambda pv, _ctx, oracle, seed: _shuffled_grid(
            DERIVE_GRID, lambda label: derive_op(pv, oracle, label), seed),
    ),
    "verify": Workload(
        lambda pv: None,
        lambda pv, _ctx, oracle, seed: _shuffled_grid(
            VERIFY_GRID, lambda label: verify_op(pv, oracle, label), seed),
    ),
    "normal-forms": Workload(
        normal_forms_setup,
        lambda pv, reps, _oracle, seed: normal_forms_ops(pv, reps, seed),
    ),
}
