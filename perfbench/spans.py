"""Spans around pvext's layer boundaries, installed from outside the package.

Each boundary is a module attribute or a class method; the tracer swaps it
for a wrapper that records a span (id, parent id, operation id, name,
start, end) and restores the original on `uninstall`.  Self time is a
span's duration minus the durations of its child spans.

A module function is looked up in its module's namespace at call time, so
a wrapped attribute also sees calls made from inside its own module (for
example `decompose_in_basis` in `chevalley._verify_w_basis`).  What the
wrappers cannot see is listed in README.md.
"""

import functools
from collections import Counter, defaultdict
from time import perf_counter

# (module, class or None, attribute, boundary name)
BOUNDARIES = (
    ("rootsys", None, "build_root_system", "rootsys.build_root_system"),
    ("chevalley", None, "build_rep", "chevalley.build_rep"),
    ("chevalley", None, "decompose_in_basis", "chevalley.decompose_in_basis"),
    ("construct", None, "logderiv_unipotent", "construct.logderiv_unipotent"),
    ("construct", None, "adjoint_on_A0", "construct.adjoint_on_A0"),
    ("construct", None, "build_A_L", "construct.build_A_L"),
    ("construct", None, "liouville_solutions", "construct.liouville_solutions"),
    ("construct", None, "logderiv_Y", "construct.logderiv_Y"),
    ("construct", None, "eliminate_noncomplementary", "construct.eliminate_noncomplementary"),
    ("construct", None, "invariants", "construct.invariants"),
    ("construct", None, "assemble_A_G", "construct.assemble_A_G"),
    ("construct", None, "verify_end_to_end", "construct.verify_end_to_end"),
    ("construct", None, "report_json", "construct.report_json"),
    ("symgroup", None, "log_derivative", "symgroup.log_derivative"),
    ("symgroup", None, "gauge", "symgroup.gauge"),
    ("linalg", None, "mat_mul", "linalg.mat_mul"),
    ("linalg", None, "rank", "linalg.rank"),
    ("linalg", None, "solve_exact", "linalg.solve_exact"),
    ("linalg", None, "rational_inverse", "linalg.rational_inverse"),
    ("linalg", None, "det", "linalg.det"),
    # __rmul__ is bound to the original __mul__ at class creation, so both
    # slots are wrapped, under one name.
    ("diffpoly", "DiffPoly", "__mul__", "diffpoly.mul"),
    ("diffpoly", "DiffPoly", "__rmul__", "diffpoly.mul"),
    ("diffpoly", "DiffPoly", "derive", "diffpoly.derive"),
    ("diffpoly", "DiffPoly", "substitute", "diffpoly.substitute"),
    ("liouville_expr", "LiouvExpr", "__mul__", "liouville_expr.mul"),
    ("liouville_expr", "LiouvExpr", "__rmul__", "liouville_expr.mul"),
    ("liouville_expr", "LiouvExpr", "derive", "liouville_expr.derive"),
    ("bruhat", None, "bruhat_decompose", "bruhat.bruhat_decompose"),
    ("bruhat", "BruhatForm", "recompose", "bruhat.recompose"),
    ("gauge", None, "normalize_to_AG", "gauge.normalize_to_AG"),
    ("gauge", None, "is_in_plane", "gauge.is_in_plane"),
)

BOUNDARY_NAMES = tuple(dict.fromkeys(name for *_, name in BOUNDARIES))

# (inner, outer): count calls of `inner` made while `outer` is open.
NESTED = (
    ("linalg.rank", "chevalley.build_rep"),
    ("chevalley.decompose_in_basis", "gauge.normalize_to_AG"),
)


class Tracer:
    """In-memory spans and per-boundary call counts and self times."""

    def __init__(self):
        self.recording = False
        self.spans = []  # (id, parent id, op id, name, start, end)
        self.ops = []  # (op id, label, seconds, seconds not covered by a span)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.nested = Counter()
        self.results = defaultdict(list)  # boundary name -> return values kept
        self._open = Counter()
        self._stack = []  # [id, parent id, name, start, child seconds]
        self._next_id = 1
        self._op_id = None
        self._undo = []

    # ----- installation -----

    def install(self, pv, keep_results=()):
        """Wrap every boundary of the package `pv`; keep the return values
        of the boundaries named in `keep_results`."""
        for module, cls, attr, name in BOUNDARIES:
            owner = getattr(pv, module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, name in keep_results))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, keep):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if keep:
                tracer.results[name].append(result)
            return result

        return traced

    # ----- spans -----

    def _enter(self, name):
        for inner, outer in NESTED:
            if name == inner and self._open[outer]:
                self.nested[inner, outer] += 1
        self._open[name] += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self):
        end = perf_counter()
        span_id, parent, name, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self._open[name] -= 1
        self.spans.append((span_id, parent, self._op_id, name, start, end))
        if not name.startswith("op:"):
            self.calls[name] += 1
            self.self_s[name] += duration - child
        return duration, child

    def begin_op(self, label):
        """Open the root span of one operation and start recording."""
        self._op_id = self._next_id
        self.recording = True
        self._enter("op:" + label)

    def end_op(self):
        label = self._stack[-1][2][3:]
        op_id = self._op_id
        duration, covered = self._exit()
        self.recording = False
        self._op_id = None
        self.ops.append((op_id, label, duration, duration - covered))
