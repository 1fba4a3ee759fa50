"""Run one pvext benchmark workload and print its metrics.

    python3 perfbench/run.py --workload derive --seed 1 --seconds 10 --trace 0

Run from the root of a pvext checkout; pvext is imported from its src/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones, measured untraced and counted in reference seconds
(speed.py); with --trace 1 they are the per-layer calls and self times of
one traced pass.  The lines before it
repeat the metrics for a reader, with sample counts and the environment.
README.md describes the workloads and the metrics.
"""

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up runs at least SETUP_REPEATS times, and more (at most SETUP_MAX_REPEATS)
# while the set-ups so far took under SETUP_SECONDS, so that the median of
# a cheap set-up (an import) rests on many samples.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_SECONDS = 2.0
# An untraced run makes at least this many passes.
MIN_PASSES = 1
KEEP_RESULTS = ("chevalley.build_rep", "construct.invariants", "construct.report_json")


def fresh_pvext():
    """Import pvext from the checkout's src/, dropping any copy loaded
    before, so that every set-up pays the import and fills caches anew."""
    for name in [n for n in sys.modules if n == "pvext" or n.startswith("pvext.")]:
        del sys.modules[name]
    pv = importlib.import_module("pvext")
    if Path(pv.__file__).resolve().parent != (SRC / "pvext").resolve():
        raise ImportError("pvext was imported from %s, not from %s" % (pv.__file__, SRC))
    return pv


def timed_setup(workload):
    """Import pvext and do the workload's set-up; (start, seconds, pvext, context)."""
    start = perf_counter()
    pv = fresh_pvext()
    context = workload.setup(pv)
    return start, perf_counter() - start, pv, context


def run_pass(ops, tracer=None):
    """[(label, start, seconds, ok)] for one pass over `ops`."""
    return [(op.label, *workloads.run_op(op, tracer)) for op in ops]


def run_passes(next_pass, seconds, at_least):
    """Whole passes until `seconds` have gone by, and at least `at_least`."""
    passes = []
    start = perf_counter()
    while len(passes) < at_least or perf_counter() - start < seconds:
        passes.append(run_pass(next_pass()))
    return passes


def pass_wall(records):
    return sum(seconds for _, _, seconds, _ in records)


def wall_seconds(_start, seconds):
    return seconds


def p90(times):
    if len(times) < 2:
        return max(times)
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def end_to_end(passes, setups, scale=wall_seconds):
    """The end-to-end metrics.  `scale(start, seconds)` turns a measured
    interval into the seconds reported (speed.SpeedSampler.reference_seconds
    in a run).  Op percentiles pool the operations of all passes; every
    pass holds the same operations."""
    scaled = [[scale(start, seconds) for _, start, seconds, _ in records]
              for records in passes]
    times = [t for pass_times in scaled for t in pass_times]
    attempted = len(times)
    failed = sum(not ok for records in passes for *_, ok in records)
    metrics = {
        "wall_s": (statistics.median(sum(pass_times) for pass_times in scaled), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (p90(times), "s"),
        "setup_s": (statistics.median(scale(*setup) for setup in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {
        "fail_rate": (failed / attempted, "ratio"),
        "measured_wall_s": (statistics.median(pass_wall(r) for r in passes), "s"),
        "measured_setup_s": (statistics.median(seconds for _, seconds in setups), "s"),
        "passes": (len(passes), "count"),
        "op_samples": (attempted, "count"),
        "setup_samples": (len(setups), "count"),
    }
    return metrics, notes, attempted, failed


def per_layer(tracer, untraced, traced):
    metrics = {}
    for name in spans.BOUNDARY_NAMES:
        metrics[name + ".calls"] = (tracer.calls[name], "count")
        metrics[name + ".self_s"] = (tracer.self_s[name], "s")

    reps = tracer.results["chevalley.build_rep"]
    ranks = tracer.nested["linalg.rank", "chevalley.build_rep"]
    accepted = sum(len(rep.solve_positions) for rep in reps)
    metrics["chevalley.recipe_accept_ratio"] = (accepted / ranks if ranks else 0.0, "ratio")
    normalizations = tracer.calls["gauge.normalize_to_AG"]
    decompositions = tracer.nested["chevalley.decompose_in_basis", "gauge.normalize_to_AG"]
    metrics["gauge.decompose_per_op"] = (
        decompositions / normalizations if normalizations else 0.0, "ratio")

    invariants = [h for inv in tracer.results["construct.invariants"] for h in inv.h.values()]
    metrics["construct.invariant_terms_max"] = (
        max((len(h.terms) for h in invariants), default=0), "count")
    metrics["construct.invariant_order_max"] = (
        max((h.order() for h in invariants), default=0), "count")
    metrics["construct.coeff_bits_max"] = (max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for h in invariants for c in h.terms.values()), default=0), "bits")
    metrics["construct.report_bytes"] = (
        sum(len(r.encode("utf-8")) for r in tracer.results["construct.report_json"]), "bytes")

    ops = [op for op in tracer.ops if op[1] != "setup"]
    total = sum(op[2] for op in ops)
    uncovered = sum(op[3] for op in ops)
    metrics["trace.overhead_s"] = (pass_wall(traced) - pass_wall(untraced), "s")
    metrics["trace.uncovered_s"] = (uncovered, "s")
    metrics["trace.uncovered_share"] = (uncovered / total if total else 0.0, "ratio")
    metrics["trace.uncovered_share_max"] = (
        max((op[3] / op[2] for op in ops if op[2]), default=0.0), "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


@contextlib.contextmanager
def traced_boundaries(tracer, pv):
    tracer.install(pv, keep_results=KEEP_RESULTS)
    try:
        yield
    finally:
        tracer.uninstall()


def git_commit(root):
    """The checked-out commit read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over pvext's sources, which names the code without git."""
    digest = hashlib.sha256()
    package = SRC / "pvext"
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_json(name, obj):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def trace_record(env, tracer):
    """Spans as [id, parent, op id, name, start, end], times from the first span."""
    origin = tracer.spans[0][4] if tracer.spans else 0.0
    return {
        "env": env,
        "ops": [{"id": i, "label": label, "seconds": s, "uncovered_s": u}
                for i, label, s, u in tracer.ops],
        "spans": [[i, parent, op, name, start - origin, end - origin]
                  for i, parent, op, name, start, end in tracer.spans],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pvext benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pvext" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no pvext sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    oracle = workloads.load_oracle(ROOT)
    env = environment(args)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    if not args.trace:
        setups = []
        with speed.SpeedSampler() as sampler:
            while len(setups) < SETUP_REPEATS or (
                    sum(s for _, s in setups) < SETUP_SECONDS
                    and len(setups) < SETUP_MAX_REPEATS):
                start, seconds, pv, context = timed_setup(workload)
                setups.append((start, seconds))
            passes = run_passes(workload.ops(pv, context, oracle, args.seed), args.seconds,
                                MIN_PASSES)
        metrics, notes, attempted, failed = end_to_end(
            passes, setups, sampler.reference_seconds)
        notes["probe_median_s"] = (statistics.median(sampler.seconds), "s")
        notes["probe_samples"] = (len(sampler.seconds), "count")
        detail = {"passes": passes, "setups": setups,
                  "probes": list(zip(sampler.starts, sampler.seconds))}
    else:
        pv = fresh_pvext()
        tracer = spans.Tracer()
        with traced_boundaries(tracer, pv):
            tracer.begin_op("setup")
            context = workload.setup(pv)
            tracer.end_op()
        # Each operation runs untraced and then traced, back to back, so that
        # both halves of trace.overhead_s see the same host speed.
        untraced, traced = [], []
        for op in workload.ops(pv, context, oracle, args.seed)():
            untraced.append((op.label, *workloads.run_op(op)))
            with traced_boundaries(tracer, pv):
                traced.append((op.label, *workloads.run_op(op, tracer)))
        metrics = per_layer(tracer, untraced, traced)
        attempted = len(untraced) + len(traced)
        failed = sum(not ok for *_, ok in untraced + traced)
        notes = {"fail_rate": (failed / attempted, "ratio")}
        detail = {"untraced": untraced, "traced": traced}
        write_json("trace-%s.json" % tag, trace_record(env, tracer))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_json("result-%s.json" % tag, dict(result, env=env, notes=notes, detail=detail))
    for name, (value, unit) in list(metrics.items()) + list(notes.items()):
        print("%-44s %16.6g %s" % (name, value, unit))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
