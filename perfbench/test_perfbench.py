"""Checks of the benchmark itself: its oracles catch corrupted outputs, and
its tracer sees the calls it claims to see.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import random
import signal
import sys
from fractions import Fraction
from time import perf_counter

import run
import spans
import speed
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import pvext  # noqa: E402


def _fail_rate(ops):
    _, notes, attempted, failed = run.end_to_end([run.run_pass(ops)], [(0.0, 1.0)])
    return notes["fail_rate"][0], attempted, failed


def test_flipped_digest_byte_is_a_failure():
    oracle = workloads.load_oracle(run.ROOT)
    assert _fail_rate([workloads.derive_op(pvext, oracle, "A2")]) == (0.0, 1, 0)
    digest = oracle.digests["A2"]
    oracle.digests["A2"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert _fail_rate([workloads.derive_op(pvext, oracle, "A2")]) == (1.0, 1, 1)


def test_golden_report_mismatch_is_a_failure():
    oracle = workloads.load_oracle(run.ROOT)
    report = pvext.construct.report_json(pvext.construct.run_pipeline("A", 3))
    assert oracle("A3", report)
    corrupted = report.replace('"1/1"', '"2/1"', 1)
    assert corrupted != report and not oracle("A3", corrupted)
    assert not oracle("G2", report)


def test_unraised_rejection_is_a_failure():
    m = workloads.random_sl(4, random.Random(1), random.Random(2))
    doubled = [row[:] for row in m]
    doubled[0] = [2 * x for x in doubled[0]]

    def rejection(matrix):
        return workloads.Op("reject", lambda: pvext.bruhat.bruhat_decompose(matrix),
                            expect=pvext.errors.NotUnimodular)

    assert _fail_rate([rejection(doubled)]) == (0.0, 1, 0)
    assert _fail_rate([rejection(m)]) == (1.0, 1, 1)


def test_bruhat_oracle_rejects_a_wrong_factor():
    m = workloads.random_sl(5, random.Random(3), random.Random(4))
    for convention in ("negative", "positive"):
        form = pvext.bruhat.bruhat_decompose(m, convention)
        check = workloads.check_bruhat(m, convention)
        assert check(form)
        t = [list(row) for row in form.t]
        t[0][0], t[1][1] = t[0][0] * 2, t[1][1] / 2
        assert not check(form.__class__(**dict(form.__dict__, t=tuple(map(tuple, t)))))


def test_normal_forms_stream_is_seeded_and_correct(monkeypatch):
    monkeypatch.setattr(workloads, "GAUGE_SYSTEMS", {"A2": (4, 2), "A3": (4, 2)})
    monkeypatch.setattr(workloads, "BRUHAT_SIZES", range(3, 6))
    reps = {label: pvext.chevalley.build_rep(*workloads.split_label(label))
            for label in workloads.GAUGE_SYSTEMS}

    def stream(seed):
        return workloads.normal_forms_ops(pvext, reps, seed)()

    ops = stream(7)
    labels = [op.label for op in ops]
    assert labels == [op.label for op in stream(7)]
    assert labels != [op.label for op in stream(8)]
    rejections = sum(op.expect is not None for op in ops)
    assert rejections == workloads.REJECT_BRUHAT + workloads.REJECT_GAUGE
    assert any(label.endswith(":rescaled") for label in labels)
    assert _fail_rate(ops)[2] == 0


def test_tracer_sees_module_local_calls_and_restores():
    original = pvext.chevalley.build_rep
    tracer = spans.Tracer()
    tracer.install(pvext, keep_results=("chevalley.build_rep",))
    try:
        op = workloads.Op("build", lambda: pvext.chevalley.build_rep("A", 2), check=bool)
        assert workloads.run_op(op, tracer)[2]
    finally:
        tracer.uninstall()
    assert pvext.chevalley.build_rep is original
    assert pvext.diffpoly.DiffPoly.__dict__["__rmul__"] is pvext.diffpoly.DiffPoly.__dict__["__mul__"]
    # _verify_w_basis calls decompose_in_basis through its module namespace
    assert tracer.calls["chevalley.decompose_in_basis"] > 0
    assert tracer.nested["linalg.rank", "chevalley.build_rep"] > 0
    assert tracer.calls["chevalley.build_rep"] == 1
    assert len(tracer.results["chevalley.build_rep"]) == 1
    (_, label, seconds, uncovered), = tracer.ops
    covered = sum(tracer.self_s.values())
    assert label == "build" and abs(covered + uncovered - seconds) < 1e-6


def test_untraced_wrappers_record_nothing():
    tracer = spans.Tracer()
    tracer.install(pvext)
    try:
        pvext.diffpoly.DiffPoly.eta(1) * Fraction(2)
        Fraction(2) * pvext.diffpoly.DiffPoly.eta(1)
    finally:
        tracer.uninstall()
    assert not tracer.spans and not tracer.calls


def test_speed_sampler_scales_by_the_probes_around_an_interval():
    with speed.SpeedSampler(interval=0.005) as sampler:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            pass
        seconds = perf_counter() - start
    inside = sum(s for t, s in zip(sampler.starts, sampler.seconds)
                 if start <= t < start + seconds)
    assert len(sampler.seconds) >= 10 and inside > 0
    expected = (seconds - inside) * speed.REFERENCE_S / speed.trimmed_mean(sampler.seconds)
    assert abs(sampler.reference_seconds(start, seconds) - expected) < 1e-9
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.trimmed_mean([1.0] + [2.0] * 8 + [100.0]) == 2.0
