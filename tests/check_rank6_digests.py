"""Check the rank-6 systems end to end and their JSON reports against
recorded digests.

    python3 tests/check_rank6_digests.py           # B6, C6 and D6
    python3 tests/check_rank6_digests.py D6        # some of them
    python3 tests/check_rank6_digests.py D7        # rank 7, only when named

Each system runs `run_pipeline`, then `verify_end_to_end`, then streams
`construct.report_chunks` through SHA-256, in a fresh process, one system
at a time, and the digest is compared with `tests/digests_rank6.json`.
One line per system gives the digest, then for each of the three phases
(pipeline, check, report) its wall seconds, its reference seconds and the
child's peak resident set (`ru_maxrss`) after it; the report's peak is
thus taken after the check.  Reference seconds are wall seconds corrected
for the host's speed by `perfbench/speed.py`'s `SpeedSampler`, whose probe
runs every 10 ms during every phase (and adds a few percent to its wall
time); compare two commits in reference seconds, over several runs.  The
exit status is 1 when a digest differs or the check raises; the line then
names the failure.  Standard library only; pvext is imported from `src/`.
Each system runs in a fresh process, so that the peaks are its own;
pytest does not collect this file, and tests/test_construct.py checks the
B6, C6 and D6 digests in the test process.  D7 takes minutes and peaks near
1 GB, so it runs only when named.
"""

import hashlib
import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests_rank6.json"
DEFAULT = ("B6", "C6", "D6")
SRC = HERE.parent / "src"
PERFBENCH = HERE.parent / "perfbench"


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(sampler, phase):
    """phase()'s value, then (wall seconds, reference seconds, peak RSS in
    MB) after it."""
    start = time.perf_counter()
    out = phase()
    seconds = time.perf_counter() - start
    return out, (seconds, sampler.reference_seconds(start, seconds), _peak_rss_mb())


def _report_digest(label):
    """The SHA-256 of one system's report, the end-to-end check's failure
    text (None when it passes), then (wall seconds, reference seconds, peak
    RSS in MB) after the pipeline, after the check and after the report."""
    sys.path[:0] = [str(SRC), str(PERFBENCH)]
    from pvext import construct
    from pvext.errors import PvextError
    from speed import SpeedSampler

    def check():
        try:
            construct.verify_end_to_end(result.rep, result.liouville, result.invariants)
        except PvextError as exc:
            return "%s: %s" % (type(exc).__name__, exc)
        return None

    def report():
        digest = hashlib.sha256()
        for chunk in construct.report_chunks(result):
            digest.update(chunk.encode("utf-8"))
        return digest.hexdigest()

    with SpeedSampler() as sampler:
        result, pipeline = _timed(
            sampler, lambda: construct.run_pipeline(label[0], int(label[1:]))
        )
        failure, checked = _timed(sampler, check)
        digest, reported = _timed(sampler, report)
    return digest, failure, pipeline, checked, reported


def main(labels):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    spawn = multiprocessing.get_context("spawn")
    failed = False
    for label in labels or DEFAULT:
        with spawn.Pool(1) as pool:
            digest, failure, pipeline, checked, report = pool.apply(_report_digest, (label,))
        ok = digest == want.get(label)
        failed |= not ok or failure is not None
        print(
            "%s %s %s pipeline %.2f s (%.2f ref s) peak RSS %.1f MB,"
            " check %.2f s (%.2f ref s) peak RSS %.1f MB,"
            " report %.2f s (%.2f ref s) peak RSS %.1f MB"
            % (label, digest, "ok" if ok else "MISMATCH", *pipeline, *checked, *report),
            flush=True,
        )
        if failure is not None:
            print("%s end-to-end check FAILED: %s" % (label, failure), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
