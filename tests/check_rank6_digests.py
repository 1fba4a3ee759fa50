"""Check the JSON reports of the rank-6 systems against recorded digests.

    python3 tests/check_rank6_digests.py           # B6, C6 and D6
    python3 tests/check_rank6_digests.py D6        # some of them

Each system runs `run_pipeline` and streams `construct.report_chunks`
through SHA-256 in a fresh process, one system at a time, and the digest
is compared with `tests/digests_rank6.json`.  One line per system gives
the digest, then the wall seconds of the pipeline, its reference seconds
and the child's peak resident set (`ru_maxrss`) after it, then the same
for the report.  Reference seconds are wall seconds corrected for the
host's speed by `perfbench/speed.py`'s `SpeedSampler`, whose probe runs
every 10 ms during both phases (and adds a few percent to their wall
time); compare two commits in reference seconds, over several runs.  The
exit status is 1 when a digest differs.  Standard library only; pvext is
imported from `src/`.  These systems take tens of seconds each, so pytest
does not collect this file.
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
SRC = HERE.parent / "src"
PERFBENCH = HERE.parent / "perfbench"


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _report_digest(label):
    """The SHA-256 of one system's report, then (wall seconds, reference
    seconds, peak RSS in MB) after the pipeline and after the report."""
    sys.path[:0] = [str(SRC), str(PERFBENCH)]
    from pvext import construct
    from speed import SpeedSampler

    with SpeedSampler() as sampler:
        start = time.perf_counter()
        result = construct.run_pipeline(label[0], int(label[1:]))
        seconds = time.perf_counter() - start
        pipeline = (seconds, sampler.reference_seconds(start, seconds), _peak_rss_mb())
        start = time.perf_counter()
        digest = hashlib.sha256()
        for chunk in construct.report_chunks(result):
            digest.update(chunk.encode("utf-8"))
        seconds = time.perf_counter() - start
        report = (seconds, sampler.reference_seconds(start, seconds), _peak_rss_mb())
    return digest.hexdigest(), pipeline, report


def main(labels):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    spawn = multiprocessing.get_context("spawn")
    failed = False
    for label in labels or sorted(want):
        with spawn.Pool(1) as pool:
            digest, pipeline, report = pool.apply(_report_digest, (label,))
        ok = digest == want.get(label)
        failed |= not ok
        print(
            "%s %s %s pipeline %.2f s (%.2f ref s) peak RSS %.1f MB,"
            " report %.2f s (%.2f ref s) peak RSS %.1f MB"
            % (label, digest, "ok" if ok else "MISMATCH", *pipeline, *report),
            flush=True,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
