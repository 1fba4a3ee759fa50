"""Record the SHA-256 digest of every grid system's JSON report.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json, the oracle for the grid systems that have
no golden fixture.  Run it only when a report is meant to change.
"""

import json
import sys

import workloads
from run import SRC, fresh_pvext


def main():
    sys.path.insert(0, str(SRC))
    pv = fresh_pvext()
    digests = {}
    for label in workloads.DERIVE_GRID:
        if label in workloads.FIXTURE_NAMES:
            continue
        result = pv.construct.run_pipeline(*workloads.split_label(label))
        digests[label] = workloads.report_digest(pv.construct.report_json(result))
        print(label, digests[label], flush=True)
    path = workloads.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
