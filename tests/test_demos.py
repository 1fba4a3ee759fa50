"""Each demo runs and prints exactly what it printed when its digest was
recorded: the SHA-256 of its stdout, run with PYTHONPATH=src from the
repository root.  A change meant to alter a demo's output records the new
digest here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "demo_bruhat.py": "9ab7941ae977995458d9ce2c9a4dab5ad1ca61c0a4413ad771faabfa1a36fd22",
    "demo_g2_construction.py": "d3741bd5090bb9bd4651fd224efe51ee038216b5fb6af5f0ce03860cc986c961",
    "demo_gauge.py": "2dc9ca528eceb077d4f6c7c4b0a813b5a6ef9e0b076061a9d3ac7e474f233919",
    "demo_root_systems.py": "eb8931d293a607d32b053debf3d8a871aefd880e484ac5bd7eed4f022cc7db19",
    "demo_sl4_construction.py": "66c92976f5960174a9a9c6591cc2cc3594265f1dadbf3832e6e39639d5c20123",
    "demo_specialization.py": "95b21c13fc53c75e413ee56c3343f9b67003b50125fc299dae28587cc682953b",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name]
