"""The stdout of `pvext gauge-normalize` and `pvext bruhat` on the seeded
inputs of tests/cli_pins.json (recorded by tests/record_cli_pins.py), and of
`pvext derive --format text` on its systems, stays byte-identical."""

import json
from pathlib import Path

import pytest

from pvext import cli

PINS = json.loads((Path(__file__).resolve().parent / "cli_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", PINS, ids=[case["name"] for case in PINS])
def test_cli_stdout_is_pinned(case, tmp_path, capsys):
    args = case["args"]
    if case["matrix"] is not None:
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(case["matrix"]))
        args = args + ["--matrix", str(path)]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == case["stdout"]
