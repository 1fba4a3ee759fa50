import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pvext import cli, construct

from conftest import get_pipeline


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_json_contains_f4(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["derive", "--type", "A", "--rank", "3", "--format", "json", "--output", str(out)],
        capsys,
    )
    assert code == 0
    report = json.loads(out.read_text())
    # f_4 = eta_1' + eta_1^2
    assert report["f"]["4"] == {
        "terms": [{"c": "1/1", "m": [[1, 0, 2]]}, {"c": "1/1", "m": [[1, 1, 1]]}]
    }


def test_derive_a1_text(capsys):
    code, out, _ = run_cli(["derive", "--type", "A", "--rank", "1"], capsys)
    assert code == 0
    assert "invariant h[1] = η1^2 +η1'" in out


def test_derive_bad_type(capsys):
    assert run_cli(["derive", "--type", "E", "--rank", "8"], capsys)[0] == 1


def test_derive_bad_rank(capsys):
    assert run_cli(["derive", "--type", "D", "--rank", "2"], capsys)[0] == 1


def test_derive_refuses_ranks_above_the_ceiling(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["derive", "--type", "A", "--rank", "9"], capsys)
    assert code == 2 and out == ""
    assert "RankCeiling" in err and "ceiling of 8" in err
    fixtures = tmp_path / "fixtures.json"
    fixtures.write_text(json.dumps({"big": {"type": "B", "rank": 40, "report": {}}}))
    assert run_cli(["verify", "--fixtures", str(fixtures)], capsys)[0] == 2
    assert time.perf_counter() - start < 1.0


def test_an_inadmissible_system_above_the_ceiling_is_a_usage_error(tmp_path, capsys):
    # the system is checked before the rank ceiling
    fixtures = tmp_path / "fixtures.json"
    fixtures.write_text(json.dumps({"z": {"type": "Z", "rank": 9, "report": {}}}))
    for argv, message in (
        (["derive", "--type", "G2", "--rank", "9"], "G2 has rank 2"),
        (["verify", "--fixtures", str(fixtures)], "unknown type 'Z'"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err == "usage error: %s\n" % message


def test_verify_default_fixtures(capsys):
    code, out, err = run_cli(["verify"], capsys)
    assert code == 0
    assert "fixture SL4 ok" in out and "fixture G2 ok" in out


def test_verify_corrupted_fixture(tmp_path, capsys):
    from importlib import resources

    fixtures = json.loads(
        resources.files("pvext").joinpath("data/fixtures.json").read_text()
    )
    fixtures["SL4"]["report"]["f"]["4"]["terms"][0]["c"] = "2/1"
    bad = tmp_path / "fixtures.json"
    bad.write_text(json.dumps(fixtures))
    code, out, err = run_cli(["verify", "--fixtures", str(bad)], capsys)
    assert code == 3
    assert "MISMATCH" in err and "/f/4" in err


def test_derive_verify_round_trip(tmp_path, capsys):
    # a fixture file built from derive output always verifies
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["derive", "--type", "A", "--rank", "3", "--format", "json", "--output", str(out)],
        capsys,
    )
    assert code == 0
    fixtures = {"roundtrip": {"type": "A", "rank": 3, "report": json.loads(out.read_text())}}
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(fixtures))
    code, out_text, _ = run_cli(["verify", "--fixtures", str(path)], capsys)
    assert code == 0 and "roundtrip ok" in out_text


def test_verify_compares_bytes(monkeypatch, capsys):
    # the same values written in other bytes are a mismatch
    indented = construct.report_json
    monkeypatch.setattr(
        construct, "report_json", lambda result: json.dumps(json.loads(indented(result)))
    )
    code, out, err = run_cli(["verify"], capsys)
    assert code == 3 and out == ""
    assert "fixture SL4 MISMATCH at /: same values, different bytes" in err


def test_verify_names_a_section_the_fixture_lacks(tmp_path, capsys):
    from importlib import resources

    fixtures = json.loads(
        resources.files("pvext").joinpath("data/fixtures.json").read_text()
    )
    del fixtures["G2"]["report"]["A_G"]
    bad = tmp_path / "fixtures.json"
    bad.write_text(json.dumps(fixtures))
    code, out, err = run_cli(["verify", "--fixtures", str(bad)], capsys)
    assert code == 3 and "fixture SL4 ok" in out
    assert "fixture G2 MISMATCH at /A_G: unexpected on the derived side" in err


@pytest.mark.parametrize("system", [("A", 3), ("G2", 2)], ids=["A3", "G2"])
def test_derive_streams_the_json_report(system, tmp_path, capsys):
    want = construct.report_json(get_pipeline(*system))
    argv = ["derive", "--type", system[0], "--rank", str(system[1]), "--format", "json"]
    path = tmp_path / "report.json"
    assert run_cli(argv + ["--output", str(path)], capsys) == (0, "", "")
    assert path.read_text(encoding="utf-8") == want
    assert run_cli(argv, capsys) == (0, want + "\n", "")


def test_bruhat_identity(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    code, out, _ = run_cli(["bruhat", "--matrix", str(m)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["w"] == [1, 2] and obj["x"] == ["0/1"]


def test_bruhat_sl1(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps([["1"]]))
    code, out, _ = run_cli(["bruhat", "--matrix", str(m)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["w"] == [1] and obj["t"] == ["1/1"] and obj["x"] == obj["z"] == obj["y"] == []


def test_bruhat_not_unimodular(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps([["2", "0"], ["0", "1"]]))
    code, _, err = run_cli(["bruhat", "--matrix", str(m)], capsys)
    assert code == 2
    assert "NotUnimodular" in err


def test_gauge_normalize_riccati(tmp_path, capsys):
    m = tmp_path / "plane.json"
    m.write_text(json.dumps([["0", "1"], ["n1' + n1^2", "0"]]))
    code, out, _ = run_cli(
        ["gauge-normalize", "--type", "A", "--rank", "1", "--matrix", str(m)], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["f_text"]["1"] == "η1^2 +η1'"


def test_output_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            ["derive", "--type", "G2", "--rank", "2", "--format", "json", "--output", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_malformed_matrix_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2], [3]]")  # ragged rows
    code, _, err = run_cli(["bruhat", "--matrix", str(bad)], capsys)
    assert code in (1, 2)
    bad.write_text("{not json")
    code, _, err = run_cli(["bruhat", "--matrix", str(bad)], capsys)
    assert code == 1
    code, _, err = run_cli(["bruhat", "--matrix", str(tmp_path / "missing.json")], capsys)
    assert code == 1


def test_bruhat_rejects_json_floats(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps([[0.1, 0], [0, 10]]))
    code, out, err = run_cli(["bruhat", "--matrix", str(m)], capsys)
    assert code == 1 and out == ""
    assert "0.1" in err and "Traceback" not in err


def test_bruhat_rejects_rational_exponents(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps([["1", "n1^7/2"], ["0", "1"]]))
    code, out, err = run_cli(["bruhat", "--matrix", str(m)], capsys)
    assert code == 1 and out == "" and "parse error" in err


def test_bruhat_rejects_polynomial_entries(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text(json.dumps([["1", "n1"], ["0", "1"]]))
    code, out, err = run_cli(["bruhat", "--matrix", str(m)], capsys)
    assert code == 1 and out == ""
    assert "rational entries" in err
    # a polynomial string that is a constant is still accepted
    m.write_text(json.dumps([["1", "n1 - n1"], ["0", "1"]]))
    assert run_cli(["bruhat", "--matrix", str(m)], capsys)[0] == 0


def test_bruhat_rejects_non_ascii_digits(tmp_path, capsys):
    m = tmp_path / "m.json"
    for entry, reason in (("n\u0661^\u0662 + \u0663", "parse error"), ("\u0663", "ASCII")):
        m.write_text(json.dumps([["1", entry], ["0", "1"]]))
        code, out, err = run_cli(["bruhat", "--matrix", str(m)], capsys)
        assert code == 1 and out == "" and reason in err, entry
        assert "Traceback" not in err


def test_deeply_nested_input_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for argv in (["bruhat", "--matrix", str(deep)], ["verify", "--fixtures", str(deep)]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == "", argv
        assert "nested too deeply" in err and "Traceback" not in err
    m = tmp_path / "m.json"
    m.write_text(json.dumps([["1", "(" * 5000 + "n1" + ")" * 5000], ["0", "1"]]))
    code, out, err = run_cli(["bruhat", "--matrix", str(m)], capsys)
    assert code == 1 and out == "" and "nested too deeply" in err


def test_gauge_normalize_checks_the_matrix_size(tmp_path, capsys):
    m = tmp_path / "plane.json"
    m.write_text(json.dumps([["0", "1"], ["n1' + n1^2", "0"]]))
    code, out, err = run_cli(
        ["gauge-normalize", "--type", "A", "--rank", "2", "--matrix", str(m)], capsys
    )
    assert code == 1 and out == ""
    assert "3x3" in err and "2x2" in err


# One input for each refusal in cli.py: the command line before the input
# file, the file's text, and the message the refusal writes.
_INPUT_REFUSALS = [
    # _read_json
    (["verify", "--fixtures"], "[" * 100000 + "]" * 100000, ": JSON nested too deeply"),
    # _load_fixtures
    (["verify", "--fixtures"], "3", 'fixtures must map names to {"type", "rank", "report"}'),
    # _parse_matrix_entry
    (["bruhat", "--matrix"], "[[0.1]]", "matrix entry 0.1 is not exact"),
    (["bruhat", "--matrix"], "[[null]]", "matrix entry is null"),
    (["bruhat", "--matrix"], '[["\\u0663"]]', "matrix entry '\u0663' is not written in ASCII"),
    # _load_matrix
    (["bruhat", "--matrix"], "[[1, 2], [3]]", "matrix file must hold a square array of rows"),
    (["bruhat", "--matrix"], '[["1/0"]]', "malformed matrix entry: ZeroDivisionError"),
    # _rational_entry
    (["bruhat", "--matrix"], '[["n1"]]', "bruhat needs rational entries, got \u03b71"),
    # cmd_gauge_normalize: a rank the matrix cannot hold, refused before
    # A_3000's representation is built, then the size
    (
        ["gauge-normalize", "--type", "A", "--rank", "3000", "--matrix"],
        "[[1, 0], [0, 1]]",
        "type A rank 3000 needs at least a 3001x3001 matrix, the file holds 2x2",
    ),
    (
        ["gauge-normalize", "--type", "A", "--rank", "1", "--matrix"],
        "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
        "type A rank 1 needs a 2x2 matrix, the file holds 3x3",
    ),
    # _check_output, before the command runs
    (["bruhat", "--output", ".", "--matrix"], "[[1]]", "--output . is a directory"),
    (
        ["bruhat", "--output", "no-such-directory/out.json", "--matrix"],
        "[[1]]",
        "--output no-such-directory/out.json is in a directory that does not exist",
    ),
]


@pytest.mark.parametrize(
    "argv, text, message",
    _INPUT_REFUSALS,
    ids=["nested", "fixtures", "float", "null", "ascii", "ragged", "malformed", "rational",
         "rank", "size", "output-directory", "output-parent"],
)
def test_each_input_refusal_exits_1_with_one_line(argv, text, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(argv + [str(path)], capsys)
    # each refusal comes before any computation
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_an_unwritable_output_is_refused_before_any_work(where, tmp_path, capsys, monkeypatch):
    # --output is checked before derive runs the pipeline and before bruhat
    # and gauge-normalize read their matrix, and no file is made
    def no_work(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(construct, "run_pipeline", no_work)
    monkeypatch.setattr(cli, "_load_matrix", no_work)
    m = tmp_path / "m.json"
    m.write_text("[[1]]")
    target = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
    for argv in (
        ["derive", "--type", "B", "--rank", "5", "--format", "json"],
        ["bruhat", "--matrix", str(m)],
        ["gauge-normalize", "--type", "A", "--rank", "1", "--matrix", str(m)],
    ):
        code, out, err = run_cli(argv + ["--output", str(target)], capsys)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("input error: --output ")
    assert list(tmp_path.rglob("*")) == [m]


def test_malformed_entries_are_input_errors(tmp_path, capsys):
    m = tmp_path / "m.json"
    for entry in ({"x": 1}, {"terms": 3}, "1/0", None):
        m.write_text(json.dumps([[entry, "0"], ["0", "1"]]))
        code, out, err = run_cli(["bruhat", "--matrix", str(m)], capsys)
        assert code == 1 and out == "" and "input error" in err, entry


def test_polynomial_objects_refuse_floats_and_bools(tmp_path, capsys):
    # a float or a bool is not an exact number: exit 1, never a computation
    # on a binary float (exit 2) or an OverflowError traceback
    m = tmp_path / "m.json"
    for term, reason in (
        ('{"c": 0.1, "m": []}', "not exact"),
        ('{"c": 1e400, "m": []}', "not exact"),
        ('{"c": true, "m": []}', "not exact"),
        ('{"c": 1, "m": [[true, 0, 1]]}', "not booleans"),
        ('{"c": "1/1", "m": [[1, false, 1]]}', "not booleans"),
    ):
        m.write_text('[[{"terms": [%s]}, "0"], ["0", "1"]]' % term)
        code, out, err = run_cli(["bruhat", "--matrix", str(m)], capsys)
        assert code == 1 and out == "" and reason in err, term
        assert "Traceback" not in err
    # exact coefficients are still read
    m.write_text('[[{"terms": [{"c": 1, "m": []}]}, {"terms": [{"c": "1/10", "m": []}]}], ["0", "1"]]')
    assert run_cli(["bruhat", "--matrix", str(m)], capsys)[0] == 0


def test_non_scalar_entries_get_a_short_error(tmp_path, capsys):
    m = tmp_path / "m.json"
    deep = "[" * 900 + "]" * 900
    for text, kind in (("[[%s]]" % deep, "array"), ("[[[1,2]]]", "array"), ("[[null]]", "null")):
        m.write_text(text)
        code, out, err = run_cli(["bruhat", "--matrix", str(m)], capsys)
        assert code == 1 and out == "", text[:20]
        assert kind in err and "Traceback" not in err
        assert len(err.encode()) < 200, err


def test_exponents_above_the_limit(tmp_path, capsys):
    m = tmp_path / "plane.json"
    argv = ["gauge-normalize", "--type", "A", "--rank", "1", "--matrix", str(m)]
    # a written exponent above the limit is an input error
    for entry in ("n1^999", {"terms": [{"c": "1/1", "m": [[1, 0, 999]]}]}):
        m.write_text(json.dumps([["0", "1"], [entry, "0"]]))
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == "" and "input error" in err, entry
    # a product that outgrows the limit during the computation is not
    m.write_text(json.dumps([["n1^130", "1"], ["0", "-n1^130"]]))
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "ExponentOverflow" in err and "Traceback" not in err


def _identity_with(rng, n, value):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[rng.randrange(n)][rng.randrange(n)] = value
    return rows


# Malformed matrix payloads, each a function of (rng, n).
_MALFORMED_MATRICES = [
    lambda rng, n: [[1] * n for _ in range(n - 1)] + [[1] * (n - 1)],  # ragged
    lambda rng, n: [[[1]] * n for _ in range(n)],  # nested
    lambda rng, n: _identity_with(rng, n, 0.5),  # float
    lambda rng, n: _identity_with(rng, n, True),  # bool
    lambda rng, n: _identity_with(rng, n, None),  # null
    lambda rng, n: _identity_with(rng, n, "1/0"),
    lambda rng, n: _identity_with(rng, n, "n1' + n1^2"),  # polynomial
    lambda rng, n: _identity_with(rng, n, {"terms": [{"c": "1/0"}]}),
    lambda rng, n: _identity_with(rng, n, "1/"),
    lambda rng, n: _identity_with(rng, n, "n1^999"),
    lambda rng, n: _identity_with(rng, n, "(n1 n2)^200"),
    lambda rng, n: _identity_with(rng, n, {"terms": [{"c": "1/1", "m": [[1, 0, 999]]}]}),
    lambda rng, n: _identity_with(rng, n, {"terms": [{"c": "1/1", "m": [[1, 0, -1]]}]}),
    lambda rng, n: [[int(i == j) for j in range(n + 1)] for i in range(n + 1)],  # wrong size
    lambda rng, n: [],
    lambda rng, n: {"rows": n},
]

# Malformed fixture files for verify.
_MALFORMED_FIXTURES = [
    {"x": {"type": "A"}},
    {"x": {"type": "A", "rank": "2", "report": {}}},
    {"x": {"type": "A", "rank": 2, "report": []}},
    {"x": {"type": "G2", "rank": 2.5, "report": {}}},
    {"x": {"type": "E", "rank": 3, "report": {}}},
    {"x": []},
    ["A", 2],
    3,
]


def _fuzz_argv(rng, path):
    system = [
        "--type", rng.choice(["A", "B", "C", "D", "G2", "E", ""]),
        "--rank", rng.choice(["1", "2", "3", "0", "-1", "x", "2.5"]),
    ]
    command = rng.choice(["derive", "verify", "bruhat", "gauge-normalize"])
    if command == "derive":
        argv = ["derive"] + system + ["--format", rng.choice(["json", "text", "xml"])]
        payload = None
    elif command == "verify":
        argv = ["verify", "--fixtures", str(path)]
        payload = rng.choice(_MALFORMED_FIXTURES + _MALFORMED_MATRICES[:2])
    elif command == "bruhat":
        argv = ["bruhat", "--matrix", str(path)]
        argv += ["--convention", rng.choice(["negative", "positive", "diagonal"])]
        payload = None
    else:
        argv = ["gauge-normalize"] + system + ["--matrix", str(path)]
        payload = None
    if command in ("bruhat", "gauge-normalize"):
        payload = rng.choice(_MALFORMED_MATRICES)
    if callable(payload):
        payload = payload(rng, rng.randint(2, 4))
    if rng.random() < 0.2:
        del argv[rng.randrange(len(argv))]
    return argv, payload


def test_cli_exit_codes_under_fuzzing(tmp_path, capsys):
    # every malformed input maps to a documented exit code, never a traceback
    rng = random.Random(5)
    path = tmp_path / "input.json"
    for _ in range(120):
        argv, payload = _fuzz_argv(rng, path)
        path.write_text(json.dumps(payload))
        code = cli.main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv


def test_running_out_of_memory_is_a_computation_failure():
    # B6's pipeline needs more than 100 MB of address space, and Python with
    # pvext imported about 20 MB; the limit is set in the child only
    limit = 100 * 2**20
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "pvext.cli", "derive", "--type", "B", "--rank", "6", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == ["computation failed: MemoryError: B rank 6 ran out of memory"]
