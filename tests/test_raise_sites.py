"""The inventory of construct's raise sites: each check, and the test that
makes it fire.

Every `raise` in src/pvext/construct.py is listed below by its exception
and its message template, with the tests that fire it as "module::test", or
UNFIRED while no test does.  The test fails when a site is added, removed or
reworded without this list following, and when a named test is gone.  The
StructureViolation and RankFailure sites are the pipeline's structural
checks, and their number is pinned too.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONSTRUCT = ROOT / "src" / "pvext" / "construct.py"

UNFIRED = ()

SITES = {
    # the principal grading, called on every stage output
    ("StructureViolation", "%s: %s is not homogeneous of weight %d in eta_1..eta_%d"): (
        "test_construct::test_grading_check_fires_on_each_coefficient_stage",
        "test_construct::test_grading_check_fires_on_the_eliminated_and_the_invariants",
    ),
    # _check_positive_part
    ("StructureViolation", "%s: H_%d component is nonzero"): UNFIRED,
    ("StructureViolation", "%s: simple positive component is %r"): UNFIRED,
    ("StructureViolation", "%s: positive component %r"): UNFIRED,
    # logderiv_unipotent
    ("StructureViolation", "ldelta(u) has a Cartan component"): UNFIRED,
    ("StructureViolation", "ldelta(u) has a positive component"): UNFIRED,
    ("StructureViolation", "v_%d should vanish"): UNFIRED,
    ("StructureViolation", "v_%d has a term of order != 1"): UNFIRED,
    ("StructureViolation", "v_%d has a linear term"): UNFIRED,
    # adjoint_on_A0
    ("StructureViolation", "a Cartan coefficient vanishes"): UNFIRED,
    ("StructureViolation", "Cartan coefficients are linearly dependent"): UNFIRED,
    ("StructureViolation", "the X_%d coefficient contains derivatives"): UNFIRED,
    # build_A_L
    ("StructureViolation", "Ad(n(wbar)) does not permute root lines"): UNFIRED,
    ("VerificationFailure", "Ad(n(wbar))(A_0^-(c)) != A_0^+"): UNFIRED,
    ("VerificationFailure", "gbar conjugation identity failed"): UNFIRED,
    # _dp_order_le_one_eval
    ("StructureViolation", "integrand of order > 1"): UNFIRED,
    # _require_equal, for the tower and the end-to-end identity
    ("error", "%s: %s is nonzero at entry (%d, %d)"):
        ("test_construct::test_end_to_end_failure_names_the_system",),
    # logderiv_Y
    ("StructureViolation", "q_%d has a linear term"): UNFIRED,
    ("StructureViolation", "q_%d has order > 1"): UNFIRED,
    # eliminate_noncomplementary
    ("RankFailure", "no equations for the height %d band"): UNFIRED,
    ("RankFailure", "height %d system is not square"): UNFIRED,
    ("RankFailure", "height %d system is rank-deficient"):
        ("test_construct::test_height_system_rank_is_checked_where_it_is_solved",),
    ("StructureViolation", "lbar_%d involves eta_%d"): UNFIRED,
    ("RankFailure", "lbar system at height %d is rank-deficient"): UNFIRED,
    ("RankFailure", "height %d system is not equivalent to its predecessor"): UNFIRED,
    # invariants
    ("RankFailure", "ignored-derivative invariant system is rank-deficient"): UNFIRED,
    ("RankFailure", "prolonged invariant system is rank-deficient"): UNFIRED,
    # run_pipeline
    ("RankCeiling", "%s rank %d is above the derivation's rank ceiling of %d"):
        ("test_cli::test_derive_refuses_ranks_above_the_ceiling",),
    # _json_chunks
    ("TypeError", "report keys must be strings, got %r"):
        ("test_construct::test_report_writer_refuses_values_it_cannot_render",),
    ("TypeError", "cannot render a %s in the report"):
        ("test_construct::test_report_writer_refuses_values_it_cannot_render",),
}


def _template(node):
    """(exception name, message template) of a raise statement whose
    exception is called with one string, formatted with % or not."""
    call = node.exc
    message = call.args[0]
    if isinstance(message, ast.BinOp) and isinstance(message.op, ast.Mod):
        message = message.left
    return call.func.id, message.value


def _raise_sites():
    tree = ast.parse(CONSTRUCT.read_text(encoding="utf-8"))
    return Counter(_template(node) for node in ast.walk(tree) if isinstance(node, ast.Raise))


def _test_names(module):
    tree = ast.parse((ROOT / "tests" / (module + ".py")).read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_every_raise_site_in_construct_is_listed_once():
    assert _raise_sites() == Counter(SITES.keys())
    assert sum(exc in ("StructureViolation", "RankFailure") for exc, _ in SITES) == 24


def test_every_named_firing_test_exists():
    named = {name for tests in SITES.values() for name in tests}
    missing = []
    for name in sorted(named):
        module, test = name.split("::")
        if test not in _test_names(module):
            missing.append(name)
    assert missing == []
