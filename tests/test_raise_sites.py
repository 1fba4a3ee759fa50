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
    # _check_positive_part, called by logderiv_unipotent, adjoint_on_A0 and
    # logderiv_Y
    ("StructureViolation", "%s: positive component %r is %r"):
        ("test_construct::test_positive_part_check_fires_on_a_corrupted_A_L",),
    ("StructureViolation", "%s: H_%d component is nonzero"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    # logderiv_unipotent
    ("StructureViolation", "%s: v_%d should vanish"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    ("StructureViolation", "%s: v_%d has a term of order != 1"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    ("StructureViolation", "%s: v_%d has a linear term"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    # adjoint_on_A0
    ("StructureViolation", "%s: the Cartan coefficient g_%d vanishes"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    ("StructureViolation", "%s: Cartan coefficients are linearly dependent"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    ("StructureViolation", "%s: the X_%d coefficient contains derivatives"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    # build_A_L
    ("StructureViolation", "%s: Ad(n(wbar)) sends X_%d off the root lines"):
        ("test_construct::test_build_A_L_checks_fire_on_a_corrupted_basis_matrix",),
    ("VerificationFailure", "%s: Ad(n(wbar))(A_0^-(c)) != A_0^+"):
        ("test_construct::test_build_A_L_checks_fire_on_a_corrupted_basis_matrix",),
    ("VerificationFailure", "%s: Ad(n(wbar))(sum gbar_i H_i) != -sum g_i H_i"):
        ("test_construct::test_build_A_L_checks_fire_on_a_corrupted_basis_matrix",),
    # _dp_order_le_one_eval
    ("StructureViolation", "integrand of order > 1"):
        ("test_construct::test_integrand_order_check_fires_on_a_corrupted_v",),
    # _check_tower_coordinates, the tower check of liouville_solutions
    ("VerificationFailure",
     "%s: liouville_solutions: ldelta(t(z)u(y)) - A_L is nonzero at %s_%s"):
        ("test_construct::test_tower_check_in_coordinates_names_the_corrupted_key",),
    # _require_equal, for the end-to-end check's tower and identity
    ("error", "%s: %s is nonzero at entry (%d, %d)"):
        ("test_construct::test_end_to_end_failure_names_the_system",),
    # logderiv_Y
    ("StructureViolation", "%s: q_%d has a linear term"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    ("StructureViolation", "%s: q_%d has order > 1"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
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
    assert sum(exc in ("StructureViolation", "RankFailure") for exc, _ in SITES) == 21


def test_every_named_firing_test_exists():
    named = {name for tests in SITES.values() for name in tests}
    missing = []
    for name in sorted(named):
        module, test = name.split("::")
        if test not in _test_names(module):
            missing.append(name)
    assert missing == []
