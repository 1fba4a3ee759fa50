"""The inventory of construct's, bruhat's and gauge's raise sites: each
check, and the test that makes it fire.

Every `raise` in src/pvext/construct.py, src/pvext/bruhat.py and
src/pvext/gauge.py is listed below by its exception and its message
template, with the tests that fire it as "module::test", or UNFIRED while
no test does.  The test fails when a site is added, removed or reworded
without this list following, and when a named test is gone.  The
StructureViolation and RankFailure sites of construct are the pipeline's
structural checks, and their number is pinned too.  No site of bruhat or
gauge is UNFIRED.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONSTRUCT = ROOT / "src" / "pvext" / "construct.py"
BRUHAT = ROOT / "src" / "pvext" / "bruhat.py"
GAUGE = ROOT / "src" / "pvext" / "gauge.py"

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
    # _dp_order_le_one_eval, called by liouville_solutions
    ("StructureViolation", "%s: integrand of order > 1"):
        ("test_construct::test_integrand_order_check_fires_on_a_corrupted_v",),
    # _check_tower_coordinates, the tower check of liouville_solutions
    ("VerificationFailure",
     "%s: liouville_solutions: ldelta(t(z)u(y)) - A_L is nonzero at %s_%s"):
        ("test_construct::test_tower_check_in_coordinates_names_the_corrupted_key",),
    # _check_tower, the end-to-end check's tower
    ("IdentityFailure", "%s: ldelta(t(z)u(y)) - A_L is nonzero at entry (%d, %d)"):
        ("test_construct::test_end_to_end_failure_names_the_system",),
    # verify_end_to_end's identity, through linalg.gauge_defect
    ("IdentityFailure", "%s: (d(Y) - A_G(h) Y) (n(wbar) T)^-1 is nonzero at entry (%d, %d)"):
        ("test_construct::test_end_to_end_failure_names_the_system",),
    # logderiv_Y
    ("StructureViolation", "%s: q_%d has a linear term"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    ("StructureViolation", "%s: q_%d has order > 1"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    # eliminate_noncomplementary
    ("RankFailure", "%s: no equations for the height %d band"): UNFIRED,
    ("RankFailure", "%s: height %d system is not square"): UNFIRED,
    ("RankFailure", "%s: height %d system is rank-deficient"):
        ("test_construct::test_height_system_rank_is_checked_where_it_is_solved",),
    ("StructureViolation", "%s: lbar_%d involves eta_%d"): UNFIRED,
    ("RankFailure", "%s: lbar system at height %d is rank-deficient"): UNFIRED,
    ("RankFailure", "%s: height %d system is not equivalent to its predecessor"): UNFIRED,
    # invariants
    ("RankFailure", "%s: ignored-derivative invariant system is rank-deficient"): UNFIRED,
    ("RankFailure", "%s: prolonged invariant system is rank-deficient"): UNFIRED,
    # run_pipeline
    ("RankCeiling", "%s rank %d is above the derivation's rank ceiling of %d"):
        ("test_cli::test_derive_refuses_ranks_above_the_ceiling",),
    # _json_chunks
    ("TypeError", "report keys must be strings, got %r"):
        ("test_construct::test_report_writer_refuses_values_it_cannot_render",),
    ("TypeError", "cannot render a %s in the report"):
        ("test_construct::test_report_writer_refuses_values_it_cannot_render",),
}

BRUHAT_SITES = {
    # bruhat_decompose's refusals, in the order they are checked
    ("DimMismatch", "the matrix is empty"): (
        "test_bruhat::test_empty_matrix_is_refused_before_any_work",
        "test_bruhat::test_decomposition_agrees_with_the_oracle_on_any_input",
    ),
    ("DimMismatch", "matrix is not square"): (
        "test_bruhat::test_non_square_matrix_is_refused",
        "test_bruhat::test_decomposition_agrees_with_the_oracle_on_any_input",
    ),
    # _column_reduce
    ("NotUnimodular", "determinant is 0"): (
        "test_bruhat::test_not_unimodular_takes_no_determinant",
        "test_bruhat::test_decomposition_agrees_with_the_oracle_on_any_input",
    ),
    ("NotUnimodular", "determinant is %s"): (
        "test_bruhat::test_not_unimodular_takes_no_determinant",
        "test_bruhat::test_decomposition_agrees_with_the_oracle_on_any_input",
    ),
    ("ValueError", "convention must be 'positive' or 'negative'"): (
        "test_bruhat::test_not_unimodular_takes_no_determinant",
        "test_bruhat::test_decomposition_agrees_with_the_oracle_on_any_input",
    ),
    # its checks of the factors
    ("StructureViolation", "u' outside U'_w at (%d, %d)"):
        ("test_bruhat::test_uprime_pattern_check_fires_on_a_corrupted_column",),
    # _peel_blocks
    ("StructureViolation", "root vector of %r is not one matrix unit"):
        ("test_bruhat::test_root_vector_check_fires_on_a_corrupted_representation",),
    # _peel_coefficients
    ("VerificationFailure", "one-parameter peeling failed"):
        ("test_bruhat::test_peel_check_fires_when_a_root_is_left_out",),
    ("VerificationFailure", "Bruhat recomposition failed"):
        ("test_bruhat::test_recomposition_check_fires_on_a_corrupted_u",),
    # act_on_normal_form
    ("CellDegeneration", "translate left the big cell: w = %r"): (
        "test_bruhat::test_act_cell_degeneration",
        "test_bruhat::test_action_agrees_with_the_oracle",
    ),
}

GAUGE_SITES = {
    # normalize_to_AG's plane test, naming the coordinate or the entry
    ("VerificationFailure", "%s: normalize_to_AG: matrix is not in the plane A_0^+(s) + b^-: %s"): (
        "test_gauge::test_not_in_plane_rejected",
    ),
    # _torus_rescaling: a radical, then chi_alpha_i(z) s_i = 1, which no
    # input reaches (the proof is in its docstring) and a wrong character does
    ("NonUnitScaling", "%s: normalize_to_AG: rescaling needs the radical (%s)^(1/%d)"): (
        "test_gauge::test_rescaling_radical_refused",
        "test_gauge::test_rescaling_b2_square_and_radical",
    ),
    ("NonUnitScaling", "%s: normalize_to_AG: chi_alpha_%d(z) s_%d != 1"):
        ("test_gauge::test_rescaling_check_fires_on_a_wrong_character",),
    # the residual coordinates, then the matrix check of g
    ("VerificationFailure", "%s: normalize_to_AG: residual coordinates are not those of A_G(f)"):
        ("test_gauge::test_residual_check_fires_on_a_flipped_structure_constant",),
    ("VerificationFailure", "%s: normalize_to_AG: g' + g a - A_G(f) g is nonzero at entry (%d, %d)"): (
        "test_gauge::test_g_check_fires_on_a_doubled_exponential_cell",
        "test_gauge::test_g_check_fires_on_a_corrupted_torus_diagonal",
    ),
}


def _template(node):
    """(exception name, message template) of a raise statement whose
    exception is called with one string, formatted with % or not."""
    call = node.exc
    message = call.args[0]
    if isinstance(message, ast.BinOp) and isinstance(message.op, ast.Mod):
        message = message.left
    return call.func.id, message.value


def _raise_sites(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return Counter(_template(node) for node in ast.walk(tree) if isinstance(node, ast.Raise))


def _test_names(module):
    tree = ast.parse((ROOT / "tests" / (module + ".py")).read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_every_raise_site_in_construct_is_listed_once():
    assert _raise_sites(CONSTRUCT) == Counter(SITES.keys())
    assert sum(exc in ("StructureViolation", "RankFailure") for exc, _ in SITES) == 21


def test_every_raise_site_in_bruhat_is_listed_once_and_fired():
    assert _raise_sites(BRUHAT) == Counter(BRUHAT_SITES.keys())
    assert all(BRUHAT_SITES.values())


def test_every_raise_site_in_gauge_is_listed_once_and_fired():
    assert _raise_sites(GAUGE) == Counter(GAUGE_SITES.keys())
    assert all(GAUGE_SITES.values())


def test_every_named_firing_test_exists():
    sites = list(SITES.values()) + list(BRUHAT_SITES.values()) + list(GAUGE_SITES.values())
    named = {name for tests in sites for name in tests}
    missing = []
    for name in sorted(named):
        module, test = name.split("::")
        if test not in _test_names(module):
            missing.append(name)
    assert missing == []
