"""The inventory of construct's, bruhat's, gauge's, chevalley's,
rootsys', liouville_expr's, linalg's, cli's, diffpoly's and symgroup's raise
sites: each check, and the test that makes it fire.

Every `raise` in src/pvext/construct.py, src/pvext/bruhat.py,
src/pvext/gauge.py, src/pvext/chevalley.py, src/pvext/rootsys.py,
src/pvext/liouville_expr.py, src/pvext/linalg.py, src/pvext/cli.py,
src/pvext/diffpoly.py and src/pvext/symgroup.py, which are all the modules
of src/pvext with a `raise`, is listed below by its exception and its message
template (the source of the argument when it is not a string), with the
tests that fire it as "module::test", or UNFIRED while no test does.  The
test fails when a site is added, removed or reworded without this list
following, and when a named test is gone.  The StructureViolation and
RankFailure sites of construct are the pipeline's structural checks, and
the SpanFailure and StructureViolation sites of chevalley build_rep's;
their numbers are pinned too, and so is the number of UNFIRED sites in
construct, chevalley and rootsys.  No site of bruhat, gauge, liouville_expr, linalg,
cli, diffpoly or symgroup is UNFIRED.  Two sites of linalg share a
template, so its sites are a list of pairs and each site is counted.  Each site of cli is
an input error, fired through cli.main with exit 1, one stderr line and no
traceback by test_cli::test_each_input_refusal_exits_1_with_one_line.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONSTRUCT = ROOT / "src" / "pvext" / "construct.py"
BRUHAT = ROOT / "src" / "pvext" / "bruhat.py"
GAUGE = ROOT / "src" / "pvext" / "gauge.py"
CHEVALLEY = ROOT / "src" / "pvext" / "chevalley.py"
ROOTSYS = ROOT / "src" / "pvext" / "rootsys.py"
LIOUVILLE_EXPR = ROOT / "src" / "pvext" / "liouville_expr.py"
LINALG = ROOT / "src" / "pvext" / "linalg.py"
CLI = ROOT / "src" / "pvext" / "cli.py"
DIFFPOLY = ROOT / "src" / "pvext" / "diffpoly.py"
SYMGROUP = ROOT / "src" / "pvext" / "symgroup.py"

UNFIRED = ()

SITES = {
    # the principal grading, called on every stage output
    ("StructureViolation", "%s: %s is not homogeneous of weight %d in eta_1..eta_%d"): (
        "test_construct::test_grading_check_fires_on_each_coefficient_stage",
        "test_construct::test_grading_check_fires_on_the_eliminated_and_the_invariants",
    ),
    # _check_positive_part, called by logderiv_unipotent, adjoint_on_A0 and
    # logderiv_Y, where no eta reaches it (construct.logderiv_Y) and a
    # corrupted bracket table does, at each of the three calls
    ("StructureViolation", "%s: positive component %r is %r"):
        ("test_construct::test_positive_part_checks_fire_on_a_corrupted_bracket_target",),
    ("StructureViolation", "%s: H_%d component is nonzero"):
        ("test_construct::test_positive_part_checks_fire_on_a_corrupted_bracket_target",),
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
    # _check_tower_matrix, the end-to-end check's tower
    ("IdentityFailure", "%s: ldelta(t(z)u(y)) - A_L is nonzero at entry (%d, %d)"): (
        "test_construct::test_end_to_end_failure_names_the_system",
        "test_construct::test_tower_checks_take_independent_routes",
    ),
    # verify_end_to_end's identity, through linalg.gauge_defect
    ("IdentityFailure", "%s: (d(Y) - A_G(h) Y) (n(wbar) T)^-1 is nonzero at entry (%d, %d)"):
        ("test_construct::test_end_to_end_failure_names_the_system",),
    # logderiv_Y
    ("StructureViolation", "%s: q_%d has a linear term"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    ("StructureViolation", "%s: q_%d has order > 1"):
        ("test_construct::test_stage_checks_fire_on_corrupted_arguments",),
    # eliminate_noncomplementary
    ("RankFailure", "%s: no equations for the height %d band"):
        ("test_construct::test_band_checks_fire_on_corrupted_complementary_indices",),
    ("RankFailure", "%s: height %d system is not square"):
        ("test_construct::test_band_checks_fire_on_corrupted_complementary_indices",),
    ("RankFailure", "%s: height %d system is rank-deficient"):
        ("test_construct::test_height_system_rank_is_checked_where_it_is_solved",),
    ("StructureViolation", "%s: lbar_%d involves eta_%d"):
        ("test_construct::test_lbar_checks_fire_on_a_corrupted_raw_h",),
    ("RankFailure", "%s: lbar system at height %d is rank-deficient"):
        ("test_construct::test_lbar_checks_fire_on_a_corrupted_raw_h",),
    ("RankFailure", "%s: height %d system is not equivalent to its predecessor"):
        ("test_construct::test_lbar_checks_fire_on_a_corrupted_raw_h",),
    # invariants; the prolonged system's matrix is the ignored-derivative
    # one, so its check is reached by no input (construct.invariants)
    ("RankFailure", "%s: ignored-derivative invariant system is rank-deficient"):
        ("test_construct::test_ignored_derivative_rank_is_checked_on_the_invariants",),
    ("RankFailure", "%s: prolonged invariant system is rank-deficient"): UNFIRED,
    # run_pipeline
    ("RankCeiling", "%s rank %d is above the derivation's rank ceiling of %d"):
        ("test_cli::test_derive_refuses_ranks_above_the_ceiling",),
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


CHEVALLEY_SITES = {
    # ChevalleyRep._a0
    ("DimMismatch", "%d principal nilpotent coefficients for rank %d"):
        ("test_chevalley::test_a0_refuses_coefficients_of_another_length",),
    ("ValueError", "principal nilpotent coefficients must be nonzero"):
        ("test_chevalley::test_a0_refuses_a_zero_coefficient",),
    # _simple_generators
    ("UnsupportedRep", "no representation for type %s"):
        ("test_chevalley::test_generators_refuse_an_unsupported_type",),
    # build_rep's bracket recursion, with _sp_divide and _decomposition_step
    ("SpanFailure", "%s is not integral"):
        ("test_chevalley::test_build_rep_refuses_a_corrupted_generator_entry",),
    ("SpanFailure", "no descent for %r"):
        ("test_chevalley::test_descent_is_refused_for_a_simple_root",),
    # _coroot_coefficients
    ("SpanFailure", "root norm %d of %r is not positive"):
        ("test_chevalley::test_coroot_coefficients_refuse_a_root_norm_of_zero",),
    ("SpanFailure", "non-integral coroot coefficient for %r"):
        ("test_chevalley::test_coroot_coefficients_refuse_the_lengths_of_another_type",),
    # _divided_power_cells
    ("SpanFailure", "root vector is not nilpotent"):
        ("test_chevalley::test_divided_powers_refuse_a_non_nilpotent_matrix",),
    # _verify_axioms
    ("SpanFailure", "H_%d is not diagonal"): (
        "test_chevalley::test_build_rep_refuses_a_corrupted_generator_entry",
        "test_chevalley::test_verify_axioms_rejects_corrupted_basis",
    ),
    # diagonal maps commute, and diagonality is checked just before
    ("SpanFailure", "[H_%d, H_%d] != 0"): UNFIRED,
    ("SpanFailure", "[H_%d, X_%r] is off"): (
        "test_chevalley::test_build_rep_refuses_a_corrupted_generator_entry",
        "test_chevalley::test_verify_axioms_rejects_corrupted_basis",
    ),
    # _check_bracket
    ("SpanFailure", "[X_a, X_-a] != H_a for %r"):
        ("test_chevalley::test_verify_axioms_rejects_corrupted_basis",),
    ("SpanFailure", "[X_%r, X_%r] not proportional to X_sum"): (
        "test_chevalley::test_verify_axioms_rejects_corrupted_basis",
        "test_chevalley::test_build_rep_refuses_a_corrupted_calibration_sign",
    ),
    ("SpanFailure", "|N| = %s != r+1 = %d for %r, %r"): (
        "test_chevalley::test_verify_axioms_rejects_corrupted_basis",
        "test_chevalley::test_check_bracket_refuses_a_fractional_structure_constant",
        "test_chevalley::test_build_rep_refuses_a_corrupted_calibration_sign",
    ),
    ("SpanFailure", "[X_%r, X_%r] should vanish"):
        ("test_chevalley::test_sweep_refuses_a_bracket_that_should_vanish",),
    # _cartan_solve
    ("SpanFailure", "Chevalley basis is not linearly independent"):
        ("test_chevalley::test_cartan_solve_refuses_dependent_weights",),
    # _complementary_root_values
    ("SpanFailure", "W vectors at height %d are dependent"):
        ("test_chevalley::test_complementary_roots_refuse_corrupted_vectors",),
    ("SpanFailure", "cannot complete level %d"):
        ("test_chevalley::test_complementary_roots_refuse_corrupted_vectors",),
    # when every level completes, level q adds |band q| - |band q - 1|
    # roots, which sum to |band -1| = rank
    ("SpanFailure", "expected %d complementary roots, found %d"): UNFIRED,
    # _verify_w_basis
    ("SpanFailure", "W basis of b^- has deficient rank"):
        ("test_chevalley::test_complementary_roots_refuse_corrupted_vectors",),
    ("SpanFailure", "the W coordinates do not sum to those of the summed W"):
        ("test_chevalley::test_w_basis_check_refuses_a_wrong_coordinate",),
    # no corruption found reaches these past the rank check before them
    ("SpanFailure", "height %d block is not square"): UNFIRED,
    ("SpanFailure", "height %d block is singular"): UNFIRED,
    # decompose_in_basis
    ("DimMismatch", "matrix is not %d x %d"):
        ("test_chevalley::test_decompose_refuses_a_matrix_of_another_size",),
    ("NotInLieAlgebra", "entry (%d, %d) is outside the span"): (
        "test_chevalley::test_decompose_rejects_identity",
        "test_chevalley::test_decompose_refuses_each_way_out_of_the_span",
    ),
    # _torus_exponents
    ("NonDiagonalCartan", "H_%d is not diagonal"):
        ("test_chevalley::test_torus_element_refuses_a_non_diagonal_cartan_generator",),
    # n(w): _signed_columns
    ("StructureViolation", "n(w) is not a signed permutation matrix"): (
        "test_chevalley::test_a_non_signed_permutation_is_refused",
        "test_chevalley::test_weyl_representative_refuses_a_corrupted_exponential_cell",
    ),
}

ROOTSYS_SITES = {
    ("NotARoot", "mixed-sign coefficient vector %r"):
        ("test_rootsys::test_mixed_sign_rejected",),
    # RootSystem.simple, called by _reflect_simple among others
    ("NotARoot", "no simple root %r in rank %d"): (
        "test_rootsys::test_simple_root_index_out_of_range_is_refused",
        "test_rootsys::test_reflection_refuses_a_simple_index_out_of_range",
    ),
    # _simple_half_lengths
    ("UnsupportedType", "type_label"):
        ("test_rootsys::test_half_lengths_refuse_an_unknown_type",),
    # check_admissible, called by build_root_system and construct.run_pipeline
    ("UnsupportedType", "unknown type %r"): (
        "test_rootsys::test_inadmissible",
        "test_cli::test_an_inadmissible_system_above_the_ceiling_is_a_usage_error",
    ),
    ("UnsupportedType", "G2 has rank 2"): (
        "test_rootsys::test_inadmissible",
        "test_cli::test_an_inadmissible_system_above_the_ceiling_is_a_usage_error",
    ),
    ("UnsupportedType", "%s requires rank >= %d"): ("test_rootsys::test_inadmissible",),
    # build_root_system
    ("UnsupportedType", "generated %d positive roots for %s_%d, expected %d"):
        ("test_rootsys::test_root_count_is_checked_against_the_known_count",),
    # root_string
    ("NotARoot", "string endpoints must be roots"):
        ("test_rootsys::test_root_string_refuses_a_vector_that_is_no_root",),
    ("DependentRoots", "string through a dependent pair"):
        ("test_rootsys::test_root_string_dependent",),
    # _reflect_simple
    ("NotARoot", "%r"): ("test_rootsys::test_reflection_refuses_a_vector_that_is_no_root",),
    # longest_weyl_word
    ("StructureViolation", "longest element failed to negate %r"):
        ("test_rootsys::test_longest_word_check_recomputes_the_simple_images",),
    ("StructureViolation", "longest word has length %d, not %d"):
        ("test_rootsys::test_longest_word_length_is_checked",),
}


LIOUVILLE_EXPR_SITES = {
    # LiouvExpr.scalar and as_expr, the coercion of every operand
    ("TypeError", "scalar expects a DiffPoly or rational"):
        ("test_liouville_expr::test_expressions_refuse_what_they_cannot_hold",),
    ("TypeError", "cannot coerce %r to LiouvExpr"):
        ("test_liouville_expr::test_expressions_refuse_what_they_cannot_hold",),
    # LiouvExpr.__pow__
    ("TypeError", "integer powers only"):
        ("test_liouville_expr::test_expressions_refuse_what_they_cannot_hold",),
    ("ValueError", "only exponential monomials with rational coefficients are invertible"):
        ("test_liouville_expr::test_expressions_refuse_what_they_cannot_hold",),
    # json_chunks
    ("TypeError", "report keys must be strings, got %r"):
        ("test_construct::test_report_writer_refuses_values_it_cannot_render",),
    ("TypeError", "cannot render a %s in the report"):
        ("test_construct::test_report_writer_refuses_values_it_cannot_render",),
}


LINALG_SITES = (
    # _require_shape, called by mat_add and mat_eq
    (("DimMismatch", "matrix sizes differ"), (
        "test_properties::test_sum_checks_the_full_shape",
        "test_properties::test_entrywise_equality_rejects_unequal_row_counts",
    )),
    (("DimMismatch", "columns of a differ from rows of b"),
     ("test_properties::test_product_checks_the_inner_dimensions",)),
    (("DimMismatch", "g' + g b - a g needs g n x m, b m x m and a n x n"),
     ("test_properties::test_gauge_defect_checks_the_shapes",)),
    # _reduce, the elimination of det, rational_inverse and solve_exact
    (("DimMismatch", "matrix rows have unequal lengths"),
     ("test_properties::test_solve_refuses_ragged_rows",)),
    # _require_square, called by det and rational_inverse
    (("DimMismatch", "matrix is not square"),
     ("test_properties::test_determinant_and_inverse_refuse_a_non_square_matrix",)),
    # rational_inverse
    (("NoRationalSolution", "matrix is singular"),
     ("test_properties::test_inverse_refuses_a_singular_matrix",)),
    # solve_exact
    (("DimMismatch", "right-hand side length differs from %d rows"),
     ("test_properties::test_solve_refuses_a_right_hand_side_of_another_length",)),
    (("NoRationalSolution", "column %d has no pivot"),
     ("test_properties::test_solve_names_the_first_column_without_a_pivot",)),
    (("NoRationalSolution", "inconsistent system"),
     ("test_properties::test_solve_refuses_an_inconsistent_system",)),
    # rank
    (("DimMismatch", "matrix rows have unequal lengths"),
     ("test_properties::test_rank_refuses_ragged_rows",)),
)


SYMGROUP_SITES = {
    # _factors, called by log_derivative and adjoint: a plain matrix has
    # no closed-form inverse
    ("NotClosedFormInvertible", "not a product of group factors"):
        ("test_symgroup::test_general_inverse_refused",),
}


_REFUSAL = "test_cli::test_each_input_refusal_exits_1_with_one_line"

CLI_SITES = {
    # _read_json
    ("ValueError", "%s: JSON nested too deeply"):
        (_REFUSAL, "test_cli::test_deeply_nested_input_is_an_input_error"),
    # _load_fixtures
    ("ValueError", 'fixtures must map names to {"type", "rank", "report"}'): (_REFUSAL,),
    # _parse_matrix_entry
    ("ValueError", 'matrix entry %r is not exact; write fractions as strings like "1/10"'):
        (_REFUSAL, "test_cli::test_bruhat_rejects_json_floats"),
    ("ValueError", "matrix entry is %s; write entries as numbers or strings"):
        (_REFUSAL, "test_cli::test_non_scalar_entries_get_a_short_error"),
    ("ValueError", "matrix entry %r is not written in ASCII"):
        (_REFUSAL, "test_cli::test_bruhat_rejects_non_ascii_digits"),
    # _load_matrix
    ("ValueError", "matrix file must hold a square array of rows"): (_REFUSAL,),
    ("ValueError", "malformed matrix entry: %r"):
        (_REFUSAL, "test_cli::test_malformed_entries_are_input_errors"),
    # _rational_entry, called by cmd_bruhat
    ("ValueError", "bruhat needs rational entries, got %s"):
        (_REFUSAL, "test_cli::test_bruhat_rejects_polynomial_entries"),
    # cmd_gauge_normalize: the rank before build_rep, then the size
    ("ValueError", "type %s rank %d needs at least a %dx%d matrix, the file holds %dx%d"):
        (_REFUSAL, "test_cli::test_gauge_normalize_checks_the_matrix_size"),
    ("ValueError", "type %s rank %d needs a %dx%d matrix, the file holds %dx%d"): (_REFUSAL,),
    # _check_output, called by main before any command runs
    ("ValueError", "--output %s is a directory"):
        (_REFUSAL, "test_cli::test_an_unwritable_output_is_refused_before_any_work"),
    ("ValueError", "--output %s is in a directory that does not exist"):
        (_REFUSAL, "test_cli::test_an_unwritable_output_is_refused_before_any_work"),
}

DIFFPOLY_SITES = {
    # _slot, the registry of jet variables
    ("ExponentOverflow", "more than %d distinct jet variables"): (
        "test_diffpoly::test_the_slot_registry_refuses_the_jet_variable_past_max_slots",
        "test_diffpoly::test_a_full_slot_registry_refuses_new_jet_variables",
    ),
    # _check_degrees, called by every product
    ("ExponentOverflow", "a product of degree %d exceeds the exponent limit %d"):
        ("test_diffpoly::test_a_product_beyond_the_exponent_limit_raises",),
    # _image_power, called by substitute
    ("MissingAssignment", "no assignment for eta_%d"):
        ("test_diffpoly::test_substitute_missing",),
    # DiffPoly.monomial
    ("ValueError", "negative order or exponent in a monomial"):
        ("test_diffpoly::test_monomials_and_powers_refuse_negative_exponents",),
    ("ExponentOverflow", "a monomial of degree %d exceeds the exponent limit %d"):
        ("test_diffpoly::test_a_product_beyond_the_exponent_limit_raises",),
    # DiffPoly.__pow__
    ("ValueError", "DiffPoly powers must be nonnegative integers"):
        ("test_diffpoly::test_monomials_and_powers_refuse_negative_exponents",),
    # DiffPoly.from_json_obj
    ("ValueError",
     'polynomial coefficient %r is not exact; write it as an int or a string like "1/10"'):
        ("test_cli::test_polynomial_objects_refuse_floats_and_bools",),
    ("ValueError", "monomial triples hold ints, not booleans"):
        ("test_cli::test_polynomial_objects_refuse_floats_and_bools",),
    # _Parser.error, and parse on a degree past the limit
    ("ValueError", "parse error at %d: %s"): (
        "test_diffpoly::test_exponents_indices_and_orders_are_whole_numbers",
        "test_diffpoly::test_digits_are_ascii_only",
    ),
    ("ValueError", "parse error: %s"): (
        "test_diffpoly::test_written_exponents_above_the_limit_are_parse_errors",
        "test_diffpoly::test_a_full_slot_registry_refuses_new_jet_variables",
    ),
}


def _template(node):
    """(exception name, message template) of a raise statement whose
    exception is called with one string, formatted with % or not, or with
    one other expression, whose source stands for the template."""
    call = node.exc
    message = call.args[0]
    if isinstance(message, ast.BinOp) and isinstance(message.op, ast.Mod):
        message = message.left
    if not isinstance(message, ast.Constant):
        return call.func.id, ast.unparse(message)
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
    assert sum(tests == UNFIRED for tests in SITES.values()) == 1


def test_every_raise_site_in_bruhat_is_listed_once_and_fired():
    assert _raise_sites(BRUHAT) == Counter(BRUHAT_SITES.keys())
    assert all(BRUHAT_SITES.values())


def test_every_raise_site_in_gauge_is_listed_once_and_fired():
    assert _raise_sites(GAUGE) == Counter(GAUGE_SITES.keys())
    assert all(GAUGE_SITES.values())


def test_every_raise_site_in_chevalley_is_listed_once():
    assert _raise_sites(CHEVALLEY) == Counter(CHEVALLEY_SITES.keys())
    assert sum(exc in ("SpanFailure", "StructureViolation") for exc, _ in CHEVALLEY_SITES) == 21
    assert sum(tests == UNFIRED for tests in CHEVALLEY_SITES.values()) == 4


def test_every_raise_site_in_rootsys_is_listed_once_and_fired():
    assert _raise_sites(ROOTSYS) == Counter(ROOTSYS_SITES.keys())
    assert all(ROOTSYS_SITES.values())


def test_every_raise_site_in_liouville_expr_is_listed_once_and_fired():
    assert _raise_sites(LIOUVILLE_EXPR) == Counter(LIOUVILLE_EXPR_SITES.keys())
    assert all(LIOUVILLE_EXPR_SITES.values())


def test_every_raise_site_in_linalg_is_listed_and_fired():
    assert _raise_sites(LINALG) == Counter(site for site, _ in LINALG_SITES)
    assert all(tests for _, tests in LINALG_SITES)
    assert len(LINALG_SITES) == 10


def test_every_raise_site_in_cli_is_listed_and_fired():
    assert _raise_sites(CLI) == Counter(CLI_SITES.keys())
    assert all(tests and tests[0] == _REFUSAL for tests in CLI_SITES.values())
    assert len(CLI_SITES) == 12


def test_every_raise_site_in_diffpoly_is_listed_and_fired():
    assert _raise_sites(DIFFPOLY) == Counter(DIFFPOLY_SITES.keys())
    assert all(DIFFPOLY_SITES.values())
    assert len(DIFFPOLY_SITES) == 10


def test_every_raise_site_in_symgroup_is_listed_and_fired():
    assert _raise_sites(SYMGROUP) == Counter(SYMGROUP_SITES.keys())
    assert all(SYMGROUP_SITES.values())


def test_every_module_that_raises_is_inventoried():
    inventoried = {
        CONSTRUCT, BRUHAT, GAUGE, CHEVALLEY, ROOTSYS, LIOUVILLE_EXPR, LINALG, CLI, DIFFPOLY,
        SYMGROUP,
    }
    raising = {path for path in (ROOT / "src" / "pvext").glob("*.py") if _raise_sites(path)}
    assert raising == inventoried


def test_an_unlisted_raise_site_fails_the_inventory(tmp_path):
    for path, listed in (
        (LINALG, Counter(site for site, _ in LINALG_SITES)),
        (CLI, Counter(CLI_SITES.keys())),
        (DIFFPOLY, Counter(DIFFPOLY_SITES.keys())),
    ):
        changed = tmp_path / path.name
        changed.write_text(
            path.read_text(encoding="utf-8")
            + '\n\ndef _checked(m):\n    if not m:\n        raise DimMismatch("empty matrix")\n',
            encoding="utf-8",
        )
        assert _raise_sites(path) == listed
        assert _raise_sites(changed) - listed == Counter({("DimMismatch", "empty matrix"): 1})


def test_every_named_firing_test_exists():
    tables = (
        SITES, BRUHAT_SITES, GAUGE_SITES, CHEVALLEY_SITES, ROOTSYS_SITES, LIOUVILLE_EXPR_SITES,
        CLI_SITES, DIFFPOLY_SITES, SYMGROUP_SITES,
    )
    sites = [tests for table in tables for tests in table.values()]
    sites += [tests for _, tests in LINALG_SITES]
    named = {name for tests in sites for name in tests}
    missing = []
    for name in sorted(named):
        module, test = name.split("::")
        if test not in _test_names(module):
            missing.append(name)
    assert missing == []
