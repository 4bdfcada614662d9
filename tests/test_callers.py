"""Every function, method and class in the package has a caller there,
apart from a pinned list; a new caller-less definition fails here until
it gets a caller or a place in the list."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

CALLER_LESS = {
    # paper-claim checks, to become verify rows (ROADMAP item 8)
    "cutoff_beta", "eh_chart_inverse", "eh_chart_map", "eh_metric_u_chart",
    "metric_series", "omega0_at", "prolate_chain", "radial_to_prolate",
    "transition_cr_residual",
    # the estimates diagnostics waiting for their report (ROADMAP item 5)
    "bochner_ratio", "contraction_bound", "inverse_bound_diagnostic",
    "lipschitz_ratios", "quadratic_envelope",
    # the field file's reader, which CI reads a solve's output back with
    "load_field",
    # accessors the acceptance and verification tests use
    "as_matrix", "i_ddbar", "involution", "kahler_potential", "nodes", "point",
    "resolving_to_radial",
}


def _caller_less_definitions():
    defined, used = set(), set()
    for path in sorted((ROOT / "src" / "kummerflat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined - used


def test_every_definition_has_a_caller_or_is_listed():
    assert len(CALLER_LESS) == 22
    assert _caller_less_definitions() == CALLER_LESS
