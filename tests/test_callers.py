"""Every function, method and class in the package has a caller there,
apart from a pinned list; a new caller-less definition fails here until
it gets a caller or a place in the list.  Every name a module assigns
at its top level is read in the package, and no module reads a
sibling module's private name."""

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
    "as_matrix", "i_ddbar", "involution", "kahler_potential", "nodes",
    "resolving_to_radial",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "kummerflat").glob("*.py"))}


def _caller_less_definitions():
    defined, used = set(), set()
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined - used


def test_every_definition_has_a_caller_or_is_listed():
    assert len(CALLER_LESS) == 21
    assert _caller_less_definitions() == CALLER_LESS


def _sibling_reads(tree):
    """(line, sibling, name) for each name a module takes from a sibling
    module: by ``from .forms import DIM``, or as an attribute of the
    module object (``forms.DIM`` after ``from . import forms``)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    yield node.lineno, node.module, alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield node.lineno, aliases[node.value.id], node.attr


def _unread_module_names():
    """(module, name) for each non-dunder name a module assigns at its
    top level that the package never reads: not loaded by name in that
    module, not imported by name from it, and not taken as an attribute
    of it (``forms.DIM`` after ``from . import forms``).  Attributes of
    other objects do not count, so ``np.log`` reads no module's ``log``."""
    assigned, read = set(), set()
    for module, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    assigned.update((module, n.id) for n in ast.walk(target)
                                    if isinstance(n, ast.Name) and not n.id.startswith("__"))
        read.update((module, node.id) for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        read.update((sibling, name) for _, sibling, name in _sibling_reads(tree))
    return assigned - read


def test_every_module_level_name_is_read():
    assert _unread_module_names() == set()


def test_no_module_reads_a_sibling_private_name():
    private = sorted(f"{module}:{line} {sibling}.{name}"
                     for module, tree in _modules().items()
                     for line, sibling, name in _sibling_reads(tree)
                     if name.startswith("_") and not (name.startswith("__") and name.endswith("__")))
    assert private == []
