"""The package's public surface: every exported name resolves, from the
module that defines it, and nothing else does."""

import ast
import importlib
from pathlib import Path

import pytest

import cliffsphere

ROOT = Path(__file__).resolve().parents[1]

REMOVED = (
    "build_frame",
    "correlation_raw",
    "correlation_standard",
    "equation_suite",
    "HiddenBasis",
    "OrientedFrame",
    "parallel_transport_check",
    "Rotor",
    "make_rotor",
    "quaternion_point",
    "raw_score_alice",
    "raw_score_bob",
    "rotate_vector",
    "standard_score",
    "TrialRecord",
    "trial_records",
    "transition_relation",
)

#: Exported names that no package module or script calls, and why they stay.
TEST_ONLY_EXPORTS = {
    # the only code that computes the marginal averages (acceptance criterion 6)
    "marginal_average",
    # the `Multivector` algebra that tests/oracles.py builds its references from
    "grade_part", "norm", "reversion", "rotor_exp",
}


def test_every_exported_name_resolves():
    for name in cliffsphere.__all__:
        assert getattr(cliffsphere, name) is not None, name


def test_internal_and_removed_names_are_not_exported():
    assert not set(REMOVED) & set(cliffsphere.__all__)


@pytest.mark.parametrize("name", ["no_such_name", *REMOVED])
def test_an_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(cliffsphere, name)


def test_dir_lists_every_exported_name():
    assert set(cliffsphere.__all__) <= set(dir(cliffsphere))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cliffsphere import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cliffsphere.__all__)


def test_every_exported_name_comes_from_its_defining_module():
    assert set(cliffsphere.__all__) == {*cliffsphere._MODULE_OF, "__version__"}
    assert len(cliffsphere.__all__) == 42  # 41 names and __version__
    for name, module in cliffsphere._MODULE_OF.items():
        defining = importlib.import_module(f"cliffsphere.{module}")
        value = getattr(cliffsphere, name)
        assert value is getattr(defining, name), name
        if callable(value):
            assert value.__module__ == defining.__name__, name


def _package_trees():
    return {path: ast.parse(path.read_text())
            for path in [*sorted((ROOT / "src" / "cliffsphere").glob("*.py")),
                         *sorted((ROOT / "scripts").glob("*.py"))]}


def _referenced(trees, attributes):
    """Names that the trees read as a bare name or import, and, with
    `attributes`, as an attribute too."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif attributes and isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def test_every_exported_name_has_a_caller_in_the_package():
    # an export that no package module or script names is API whose only
    # caller is its own test; attribute names do not count, or
    # `np.linalg.norm` would count as a use of `multivector.norm`
    referenced = _referenced(_package_trees(), attributes=False)
    uncalled = {*cliffsphere._MODULE_OF} - referenced
    assert uncalled == TEST_ONLY_EXPORTS


def test_every_unexported_public_definition_has_a_caller_in_the_package():
    # a public function or class outside __all__ that no package module or
    # script names is API whose only caller could be its own test; a text
    # search would also count comments, so references are read from the AST
    trees = _package_trees()
    referenced = _referenced(trees, attributes=True)
    unused = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in cliffsphere.__all__
        and node.name not in referenced
    ]
    assert unused == []


def test_the_package_takes_cross_products_with_its_own_helper():
    # `multivector._cross` has np.cross's bits at about half its cost
    calls = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees().items() if path.parent.name == "cliffsphere"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "cross"
    ]
    assert calls == []
