"""The package's public surface: every exported name resolves, from the
module that defines it, and nothing else does; every export and class member
has a reader in the package; its caches hand out read-only arrays; and the
test settings report a failing property test like any other."""

import ast
import dataclasses
import importlib
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
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
    # the `Multivector` algebra that tests/oracles.py builds its references
    # from; perfbench/child.py's set-up times `geometric_product` too
    "geometric_product", "grade_part", "norm", "reversion", "rotor_exp",
}

#: Class members that no package module or script reads as an attribute, by
#: member name (in any class) or as Class.member, and why they stay.
UNREAD_MEMBERS = {
    # dataclasses call it on construction
    "__post_init__",
    # the f-string in `epr._raw_scores`' error message reaches it
    "Multivector.__str__",
    # the result that `marginal_average` returns
    "CorrelationEstimate.residual_coeffs",
}

#: Arguments to call each cached function of the package with, by name.
CACHED_CALLS = {
    "_tables": [(1,), (3,), (8,)],
    "_gather_index": [(3, "geometric"), (7, "wedge"), (8, "contract")],
    "_reversion_sign": [(3,), (7,)],
    "_naive_table": [(3,)],
    "_blade_labels": [(3,)],
    "build_parser": [()],
    "_build_J": [()],
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


def _member_names(node):
    """Names that a class-body statement defines: a method or property, or
    the plain-name targets of a field or class attribute."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_class_member_is_read_in_the_package():
    # a method, property or dataclass field that no package module or script
    # reads is API whose only caller is its own test.  Attribute names are
    # untyped, so a name that two classes define counts as read for both once
    # either is read: this catches a member whose name nothing reads at all.
    trees = _package_trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unread = {
        (cls.name, name)
        for tree in trees.values()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for member in cls.body
        for name in _member_names(member) if name not in read
    }
    unexplained = sorted(f"{c}.{m}" for c, m in unread
                         if m not in UNREAD_MEMBERS and f"{c}.{m}" not in UNREAD_MEMBERS)
    assert unexplained == []
    stale = sorted(entry for entry in UNREAD_MEMBERS
                   if not any(entry in (m, f"{c}.{m}") for c, m in unread))
    assert stale == []


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _arrays(value):
    """The ndarrays in value, in its tuples, lists and dataclass fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


def test_every_array_a_package_cache_returns_is_read_only():
    # a cached array is shared by every later caller in the process: one
    # caller that writes into it would corrupt every later result
    cached = [
        (path.stem, node.name)
        for path, tree in _package_trees().items() if path.parent.name == "cliffsphere"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
    ]
    assert sorted(name for _, name in cached) == sorted(CACHED_CALLS)
    for module, name in cached:
        function = getattr(importlib.import_module(f"cliffsphere.{module}"), name)
        for args in CACHED_CALLS[name]:
            for array in _arrays(function(*args)):
                assert not array.flags.writeable, (module, name, args)


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # under the project's own settings a failing @given test is reported like
    # any other, and the tests after it still run: with every warning an
    # error, a DeprecationWarning inside hypothesis's report hook would end
    # the session with INTERNALERROR instead
    (tmp_path / "test_child.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=5, deadline=None, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n != n

        def test_passes():
            pass
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         str(tmp_path / "test_child.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
