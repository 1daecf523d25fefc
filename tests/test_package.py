"""The package's public surface: every exported name resolves, from the
module that defines it, and nothing else does; every export and class member
has a reader in the package; its caches hand out read-only arrays; a hopf
run builds no rotor twice; importing the CLI loads no pool module; and the
test settings report a failing property test like any other.

`GUARDS` holds the ownership rules of `src/cliffsphere/` and `scripts/`, one
row each: one cross-product helper, one output path, one orientation walk,
one home of the orientation axis and one reader of the environment.  One
walker, `_found`, serves every row."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cliffsphere
from cliffsphere import cli, multivector

ROOT = Path(__file__).resolve().parents[1]

REMOVED = (
    "build_frame",
    "correlation_raw",
    "correlation_standard",
    "duality_check",
    "equation_suite",
    "FiberProbe",
    "grade_part",
    "HiddenBasis",
    "OrientedFrame",
    "parallel_transport_check",
    "Rotor",
    "make_rotor",
    "norm",
    "quaternion_point",
    "raw_score_alice",
    "raw_score_bob",
    "reversion",
    "rotate_vector",
    "rotor_exp",
    "standard_score",
    "TrialRecord",
    "trial_records",
    "transition_relation",
)

#: Exported names that no package module or script calls, and why they stay.
TEST_ONLY_EXPORTS = {
    # the only code that computes the marginal averages (acceptance criterion 6)
    "marginal_average",
    # the product that tests/oracles.py builds its references from, and that
    # perfbench/child.py's set-up times
    "geometric_product",
    # the same for the outer product; `frames.hidden_basis` wedges its three
    # bivectors in one batch of the kernel
    "wedge",
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
    # argparse calls it on every error it finds in an argv
    "_Parser.error",
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
    "_blas_corename": [()],
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
    assert len(cliffsphere.__all__) == 35  # 34 names and __version__
    for name, module in cliffsphere._MODULE_OF.items():
        defining = importlib.import_module(f"cliffsphere.{module}")
        value = getattr(cliffsphere, name)
        assert value is getattr(defining, name), name
        if callable(value):
            assert value.__module__ == defining.__name__, name


def test_a_hopf_run_checks_three_rotor_planes(tmp_path, rebind):
    # the fiber pair's half-angle rotors and its transport rotor are one
    # batch, the phase flip's two rotors another and the probe's a third:
    # each plane is checked once, and no rotor is built twice
    real, calls = multivector._rotor_coeffs, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    rebind(real, spy)
    assert cli.main(["hopf", "--out", str(tmp_path)]) == 0
    assert len(calls) == 3


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


def _named(node):
    """The name that a node reads: a bare name, the last part of an attribute
    (``threading.Thread``) or of an import, or a string
    (``getattr(np.random, "Philox")``); None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _called(node):
    """The name of the function that a call calls; None for any other node."""
    return _named(node.func) if isinstance(node, ast.Call) else None


#: os.open flags that open a file for writing.
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _writes(node):
    """A json.dumps or json.dump with an indent, a write_text or write_bytes,
    or an open in a write mode (a mode string with w, a, x or +, or an
    os.open write flag) of anything but the null device."""
    name = _called(node)
    if name in ("dumps", "dump"):
        return any(k.arg == "indent" for k in node.keywords)
    if name != "open":
        return name in ("write_text", "write_bytes")
    args = [*node.args, *(k.value for k in node.keywords)]
    mode = any(isinstance(a, ast.Constant) and isinstance(a.value, str)
               and set(a.value) <= set("rwaxbt+") and set(a.value) & set("wax+") for a in args)
    flags = {_named(n) for a in args for n in ast.walk(a)} & WRITE_FLAGS
    return bool(mode or flags) and not (node.args and ast.unparse(node.args[0]) == "os.devnull")


def _builds_orientations(node):
    """A call of `_structure_coeffs`, or of a numpy function (``np.array``,
    ``numpy.repeat``) that takes `ORIENTATIONS` (a bare name, or an attribute
    such as ``frames.ORIENTATIONS``) as an argument."""
    if not isinstance(node, ast.Call):
        return False
    root = node.func
    while isinstance(root, ast.Attribute):
        root = root.value
    numpy_call = root is not node.func and _named(root) in ("np", "numpy")
    takes = any(_named(a) == "ORIENTATIONS" for a in [*node.args, *(k.value for k in node.keywords)])
    return _called(node) == "_structure_coeffs" or (numpy_call and takes)


#: The package's ownership rules.  A row holds what a node does; the (file,
#: top-level definition) pairs that may do it, once for each node that does
#: it, and that must all still do it, so that no allowance outlives its
#: owner; a snippet that does it elsewhere; and the owners that the guard
#: must report in that snippet.
GUARDS = {
    # `multivector._cross` has np.cross's bits at about half its cost
    "cross": (
        lambda node: _called(node) == "cross",
        [],
        """
        from numpy import cross

        def other_cross(a, b):
            return np.cross(a, b), np.linalg.cross(a, b), cross(a, b)

        def fine(a, b):
            return _cross(a, b), a.cross, "cross"
        """,
        ["other_cross"] * 3,
    ),
    # `cli._write_file` writes every output through a temporary file and
    # os.replace, and `cli._json_text` is the one indented JSON writer
    "output": (
        _writes,
        [("cli.py", "_write_file")],
        """
        def report(path, value):
            text = json.dumps(value, indent=2, sort_keys=True)
            json.dump(value, sys.stdout, indent=1)
            path.write_text(text)
            path.write_bytes(text.encode())
            with open(path, "w") as fh, path.open(mode="ab") as fh2, io.open(path, "r+") as fh3:
                pass
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT))

        def fine(path, value):
            json.dumps(value)
            open(path).read()
            open(path, "rb").read()
            os.close(os.open(path, os.O_RDONLY))
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        """,
        ["report"] * 8,
    ),
    # every count comes from `epr.orientation_counts`, whose walkers take
    # spans from one shared list with `_count_plus`, one generator each: a
    # second generator of the stream or a second walker pool would be a
    # second walk, as `lambda_stream` once was
    "walk": (
        lambda node: _named(node) in {"Philox", "Thread"},
        [("epr.py", "_count_plus"), ("epr.py", "orientation_counts")],
        """
        from numpy.random import Philox
        import threading as th

        def other_walk(seed):
            words = np.random.Philox(key=seed).random_raw(4)
            th.Thread(target=print).start()
            return getattr(np.random, "Philox")

        def fine(seed):
            threading.current_thread()
            return np.random.default_rng(seed), "a Philox stream"
        """,
        ["<module>"] + ["other_walk"] * 3,
    ),
    # the lam = +1, -1 batches and the products on them live in `frames`
    # (`_LAM` at module level), which the estimators, the transport and the
    # identity suite share
    "orientation": (
        _builds_orientations,
        [("frames.py", "<module>"), ("frames.py", "_abstract_products"), ("frames.py", "abstract_product")],
        """
        def other_batch(n):
            lams = np.array(ORIENTATIONS)
            both = numpy.repeat(frames.ORIENTATIONS, len(n))
            rows = np.asarray(dtype=float, a=ORIENTATIONS)
            return _structure_coeffs(n, n, lams), frames._structure_coeffs(n, n, 1.0)

        def fine(n):
            side = ORIENTATIONS.index(1)
            volume = np.array([lam * n for lam in ORIENTATIONS])
            return _frame_coeffs(ORIENTATIONS), _abstract_products(n, n, -1.0), side, volume
        """,
        ["other_batch"] * 5,
    ),
    # a setting read from the environment is one that no flag shows: only the
    # CLI reads one, for the seed's fallback and for the manifest's record of
    # the BLAS kernel (`_write_manifest` reads `os.environ` twice)
    "environment": (
        lambda node: _named(node) in {"environ", "getenv"},
        [("cli.py", "_resolve_seed"), ("cli.py", "_write_manifest"), ("cli.py", "_write_manifest")],
        """
        from os import environ

        def settings(name):
            return os.environ.get(name), os.getenv(name)

        def fine(options, name):
            return options.get(name), os.getcwd()
        """,
        ["<module>"] + ["settings"] * 2,
    ),
}


def _found(matches, tree):
    """(top-level definition, node) for each node of `tree` that `matches`;
    `<module>` owns the nodes that no function or class holds."""
    return [(getattr(top, "name", "<module>"), node)
            for top in tree.body for node in ast.walk(top) if matches(node)]


@pytest.mark.parametrize("rule", GUARDS)
def test_the_package_keeps_each_guard_rule(rule):
    matches, owners, _, _ = GUARDS[rule]
    found = sorted((path.name, owner, ast.unparse(node))
                   for path, tree in _package_trees().items() for owner, node in _found(matches, tree))
    assert [(name, owner) for name, owner, _ in found] == sorted(owners), found


@pytest.mark.parametrize("rule", GUARDS)
def test_each_guard_rule_finds_its_injected_violation(rule):
    matches, _, snippet, owners = GUARDS[rule]
    assert [owner for owner, _ in _found(matches, ast.parse(textwrap.dedent(snippet)))] == owners


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
        and any(_named(getattr(d, "func", d)) in ("lru_cache", "cache") for d in node.decorator_list)
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


def test_importing_the_cli_loads_no_pool_module():
    # the orientation walk's second walker is a plain thread: no executor
    # or process pool module adds to a run's import time or memory
    check = ("import sys, cliffsphere.cli\n"
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cliffsphere.__file__).parents[1])}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
