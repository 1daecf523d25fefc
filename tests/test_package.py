"""The package's public surface: every exported name resolves, from the
module that defines it, and nothing else does; every export and class member
has a reader in the package; its caches hand out read-only arrays; a hopf
run builds no rotor twice; one walk draws the orientation stream; only
`frames` builds a batch over the orientation axis; importing the CLI loads
no pool module; and the test settings report a failing property test like
any other."""

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


def test_a_hopf_run_checks_three_rotor_planes(tmp_path, monkeypatch):
    # the fiber pair's half-angle rotors and its transport rotor are one
    # batch, the phase flip's two rotors another and the probe's a third:
    # each plane is checked once, and no rotor is built twice
    real, calls = multivector._rotor_coeffs, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    for module in map(importlib.import_module, [f"cliffsphere.{m}" for m in cliffsphere._EXPORTS]):
        if vars(module).get("_rotor_coeffs") is real:
            monkeypatch.setattr(module, "_rotor_coeffs", spy)
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


def test_the_package_takes_cross_products_with_its_own_helper():
    # `multivector._cross` has np.cross's bits at about half its cost
    calls = [
        f"{path.name}:{node.lineno}"
        for path, tree in _package_trees().items() if path.parent.name == "cliffsphere"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "cross"
    ]
    assert calls == []


#: os.open flags that open a file for writing.
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _output_calls(tree):
    """(enclosing top-level definition, call) for each call in `tree` that
    writes output by another path than `cli._write_file`: a json.dumps or
    json.dump with an indent, a write_text or write_bytes, or an open in a
    write mode (a mode string with w, a, x or +, or an os.open write flag)
    of anything but the null device."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            args = [*node.args, *(k.value for k in node.keywords)]
            if name in ("dumps", "dump"):
                writes = any(k.arg == "indent" for k in node.keywords)
            elif name in ("write_text", "write_bytes"):
                writes = True
            elif name == "open":
                modes = [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)
                         and set(a.value) <= set("rwaxbt+") and set(a.value) & set("wax+")]
                flags = {n.attr if isinstance(n, ast.Attribute) else n.id
                         for a in args for n in ast.walk(a) if isinstance(n, (ast.Attribute, ast.Name))}
                devnull = bool(node.args) and ast.unparse(node.args[0]) == "os.devnull"
                writes = bool(modes or flags & WRITE_FLAGS) and not devnull
            else:
                writes = False
            if writes:
                found.append((getattr(top, "name", "<module>"), ast.unparse(node)))
    return found


def test_the_output_guard_finds_each_other_output_path():
    tree = ast.parse(textwrap.dedent("""
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
    """))
    assert [owner for owner, _ in _output_calls(tree)] == ["report"] * 8


def test_every_file_is_written_through_one_path():
    # `cli._write_file` writes every output through a temporary file and
    # os.replace, and `cli._json_text` is the one indented JSON writer
    found = [
        (path.name, owner, call)
        for path, tree in _package_trees().items() if path.parent.name == "cliffsphere"
        for owner, call in _output_calls(tree)
    ]
    assert [(name, owner) for name, owner, _ in found] == [("cli.py", "_write_file")], found


#: The walk's generator and its walker threads, by the names that reach them.
WALK_NAMES = {"Philox", "Thread"}


def _walk_names(tree):
    """(enclosing top-level definition, name) for each use in `tree` of a
    name in `WALK_NAMES`: a bare name, an attribute (``threading.Thread``),
    an import or a string (``getattr(np.random, "Philox")``)."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                name = node.value if isinstance(node, ast.Constant) else None
            if name in WALK_NAMES:
                found.append((getattr(top, "name", "<module>"), name))
    return found


def test_the_walk_guard_finds_each_other_walk():
    tree = ast.parse(textwrap.dedent("""
        from numpy.random import Philox
        import threading as th

        def other_walk(seed):
            words = np.random.Philox(key=seed).random_raw(4)
            th.Thread(target=print).start()
            return getattr(np.random, "Philox")

        def fine(seed):
            threading.current_thread()
            return np.random.default_rng(seed), "a Philox stream"
    """))
    assert [owner for owner, _ in _walk_names(tree)] == ["<module>"] + ["other_walk"] * 3


def test_one_walk_draws_the_orientation_stream():
    # every count comes from `epr.orientation_counts`, whose walkers each
    # walk one span with `_count_plus`: a second generator of the stream or
    # a second walker pool would be a second walk, as `lambda_stream` once was
    found = {
        (path.name, owner)
        for path, tree in _package_trees().items() if path.parent.name == "cliffsphere"
        for owner, _ in _walk_names(tree)
    }
    assert found == {("epr.py", "_count_plus"), ("epr.py", "orientation_counts")}


def _orientation_builds(tree):
    """(enclosing top-level definition, call) for each call in `tree` that
    builds a batch over the orientation axis: a call of `_structure_coeffs`,
    or of a numpy function (``np.array``, ``numpy.repeat``) that takes
    `ORIENTATIONS` (a bare name, or an attribute such as
    ``frames.ORIENTATIONS``) as an argument."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, [*node.args, *(k.value for k in node.keywords)]
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            root = func
            while isinstance(root, ast.Attribute):
                root = root.value
            numpy_call = isinstance(func, ast.Attribute) and getattr(root, "id", None) in ("np", "numpy")
            takes = any((a.attr if isinstance(a, ast.Attribute) else getattr(a, "id", None)) == "ORIENTATIONS"
                        for a in args)
            if name == "_structure_coeffs" or (numpy_call and takes):
                found.append((getattr(top, "name", "<module>"), ast.unparse(node)))
    return found


def test_the_orientation_guard_finds_each_other_orientation_batch():
    tree = ast.parse(textwrap.dedent("""
        def other_batch(n):
            lams = np.array(ORIENTATIONS)
            both = numpy.repeat(frames.ORIENTATIONS, len(n))
            rows = np.asarray(dtype=float, a=ORIENTATIONS)
            return _structure_coeffs(n, n, lams), frames._structure_coeffs(n, n, 1.0)

        def fine(n):
            side = ORIENTATIONS.index(1)
            volume = np.array([lam * n for lam in ORIENTATIONS])
            return _frame_coeffs(ORIENTATIONS), _abstract_products(n, n, -1.0), side, volume
    """))
    assert [owner for owner, _ in _orientation_builds(tree)] == ["other_batch"] * 5


def test_only_frames_builds_the_orientation_axis():
    # the lam = +1, -1 batches and the products on them live in `frames`,
    # which the estimators, the transport and the identity suite share
    found = [
        (path.name, owner, call)
        for path, tree in _package_trees().items() if path.name != "frames.py"
        for owner, call in _orientation_builds(tree)
    ]
    assert found == []


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


def test_importing_the_cli_loads_no_pool_module():
    # the orientation walk's second walker is a plain thread: no executor
    # or process pool module adds to a run's import time or memory
    check = ("import sys, cliffsphere.cli\n"
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cliffsphere.__file__).parents[1])}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
