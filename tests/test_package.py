"""The package's public surface: every exported name resolves, from the
module that defines it, and nothing else does."""

import importlib

import pytest

import cliffsphere

REMOVED = (
    "equation_suite",
    "HiddenBasis",
    "OrientedFrame",
    "Rotor",
    "make_rotor",
    "quaternion_point",
    "TrialRecord",
    "trial_records",
)


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
    assert len(cliffsphere.__all__) == 51  # 50 names and __version__
    for name, module in cliffsphere._MODULE_OF.items():
        defining = importlib.import_module(f"cliffsphere.{module}")
        value = getattr(cliffsphere, name)
        assert value is getattr(defining, name), name
        if callable(value):
            assert value.__module__ == defining.__name__, name
