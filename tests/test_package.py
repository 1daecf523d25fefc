"""The package's public surface: every exported name resolves."""

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
