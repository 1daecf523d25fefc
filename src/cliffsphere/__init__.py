"""Clifford-algebra engine and orientation hidden-variable EPR-Bohm simulator.

Every public name is listed once below, under the module that defines it, and
loads on first use (PEP 562): ``import cliffsphere`` imports no layer module,
and ``cliffsphere.sweep`` imports only ``epr`` and the modules it needs.  The
name is looked up on its module at every access, never cached here, so a
rebinding on the defining module shows through the package too.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The exported names of each defining module.
_EXPORTS = {
    "epr": (
        "CorrelationEstimate", "OrientationCounts", "Side", "SweepSpec",
        "correlation_raw", "correlation_row", "correlation_standard",
        "lambda_stream", "marginal_average", "orientation_counts",
        "raw_score_alice", "raw_score_bob", "sweep",
    ),
    "frames": (
        "AbstractElement", "OrientationMixError", "abstract_product", "build_frame",
        "duality_check", "hidden_basis", "standard_score",
    ),
    "hopf": (
        "DegenerateAxisError", "FiberProbe", "null_limit_probe",
        "parallel_transport_check", "phase_flip_at_pi", "rotate_vector",
        "transition_relation",
    ),
    "identities": ("CheckResult", "run_identity_checks"),
    "multivector": (
        "DEFAULT_TOL", "Multivector", "blade_label", "contract", "geometric_product",
        "grade_norms", "grade_of", "grade_part", "norm", "render", "reversion",
        "rotor_exp", "scalar_part", "unit_vector", "wedge",
    ),
    "seven_sphere": (
        "Embedding", "SevenTrivector", "build_J", "embed", "raw_score_7",
        "standard_score_7",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
