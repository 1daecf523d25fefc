"""Identity suite tests: everything passes, and a corrupted algebra is caught."""

import math

import pytest

from cliffsphere.identities import (
    CheckResult,
    equation_suite,
    run_identity_checks,
)


def test_equation_suite_all_pass_at_default_tolerance():
    results = equation_suite(n_pairs=200)
    assert len(results) == 12
    for r in results:
        assert r.passed, f"{r.name}: residual {r.residual}"


def test_full_suite_all_pass():
    results = run_identity_checks(n_pairs=200)
    assert len(results) >= 30
    for r in results:
        assert r.passed, f"{r.name}: residual {r.residual}"


def test_checks_have_distinct_names():
    results = run_identity_checks(n_pairs=10)
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_exact_checks_carry_zero_tolerance():
    results = run_identity_checks(n_pairs=10)
    exact = [r for r in results if r.tolerance == 0.0]
    assert len(exact) >= 10
    for r in exact:
        assert r.residual == 0.0


def test_injected_sign_flip_is_caught():
    results = run_identity_checks(n_pairs=50, inject_sign_flip=True)
    failed = [r.name for r in results if not r.passed]
    # the corrupted epsilon sign surfaces in exactly the abstract-side checks
    # that multiply two different directions
    assert failed == [
        "combined orientation identity (lam=+1)",
        "combined orientation identity (lam=-1)",
        "abstract/embedded isomorphism (lam=+1)",
        "abstract/embedded isomorphism (lam=-1)",
    ]
    # the embedded-frame checks stay untouched by the injection
    passed = {r.name for r in results if r.passed}
    assert any("frame score expansion" in name for name in passed)


def test_check_result_passed_property():
    assert CheckResult("x", 0.0, 0.0).passed
    assert not CheckResult("x", 1e-13, 0.0).passed
    assert CheckResult("x", 1e-13, 1e-12).passed


def test_suite_is_deterministic_for_fixed_seed():
    a = run_identity_checks(n_pairs=50, seed=5)
    b = run_identity_checks(n_pairs=50, seed=5)
    assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_suites_refuse_a_meaningless_tolerance(tolerance):
    # NaN fails and inf passes every float check without it meaning anything
    for suite in (equation_suite, run_identity_checks):
        with pytest.raises(ValueError, match="tolerance"):
            suite(tolerance=tolerance, n_pairs=1)


def test_zero_tolerance_is_allowed():
    assert len(equation_suite(tolerance=0.0, n_pairs=1)) == 12


def test_suites_refuse_to_run_without_random_pairs():
    # with no pairs the random-pair checks would pass without having run
    for suite in (equation_suite, run_identity_checks):
        with pytest.raises(ValueError, match="n_pairs"):
            suite(n_pairs=0)
