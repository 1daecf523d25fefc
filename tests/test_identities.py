"""Identity suite tests: everything passes, and a corrupted algebra is caught."""

import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

from cliffsphere import cli, identities, multivector
from cliffsphere.identities import (
    CheckResult,
    _frame_coeffs,
    _frame_table,
    _naive_table,
    check_frame_anticommutation,
    check_frame_squares,
    check_frame_subalgebra,
    check_generator_anticommutation,
    check_ordered_product,
    check_product_against_naive_oracle,
    check_rotor_rotation,
    check_rotor_unit,
    check_vector_basis_flip,
    run_identity_checks,
)
from cliffsphere.multivector import (
    Multivector,
    contract,
    geometric_product,
    norm,
    reversion,
    rotor_exp,
    wedge,
)

from .oracles import _blade_table, flip_kernel_sign


def test_full_suite_all_pass():
    results = run_identity_checks(n_pairs=200)
    assert len(results) == 31
    for r in results:
        assert r.passed, f"{r.name}: residual {r.residual}"


def test_every_check_draws_its_own_random_units(monkeypatch):
    # one stream for the whole suite: no check re-runs another's inputs
    draws = []
    real = identities._random_units

    def recording(rng, count):
        units = real(rng, count)
        draws.append(units.tobytes())
        return units

    monkeypatch.setattr(identities, "_random_units", recording)
    run_identity_checks()
    assert len(draws) == 16
    assert len(set(draws)) == 16


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
    with pytest.raises(ValueError, match="tolerance"):
        run_identity_checks(tolerance=tolerance, n_pairs=1)


def test_zero_tolerance_is_allowed():
    assert len(run_identity_checks(tolerance=0.0, n_pairs=1)) == 31


def test_suites_refuse_to_run_without_random_pairs():
    # with no pairs the random-pair checks would pass without having run
    with pytest.raises(ValueError, match="n_pairs"):
        run_identity_checks(n_pairs=0)


def test_suites_refuse_more_pairs_than_fit_in_memory():
    with pytest.raises(ValueError, match=r"n_pairs must be <= 1000000, got 1000001"):
        run_identity_checks(n_pairs=identities.MAX_PAIRS + 1)


# -- the naive oracle ------------------------------------------------------------------


@pytest.mark.parametrize("dim", range(1, 9))
def test_naive_table_matches_the_brute_force_oracle(dim):
    masks, signs = _naive_table(dim)
    want = np.array(_blade_table(dim)).reshape(-1, 2)
    assert masks.tolist() == want[:, 0].tolist()
    assert signs.tolist() == want[:, 1].tolist()


def test_naive_table_memory_is_bounded_by_its_chunk():
    # the build itself: a call that the per-process cache answers allocates nothing
    tracemalloc.start()
    try:
        _naive_table.__wrapped__(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("dim", [3, 7])
def test_naive_table_is_built_once_and_read_only(dim):
    masks, signs = _naive_table(dim)
    assert _naive_table(dim)[0] is masks
    for table in (masks, signs):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


ORACLE_CL7 = "fast product vs naive blade multiplier, Cl(7,0)"


def test_a_cached_naive_table_still_catches_a_corrupted_algebra(monkeypatch, tmp_path):
    # a clean suite fills the cache; what it caches must not hide a later fault
    assert all(r.passed for r in run_identity_checks(n_pairs=10))
    flip_kernel_sign(monkeypatch, 5, 12)
    assert not check_product_against_naive_oracle(7, np.random.default_rng(0), 1e-12, n_pairs=5).passed
    monkeypatch.undo()
    argv = ["identities", "--pairs", "10", "--inject-sign-flip", "--out", str(tmp_path)]
    assert cli.main(argv) == 1


def test_oracle_check_catches_a_flipped_cayley_sign(monkeypatch):
    # the exhaustive half: the Cayley table that the check reads is corrupted
    xor, sign, grades = multivector._tables(7)
    bad = sign.copy()
    bad[5, 9] *= -1
    monkeypatch.setattr(identities, "_tables", lambda dim: (xor, bad, grades))
    result = check_product_against_naive_oracle(7, np.random.default_rng(0), 1e-12, n_pairs=5)
    assert result.name == ORACLE_CL7
    assert not result.passed


def test_oracle_check_catches_a_flipped_product_sign(monkeypatch):
    # the dense half: the product kernel's index table is corrupted, the Cayley
    # table is not, so only the random products can see it
    flip_kernel_sign(monkeypatch, 5, 12)
    result = check_product_against_naive_oracle(7, np.random.default_rng(0), 1e-12, n_pairs=5)
    assert result.name == ORACLE_CL7
    assert not result.passed


# -- batched checks against per-case loops -------------------------------------------------


def bumped_rotors(monkeypatch, bump):
    """Let the rotor checks build sin B + (1 + bump) cos, so that a nonzero
    bump gives every case its own large residual."""
    real = identities._rotor_coeffs
    monkeypatch.setattr(identities, "_rotor_coeffs",
                        lambda B, sin, cos: real(B, sin, (1 + bump) * cos))


def distance(x: Multivector, y: Multivector) -> float:
    """The coefficient norm of x - y."""
    return float(np.linalg.norm(x.coeffs - y.coeffs))


def bump(R: Multivector, angle: float, amount: float) -> Multivector:
    return Multivector(3, R.coeffs + Multivector.scalar(3, amount * math.cos(angle)).coeffs)


def rotor_rotation_by_loop(rng, n_cases, amount):
    worst = 0.0
    for _ in range(n_cases):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        w = rng.normal(size=3)
        w -= np.dot(w, u) * u
        w /= np.linalg.norm(w)
        theta = rng.uniform(-2.0, 2.0)
        u3, w3 = Multivector.from_vector(u, dim=3), Multivector.from_vector(w, dim=3)
        R = bump(rotor_exp(wedge(u3, w3), theta), theta, amount)
        v = rng.uniform(-1, 1) * u + rng.uniform(-1, 1) * w
        out = geometric_product(geometric_product(R, Multivector.from_vector(v, dim=3)), reversion(R))
        cu, cw = np.dot(v, u), np.dot(v, w)
        want = (cu * math.cos(2 * theta) + cw * math.sin(2 * theta)) * u + (
            -cu * math.sin(2 * theta) + cw * math.cos(2 * theta)
        ) * w
        worst = max(worst, float(np.max(np.abs(out.coeffs[[1, 2, 4]] - want))))
    return worst


def rotor_unit_by_loop(rng, n_cases, amount):
    worst = 0.0
    for _ in range(n_cases):
        c = rng.normal(size=3)
        c /= np.linalg.norm(c)
        theta = rng.uniform(-3, 3)
        B = contract(Multivector.volume(3), Multivector.from_vector(c, dim=3))
        R = bump(rotor_exp(B, theta), theta, amount)
        worst = max(worst, abs(norm(R) - 1.0),
                    distance(geometric_product(R, reversion(R)), Multivector.scalar(3, 1.0)))
    return worst


@pytest.mark.parametrize("amount", [0.0, 1e-3])
def test_batched_rotor_checks_equal_per_case_loops(monkeypatch, amount):
    bumped_rotors(monkeypatch, amount)
    pairs = [
        (check_rotor_rotation(np.random.default_rng(3)).residual,
         rotor_rotation_by_loop(np.random.default_rng(3), identities._ROTOR_CASES, amount)),
        (check_rotor_unit(np.random.default_rng(4), 1e-12).residual,
         rotor_unit_by_loop(np.random.default_rng(4), identities._ROTOR_CASES, amount)),
    ]
    for batched, looped in pairs:
        if amount:
            # a residual of order 1e-3 that depends on every drawn case
            assert looped > 1e-5
            assert batched == pytest.approx(looped, rel=1e-9)
        else:
            assert batched == pytest.approx(looped, abs=4e-16)


def anticommutation_by_loop(dim):
    worst = 0.0
    for j in range(1, dim + 1):
        for k in range(1, dim + 1):
            ej, ek = Multivector.basis_vector(dim, j), Multivector.basis_vector(dim, k)
            anti = geometric_product(ej, ek).coeffs + geometric_product(ek, ej).coeffs
            worst = max(worst, float(np.linalg.norm(anti - Multivector.scalar(dim, 2.0 * (j == k)).coeffs)))
    return worst


@pytest.mark.parametrize("dim", [3, 7])
@pytest.mark.parametrize("flip", [False, True])
def test_batched_anticommutation_equals_a_per_pair_loop(monkeypatch, dim, flip):
    if flip:
        flip_kernel_sign(monkeypatch, 1, 3)  # the sign of e_1 e_2
    batched = check_generator_anticommutation(dim).residual
    assert batched == anticommutation_by_loop(dim)
    assert (batched > 0) == flip


def frame_checks_by_loop(lam):
    """(subalgebra, squares, anticommutation, ordered product) residuals of the
    lam frame, one Multivector product per pair of its bivectors."""
    beta = [Multivector(3, float(lam) * contract(Multivector.volume(3), Multivector.basis_vector(3, j)).coeffs)
            for j in (1, 2, 3)]
    subalgebra = squares = anti = 0.0
    for j in range(1, 4):
        for k in range(1, 4):
            got = geometric_product(beta[j - 1], beta[k - 1])
            if j == k:
                squares = max(squares, distance(got, Multivector.scalar(3, -1.0)))
                continue
            l = 6 - j - k
            eps = (j - k) * (k - l) * (l - j) // 2  # the Levi-Civita symbol eps_jkl
            subalgebra = max(subalgebra, float(np.linalg.norm(got.coeffs - float(-lam * eps) * beta[l - 1].coeffs)))
            anti = max(anti, float(np.linalg.norm(got.coeffs + geometric_product(beta[k - 1], beta[j - 1]).coeffs)))
    ordered = geometric_product(geometric_product(beta[0], beta[1]), beta[2])
    return max(subalgebra, squares), squares, anti, distance(ordered, Multivector.scalar(3, float(lam)))


def vector_basis_flip_by_loop():
    ex, ez = Multivector.basis_vector(3, 1), Multivector.basis_vector(3, 3)
    ey = Multivector(3, -1.0 * Multivector.basis_vector(3, 2).coeffs)
    I_flipped = geometric_product(geometric_product(ex, ey), ez)
    beta = [contract(I_flipped, v) for v in (ex, ey, ez)]
    prod = geometric_product(geometric_product(beta[0], beta[1]), beta[2])
    return max(distance(prod, Multivector.scalar(3, 1.0)),
               float(np.linalg.norm(I_flipped.coeffs + Multivector.volume(3).coeffs)))


#: Which of (subalgebra, squares, anticommutation, ordered product, vector-basis
#: flip) fail under a kernel sign flip at index-table entry (i, k).
FRAME_FLIPS = {
    None: (False, False, False, False, False),
    (3, 0): (True, True, False, True, True),  # e12 e12 = +1: beta_3 squares to +1
    (7, 6): (True, False, False, True, True),  # I . e1 = -e23: beta_1 changes sign
}


@pytest.mark.parametrize("flip", FRAME_FLIPS)
def test_frame_table_checks_equal_per_pair_loops(monkeypatch, flip):
    if flip:
        flip_kernel_sign(monkeypatch, *flip)
    flip_residual = check_vector_basis_flip().residual
    assert flip_residual == vector_basis_flip_by_loop()
    for lam in (1, -1):
        frame = _frame_table(_frame_coeffs(lam))
        batched = (
            check_frame_subalgebra(lam, frame, 0.0).residual,
            check_frame_squares(lam, frame).residual,
            check_frame_anticommutation(lam, frame).residual,
            check_ordered_product(lam, frame).residual,
        )
        assert batched == frame_checks_by_loop(lam)
        assert tuple(r > 0 for r in (*batched, flip_residual)) == FRAME_FLIPS[flip]


def test_naive_path_shares_no_code_with_the_product_kernel():
    for fn in (identities._naive_factors, identities._naive_table, identities._naive_product):
        body = inspect.getsource(fn)
        for name in ("_tables", "_gather_index", "grade_of", "_product"):
            assert not re.search(rf"\b{name}\b", body), f"{fn.__name__} names {name}"
