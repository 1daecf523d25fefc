"""7-sphere tests: Fano trivector, embeddings, raw/standard score structure."""

import inspect
import math

import numpy as np
import pytest

from cliffsphere import seven_sphere
from cliffsphere.multivector import (
    Multivector,
    blade_label,
    contract,
    geometric_product,
    grade_norms,
    grade_part,
    norm,
    reversion,
    scalar_part,
)
from cliffsphere.seven_sphere import (
    Embedding,
    J_TRIPLES,
    SevenTrivector,
    build_J,
    embed,
    raw_score_7,
    standard_score_7,
)

from .oracles import flip_kernel_sign, naive_contract, naive_grade_filter, naive_product

E1 = np.array([1.0, 0.0, 0.0])


def mask_of(*indices):
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# -- the trivector J --------------------------------------------------------------


def J_blades():
    expected = np.zeros(128)
    for triple in J_TRIPLES:
        expected[mask_of(*triple)] += 1.0
    return expected


def test_J_matches_blade_list_exactly():
    J = build_J().value
    assert np.array_equal(J.coeffs, J_blades())
    # all seven coefficients are +1: every cyclic triple sorts with an even
    # permutation
    assert np.all(J.coeffs[np.nonzero(J.coeffs)] == 1.0)


def test_J_is_pure_grade_three():
    J = build_J().value
    assert np.array_equal(J.coeffs, grade_part(J, 3).coeffs)


def test_J_reversion_flips_sign():
    # grade-3 reversion sign is (-1)^(3*2/2) = -1; oracle: reversion op
    J = build_J().value
    assert np.array_equal(reversion(J).coeffs, -J.coeffs)


def test_J_build_is_idempotent():
    # built once per process and shared: every caller gets the same value,
    # whose coefficients no caller can change
    J = build_J()
    assert build_J() is J
    assert not J.value.coeffs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        J.value.coeffs[0] = 1.0
    # a plain function, which a tracer that wraps functions can count
    assert inspect.isfunction(build_J)


def test_kernel_canary_reaches_J(monkeypatch):
    # J comes from kernel products: a flipped sign of e1 e2 turns its first
    # blade e1 e2 e4 negative, which the trivector's validation refuses
    flip_kernel_sign(monkeypatch, 1, 3)
    with pytest.raises(ValueError, match="7 unit coefficients"):
        build_J()


def test_kernel_canary_leaves_the_process_J_alone():
    # the canary builds J in a cache of its own: it neither reads the
    # process cache nor leaves anything in it
    J, cache = build_J(), seven_sphere._build_J
    before = cache.cache_info()
    with pytest.MonkeyPatch.context() as patch:
        flip_kernel_sign(patch, 1, 3)
        with pytest.raises(ValueError, match="7 unit coefficients"):
            build_J()
    assert cache.cache_info() == before
    assert build_J() is J
    assert np.array_equal(J.value.coeffs, J_blades())


def test_seven_trivector_validation():
    with pytest.raises(ValueError, match="grade 3"):
        SevenTrivector(Multivector.basis_vector(7, 1))
    with pytest.raises(ValueError, match="7 unit"):
        SevenTrivector(Multivector.blade(7, mask_of(1, 2, 4)))


def test_contract_J_with_e1_fano_line():
    # hand expansion: J . e1 = e2 e4 + e5 e6 + e3 e7; oracle: naive multiplier
    # with grade filter
    J = build_J().value
    got = contract(J, Multivector.basis_vector(7, 1))
    want = naive_grade_filter(
        naive_product(J.coeffs, Multivector.basis_vector(7, 1).coeffs), 2
    )
    assert np.array_equal(got.coeffs, want)
    expected = np.zeros(128)
    for pair in ((2, 4), (5, 6), (3, 7)):
        expected[mask_of(*pair)] = 1.0
    assert np.array_equal(got.coeffs, expected)


def test_contract_J_with_every_generator_has_three_terms():
    # Fano incidence: every point lies on exactly 3 lines
    J = build_J().value
    for k in range(1, 8):
        got = contract(J, Multivector.basis_vector(7, k))
        assert np.array_equal(got.coeffs, grade_part(got, 2).coeffs)
        assert np.count_nonzero(got.coeffs) == 3
        assert np.all(np.abs(got.coeffs[np.nonzero(got.coeffs)]) == 1.0)


# -- embeddings ---------------------------------------------------------------------


def test_default_embedding_pads_with_zeros():
    n = embed(E1)
    assert np.array_equal(n, np.array([1.0, 0, 0, 0, 0, 0, 0]))
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = random_unit(rng)
        assert abs(np.linalg.norm(embed(a)) - 1.0) < 1e-12


def test_user_embedding_applies_isometry():
    m = np.zeros((7, 3))
    m[4, 0] = 1.0
    m[5, 1] = 1.0
    m[6, 2] = 1.0
    e = Embedding(m)
    got = embed(np.array([0.0, 1.0, 0.0]), e)
    assert np.array_equal(got, np.array([0, 0, 0, 0, 0, 1.0, 0]))
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = random_unit(rng)
        assert abs(np.linalg.norm(embed(a, e)) - 1.0) < 1e-12


def test_non_orthonormal_embedding_rejected():
    with pytest.raises(ValueError, match="orthonormal"):
        Embedding(np.ones((7, 3)))
    with pytest.raises(ValueError, match="7x3"):
        Embedding(np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_embedding_rejected(bad):
    # NaN compares False with the orthonormality bound, so it needs its own check
    m = np.eye(7, 3)
    m[4, 1] = bad
    for matrix in (m, np.full((7, 3), bad)):
        with pytest.raises(ValueError, match="finite"):
            Embedding(matrix)


def test_embed_requires_unit_input():
    with pytest.raises(ValueError, match="unit vector"):
        embed(np.array([2.0, 0.0, 0.0]))


# -- scores -------------------------------------------------------------------------


def test_standard_score_e1_value_and_norm():
    got = standard_score_7(E1, 1)
    expected = np.zeros(128)
    for pair in ((2, 4), (5, 6), (3, 7)):
        expected[mask_of(*pair)] = 1.0
    assert np.array_equal(got.coeffs, expected)
    assert abs(norm(got) - math.sqrt(3)) < 1e-15


def test_standard_score_flips_with_orientation():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = random_unit(rng)
        plus = standard_score_7(a, 1)
        minus = standard_score_7(a, -1)
        assert np.array_equal(minus.coeffs, -plus.coeffs)


def test_raw_score_e1_scalar_part_is_three():
    # -lam (J.e1)^2 with (J.e1)^2 = -3 + cross terms; oracle: full Cl(7,0)
    # evaluation below
    report = raw_score_7(E1, 1)
    assert scalar_part(report) == 3.0
    assert grade_norms(report)[0] == 3.0


def test_raw_score_e1_grade_four_cross_terms_survive():
    # the three disjoint bivectors commute, so their products appear at
    # grade 4: value = 3 - 2 e2456 + 2 e2347 - 2 e3567 for lam = +1
    report = raw_score_7(E1, 1)
    expected = np.zeros(128)
    expected[0] = 3.0
    expected[mask_of(2, 4, 5, 6)] = -2.0
    expected[mask_of(2, 3, 4, 7)] = 2.0
    expected[mask_of(3, 5, 6, 7)] = -2.0
    assert np.max(np.abs(report.coeffs - expected)) < 1e-12
    assert grade_norms(report)[4] == pytest.approx(2 * math.sqrt(3))
    for g in (1, 2, 3, 5, 6, 7):
        assert grade_norms(report)[g] == 0.0


def test_raw_score_matches_naive_oracle_on_random_directions():
    # oracle: naive Cl(7,0) contraction and product
    rng = np.random.default_rng(4)
    J = build_J().value
    for _ in range(100):
        a = random_unit(rng)
        lam = 1 if rng.random() < 0.5 else -1
        report = raw_score_7(a, lam)
        n = embed(a)
        jn = naive_contract(J.coeffs, Multivector.from_vector(n, dim=7).coeffs)
        want = naive_product(-jn, lam * jn)
        assert np.max(np.abs(report.coeffs - want)) < 1e-12


def test_raw_score_orientation_enters_only_as_global_sign():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = random_unit(rng)
        plus = raw_score_7(a, 1)
        minus = raw_score_7(a, -1)
        assert np.array_equal(minus.coeffs, -plus.coeffs)


def test_raw_score_depends_on_direction_only_through_embedding():
    m = np.zeros((7, 3))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    m[2, 2] = 1.0
    e = Embedding(m)
    a = np.array([0.6, 0.0, 0.8])
    assert np.array_equal(
        raw_score_7(a, 1).coeffs, raw_score_7(a, 1, e).coeffs
    )
    b = np.array([0.0, 1.0, 0.0])
    assert not np.array_equal(
        raw_score_7(a, 1).coeffs, raw_score_7(b, 1).coeffs
    )


def test_blade_label_for_report_keys():
    assert blade_label(mask_of(2, 4)) == "e24"
    assert blade_label(0) == "1"
