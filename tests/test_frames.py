"""Oriented frame tests: handedness, subalgebras, duality, abstract/embedded match."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsphere import frames
from cliffsphere.frames import (
    ORIENTATIONS,
    _VOLUME3,
    AbstractElement,
    OrientationMixError,
    _abstract_products,
    _duality_residuals,
    _frame_coeffs,
    _scores,
    _structure_coeffs,
    abstract_product,
    hidden_basis,
)
from cliffsphere.identities import check_combined_identity, run_identity_checks
from cliffsphere.multivector import (
    Multivector,
    _cross,
    _product,
    _vector_coeffs,
    contract,
    geometric_product,
    scalar_part,
    unit_vector,
    wedge,
)

from .oracles import abstract_coeffs, abstract_to_embedded, basis_vector, grade_part, norm, standard_score

EPS = {
    (1, 2): 3,
    (2, 3): 1,
    (3, 1): 2,
}


def eps_sign(j, k):
    """(epsilon_jkl, l) for j != k, 1-based indices."""
    if (j, k) in EPS:
        return 1, EPS[(j, k)]
    return -1, EPS[(k, j)]


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def frame(lam):
    """beta_1..beta_3 of the lam frame as `Multivector`s, from the
    coefficients that the identity suite reads."""
    return [Multivector(3, row) for row in _frame_coeffs(lam)]


# -- frames ---------------------------------------------------------------------


@pytest.mark.parametrize("lam", [1, -1])
def test_frame_squares_to_minus_one(lam):
    for b in frame(lam):
        sq = geometric_product(b, b)
        assert np.array_equal(sq.coeffs, Multivector.blade(3, 0, -1.0).coeffs)


@pytest.mark.parametrize("lam", [1, -1])
def test_frame_anticommutes(lam):
    beta = frame(lam)
    for j in range(3):
        for k in range(3):
            if j == k:
                continue
            anti = geometric_product(beta[j], beta[k]).coeffs + geometric_product(beta[k], beta[j]).coeffs
            assert np.linalg.norm(anti) == 0.0


@pytest.mark.parametrize("lam", [1, -1])
def test_ordered_product_detects_handedness_exactly(lam):
    bx, by, bz = frame(lam)
    got = geometric_product(geometric_product(bx, by), bz)
    assert np.array_equal(got.coeffs, Multivector.blade(3, 0, float(lam)).coeffs)


@pytest.mark.parametrize("lam", [1, -1])
def test_frame_subalgebra_structure_constants(lam):
    # beta_j beta_k = -delta_jk - lam * eps_jkl * beta_l in the embedded frame
    beta = frame(lam)
    for j in range(1, 4):
        for k in range(1, 4):
            got = geometric_product(beta[j - 1], beta[k - 1])
            if j == k:
                want = Multivector.blade(3, 0, -1.0).coeffs
            else:
                s, l = eps_sign(j, k)
                want = (-lam * s) * beta[l - 1].coeffs
            assert np.linalg.norm(got.coeffs - want) == 0.0


def test_left_frame_satisfies_plus_epsilon_subalgebra():
    # the lam = -1 frame realizes beta_j beta_k = -delta_jk + eps_jkl beta_l
    beta = frame(-1)
    for j in range(1, 4):
        for k in range(1, 4):
            if j == k:
                continue
            got = geometric_product(beta[j - 1], beta[k - 1])
            s, l = eps_sign(j, k)
            want = float(s) * beta[l - 1].coeffs
            assert np.linalg.norm(got.coeffs - want) < 1e-12


def test_vector_basis_flip_leaves_bivector_handedness_unchanged():
    # flip e_y -> -e_y: the volume element flips to -I, but the rebuilt
    # bivector frame keeps ordered product +1
    ex = basis_vector(3, 1)
    ey = Multivector.blade(3, 0b010, -1.0)
    ez = basis_vector(3, 3)
    I_flipped = geometric_product(geometric_product(ex, ey), ez)
    assert np.array_equal(I_flipped.coeffs, -Multivector.volume(3).coeffs)
    beta = [contract(I_flipped, v) for v in (ex, ey, ez)]
    prod = geometric_product(geometric_product(beta[0], beta[1]), beta[2])
    assert np.array_equal(prod.coeffs, Multivector.blade(3, 0, 1.0).coeffs)


def test_bivector_basis_flip_flips_handedness():
    flipped = [Multivector(3, -row) for row in _frame_coeffs(1)]
    prod = geometric_product(geometric_product(flipped[0], flipped[1]), flipped[2])
    assert np.array_equal(prod.coeffs, Multivector.blade(3, 0, -1.0).coeffs)


def test_orientation_validation():
    with pytest.raises(ValueError, match="orientation"):
        hidden_basis(0)
    with pytest.raises(ValueError, match="orientation"):
        hidden_basis([1, 0])
    with pytest.raises(ValueError, match="orientation"):
        AbstractElement(0.0, (1.0, 0.0, 0.0), lam=2)


# -- abstract algebra -------------------------------------------------------------


def test_abstract_identity_element():
    one = AbstractElement(1.0, (0.0, 0.0, 0.0), -1)
    x = AbstractElement(0.3, (0.1, -0.2, 0.7), -1)
    got = abstract_product(one, x)
    assert np.array_equal(abstract_coeffs(got), abstract_coeffs(x))
    assert np.array_equal(abstract_coeffs(abstract_product(x, one)), abstract_coeffs(x))


def test_abstract_beta_squares():
    for lam in (1, -1):
        bx = AbstractElement(0.0, (1.0, 0.0, 0.0), lam)
        got = abstract_product(bx, bx)
        assert np.array_equal(abstract_coeffs(got), np.array([-1.0, 0.0, 0.0, 0.0]))


def test_abstract_bx_by_left_handed_gives_plus_bz():
    # lam = -1: beta_x beta_y = -(-1) eps_xyz beta_z = +beta_z;
    # oracle: embedded frame product in the lam = -1 frame
    bx = AbstractElement(0.0, (1.0, 0.0, 0.0), -1)
    by = AbstractElement(0.0, (0.0, 1.0, 0.0), -1)
    got = abstract_product(bx, by)
    assert np.array_equal(abstract_coeffs(got), np.array([0.0, 0.0, 0.0, 1.0]))
    beta = frame(-1)
    embedded = geometric_product(beta[0], beta[1])
    assert np.linalg.norm(embedded.coeffs - beta[2].coeffs) == 0.0


def test_mixed_orientation_rejected():
    x = AbstractElement(0.0, (1.0, 0.0, 0.0), 1)
    y = AbstractElement(0.0, (1.0, 0.0, 0.0), -1)
    with pytest.raises(OrientationMixError):
        abstract_product(x, y)
    with pytest.raises(OrientationMixError):
        abstract_to_embedded(x, -1, _frame_coeffs(-1))


@pytest.mark.parametrize("lam", [1, -1])
def test_standard_score_squares_to_minus_one(lam):
    # oracle: embedded computation through the orientation's frame
    rng = np.random.default_rng(3 + lam)
    beta = _frame_coeffs(lam)
    for _ in range(100):
        a = random_unit(rng)
        s = standard_score(a, lam)
        sq = abstract_product(s, s)
        assert np.linalg.norm(abstract_coeffs(sq) - np.array([-1.0, 0, 0, 0])) < 1e-12
        emb = abstract_to_embedded(s, lam, beta)
        emb_sq = geometric_product(emb, emb)
        assert np.linalg.norm(emb_sq.coeffs - Multivector.blade(3, 0, -1.0).coeffs) < 1e-12


def test_standard_score_definition_and_unit_check():
    # the builder the estimators and the suite share, on a row checked and
    # renormalized by `unit_vector` first, as the estimators do: lam = +1, then -1
    ez = np.array([unit_vector([0.0, 0.0, 1.0])])
    assert _scores(ez).T.tolist() == [[0.0, 0.0, 0.0, 1.0], [0.0, -0.0, -0.0, -1.0]]
    with pytest.raises(ValueError, match="unit vector"):
        unit_vector([0.5, 0.0, 0.0])


def test_score_product_expands_to_dot_and_cross():
    # {lam a.beta}{lam b.beta} = -a.b - lam (a x b).beta
    rng = np.random.default_rng(9)
    for lam in (1, -1):
        for _ in range(300):
            a, b = random_unit(rng), random_unit(rng)
            got = abstract_product(standard_score(a, lam), standard_score(b, lam))
            want = np.concatenate(([-np.dot(a, b)], -lam * np.cross(a, b)))
            assert np.linalg.norm(abstract_coeffs(got) - want) < 1e-12


@pytest.mark.parametrize("lam", [1, -1])
def test_score_coeffs_columns_equal_single_standard_scores(lam):
    # the batched builder of the estimators and the identity suite against
    # the single-direction reference, on rows normalized one by one as the
    # callers do
    rng = np.random.default_rng(24)
    ns = rng.normal(size=(200, 3))
    ns /= np.linalg.norm(ns, axis=1, keepdims=True)
    both = _scores(np.array([unit_vector(n) for n in ns]))
    assert both.shape == (4, 400)
    got = both.reshape(4, 2, 200)[:, ORIENTATIONS.index(lam)]
    for i, n in enumerate(ns):
        assert np.array_equal(got[:, i], abstract_coeffs(standard_score(n, lam)))


def test_score_product_lambda_plus_one_spec_example():
    rng = np.random.default_rng(21)
    a, b = random_unit(rng), random_unit(rng)
    got = abstract_product(standard_score(a, 1), standard_score(b, 1))
    assert abs(got.c0 - (-np.dot(a, b))) < 1e-15
    assert np.linalg.norm(np.asarray(got.c) - (-np.cross(a, b))) < 1e-15


@pytest.mark.parametrize("m", [1, 3, 200])
def test_each_half_of_the_scores_is_zero_then_lam_n_bit_for_bit(m):
    # the orientation of a score cancels in a product of two scores (lam**2 = 1),
    # so the identity checks cannot see a score built at the wrong lam: read it here
    n = np.random.default_rng(m).normal(size=(m, 3))
    for half, lam in zip(np.split(_scores(n), 2, axis=1), ORIENTATIONS):
        assert half.tobytes() == np.vstack([np.zeros(m), (lam * n).T]).tobytes()


# -- duality and the combined identity ----------------------------------------------


@pytest.mark.parametrize("lam", [1, -1])
def test_duality_residual_vanishes(lam):
    rng = np.random.default_rng(40 + lam)
    side = ORIENTATIONS.index(lam)
    for _ in range(300):
        a, b = random_unit(rng), random_unit(rng)
        assert _duality_residuals(a, b)[side] < 1e-12


def test_duality_parallel_vectors_both_sides_zero():
    a = np.array([0.6, 0.8, 0.0])
    assert _duality_residuals(a, a).tolist() == [0.0, 0.0]
    assert norm(contract(Multivector.volume(3), Multivector.from_vector(np.cross(a, a), dim=3))) == 0.0


@pytest.mark.parametrize("lam", [1, -1])
def test_duality_check_rows_match_single_pairs(lam):
    rng = np.random.default_rng(45 + lam)
    a, b = rng.normal(size=(2, 50, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    side = ORIENTATIONS.index(lam)
    rows = _duality_residuals(a, b)[side]
    assert rows.shape == (50,)
    assert rows.tolist() == [_duality_residuals(x, y)[side] for x, y in zip(a, b)]


@pytest.mark.parametrize("lam", [1, -1])
def test_combined_identity_residual(lam):
    # the suite's check runs on the basis pairs, exactly, both orientations in one batch
    side = ORIENTATIONS.index(lam)
    assert check_combined_identity(-1.0)[side] == 0.0
    # the flipped epsilon sign's residual is the one that the suite prints on this orientation's line
    lines = {r.name: r.residual for r in run_identity_checks(inject_sign_flip=True)}
    assert check_combined_identity(1.0)[side] == lines[f"combined orientation identity (lam={lam:+d})"] > 0.0


def test_combined_identity_degenerate_cases():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    # perpendicular: scalar part of the product is 0
    got = abstract_product(standard_score(a, 1), standard_score(b, 1))
    assert got.c0 == 0.0
    # parallel: both sides are the scalar -1, at either orientation
    for lam in (1, -1):
        got = abstract_product(standard_score(a, lam), standard_score(a, lam))
        assert np.array_equal(abstract_coeffs(got), np.array([-1.0, 0, 0, 0]))


# -- isomorphism between the representations ------------------------------------------


@pytest.mark.parametrize("lam", [1, -1])
def test_abstract_product_matches_embedded_frame(lam):
    # the map beta_j -> lam * (I . e_j) carries abstract_product to the
    # geometric product
    rng = np.random.default_rng(60 + lam)
    beta = _frame_coeffs(lam)
    for _ in range(200):
        x = AbstractElement(rng.normal(), tuple(rng.normal(size=3)), lam)
        y = AbstractElement(rng.normal(), tuple(rng.normal(size=3)), lam)
        abstract = abstract_product(x, y)
        embedded = geometric_product(
            abstract_to_embedded(x, lam, beta), abstract_to_embedded(y, lam, beta)
        )
        assert np.linalg.norm(abstract_to_embedded(abstract, lam, beta).coeffs - embedded.coeffs) < 1e-12


def test_embedded_elements_are_even_grade():
    x = AbstractElement(0.5, (0.1, 0.2, 0.3), 1)
    emb = abstract_to_embedded(x, 1, _frame_coeffs(1))
    assert np.linalg.norm(emb.coeffs - grade_part(emb, 0).coeffs - grade_part(emb, 2).coeffs) == 0.0


# -- hidden basis ----------------------------------------------------------------------


@pytest.mark.parametrize("lam", [1, -1])
def test_hidden_basis_volume_sign(lam):
    rows = hidden_basis(lam)
    assert rows.shape == (8, 8)
    vol = Multivector(3, rows[-1])
    assert scalar_part(contract(vol, vol)) == -1.0
    # exactly one volume-grade element, the last, carrying the orientation sign
    assert rows[:, 0b111].tolist() == [0.0] * 7 + [float(lam)]


def hidden_basis_by_wedges(lam):
    """The hidden basis as it was built before its bivectors were one batch:
    three public wedges of the basis vectors."""
    ex, ey, ez = (basis_vector(3, j) for j in (1, 2, 3))
    return (Multivector.blade(3, 0, 1.0), ex, ey, ez, wedge(ex, ey), wedge(ey, ez), wedge(ez, ex),
            Multivector(3, float(lam) * _VOLUME3))


@pytest.mark.parametrize("lam", [1, -1])
def test_hidden_basis_has_the_bits_of_three_public_wedges(lam):
    got, want = hidden_basis(lam), hidden_basis_by_wedges(lam)
    assert [row.tobytes() for row in got] == [b.coeffs.tobytes() for b in want]


def test_both_hidden_bases_are_one_read_only_table_from_one_wedge(monkeypatch):
    real, calls = frames._product, []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(frames, "_product", counted)
    table = hidden_basis(ORIENTATIONS)
    assert calls == ["wedge"]
    assert table.shape == (2, 8, 8)
    assert table.tobytes() == np.stack([hidden_basis(lam) for lam in ORIENTATIONS]).tobytes()
    for rows in (table, hidden_basis(1)):
        assert not rows.flags.writeable


def duality_by_orientation(a, b, lam):
    """The duality residual as it was built before the orientations were one
    batch: one wedge minus one contraction of this orientation's trivector."""
    a, b = unit_vector(a), unit_vector(b)
    lhs = _product("wedge", _vector_coeffs(a, 3), _vector_coeffs(b, 3))
    rhs = float(lam) * _product("contract", float(lam) * _VOLUME3, _vector_coeffs(_cross(a, b), 3))
    return np.linalg.norm(lhs - rhs, axis=-1)


def unit_pairs(kind):
    """The 9 ordered pairs of basis vectors, or 200 random pairs of unit vectors."""
    if kind == "basis":
        eye = np.eye(3)
        return np.repeat(eye, 3, axis=0), np.tile(eye, (3, 1))
    a, b = np.random.default_rng(61).normal(size=(2, 200, 3))
    return a / np.linalg.norm(a, axis=1, keepdims=True), b / np.linalg.norm(b, axis=1, keepdims=True)


@pytest.mark.parametrize("kind", ["basis", "random"])
def test_duality_check_has_the_bits_of_a_wedge_minus_a_contraction(kind):
    a, b = unit_pairs(kind)
    # both orientations in the identity suite's one batch, row 0 for lam = +1
    both = _duality_residuals(a, b)
    for side, lam in enumerate(ORIENTATIONS):
        want = duality_by_orientation(a, b, lam)
        assert both[side].tobytes() == want.tobytes()
        for x, y, residual in zip(a, b, want):
            one = _duality_residuals(x, y)[side]
            assert one.tobytes() == duality_by_orientation(x, y, lam).tobytes() == residual.tobytes()


# The identity suite proves these bilinear identities on the basis pairs; the
# tests below keep a random pair on the package functions themselves.


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1, -1]))
def test_duality_and_identity_hold_for_arbitrary_unit_pairs(seed, lam):
    rng = np.random.default_rng(seed)
    a, b = random_unit(rng), random_unit(rng)
    side = ORIENTATIONS.index(lam)
    assert _duality_residuals(a, b)[side] < 1e-12
    # (mu.a)(mu.b) = -a.b - mu.(a x b) in the abstract algebra
    got = _abstract_products(_scores(a[None]), _scores(b[None]), -1.0)[side, 0]
    want = np.concatenate(([-np.dot(a, b)], -lam * np.cross(a, b)))
    assert np.linalg.norm(got - want) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1, -1]))
def test_embedded_score_expansion_holds_for_arbitrary_unit_pairs(seed, lam):
    # {a_j beta_j}{b_k beta_k} = -a.b - lam (a x b).beta in the lam frame
    rng = np.random.default_rng(seed)
    a, b = random_unit(rng), random_unit(rng)
    beta = _frame_coeffs(lam)
    got = _product("geometric", a @ beta, b @ beta)
    want = -np.dot(a, b) * Multivector.blade(3, 0, 1.0).coeffs - lam * np.cross(a, b) @ beta
    assert np.linalg.norm(got - want) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1, -1]))
def test_abstract_embedded_isomorphism_holds_for_arbitrary_pairs(seed, lam):
    # the map 1, beta_j -> the frame carries `_structure_coeffs` to the geometric product
    x, y = np.random.default_rng(seed).normal(size=(2, 4))
    M = np.stack([Multivector.blade(3, 0, 1.0).coeffs, *_frame_coeffs(lam)], axis=1)
    abstract = M @ np.array(_structure_coeffs(x, y, -lam))
    assert np.linalg.norm(abstract - _product("geometric", M @ x, M @ y)) < 1e-12
