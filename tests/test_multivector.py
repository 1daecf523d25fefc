"""Core algebra tests: blade products, wedge/contraction, rotors, rendering."""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cliffsphere import multivector
from cliffsphere.multivector import (
    Multivector,
    contract,
    geometric_product,
    grade_norms,
    render,
    scalar_part,
    unit_vector,
    wedge,
)

from .oracles import (
    basis_vector,
    flip_kernel_sign,
    grade_part,
    naive_contract,
    naive_grade_filter,
    naive_product,
    naive_wedge,
    norm,
    rotation_matrix_2d,
    series_exp,
    sign_table_product,
)

ROOT = Path(__file__).resolve().parents[1]

e = basis_vector


def random_unit(rng, k=3):
    v = rng.normal(size=k)
    return v / np.linalg.norm(v)


def mv_close(x, y, tol=1e-12):
    return np.linalg.norm(x.coeffs - y.coeffs) <= tol


# -- geometric product ---------------------------------------------------------


def test_generator_squares_to_one():
    for dim in (1, 3, 7):
        for j in range(1, dim + 1):
            sq = geometric_product(e(dim, j), e(dim, j))
            assert np.array_equal(sq.coeffs, Multivector.blade(dim, 0, 1.0).coeffs)


def test_volume_element_squares_to_minus_one_in_cl30():
    I = Multivector.volume(3)
    sq = geometric_product(I, I)
    assert np.array_equal(sq.coeffs, Multivector.blade(3, 0, -1.0).coeffs)


def test_e124_times_e1_in_cl70():
    # oracle: naive blade-by-blade multiplier
    x = geometric_product(geometric_product(e(7, 1), e(7, 2)), e(7, 4))
    got = geometric_product(x, e(7, 1))
    expected = naive_product(x.coeffs, e(7, 1).coeffs)
    assert np.array_equal(got.coeffs, expected)
    # frozen value from the oracle: + e2 e4
    want = geometric_product(e(7, 2), e(7, 4))
    assert np.array_equal(got.coeffs, want.coeffs)


def test_anticommutation_exact():
    for dim in (3, 7):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                anti = (geometric_product(e(dim, j), e(dim, k)).coeffs
                        + geometric_product(e(dim, k), e(dim, j)).coeffs)
                want = Multivector.blade(dim, 0, 2.0 if j == k else 0.0)
                assert np.array_equal(anti, want.coeffs)


@pytest.mark.parametrize("dim,n_triples,rel_tol", [(3, 500, 1e-10), (7, 500, 1e-10)])
def test_associativity_random_triples(dim, n_triples, rel_tol):
    rng = np.random.default_rng(2024 + dim)
    for _ in range(n_triples):
        x, y, z = (Multivector(dim, rng.normal(size=1 << dim)) for _ in range(3))
        lhs = geometric_product(geometric_product(x, y), z)
        rhs = geometric_product(x, geometric_product(y, z))
        bound = rel_tol * norm(x) * norm(y) * norm(z)
        assert np.linalg.norm(lhs.coeffs - rhs.coeffs) < bound


@pytest.mark.parametrize("dim,n_pairs", [(1, 50), (2, 100), (3, 200), (4, 200), (5, 200), (6, 100), (7, 200), (8, 40)])
def test_fast_product_matches_naive_oracle(dim, n_pairs):
    rng = np.random.default_rng(7 * dim + 1)
    for _ in range(n_pairs):
        x = Multivector(dim, rng.normal(size=1 << dim))
        y = Multivector(dim, rng.normal(size=1 << dim))
        got = geometric_product(x, y)
        want = naive_product(x.coeffs, y.coeffs)
        assert np.max(np.abs(got.coeffs - want)) < 1e-12


PRODUCTS = {"geometric": geometric_product, "wedge": wedge, "contract": contract}
NAIVE = {"geometric": naive_product, "wedge": naive_wedge, "contract": naive_contract}


#: Nonzero blades of the Fano trivector J in Cl(7,0).
J_MASKS = [11, 22, 44, 49, 69, 88, 98]


def signed_zeros(rng, shape):
    """+0.0 and -0.0 at random."""
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


def assert_kernel_is_the_sign_table(kind, x, y, rng):
    """The batch x, y, with its single rows, broadcast rows and derived
    batches, gives the float sign-table formula bit for bit."""
    n, size = x.shape
    dim = size.bit_length() - 1
    grades, masks = multivector._tables(dim)[2], np.arange(size)
    for v in (x, y):
        assert len(set(np.signbit(v[v == 0]))) == 2  # both zeros occur
    single = [PRODUCTS[kind](Multivector(dim, a), Multivector(dim, b)).coeffs for a, b in zip(x, y)]
    batch = multivector._product(kind, x, y)
    assert batch.shape == (n, size)
    assert all(row.tobytes() == s.tobytes() for row, s in zip(batch, single))
    # the kernel is the float sign-table formula bit for bit: on batches, on
    # single rows, and with a row broadcast on either side.  With all-zero
    # inputs every term of the wedge's scalar column is -0.0, and the
    # formula's sum from +0.0 still gives +0.0.
    z = np.full(size, -0.0)
    cases = [(x, y), (x[0], y), (x, y[-1]), (x[:1], y), (x, y[:1]),
             (z, -z), (z, y), (np.tile(z, (n, 1)), -z)]
    # empty batches, and all-zero batched left factors with ±0.0
    cases += [(x[:0], y[:0]), (x[0], y[:0]), (x[:0], y[0]), (signed_zeros(rng, (n, size)), y)]
    # batches whose nonzero blades differ from row to row, all among the
    # blades of grade <= 2 (at most half of them from Cl(6) on), with ±0.0
    # on both sides
    for rows in (3, n):
        a = np.where((grades <= 2) & (rng.random((rows, size)) < 0.4),
                     rng.normal(size=(rows, size)), signed_zeros(rng, (rows, size)))
        b = np.where(rng.random((rows, size)) < 0.7, rng.normal(size=(rows, size)),
                     signed_zeros(rng, (rows, size)))
        cases += [(a, b), (a, b[0])]
    # sparse single left factors, which skip their zero blades from
    # `_SKIP_ZEROS_FROM` blades on: a vector, a bivector, the blades of J
    # that fit, and all zeros, with -0.0 on some zero blades, against a
    # single right factor and broadcast over a batch
    for nz in (grades == 1, grades == 2, np.isin(masks, J_MASKS), masks < 0):
        cases.append((np.where(nz, y[1 % n], signed_zeros(rng, size)), y[-1]))
        cases.append((cases[-1][0], y))
    for a, b in cases + list(zip(x[:3], y[:3])):
        got, want = multivector._product(kind, a, b), sign_table_product(kind, a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for row, a, b in list(zip(batch, x, y))[:2]:
        assert np.max(np.abs(row - NAIVE[kind](a, b))) < 1e-12


@pytest.mark.parametrize("kind", sorted(PRODUCTS))
@pytest.mark.parametrize("dim", range(1, 9))
def test_batched_kernel_rows_equal_single_products(dim, kind):
    size = 1 << dim
    rng = np.random.default_rng(100 * dim + len(kind))
    dense = multivector._chunk_rows(size * size)
    # Batches on both sides of the layout switch.  Rows run outer in a dense
    # batch shorter than 2**n (one chunk) and in every Cl(5)-Cl(8) batch;
    # blades outer in a dense Cl(1)-Cl(4) batch past a chunk.  From Cl(6)
    # on, a batch whose left factor has four nonzero blade columns takes the
    # zero skip, in chunks of more rows.  Each batch but the one-chunk ones
    # ends in a partial chunk of one row.
    batches = [(size - 1 if dense >= size else dense + 1, np.full(size, True))]
    if dense >= size:
        batches.append((dense + 1, np.full(size, True)))
    if size >= multivector._SKIP_ZEROS_FROM:
        vectors = np.isin(np.arange(size), (1, 2, 4, 8))
        batches.append((multivector._chunk_rows(4 * size) + 1, vectors))
    layouts = {multivector._blades_outer(n, size) for n, _ in batches}
    assert layouts == ({False, True} if dim <= 4 else {False})
    for n, columns in batches:
        x, y = rng.normal(size=(2, n, size))
        x[:, ~columns] = signed_zeros(rng, (n, size - columns.sum()))
        for v in (x, y):
            v[rng.random(v.shape) < 0.15] = 0.0
            v[rng.random(v.shape) < 0.15] = -0.0
            v[0, 0], v[-1, -1] = 0.0, -0.0
        if not columns.all():  # the skip gathers exactly these index rows
            assert np.array_equal(x.any(axis=0), columns)
        assert_kernel_is_the_sign_table(kind, x, y, rng)


@pytest.mark.parametrize("dim", [1, 3, 6, 7, 8])
@pytest.mark.parametrize("side", ["x", "y"])
def test_one_nan_coefficient_reaches_every_geometric_product_coefficient(dim, side):
    # and one inf of either sign: it makes every output ±inf, or NaN where
    # it meets a zero
    size = 1 << dim
    for bad in (np.nan, np.inf, -np.inf):
        spoiled = np.isnan if np.isnan(bad) else lambda v: ~np.isfinite(v)
        rng = np.random.default_rng(dim)
        x, y = rng.normal(size=(2, 5, size))
        x[:, 0] = 0.0  # 0 * NaN is NaN too
        (x if side == "x" else y)[2, size - 1] = bad
        with np.errstate(invalid="ignore"):
            batch = multivector._product("geometric", x, y)
            assert spoiled(batch[2]).all()
            assert np.isfinite(np.delete(batch, 2, axis=0)).all()
            assert spoiled(multivector._product("geometric", x[2], y[2])).all()
            # a bad row in a broadcast operand spoils every row it meets
            if side == "x":
                assert spoiled(multivector._product("geometric", x[2], y)).all()
            else:
                assert spoiled(multivector._product("geometric", x, y[2])).all()
            # a sparse left factor may neither skip its bad entry nor, against
            # a bad y, its zero blades
            blades = np.arange(size)
            sparse = np.where((blades % 8 == 1) | (blades == size - 1), x[2], 0.0)
            assert spoiled(multivector._product("geometric", sparse, y[2])).all()


def test_sparse_single_left_factor_reads_only_its_nonzero_rows(monkeypatch):
    # point the index rows of the upper half of the blades out of range: only
    # the skip survives that, when those blades are zero, and it is taken
    # exactly for a left factor of at least `_SKIP_ZEROS_FROM` blades, single
    # or batched, at most half of them nonzero over all its rows, against a
    # finite right factor
    real = multivector._gather_index

    def poisoned(dim, kind):
        G = real(dim, kind).copy()
        G[len(G) // 2 + 1 :] = 3 << dim
        return G

    monkeypatch.setattr(multivector, "_gather_index", poisoned)
    for dim in range(2, 9):
        size = 1 << dim
        x = np.zeros(size)
        x[:2] = [0.5, -2.0]
        # a batch whose rows have different nonzero blades, all in the lower half
        rows = np.zeros((4, size))
        rows[[0, 1, 2, 3], [0, 1, 2, size // 2]] = [1.0, -3.0, 0.25, 2.0]
        y = np.random.default_rng(dim).normal(size=(4, size))
        over_half = np.where(np.arange(size) <= size // 2, 1.0, 0.0)
        # rows each under half, their union over half
        split = np.where(np.arange(size) < size // 2, [[1.0], [0.0]], [[0.0], [1.0]])
        with_inf = np.where(y[0] == y[0, 0], np.inf, y[0])
        skipped = [(x, y[0]), (x, y), (x[None], y), (rows, y), (rows, y[0])]
        kept = [(x, with_inf), (rows, with_inf), (over_half, y[0]), (over_half, y),
                (split, y[:2]), (y[0], y[1]), (y, y)]
        for k, (a, b) in enumerate(skipped + kept):
            if size >= multivector._SKIP_ZEROS_FROM and k < len(skipped):
                want = sign_table_product("geometric", a, b)
                assert multivector._product("geometric", a, b).tobytes() == want.tobytes()
            else:
                with pytest.raises(IndexError):
                    multivector._product("geometric", a, b)


@pytest.mark.parametrize("dim,i,k", [(7, 5, 12), (8, 200, 17)])
def test_flipped_index_entry_shows_through_a_sparse_left_factor(monkeypatch, dim, i, k):
    # the kernel canary on the skip path: blade i is one of few nonzero
    # blades, so the flipped entry lies on a gathered row and changes
    # column k of the product, and nothing else
    size = 1 << dim
    rng = np.random.default_rng(i)
    x = np.zeros(size)
    x[[1, 2, i]] = rng.normal(size=3)
    y = rng.normal(size=size)
    flip_kernel_sign(monkeypatch, i, k)
    changed = multivector._product("geometric", x, y) != sign_table_product("geometric", x, y)
    assert changed[k]
    assert not np.delete(changed, k).any()


def test_batched_kernel_bounds_its_temporaries():
    rng = np.random.default_rng(3)

    def traced_product(n, dim):
        x, y = rng.normal(size=(2, n, 1 << dim))
        tracemalloc.start()
        try:
            out = multivector._product("geometric", x, y)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # unchunked, one (64, 128, 128) float temporary would be 8 MiB alone
    _, peak = traced_product(64, 7)
    assert peak < 8 * multivector._CHUNK_BYTES
    # a (10**5, 8, 8) one would be 51 MiB; blades outer, the signed copy of
    # y, twice the size of y, must be built chunk by chunk too
    out, peak = traced_product(10**5, 3)
    assert peak < out.nbytes + 8 * multivector._CHUNK_BYTES


@pytest.mark.parametrize("product", [geometric_product, wedge, contract])
def test_overflowing_product_of_finite_inputs_is_rejected(product):
    big = Multivector(3, np.full(8, 1e200))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="coefficients must be finite"
    ):
        product(big, big)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        geometric_product(e(3, 1), e(7, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        wedge(e(3, 1), e(4, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        contract(e(3, 1), e(4, 1))


# -- wedge and contraction ------------------------------------------------------


def test_wedge_of_parallel_generator_vanishes():
    z = wedge(e(3, 1), e(3, 1))
    assert np.array_equal(z.coeffs, np.zeros(8))


def test_wedge_of_orthogonal_generators_is_unit_blade():
    w = wedge(e(3, 1), e(3, 2))
    assert np.array_equal(w.coeffs, Multivector.blade(3, 0b011).coeffs)


def test_wedge_rotated_vector_closed_form():
    # a ^ b for a = e_x, b = cos(t) e_x + sin(t) e_y equals sin(t) e12;
    # oracle: grade-(r+s) projection of the geometric product
    for theta in (0.1, 0.5, 1.2, 2.9):
        a = Multivector.from_vector([1.0, 0.0, 0.0])
        b = Multivector.from_vector([math.cos(theta), math.sin(theta), 0.0])
        w = wedge(a, b)
        assert mv_close(w, Multivector.blade(3, 0b011, math.sin(theta)), 1e-15)
        proj = grade_part(geometric_product(a, b), 2)
        assert mv_close(w, proj, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_wedge_antisymmetric_on_vectors(seed):
    rng = np.random.default_rng(seed)
    a = Multivector.from_vector(rng.normal(size=3))
    b = Multivector.from_vector(rng.normal(size=3))
    assert np.linalg.norm(wedge(a, b).coeffs + wedge(b, a).coeffs) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([3, 7]))
def test_wedge_and_contract_match_naive_oracles(seed, dim):
    rng = np.random.default_rng(seed)
    x = Multivector(dim, rng.normal(size=1 << dim))
    y = Multivector(dim, rng.normal(size=1 << dim))
    assert np.max(np.abs(wedge(x, y).coeffs - naive_wedge(x.coeffs, y.coeffs))) < 1e-12
    assert (
        np.max(np.abs(contract(x, y).coeffs - naive_contract(x.coeffs, y.coeffs)))
        < 1e-12
    )


def test_contract_volume_with_generator():
    # I . e_z = e1 e2 in Cl(3,0); oracle: naive multiplier
    I = Multivector.volume(3)
    got = contract(I, e(3, 3))
    want = naive_product(I.coeffs, e(3, 3).coeffs)  # pure grade 2 already
    assert np.array_equal(got.coeffs, want)
    assert np.array_equal(got.coeffs, Multivector.blade(3, 0b011).coeffs)


def test_contract_vector_with_itself_is_scalar_one():
    got = contract(e(3, 1), e(3, 1))
    assert np.array_equal(got.coeffs, Multivector.blade(3, 0, 1.0).coeffs)


def test_vector_product_decomposes_into_contract_plus_wedge():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = Multivector.from_vector(random_unit(rng))
        b = Multivector.from_vector(random_unit(rng))
        total = contract(a, b).coeffs + wedge(a, b).coeffs
        assert np.linalg.norm(geometric_product(a, b).coeffs - total) <= 1e-12


# -- grade projection -----------------------------------------------------------
# the package projects by grade through the grade row of its Cayley tables:
# `grade_norms`, `_rotor_coeffs`' bivector check and the Fano trivector's


def test_grade_part_projects():
    x = Multivector(3, [1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])  # 1 + e1 + e12
    grades = multivector._tables(3)[2]
    assert np.array_equal(np.where(grades == 1, x.coeffs, 0.0), e(3, 1).coeffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3, 7]))
def test_grade_part_idempotent_and_complete(seed, dim):
    # oracle: the grade filter that counts each mask's generators itself
    rng = np.random.default_rng(seed)
    x = rng.normal(size=1 << dim)
    grades = multivector._tables(dim)[2]
    total = np.zeros(1 << dim)
    for g in range(dim + 1):
        p = np.where(grades == g, x, 0.0)
        assert np.array_equal(p, naive_grade_filter(x, g))
        assert np.array_equal(np.where(grades == g, p, 0.0), p)
        total = total + p
    assert np.array_equal(total, x)


def test_grade_norms_accounts_for_every_grade():
    x = Multivector(3, [3.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0])  # 3 + 4 e12
    gn = grade_norms(x)
    assert gn[0] == 3.0 and gn[2] == 4.0 and gn[1] == 0.0 and gn[3] == 0.0


# -- reversion and norm ----------------------------------------------------------


def test_reversion_signs():
    sign = multivector._reversion_sign(3)
    assert sign[0b011] == -1.0 and sign[0] == 1.0 and sign[0b010] == 1.0
    # grade 3 flips: (-1)^(3*2/2) = -1
    assert sign[0b111] == -1.0
    for dim in range(1, 9):
        want = [(-1.0) ** (g * (g - 1) // 2) for g in map(int.bit_count, range(1 << dim))]
        assert multivector._reversion_sign(dim).tolist() == want


# -- rotors -----------------------------------------------------------------------
# `_rotor_coeffs` builds every rotor of the package, one or a batch


def rotor_coeffs(B, theta):
    """exp(B theta) for the coefficients B of a unit bivector, by `math.sin`
    and `math.cos`."""
    return multivector._rotor_coeffs(B, math.sin(theta), math.cos(theta))


def test_norm_zero_and_rotor_norm():
    assert set(grade_norms(Multivector(3, np.zeros(8))).values()) == {0.0}
    B = Multivector.blade(3, 0b011).coeffs
    for theta in (0.0, 0.3, 1.0, math.pi):
        assert abs(np.linalg.norm(rotor_coeffs(B, theta)) - 1.0) < 1e-15


def test_rotor_exp_closed_form_against_series_oracle():
    B = Multivector.blade(3, 0b011).coeffs
    for theta in (0.0, 0.25, math.pi / 2, math.pi, 2.5):
        assert np.max(np.abs(rotor_coeffs(B, theta) - series_exp(B, theta))) < 1e-13


def test_rotor_exp_special_angles():
    B = Multivector.blade(3, 0b011).coeffs
    assert np.array_equal(rotor_coeffs(B, 0.0), Multivector.blade(3, 0, 1.0).coeffs)
    assert np.linalg.norm(rotor_coeffs(B, math.pi) - Multivector.blade(3, 0, -1.0).coeffs) <= 1e-15
    assert np.linalg.norm(rotor_coeffs(B, math.pi / 2) - B) <= 1e-15


def test_rotor_exp_rejects_bad_generators():
    with pytest.raises(ValueError, match="pure bivector"):
        rotor_coeffs(e(3, 1).coeffs, 0.5)
    with pytest.raises(ValueError, match="unit bivector"):
        rotor_coeffs(Multivector.blade(3, 0b011, 2.0).coeffs, 0.5)


def test_rotor_reversion_product_is_identity():
    rng = np.random.default_rng(5)
    c = np.array([random_unit(rng) for _ in range(100)])
    B = multivector._product("contract", Multivector.volume(3).coeffs, multivector._vector_coeffs(c, 3))
    theta = rng.uniform(-3, 3, 100)
    R = multivector._rotor_coeffs(B, np.sin(theta), np.cos(theta))
    residual = multivector._product("geometric", R, R * multivector._reversion_sign(3))
    residual[:, 0] -= 1.0
    assert np.max(np.linalg.norm(residual, axis=1)) <= 1e-12


def test_rotor_sandwich_rotates_by_twice_the_angle():
    # R v ~R with R = exp(B t) acts as the 2x2 matrix [[cos 2t, sin 2t],
    # [-sin 2t, cos 2t]] on the (u, w) coordinates of the B-plane (B = u w).
    rng = np.random.default_rng(17)
    for _ in range(100):
        u = random_unit(rng)
        w = rng.normal(size=3)
        w -= np.dot(w, u) * u
        w /= np.linalg.norm(w)
        B = wedge(Multivector.from_vector(u), Multivector.from_vector(w))
        theta = rng.uniform(-2, 2)
        v = rng.uniform(-1, 1) * u + rng.uniform(-1, 1) * w
        got = multivector._sandwich(rotor_coeffs(B.coeffs, theta)[None], v)[0]
        want = rotation_matrix_2d(2 * theta) @ np.array([np.dot(v, u), np.dot(v, w)])
        assert np.max(np.abs(got - (want[0] * u + want[1] * w))) < 1e-10


# -- construction and rendering ----------------------------------------------------


def test_coefficients_are_immutable():
    x = Multivector.blade(3, 0, 1.0)
    with pytest.raises(ValueError):
        x.coeffs[0] = 2.0


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        Multivector(0, np.array([1.0]))
    with pytest.raises(ValueError):
        Multivector(9, np.zeros(512))
    with pytest.raises(ValueError):
        Multivector(3, np.zeros(7))
    with pytest.raises(ValueError):
        Multivector(3, np.array([np.nan] + [0.0] * 7))


@pytest.mark.parametrize("dim", [-1, 0, 9, 40, 64])
def test_every_constructor_checks_dim_before_it_allocates(dim):
    # 2**40 coefficients would be 8 TiB, and a negative dim a negative shift
    builds = [lambda: Multivector(dim, np.zeros(1)),
              lambda: Multivector.blade(dim, 1),
              lambda: Multivector.from_vector([1.0], dim=dim),
              lambda: Multivector.volume(dim)]
    for build in builds:
        with pytest.raises(ValueError, match=r"dim must be in 1\.\.8"):
            build()


def test_render_format():
    x = Multivector(3, [1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    assert render(x) == "1.0 + 2.0*e12"
    y = Multivector(3, [0.0, 0.0, 0.0, 0.0, -1.5, 0.0, 0.0, 0.5])
    assert render(y) == "-1.5*e3 + 0.5*e123"
    assert render(Multivector(3, np.zeros(8))) == "0.0"
    cancelled = x.coeffs - Multivector.blade(3, 0b011, 2.0).coeffs - Multivector.blade(3, 0, 2.0).coeffs
    assert str(Multivector(3, cancelled)) == "-1.0"


def test_unit_vector_tolerance():
    v = unit_vector([1.0 + 5e-10, 0.0, 0.0])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15
    with pytest.raises(ValueError, match="unit vector"):
        unit_vector([1.1, 0.0, 0.0])


@pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, -np.inf, np.nan]])
def test_unit_vector_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="unit vector"):
        unit_vector(bad)
    with pytest.raises(ValueError, match="unit vector"):
        unit_vector([[1.0, 0.0, 0.0], bad])


def test_unit_vector_validates_each_row():
    rows = np.array([[1.0 + 5e-10, 0.0, 0.0], [0.0, 0.6, 0.8]])
    got = unit_vector(rows)
    assert got.shape == (2, 3)
    for g, r in zip(got, rows):
        assert np.max(np.abs(g - unit_vector(r))) < 1e-15
    with pytest.raises(ValueError, match="got norm 1.1"):
        unit_vector([[1.0, 0.0, 0.0], [1.1, 0.0, 0.0]])


def row_norm_bits(k: int) -> list[tuple[bytes, bytes]]:
    """(`_row_norms`, per-row 1-D `np.linalg.norm`) bytes of random (N, k)
    rows, laid out C-ordered and transposed."""
    rng = np.random.default_rng(k)
    x = rng.normal(size=(2000, k)) * rng.uniform(0.5, 2.0, size=(2000, 1))
    return [(multivector._row_norms(rows).tobytes(), np.array([np.linalg.norm(r) for r in rows]).tobytes())
            for rows in (x, np.ascontiguousarray(x.T).T)]


@pytest.mark.parametrize("k", [3, 8, 128])
def test_row_norms_have_the_bits_of_one_dimensional_norms(k):
    for got, want in row_norm_bits(k):
        assert got == want


def _blas_name() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "")


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64") or "openblas" not in _blas_name(),
                    reason="OPENBLAS_CORETYPE selects x86-64 OpenBLAS kernels")
def test_row_norms_have_the_bits_of_one_dimensional_norms_under_the_prescott_kernel():
    # the SSE kernel's ddot rounds by the address's alignment: the transposed
    # rows pass only if each is copied to 16 bytes, as a 1-D norm copies it
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join([str(Path(multivector.__file__).parents[1]), str(ROOT)])}
    check = ("from tests.test_multivector import row_norm_bits\n"
             "for k in (3, 8, 128):\n"
             "    for got, want in row_norm_bits(k):\n"
             "        assert got == want, k\n")
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr


#: Cross-product entries: signed zeros, infinities and NaN among plain floats.
CROSS_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.sampled_from(
    [((3,), (3,)), ((3,), (n, 3)), ((n, 3), (3,)), ((n, 3), (n, 3))])), st.data())
def test_cross_has_the_bits_of_numpy_cross(shapes, data):
    a, b = (data.draw(arrays(np.float64, shape, elements=CROSS_ENTRIES)) for shape in shapes)
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf warn in both
        got, want = multivector._cross(a, b), np.cross(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()  # signed zeros and NaN signs too


def test_rotor_exp_keeps_its_single_row_arithmetic():
    # the null-limit probe's bytes depend on these exact roundings
    B = multivector.contract(Multivector.volume(3), Multivector.from_vector([0.6, 0.0, 0.8]))
    for angle in (0.01, -1.3, 2.9):
        want = math.sin(angle) * B.coeffs
        want[0] += math.cos(angle)
        assert rotor_coeffs(B.coeffs, angle).tobytes() == want.tobytes()


def test_batched_rotor_coefficients_validate_every_row():
    units = np.eye(3)
    B = multivector._product("contract", Multivector.volume(3).coeffs,
                             multivector._vector_coeffs(units, 3))
    angles = np.array([0.1, 0.2, 0.3])
    R = multivector._rotor_coeffs(B, np.sin(angles), np.cos(angles))
    for row, b, angle in zip(R, B, angles):
        assert row.tobytes() == rotor_coeffs(b, angle).tobytes()
    not_pure = B.copy()
    not_pure[2, 1] = 0.5
    with pytest.raises(ValueError, match="pure bivector"):
        multivector._rotor_coeffs(not_pure, np.sin(angles), np.cos(angles))
    not_unit = B.copy()
    not_unit[1] *= 2.0
    with pytest.raises(ValueError, match="unit bivector"):
        multivector._rotor_coeffs(not_unit, np.sin(angles), np.cos(angles))
