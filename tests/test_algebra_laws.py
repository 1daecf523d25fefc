"""Algebra laws of Cl(1,0)-Cl(8,0), checked exactly.

Coefficients are small integers, |c| <= 3, so every sum of products here is
an integer far below 2**53 (a triple product in Cl(8) stays under 2**21) and
float64 computes it exactly: each law must hold bit for bit, at tolerance 0,
and a wrong sign or a misplaced blade in any index table shows up.  The
batches take both layouts of the product kernel: rows outer for a batch of
fewer rows than the algebra has blades, and for every Cl(5)-Cl(8) batch;
blades outer for a Cl(1)-Cl(4) batch of 2**n rows or more.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsphere import multivector
from cliffsphere.multivector import Multivector, _product

from .oracles import flip_kernel_sign, grade_part

DIMS = range(1, 9)
SEEDS = st.integers(0, 2**32 - 1)


def batch_lengths(dim: int) -> list[int]:
    """A batch under 2**n rows, and one of 2**n + 3 where the kernel runs
    that blades outer (from Cl(1) to Cl(4))."""
    size = 1 << dim
    outer = multivector._blades_outer(size + 3, size)
    return [min(size - 1, 6) or 1] + ([size + 3] if outer else [])


def integers(rng, rows: int, dim: int, grade: int | None = None) -> np.ndarray:
    """(rows, 2**dim) coefficients drawn from -3..3, on the blades of one
    grade only if `grade` is given."""
    c = rng.integers(-3, 4, size=(rows, 1 << dim)).astype(np.float64)
    if grade is not None:
        c[:, multivector._tables(dim)[2] != grade] = 0.0
    return c


def geometric_associativity(rng, dim, rows):
    x, y, z = (integers(rng, rows, dim) for _ in range(3))
    g = lambda a, b: _product("geometric", a, b)
    return g(g(x, y), z), g(x, g(y, z))


def wedge_associativity(rng, dim, rows):
    x, y, z = (integers(rng, rows, dim) for _ in range(3))
    w = lambda a, b: _product("wedge", a, b)
    return w(w(x, y), z), w(x, w(y, z))


def distributivity(rng, dim, rows):
    x, y, z = (integers(rng, rows, dim) for _ in range(3))
    lhs = [_product(kind, x, y + z) for kind in ("geometric", "wedge", "contract")]
    lhs += [_product(kind, x + y, z) for kind in ("geometric", "wedge", "contract")]
    rhs = [_product(kind, x, y) + _product(kind, x, z) for kind in ("geometric", "wedge", "contract")]
    rhs += [_product(kind, x, z) + _product(kind, y, z) for kind in ("geometric", "wedge", "contract")]
    return np.stack(lhs), np.stack(rhs)


def reversion_anti_automorphism(rng, dim, rows):
    """~(xy) = ~y ~x."""
    x, y = (integers(rng, rows, dim) for _ in range(2))
    rev = multivector._reversion_sign(dim)
    return _product("geometric", x, y) * rev, _product("geometric", y * rev, x * rev)


def vector_product_decomposition(rng, dim, rows):
    """uv = u.v + u^v on vectors."""
    u, v = (integers(rng, rows, dim, grade=1) for _ in range(2))
    return _product("geometric", u, v), _product("contract", u, v) + _product("wedge", u, v)


LAWS = [geometric_associativity, wedge_associativity, distributivity,
        reversion_anti_automorphism, vector_product_decomposition]


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.__name__)
@settings(max_examples=5, deadline=None)
@given(seed=SEEDS)
def test_law_holds_exactly(law, dim, seed):
    rng = np.random.default_rng(seed)
    for rows in batch_lengths(dim):
        lhs, rhs = law(rng, dim, rows)
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("dim", DIMS)
def test_wedge_and_contract_have_the_expected_grades(dim):
    rng = np.random.default_rng(dim)
    grades = multivector._tables(dim)[2]
    for r in range(dim + 1):
        for s in range(dim + 1):
            x, y = integers(rng, 3, dim, grade=r), integers(rng, 3, dim, grade=s)
            for kind, grade in (("wedge", r + s), ("contract", abs(r - s))):
                out = _product(kind, x, y)
                assert not out[:, grades != grade].any(), (kind, r, s)


@pytest.mark.parametrize("dim", DIMS)
def test_generators_square_to_one(dim):
    e = multivector._vector_coeffs(np.eye(dim), dim)
    one = np.zeros((dim, 1 << dim))
    one[:, 0] = 1.0
    assert np.array_equal(_product("geometric", e, e), one)
    assert all(np.array_equal(_product("geometric", row, row), one[0]) for row in e)


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=5, deadline=None)
@given(seed=SEEDS)
def test_grade_parts_sum_back_to_the_input(dim, seed):
    for c in integers(np.random.default_rng(seed), 3, dim):
        x = Multivector(dim, c)
        total = sum((grade_part(x, g).coeffs for g in range(dim + 1)), np.zeros(1 << dim))
        assert np.array_equal(total, c)


@pytest.mark.parametrize("dim,i,k", [(3, 1, 3), (7, 5, 12), (8, 200, 17)])
def test_a_flipped_index_entry_breaks_exact_associativity(monkeypatch, dim, i, k):
    # the kernel canary: one sign flipped in the index tables of every
    # dimension and product; exact associativity must fail in each layout
    flip_kernel_sign(monkeypatch, i, k)
    for rows in batch_lengths(dim):
        lhs, rhs = geometric_associativity(np.random.default_rng(dim), dim, rows)
        assert not np.array_equal(lhs, rhs)
