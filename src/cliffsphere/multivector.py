"""Dense multivector arithmetic for the real Clifford algebra Cl(n,0), 1 <= n <= 8.

Basis blades are indexed by bitmasks over the n generators: bit j set means
generator e_{j+1} is a factor of the blade, so mask 0 is the scalar and mask
2**n - 1 is the volume element.  A multivector is a dense float64 coefficient
vector of length 2**n.  The blade product e_A e_B lands on mask A ^ B with a
sign given by the parity of the transpositions needed to sort the
concatenated generator lists (repeated generators contract to +1, Euclidean
signature).  The geometric product, the wedge and the contraction share one
gather kernel over (N, 2**n) coefficient arrays and differ only in its index
table, which folds in the blade signs and the pairs each product drops.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DIM = 8

#: Default absolute tolerance for floating-point algebraic identities.
DEFAULT_TOL = 1e-12

#: Default seed of every random input: the CLI's runs and `run_identity_checks`.
DEFAULT_SEED = 42

#: Inputs declared "unit" are accepted if their norm is within this of 1,
#: then renormalized.
UNIT_TOL = 1e-9


def grade_of(mask: int) -> int:
    """Grade of a basis blade = number of generators in its mask."""
    return int(mask).bit_count()


@lru_cache(maxsize=MAX_DIM + 1)
def _tables(dim: int):
    """Cayley tables for Cl(dim,0): result masks, signs, and per-blade grades.

    The sign of e_A e_B is the parity of the swaps that move each generator of
    B left past the higher generators of A: sum_k>=1 popcount((A >> k) & B).
    """
    size = 1 << dim
    masks = np.arange(size)
    grades = np.array([grade_of(m) for m in range(size)], dtype=np.int8)
    xor = (masks[:, None] ^ masks[None, :]).astype(np.intp)
    swaps = np.zeros((size, size), dtype=np.intp)
    for k in range(1, dim):
        swaps += grades[(masks[:, None] >> k) & masks[None, :]]
    sign = np.where(swaps % 2 == 0, 1, -1).astype(np.int8)
    xor.flags.writeable = sign.flags.writeable = grades.flags.writeable = False
    return xor, sign, grades


#: Byte budget of the one (rows, 2**n, 2**n) float64 temporary of a batched
#: product: one Cl(7) row.  Budgets from 32 KiB to 1 MiB measured flat.
_CHUNK_BYTES = 1 << 17

#: A left factor of at least this many blades, at most half of them nonzero
#: (over all its rows), gathers only the index rows of its nonzero blades.
#: Measured on a 2-CPU x86 machine with a two-blade single left factor: the
#: skip adds 2–3 µs to a ≈6 µs product at Cl(2)–Cl(4), breaks even at
#: Cl(5), and takes Cl(6), Cl(7) and Cl(8) products from 9, 24 and 76 µs to
#: 5–7 µs; finding the nonzero columns of a 1000x8 batch alone costs ≈30 µs.
#: Copying the index rows costs about what it saves at three quarters
#: nonzero; a dense factor taken through the skip read 12, 28 and 97 µs.
_SKIP_ZEROS_FROM = 64


@lru_cache(maxsize=3 * MAX_DIM)
def _gather_index(dim: int, kind: str) -> np.ndarray:
    """G[i, k] points into the signed copy [y, -y, 0] of a row y: at i ^ k if
    e_i e_(i^k) has sign +1, at (i ^ k) + 2**dim if -1, and at the zero slot
    2 * 2**dim where `kind` drops the pair (the wedge keeps disjoint pairs,
    the contraction nested ones, the geometric product all)."""
    xor, sign, _ = _tables(dim)
    a = np.arange(1 << dim)[:, None]
    common = a & xor
    keep = {"geometric": True, "wedge": common == 0, "contract": (common == a) | (common == xor)}
    G = np.where(keep[kind], np.where(sign[a, xor] > 0, xor, xor + (1 << dim)), 2 << dim)
    G.flags.writeable = False
    return G


def _chunk_rows(cells: int) -> int:
    """Rows of a batched product per chunk whose temporary holds `cells`
    floats a row: as many as fit `_CHUNK_BYTES`, at least one."""
    return max(1, _CHUNK_BYTES // (8 * cells))


def _blades_outer(rows: int, size: int) -> bool:
    """Whether a batch of `rows` rows of `size` = 2**n blades runs blades
    outer: when a chunk of a dense left factor, 2**n x 2**n floats a row,
    holds at least 2**n rows.  Measured on a 2-CPU x86 machine, dense, that
    is where blades outer starts to win at Cl(3); at 16 * 2**n rows it takes
    0.4-0.55x the time at Cl(2)-Cl(4).  The zero skip does not move the
    choice: blades outer, a one-blade skipping left factor took 1.4-3.4x."""
    return min(rows, _chunk_rows(size * size)) >= size


def _product(kind: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product `kind` of (2**n,) or (N, 2**n) coefficient arrays, rows
    broadcast: out[..., k] = sum_i x[..., i] [y, -y, 0][..., G[i, k]] in blade
    order from +0.0, the float sign-table sum bit for bit (negation is exact;
    a dropped pair adds ±0.0 to a sum never -0.0).  Inputs are finite:
    `Multivector` and the unit-vector parsers reject the rest.  A NaN in
    either geometric factor reaches every output; the wedge and contraction
    read 0 for dropped pairs.

    A batch runs in chunks of `_chunk_rows` rows whose one (rows, i, k)
    temporary fits `_CHUNK_BYTES`, each with its own signed copy of its rows
    of y, in one of two layouts chosen by array shape alone (`_blades_outer`).
    When a chunk of a dense left factor holds at least as many rows as the
    algebra has blades (a Cl(1)-Cl(4) batch of 2**n rows or more), blades run
    outer and rows innermost, so numpy's inner loops are a chunk of rows
    long, not 2**n.  Otherwise, as Cl(5)-Cl(8) batches need, rows run outer.
    Both layouts sum over i in blade order, so their bytes agree.

    A left factor of at least `_SKIP_ZEROS_FROM` blades, single or batched,
    whose nonzero blades (the union over its rows) are at most half of them,
    against a finite y, skips the terms of its zero blades: each is
    0 * y = ±0.0, which by the same argument leaves the sum's bits as they
    are.  A non-finite y keeps every term, since 0 * NaN is NaN."""
    _check_same_dim(x, y)
    G = _gather_index(x.shape[-1].bit_length() - 1, kind)
    if x.ndim > 1 or y.ndim > 1:
        x, y = np.broadcast_arrays(x, y)
    if len(G) >= _SKIP_ZEROS_FROM:
        nz = (x if x.ndim == 1 else x.any(axis=0)).nonzero()[0]
        if 2 * len(nz) <= len(G) and np.isfinite(y).all():
            G, x = G.take(nz, axis=0), (x[nz] if x.ndim == 1 else x[:, nz])
    if x.ndim == 1:
        t = np.concatenate((y, -y, np.zeros(1)))[G]
        t *= x[:, None]
        return t.sum(axis=0, initial=0.0)
    out = np.empty(y.shape)
    # `take` copies a read-only index array on every call: copy the cached one once
    G = G if G.flags.writeable else G.copy()
    rows = _chunk_rows(max(G.size, G.shape[1]))
    if _blades_outer(len(out), G.shape[1]):
        for lo in range(0, len(out), rows):
            yc = y[lo : lo + rows].T
            t = np.concatenate((yc, -yc, np.zeros((1, yc.shape[1])))).take(G, axis=0)
            t *= x[lo : lo + rows].T[:, None]
            t.sum(axis=0, initial=0.0, out=out[lo : lo + rows].T)
        return out
    for lo in range(0, len(out), rows):
        yc = y[lo : lo + rows]
        t = np.concatenate((yc, -yc, np.zeros((len(yc), 1))), axis=1).take(G, axis=-1)
        t *= x[lo : lo + rows, :, None]
        t.sum(axis=1, initial=0.0, out=out[lo : lo + rows])
    return out


@lru_cache(maxsize=MAX_DIM + 1)
def _reversion_sign(dim: int) -> np.ndarray:
    """Per-blade reversion signs (-1)**(g(g-1)/2)."""
    _, _, grades = _tables(dim)
    g = grades.astype(np.int64)
    sign = np.where((g * (g - 1) // 2) % 2 == 0, 1.0, -1.0)
    sign.flags.writeable = False
    return sign


@dataclass(frozen=True)
class Multivector:
    """Element of Cl(dim,0) as a dense coefficient vector over 2**dim blades."""

    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.shape != (1 << self.dim,):
            raise ValueError(
                f"coeffs must have length {1 << self.dim} for dim {self.dim}, "
                f"got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(dim: int, value: float) -> "Multivector":
        return Multivector.blade(dim, 0, value)

    @staticmethod
    def blade(dim: int, mask: int, coeff: float = 1.0) -> "Multivector":
        """Single canonical blade (generators in ascending index order)."""
        _check_dim(dim)
        if not 0 <= mask < (1 << dim):
            raise ValueError(f"blade mask {mask} out of range for dim {dim}")
        c = np.zeros(1 << dim)
        c[mask] = coeff
        return Multivector(dim, c)

    @staticmethod
    def basis_vector(dim: int, index: int) -> "Multivector":
        """Generator e_index, 1-based."""
        if not 1 <= index <= dim:
            raise ValueError(f"generator index {index} out of range 1..{dim}")
        return Multivector.blade(dim, 1 << (index - 1))

    @staticmethod
    def from_vector(components, dim: int | None = None) -> "Multivector":
        """Grade-1 element with the given components on e_1..e_k."""
        v = np.asarray(components, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("vector components must be one-dimensional")
        if dim is None:
            dim = len(v)
        _check_dim(dim)
        if len(v) > dim:
            raise ValueError(f"{len(v)} components do not fit in Cl({dim},0)")
        return Multivector(dim, _vector_coeffs(v, dim))

    @staticmethod
    def volume(dim: int) -> "Multivector":
        """Volume element e_1 e_2 ... e_dim."""
        return Multivector.blade(dim, (1 << dim) - 1)

    def __str__(self) -> str:
        return render(self)


def _vector_coeffs(v: np.ndarray, dim: int) -> np.ndarray:
    """Coefficients (..., 2**dim) of the vectors v (..., k) on e_1..e_k."""
    c = np.zeros(v.shape[:-1] + (1 << dim,))
    for j in range(v.shape[-1]):
        c[..., 1 << j] = v[..., j]
    return c


def _check_dim(dim: int) -> None:
    """Refuse a dimension outside 1..MAX_DIM before anything is sized by it."""
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 1..{MAX_DIM}, got {dim}")


def _check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[-1] != y.shape[-1]:
        dx, dy = (v.shape[-1].bit_length() - 1 for v in (x, y))
        raise ValueError(f"dimension mismatch: Cl({dx},0) vs Cl({dy},0)")


# -- core operations ---------------------------------------------------------


def geometric_product(x: Multivector, y: Multivector) -> Multivector:
    """Geometric product in Cl(n,0): e_j e_j = 1, e_j e_k = -e_k e_j for j != k."""
    return Multivector(x.dim, _product("geometric", x.coeffs, y.coeffs))


def wedge(x: Multivector, y: Multivector) -> Multivector:
    """Outer product: the grade-(r+s) part of the geometric product on
    homogeneous arguments, extended bilinearly over grade pairs."""
    return Multivector(x.dim, _product("wedge", x.coeffs, y.coeffs))


def contract(x: Multivector, y: Multivector) -> Multivector:
    """Grade-|r-s| part of the geometric product on homogeneous arguments,
    extended bilinearly over grade pairs.

    On two vectors this is the scalar inner product; on (trivector, vector)
    in Cl(3,0) it is the dual bivector of the vector.
    """
    return Multivector(x.dim, _product("contract", x.coeffs, y.coeffs))


def grade_part(x: Multivector, g: int) -> Multivector:
    """Projection onto grade g (coefficients of all other grades zeroed)."""
    if not 0 <= g <= x.dim:
        raise ValueError(f"grade {g} out of range 0..{x.dim}")
    _, _, grades = _tables(x.dim)
    return Multivector(x.dim, np.where(grades == g, x.coeffs, 0.0))


def grade_norms(x: Multivector) -> dict[int, float]:
    """Euclidean coefficient norm of each grade component, g = 0..dim."""
    _, _, grades = _tables(x.dim)
    return {
        g: float(np.linalg.norm(x.coeffs[grades == g])) for g in range(x.dim + 1)
    }


def reversion(x: Multivector) -> Multivector:
    """Reversion: each grade-g blade picks up the sign (-1)**(g(g-1)/2)."""
    return Multivector(x.dim, x.coeffs * _reversion_sign(x.dim))


def norm(x: Multivector) -> float:
    """Euclidean norm of the coefficient vector."""
    return float(np.linalg.norm(x.coeffs))


def scalar_part(x: Multivector) -> float:
    return float(x.coeffs[0])


def rotor_exp(B: Multivector, angle: float) -> Multivector:
    """exp(B * angle) = cos(angle) + sin(angle) B for a unit bivector B.

    B must be pure grade 2 with B*B = -1 (both checked to `DEFAULT_TOL`); the
    closed form then follows from the exponential series.
    """
    return Multivector(B.dim, _rotor_coeffs(B.coeffs, math.sin(angle), math.cos(angle)))


def _rotor_coeffs(B: np.ndarray, sin, cos) -> np.ndarray:
    """sin * B + cos for the (2**n,) or (N, 2**n) coefficients B of unit
    bivectors, with sin and cos scalars or (N,) arrays.  Each row of B must be
    pure grade 2 with B*B = -1 to `DEFAULT_TOL`, or ValueError names the
    first contract a row breaks."""
    grades = _tables(B.shape[-1].bit_length() - 1)[2]
    if np.any(~(np.linalg.norm(np.where(grades == 2, 0.0, B), axis=-1) <= DEFAULT_TOL)):
        raise ValueError("rotor generator must be a pure bivector")
    square = _product("geometric", B, B)
    square[..., 0] += 1.0
    if np.any(~(np.linalg.norm(square, axis=-1) <= DEFAULT_TOL)):
        raise ValueError("rotor generator must be a unit bivector (B*B = -1)")
    c = np.asarray(sin)[..., None] * B
    c[..., 0] += cos
    return c


# -- rendering ----------------------------------------------------------------


def blade_label(mask: int) -> str:
    """Canonical blade name: "1" for the scalar, else "e" + ascending indices."""
    if mask == 0:
        return "1"
    return "e" + "".join(str(j + 1) for j in range(MAX_DIM) if mask >> j & 1)


def render(x: Multivector) -> str:
    """Debug rendering, e.g. "1.0 + 2.0*e12 - 0.5*e13".

    Terms appear in blade-mask order; zero coefficients are dropped; the
    zero multivector renders as "0.0".
    """
    parts: list[str] = []
    for mask, c in enumerate(x.coeffs):
        if c == 0.0:
            continue
        label = blade_label(mask)
        mag = repr(float(abs(c)))
        body = mag if mask == 0 else f"{mag}*{label}"
        if not parts:
            parts.append(body if c >= 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c >= 0 else f"- {body}")
    if not parts:
        return "0.0"
    return " ".join(parts)


# -- small vector helpers ------------------------------------------------------


def _cross(a, b) -> np.ndarray:
    """a x b over the last axis of 3-vectors, rows broadcast.  The same
    multiplies and subtractions, in the same order, as `np.cross` on
    3-vectors, so the bits agree, at about half its cost on small inputs."""
    a, b = np.asarray(a), np.asarray(b)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def unit_vector(v) -> np.ndarray:
    """Validate that v, or each vector along the last axis of a (..., k)
    array, is finite with norm 1 within `UNIT_TOL`; return it renormalized."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim > 1:
        n = np.linalg.norm(v, axis=-1, keepdims=True)
        off = n[~(np.abs(n - 1.0) <= UNIT_TOL)]  # NaN and inf norms are off too
        if off.size:
            raise ValueError(f"expected a unit vector, got norm {float(off[0])!r}")
        return v / n
    n = float(np.linalg.norm(v))
    if not abs(n - 1.0) <= UNIT_TOL:
        raise ValueError(f"expected a unit vector, got norm {n!r}")
    return v / n
