"""Independent brute-force oracles used to pin expected values in the tests.

The naive products share no code with the package: blade products are
computed by concatenating generator index lists, bubble sorting while
counting swaps, and cancelling repeated generators with +1 (Euclidean
metric).  Products of dense multivectors are explicit double loops over all
blade pairs.

Seven references do use the package.  They multiply only through its
public products (`geometric_product`, `wedge`, `contract`); sums and
scalings act on coefficient arrays.  They are built from the `Multivector`
helpers defined here, which the package does not export: `basis_vector`,
`grade_part`, `reversion`, `norm` and `rotor_exp`, each a thin `Multivector`
wrapper of a blade or of the package's grade table, reversion signs or
rotor coefficients.
`sign_table_product` evaluates the float sign-table formula on the
package's Cayley table; it pins the product kernel's bytes, while the naive
products pin its algebra.
`abstract_to_embedded` realizes an abstract element through a frame's
bivectors as a `Multivector`, and `standard_score` builds the abstract
element lam n_j beta_j, the single-direction reference of
`frames._scores`; `abstract_coeffs` reads an abstract element's four
coefficients.  `raw_score` builds one side's raw score (side_sign I.n)(lam
I.n) from the public contraction and geometric product, and
`trial_records` evaluates it trial by trial, the per-trial reference of the
estimators, on the orientations of `lambda_stream`: the stream drawn with a
fresh Philox generator per call, the reference of the package's one-generator
walk.  `philox4x64_10` is Philox4x64-10 in Python integers, from the
published constants and not from numpy, and `philox_orientations` reads the
stream through it: the reference of the stream's definition itself.  `null_limit_rows` runs the null-limit probe one separation at
a time through the public wedge, contraction and norm, and `np.cross`: the
reference of the batched probe's psi, magnitude and axis.
`sandwich_rotation` is its rotation, the reference of the shared rotor
sandwich `multivector._sandwich`.
`flip_kernel_sign` is no reference but a canary: it corrupts one entry of
the kernel's index table, which the checks that compare against these
oracles must catch.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from cliffsphere import multivector, seven_sphere
from cliffsphere.frames import AbstractElement, OrientationMixError
from cliffsphere.hopf import NULL_LIMIT_COLUMNS, perpendicular_axis
from cliffsphere.multivector import (
    Multivector,
    _reversion_sign,
    _rotor_coeffs,
    _tables,
    contract,
    geometric_product,
    scalar_part,
    unit_vector,
    wedge,
)


def blade_times_blade(a_mask: int, b_mask: int) -> tuple[int, int]:
    """(result_mask, sign) for e_A e_B via explicit list sorting."""
    factors = [j for j in range(8) if a_mask >> j & 1]
    factors += [j for j in range(8) if b_mask >> j & 1]
    swaps = 0
    # bubble sort, counting adjacent transpositions
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            if factors[i] > factors[i + 1]:
                factors[i], factors[i + 1] = factors[i + 1], factors[i]
                swaps += 1
                changed = True
    # cancel adjacent equal generators (e_j e_j = +1)
    reduced: list[int] = []
    for f in factors:
        if reduced and reduced[-1] == f:
            reduced.pop()
        else:
            reduced.append(f)
    mask = 0
    for f in reduced:
        mask |= 1 << f
    return mask, (-1 if swaps % 2 else 1)


@lru_cache(maxsize=None)
def _blade_table(dim: int):
    size = 1 << dim
    return [[blade_times_blade(i, j) for j in range(size)] for i in range(size)]


def naive_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Geometric product of two dense coefficient vectors, double loop."""
    size = len(x)
    dim = size.bit_length() - 1
    table = _blade_table(dim)
    out = np.zeros(size)
    for i in range(size):
        xi = x[i]
        if xi == 0.0:
            continue
        row = table[i]
        for j in range(size):
            yj = y[j]
            if yj == 0.0:
                continue
            mask, sign = row[j]
            out[mask] += sign * xi * yj
    return out


def naive_grade_filter(coeffs: np.ndarray, grade: int) -> np.ndarray:
    out = coeffs.copy()
    for mask in range(len(out)):
        if bin(mask).count("1") != grade:
            out[mask] = 0.0
    return out


def naive_contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Grade-|r-s| filtered naive product, extended bilinearly over grades."""
    size = len(x)
    out = np.zeros(size)
    for r in range(size.bit_length()):
        for s in range(size.bit_length()):
            xr = np.array([x[m] if bin(m).count("1") == r else 0.0 for m in range(size)])
            ys = np.array([y[m] if bin(m).count("1") == s else 0.0 for m in range(size)])
            if not xr.any() or not ys.any():
                continue
            out += naive_grade_filter(naive_product(xr, ys), abs(r - s))
    return out


def naive_wedge(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Grade-(r+s) filtered naive product, extended bilinearly over grades."""
    size = len(x)
    nbits = size.bit_length()
    out = np.zeros(size)
    for r in range(nbits):
        for s in range(nbits):
            xr = np.array([x[m] if bin(m).count("1") == r else 0.0 for m in range(size)])
            ys = np.array([y[m] if bin(m).count("1") == s else 0.0 for m in range(size)])
            if not xr.any() or not ys.any():
                continue
            if r + s < nbits:
                out += naive_grade_filter(naive_product(xr, ys), r + s)
    return out


def series_exp(b: np.ndarray, angle: float, terms: int = 40) -> np.ndarray:
    """exp(b * angle) by the power series, using the naive product."""
    size = len(b)
    acc = np.zeros(size)
    acc[0] = 1.0
    power = acc.copy()
    for k in range(1, terms):
        power = naive_product(power, b) * (angle / k)
        acc = acc + power
    return acc


def basis_vector(dim: int, index: int) -> Multivector:
    """Generator e_index of Cl(dim,0), 1-based."""
    return Multivector.blade(dim, 1 << (index - 1))


def grade_part(x: Multivector, g: int) -> Multivector:
    """Projection onto grade g (coefficients of all other grades zeroed)."""
    if not 0 <= g <= x.dim:
        raise ValueError(f"grade {g} out of range 0..{x.dim}")
    _, _, grades = _tables(x.dim)
    return Multivector(x.dim, np.where(grades == g, x.coeffs, 0.0))


def reversion(x: Multivector) -> Multivector:
    """Reversion: each grade-g blade picks up the sign (-1)**(g(g-1)/2)."""
    return Multivector(x.dim, x.coeffs * _reversion_sign(x.dim))


def norm(x: Multivector) -> float:
    """Euclidean norm of the coefficient vector."""
    return float(np.linalg.norm(x.coeffs))


def rotor_exp(B: Multivector, angle: float) -> Multivector:
    """exp(B * angle) = cos(angle) + sin(angle) B for a unit bivector B, by
    `math.sin` and `math.cos` of the one angle: the single-rotor reference of
    the batched `hopf._rotors`.  B must be pure grade 2 with B*B = -1, which
    `_rotor_coeffs` checks."""
    return Multivector(B.dim, _rotor_coeffs(B.coeffs, math.sin(angle), math.cos(angle)))


def rotation_matrix_2d(theta: float) -> np.ndarray:
    return np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )


def sign_table_product(kind: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product `kind` of (2**n,) or (N, 2**n) coefficient arrays by the
    float sign-table formula, unchunked: out[..., k] = sum_i x[..., i] S[i, k]
    y[..., i ^ k], summed in blade order from +0.0, where S[i, k] is the sign
    of e_i e_(i^k), zeroed where the wedge (non-disjoint pairs) or the
    contraction (non-nested pairs) drops the pair."""
    size = x.shape[-1]
    xor, sign, _ = _tables(size.bit_length() - 1)
    a = np.arange(size)[:, None]
    common = a & xor
    keep = {"geometric": True, "wedge": common == 0, "contract": (common == a) | (common == xor)}
    S = np.where(keep[kind], sign[a, xor], 0).astype(np.float64)
    return (x[..., :, None] * S * y[..., xor]).sum(axis=-2, initial=0.0)


def flip_kernel_sign(monkeypatch, i, k):
    """Make the product kernel read -y where it reads +y at entry (i, k) of
    its index table, and the reverse, in every dimension and product.  J is
    cached per process, so the flipped kernel gets a fresh, empty J cache:
    it builds its own J, and the process cache never sees that J."""
    real = multivector._gather_index

    def flipped(dim, kind):
        G = real(dim, kind).copy()
        size = 1 << dim
        assert G[i, k] < 2 * size, "a dropped pair has no sign to flip"
        G[i, k] += size if G[i, k] < size else -size
        return G

    monkeypatch.setattr(multivector, "_gather_index", flipped)
    monkeypatch.setattr(seven_sphere, "_build_J",
                        lru_cache(maxsize=1)(seven_sphere._build_J.__wrapped__))


def abstract_to_embedded(x: AbstractElement, lam: int, beta: np.ndarray) -> Multivector:
    """Realize an abstract element in Cl(3,0) through the frame of
    orientation lam, given as the (3, 8) coefficients of beta_1..beta_3."""
    if x.lam != lam:
        raise OrientationMixError("element and frame carry different orientations")
    out = Multivector.blade(3, 0, x.c0).coeffs
    for cj, bj in zip(x.c, beta):
        out = out + cj * bj
    return Multivector(3, out)


def abstract_coeffs(x: AbstractElement) -> np.ndarray:
    """Coefficient 4-vector of x over the formal basis {1, beta_x, beta_y, beta_z}."""
    return np.array([x.c0, *x.c])


def standard_score(n, lam: int) -> AbstractElement:
    """The standard score lam n_j beta_j of the unit vector n, renormalized."""
    return AbstractElement(0.0, tuple(lam * unit_vector(n)), lam)


def raw_score(side_sign: int, n, lam: int) -> int:
    """Sign of the scalar (side_sign I.n)(lam I.n) for the unit vector n,
    through `Multivector` operations: Alice's score for side_sign = -1, Bob's
    for +1.  The product must be a unit scalar."""
    i_n = contract(Multivector.volume(3), Multivector.from_vector(unit_vector(n), dim=3))
    product = geometric_product(Multivector(3, float(side_sign) * i_n.coeffs),
                                Multivector(3, float(lam) * i_n.coeffs))
    s = scalar_part(product)
    assert np.linalg.norm(product.coeffs[1:]) < 1e-12 and abs(abs(s) - 1.0) < 1e-12, product
    return 1 if s > 0 else -1


def lambda_stream(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Orientations of trials start..start+n-1 as an int8 array of +-1: trial
    i draws +1 when the first word of the Philox4x64-10 block of counter
    i + 1 under key (seed, 0) is odd, that is, of numpy's `Philox` set to
    counter i, which increments its counter before each block.  Each call
    builds its own generator at counter `start`."""
    bg = np.random.Philox(key=np.uint64(seed), counter=[start, 0, 0, 0])
    words = bg.random_raw(4 * n)[0::4]
    return (2 * (words & 1).astype(np.int8) - 1).astype(np.int8)


#: Philox4x64-10 as published (J. K. Salmon, M. A. Moraes, R. O. Dror and
#: D. E. Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11): the
#: two round multipliers and the two Weyl increments of the key.
PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD = 2**64 - 1


def philox4x64_10(counter: int, key: tuple[int, int]) -> tuple[int, int, int, int]:
    """The four 64-bit words of the Philox4x64-10 block of the 256-bit
    `counter` (word 0 lowest) under the key (k0, k1), in Python integers and
    from the published constants alone: ten rounds, each two 64x64 -> 128-bit
    products, the key bumped by the Weyl increments between rounds."""
    x = [counter >> (64 * j) & _WORD for j in range(4)]
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + PHILOX_WEYL[0]) & _WORD, (k1 + PHILOX_WEYL[1]) & _WORD
        p0, p1 = PHILOX_MULTIPLIERS[0] * x[0], PHILOX_MULTIPLIERS[1] * x[2]
        x = [p1 >> 64 ^ x[1] ^ k0, p1 & _WORD, p0 >> 64 ^ x[3] ^ k1, p0 & _WORD]
    return tuple(x)


def philox_orientations(seed: int, n: int) -> np.ndarray:
    """Orientations of trials 0..n-1 from `philox4x64_10`, with no numpy
    generator: trial i draws +1 when the first word of the block of counter
    i + 1 under key (seed, 0) is odd."""
    return np.array([1 if philox4x64_10(i + 1, (seed, 0))[0] & 1 else -1 for i in range(n)], dtype=np.int8)


def trial_records(a, b, seed: int, n: int) -> list[tuple[int, int, int]]:
    """(lam, Alice's raw score, Bob's raw score) of trials 0..n-1, one
    `raw_score` evaluation per side and trial; the estimators instead
    evaluate each side once at both orientation values and weight by the
    counts."""
    return [
        (lam, raw_score(-1, a, lam), raw_score(+1, b, lam))
        for lam in map(int, lambda_stream(seed, n))
    ]


def sandwich_rotation(v, axis, angle: float) -> np.ndarray:
    """v rotated by `angle` about `axis` through `Multivector` operations:
    R v ~R with R = rotor_exp(I . c, -angle / 2)."""
    c = Multivector.from_vector(unit_vector(axis), dim=3)
    R = rotor_exp(contract(Multivector.volume(3), c), -0.5 * angle)
    v = Multivector.from_vector(np.asarray(v, dtype=np.float64), dim=3)
    return geometric_product(geometric_product(R, v), reversion(R)).coeffs[[1, 2, 4]]


def null_limit_rows(a, separations) -> np.ndarray:
    """The null-limit probe's `NULL_LIMIT_COLUMNS` rows one separation at a
    time, each through `sandwich_rotation` and the `Multivector` wedge,
    contraction and norm; `null_limit_probe` runs all separations as one
    batch."""
    a = unit_vector(a)
    axis = perpendicular_axis(a)
    rows = []
    for psi in map(float, separations):
        a_prime = sandwich_rotation(a, axis, psi)
        w = wedge(Multivector.from_vector(a, dim=3), Multivector.from_vector(a_prime, dim=3))
        wedge_norm = norm(w)
        cross_norm = float(np.linalg.norm(np.cross(a, a_prime)))
        if cross_norm == 0.0:
            rows.append((psi, math.nan, math.nan, math.nan, math.nan))
            continue
        dual = contract(Multivector(3, -1.0 * Multivector.volume(3).coeffs),
                        Multivector(3, (1.0 / wedge_norm) * w.coeffs))
        rows.append((psi, wedge_norm / cross_norm, *dual.coeffs[[1, 2, 4]]))
    return np.array(rows, NULL_LIMIT_COLUMNS)
