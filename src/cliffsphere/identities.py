"""Self-contained verification suite for the algebra and frame identities.

Each check evaluates one identity and returns only its worst residual; the
line names sit beside the calls in `run_identity_checks`' one table.  Every
check is exact: it passes only at residual 0.  Associativity is
proved on the blade pairs: it counts the Cayley masks that are not A ^ B
and the sign bits that are not the GF(2)-bilinear extension of the
generator block.  A bilinear identity holds for all inputs when it holds
on every ordered pair of basis elements, whose coefficients are 0 or +-1
and whose floats are exact: the frame subalgebra, score expansion,
combined identity, duality, vector decomposition and isomorphism run on
read-only basis-pair tables, and score-square on the 3 basis scores.
Random integers from one stream seeded by `seed` remain where the basis
cannot speak: the rotor checks' even elements and the naive oracle's dense
factors, which reach both of the kernel's batch layouts.  They are small
enough that every sum is an exact float, so no residual depends on `seed`.
A batched check's residual is its largest row norm, so a NaN row fails it.
The two orientations obey one subalgebra up to the sign of its epsilon
term, so each identity that holds at lam = +1 and lam = -1 runs both in one
batch whose leading axis is the orientation, row 0 for lam = +1, and returns
two residuals, each the largest row norm of its own orientation's rows; the
batches come from `frames`, as the estimators' do.  The frame checks read
one table, built once: the frames beta as a (2, 3, 8) array and their
(2, 3, 3, 8) pair products from one 18-row kernel batch; the rotor checks
read their planes I . e_j from it.  Only `check_hidden_basis` sees
`Multivector`s.

The suite carries its own naive blade multiplier (`_naive_table`), which
shares no code with the product kernel or its Cayley tables, so that the
fast table-driven product is validated against an independent code path.
Each oracle check compares the whole table with the Cayley tables and
scatters its dense random products through it, a block of pairs per draw
and per fast product and a chunk of rows per `np.bincount`, so its memory
does not grow with the pairs.  `inject_sign_flip` hands the abstract-side
checks the structure constants with the wrong epsilon sign; it exists
purely to demonstrate that the suite catches a mutated algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .frames import (
    _LAM,
    ORIENTATIONS,
    _VOLUME3,
    AbstractElement,
    OrientationMixError,
    _abstract_products,
    _duality_residuals,
    _frame_coeffs,
    _scores,
    abstract_product,
    hidden_basis,
)
from .multivector import (
    DEFAULT_SEED,
    MAX_DIM,
    _chunk_rows,
    _cross,
    _product,
    _reversion_sign,
    _sandwich,
    _tables,
    _vector_coeffs,
)

#: Integer even elements of each rotor check, and the bound of their
#: coefficients and of the rotated vectors' components, [-6, 6].
_ROTOR_CASES, _ROTOR_BOUND = 100, 6

#: Bounds of the naive oracle's integer-valued factors |x| < 2**26, |y| < 2**19:
#: a sum of 2**8 terms x_i y_j stays below 2**53, exact in any order, and x is
#: wider than float32's significand, so a kernel that rounds to float32 is caught.
_X_BOUND, _Y_BOUND = 2**26, 2**19

#: Most dense Cl(3) oracle pairs of one suite.  Memory is flat in the pairs, time
#: is not (≈0.65 s at 10**6, 2-CPU x86), so a larger count is refused.
MAX_PAIRS = 10**6


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual == 0.0  # exact, and a NaN fails


# -- independent naive multiplier --------------------------------------------------


#: Blade pairs sorted together per chunk: the chunk's (2 * dim, pairs) int8
#: factor array and its temporaries stay within a few hundred KiB.
_NAIVE_CHUNK = 4096


def _naive_factors(dim: int, pad: int) -> np.ndarray:
    """(dim, 2**dim) int8 array whose column m lists blade m's generators in
    ascending order, after -1 pads (pad = -1) or before `dim` pads (pad = dim)."""
    size = 1 << dim
    bits = (np.arange(size)[:, None] >> np.arange(dim)) & 1
    blade, gen = np.nonzero(bits)
    slot = np.cumsum(bits, axis=1)[blade, gen] - 1
    if pad < 0:
        slot += dim - bits.sum(axis=1)[blade]
    out = np.full((dim, size), pad, dtype=np.int8)
    out[slot, blade] = gen
    return out


@lru_cache(maxsize=MAX_DIM + 1)
def _naive_table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(masks, signs) of e_i e_j for every blade pair, flat at i * 2**dim + j,
    read-only.  Built once per process per dimension: the table depends on
    `dim` alone, and its build shares no code with the product kernel or its
    Cayley tables, so a cached table checks them as independently as a fresh
    one, and a corrupted kernel or Cayley table is still caught against it.

    Each pair's factor list [-1 pads, i ascending, j ascending, dim pads] is
    sorted by 2 * dim rounds of odd-even adjacent transpositions, the pairs
    of a chunk in lockstep (one column each); the pads are already in place
    and never swap.  The sign is the parity of the swaps.  The mask is the XOR
    of the sorted generators, since a repeated generator cancels with +1:
    generator j survives when it occurs an odd number of times.
    """
    size, width = 1 << dim, 2 * dim
    first, second = _naive_factors(dim, -1), _naive_factors(dim, dim)
    masks = np.empty(size * size, dtype=np.uint8)
    signs = np.empty(size * size, dtype=np.int8)
    for lo in range(0, size * size, _NAIVE_CHUNK):
        pair = np.arange(lo, min(lo + _NAIVE_CHUNK, size * size))
        factors = np.concatenate([first.take(pair >> dim, axis=1), second.take(pair & (size - 1), axis=1)])
        swaps = np.zeros(len(pair), dtype=np.int16)
        for r in range(width):
            left, right = factors[r % 2 : width - 1 : 2], factors[r % 2 + 1 : width : 2]
            swaps += (left > right).sum(axis=0, dtype=np.int16)
            # swap exactly the neighbours that are out of order
            left[...], right[...] = np.minimum(left, right), np.maximum(left, right)
        mask = np.zeros(len(pair), dtype=np.uint8)
        for j in range(dim):
            mask |= np.bitwise_xor.reduce(factors == j, axis=0).astype(np.uint8) << j
        masks[pair] = mask
        signs[pair] = 1 - 2 * (swaps % 2)
    masks.flags.writeable = signs.flags.writeable = False
    return masks, signs


def _naive_product(x: np.ndarray, y: np.ndarray, masks: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Dense products of the rows x, y (r, 2**n): one `np.bincount` sums each
    row k's terms sign * x_i * y_j, in one row's order, onto mask + k * 2**n."""
    rows, size = x.shape
    terms = (x[:, :, None] * y[:, None, :]).reshape(rows, -1)
    terms *= signs
    index = masks + np.arange(0, rows * size, size)[:, None]
    return np.bincount(index.ravel(), weights=terms.ravel(), minlength=rows * size).reshape(rows, size)


# -- helpers -------------------------------------------------------------------------


def _check_pairs(n_pairs: int) -> int:
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1: the dense Cl(3) oracle check would multiply nothing")
    if n_pairs > MAX_PAIRS:
        raise ValueError(f"n_pairs must be <= {MAX_PAIRS}, got {n_pairs}: 10**6 already take ≈0.65 s")
    return n_pairs


def _worst(rows: np.ndarray, axis=None):
    """Largest row norm of a (..., k) residual array, over `axis` of its norms
    or over all of them; NaN wherever a row is NaN.  The norms are
    `np.linalg.norm`'s over the last axis, bit for bit, without its wrapper."""
    return np.sqrt(np.add.reduce(rows * rows, axis=-1)).max(axis=axis)


def _worst_each(rows: np.ndarray) -> np.ndarray:
    """(2,) largest row norm of each orientation's rows of a (2, ..., k) residual array."""
    return _worst(rows.reshape(len(_LAM), -1, rows.shape[-1]), axis=1)


def _both(name: str, other: str | None = None) -> tuple[str, str]:
    """The line names of lam = +1 and lam = -1: `name` then `other`, or `name` twice."""
    return tuple(f"{n} (lam={lam:+d})" for n, lam in zip((name, other or name), ORIENTATIONS))


#: Coefficients of the scalar 1 of Cl(3,0).
_ONE3 = np.eye(8)[0]


def _pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (m * m, k) left and right factors of each ordered pair of m rows."""
    m = len(rows)
    left, right = np.repeat(rows, m, axis=0), np.tile(rows, (m, 1))
    left.flags.writeable = right.flags.writeable = False
    return left, right


#: The 9 ordered pairs of e1, e2, e3 and the 16 of 1, beta_1, beta_2, beta_3.
_VECTOR_PAIRS, _ELEMENT_PAIRS = _pairs(np.eye(3)), _pairs(np.eye(4))


def _frame_rows(beta: np.ndarray) -> np.ndarray:
    """(..., 4, 8) coefficients of 1 and beta_1..beta_3 of the frames beta (..., 3, 8)."""
    rows = np.empty((*beta.shape[:-2], 4, 8))
    rows[..., 0, :], rows[..., 1:, :] = _ONE3, beta
    return rows


def _frame_table(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames' (..., 3, 8) coefficients and their (..., 3, 3, 8) pair products
    beta_j beta_k, from one kernel batch."""
    left, right = np.repeat(beta, 3, axis=-2), np.concatenate([beta] * 3, axis=-2)
    pairs = _product("geometric", left.reshape(-1, 8), right.reshape(-1, 8))
    return beta, pairs.reshape(*beta.shape[:-1], 3, 8)


def _ordered_product(frame) -> np.ndarray:
    """beta_1 beta_2 beta_3 of each frame of a table, as (beta_1 beta_2) beta_3."""
    beta, pairs = frame
    return _product("geometric", pairs[..., 0, 1, :], beta[..., 2, :])


EPS_TRIPLES = ((1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1), (2, 1, 3, -1), (3, 2, 1, -1), (1, 3, 2, -1))

#: The 0-based indices j, k, l and the signs eps_jkl of `EPS_TRIPLES`, as columns.
_J, _K, _L = np.array(EPS_TRIPLES)[:, :3].T - 1
_EPS = np.array(EPS_TRIPLES)[:, 3]


# -- clifford_core checks --------------------------------------------------------------


def check_generator_anticommutation(dim: int) -> float:
    """e_j e_k + e_k e_j = 2 delta_jk over all dim**2 generator pairs."""
    jk = _product("geometric", *_pairs(_vector_coeffs(np.eye(dim), dim))).reshape(dim, dim, -1)
    anti = jk + jk.transpose(1, 0, 2)  # e_j e_k + e_k e_j
    anti[:, :, 0] -= 2.0 * np.eye(dim)
    return _worst(anti)


def check_associativity(dim: int) -> float:
    """(e_A e_B) e_C = e_A (e_B e_C) on every blade triple, exactly, proved on
    the blade pairs by two laws: every mask is A ^ B, and every sign bit p
    (1 for -1) is the GF(2)-bilinear extension of the generator block, p[A,B]
    the parity of p[e_i, e_j] over i in A and j in B.  A bilinear p gives
    p[A,B] ^ p[A^B,C] = p[A,B] ^ p[A,C] ^ p[B,C] = p[B,C] ^ p[A,B^C], so both
    sides of every triple agree in mask and sign.  The laws are stricter:
    twisting the signs by a cubic f, (-1)^(f(A)+f(B)+f(A^B)), keeps the
    triple law and breaks bilinearity.  The residual counts the wrong pairs.
    r[A] packs p[A, e_j] over the generators j, so p[A,B] is the parity of
    popcount(r[A] & B)."""
    xor, sign, _ = _tables(dim)
    blades, gens = np.arange(1 << dim, dtype=np.uint8), 1 << np.arange(dim)
    wrong = np.count_nonzero(xor != blades[:, None] ^ blades)
    block = (sign[np.ix_(gens, gens)] < 0).astype(np.intp)  # p[e_i, e_j]
    r = ((blades[:, None] & gens > 0) @ block & 1) @ gens
    wrong += np.count_nonzero(np.bitwise_count(r.astype(np.uint8)[:, None] & blades) & 1 != (sign < 0))
    return float(wrong)


def check_vector_product_decomposition() -> float:
    """ab = a . b + a ^ b on every ordered pair of basis vectors."""
    av, bv = (_vector_coeffs(v, 3) for v in _VECTOR_PAIRS)
    diff = _product("geometric", av, bv) - _product("contract", av, bv) - _product("wedge", av, bv)
    return _worst(diff)


def check_product_against_naive_oracle(dim: int, rng, n_pairs: int) -> float:
    size = 1 << dim
    xor, sign, _ = _tables(dim)
    masks, signs = _naive_table(dim)
    # exhaustive blade-level comparison of the fast Cayley tables
    worst = float(np.any(masks.reshape(size, size) != xor) or np.any(signs.reshape(size, size) != sign))
    # integer-valued pairs through both paths, a block per draw and fast product (all 5 of
    # Cl(7)), naive in chunks of rows (1 at Cl(7)); np.maximum, unlike max, keeps a NaN
    block, rows = _chunk_rows(size), _chunk_rows(size * size)
    for lo in range(0, n_pairs, block):
        shape = (min(block, n_pairs - lo), size)
        x = rng.integers(1 - _X_BOUND, _X_BOUND, shape).astype(np.float64)
        y = rng.integers(1 - _Y_BOUND, _Y_BOUND, shape).astype(np.float64)
        fast = _product("geometric", x, y)
        for at in range(0, len(x), rows):
            naive = _naive_product(x[at : at + rows], y[at : at + rows], masks, signs)
            worst = np.maximum(worst, np.max(np.abs(fast[at : at + rows] - naive)))
    return float(worst)


def _even_elements(frames, rng) -> tuple[np.ndarray, np.ndarray]:
    """`_ROTOR_CASES` integer even elements q = q0 + sum_j q_j (I . e_j), each
    q_j in [-6, 6]: their (N, 4) coefficients q_j and their (N, 8) Cl(3)
    coefficients, whose planes I . e_j are the lam = +1 frame of a table."""
    k = rng.integers(-_ROTOR_BOUND, _ROTOR_BOUND + 1, (_ROTOR_CASES, 4)).astype(np.float64)
    return k, k @ _frame_rows(frames[0][0])


def check_rotor_rotation(frames, rng) -> float:
    """q v ~q = M(q) v for integer even elements q = q0 + I w and integer
    vectors v, where M(q) v = (q0^2 - w.w) v + 2 (w.v) w - 2 q0 w x v is the
    unnormalised rotation matrix of the quaternion with scalar q0 and vector
    part -w.  A unit q = exp(theta I n) turns v by twice theta, about -n."""
    k, q = _even_elements(frames, rng)
    v = rng.integers(-_ROTOR_BOUND, _ROTOR_BOUND + 1, (_ROTOR_CASES, 3)).astype(np.float64)
    q0, w = k[:, :1], k[:, 1:]
    want = (q0 * q0 - np.sum(w * w, axis=1, keepdims=True)) * v + 2 * np.sum(w * v, axis=1, keepdims=True) * w
    want -= 2 * q0 * _cross(w, v)
    return _worst(_sandwich(q, v) - want)


def check_rotor_unit(frames, rng) -> float:
    """q ~q = |q|^2, with no other part, for integer even elements q."""
    k, q = _even_elements(frames, rng)
    norm = _product("geometric", q, q * _reversion_sign(3))
    norm[:, 0] -= np.sum(k * k, axis=1)
    return _worst(norm)


# -- frame and orientation checks --------------------------------------------------------
#
# A frames argument is `_frame_table(_frame_coeffs(ORIENTATIONS))`: both
# frames and their pair products, row 0 for lam = +1, which
# `run_identity_checks` builds once.  Each check below returns the (2,)
# residuals of lam = +1 and lam = -1, in that order.


def check_frame_subalgebra(frames) -> np.ndarray:
    """beta_j beta_k = -delta_jk - lam eps_jkl beta_l in each embedded frame."""
    beta, pairs = frames
    want = np.zeros_like(pairs)
    want[..., 0] = -np.eye(3)
    want[:, _J, _K] = (-_LAM[:, None] * _EPS)[..., None] * beta[:, _L]
    return _worst_each(pairs - want)


def check_frame_squares(frames) -> np.ndarray:
    squares = frames[1].diagonal(axis1=1, axis2=2).transpose(0, 2, 1)  # beta_j beta_j
    return _worst_each(squares + _ONE3)


def check_frame_anticommutation(frames) -> np.ndarray:
    pairs = frames[1]
    anti = (pairs + pairs.transpose(0, 2, 1, 3))[:, ~np.eye(3, dtype=bool)]  # beta_j beta_k + beta_k beta_j, j != k
    return _worst_each(anti)


def check_ordered_product(frames) -> np.ndarray:
    return _worst_each(_ordered_product(frames) - _LAM[:, None] * _ONE3)


def _dot_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(2, m, 4) rows [-a.b, -lam a x b] over {1, beta_1, beta_2, beta_3} of
    the m pairs of rows a, b at each orientation."""
    rows = np.empty((len(_LAM), len(a), 4))
    rows[..., 0], rows[..., 1:] = -np.sum(a * b, axis=1), -_LAM[:, None, None] * _cross(a, b)
    return rows


def check_score_expansion_embedded(frames) -> np.ndarray:
    """{a_j beta_j}{b_k beta_k} = -a.b - lam (a x b).beta in each embedded frame."""
    beta = frames[0]
    a, b = _VECTOR_PAIRS
    got = _product("geometric", (a @ beta).reshape(-1, 8), (b @ beta).reshape(-1, 8)).reshape(2, -1, 8)
    return _worst_each(got - _dot_cross(a, b) @ _frame_rows(beta))


def check_combined_identity(eps_sign: float) -> np.ndarray:
    """(mu.a)(mu.b) = -a.b - mu.(a x b) in each orientation's abstract algebra."""
    a, b = _VECTOR_PAIRS
    got = _abstract_products(_scores(a), _scores(b), eps_sign)
    return _worst_each(got - _dot_cross(a, b))


def check_duality() -> np.ndarray:
    return np.max(_duality_residuals(*_VECTOR_PAIRS), axis=1)


def check_abstract_embedded_isomorphism(frames, eps_sign: float) -> np.ndarray:
    rows = _frame_rows(frames[0])
    x, y = _ELEMENT_PAIRS
    abstract = _abstract_products(np.concatenate([x.T, x.T], axis=1), np.concatenate([y.T, y.T], axis=1), eps_sign)
    embedded = _product("geometric", (x @ rows).reshape(-1, 8), (y @ rows).reshape(-1, 8)).reshape(2, -1, 8)
    return _worst_each(abstract @ rows - embedded)


def check_score_square(eps_sign: float) -> np.ndarray:
    """Each basis score lam e_j beta_j squares to -1, and its coefficients are
    [0, lam e_j], so a score of the other orientation fails its lam's line."""
    s = _scores(np.eye(3))  # the 3 basis scores of each orientation
    got = np.concatenate([_abstract_products(s, s, eps_sign), s.T.reshape(2, 3, 4)], axis=1)
    want = np.zeros_like(got)
    want[:, :3, 0] = -1.0
    want[:, 3:, 1:] = _LAM[:, None, None] * np.eye(3)
    return _worst_each(got - want)


def check_vector_basis_flip() -> float:
    """Flipping e_y -> -e_y flips I but leaves the bivector handedness at +1."""
    e = _vector_coeffs(np.diag([1.0, -1.0, 1.0]), 3)  # e_x, -e_y, e_z
    I_flipped = _product("geometric", _product("geometric", e[0], e[1]), e[2])
    frame = _frame_table(_product("contract", I_flipped, e))
    return np.maximum(_worst(_ordered_product(frame) - _ONE3), _worst(I_flipped + _VOLUME3))


def check_hidden_basis() -> np.ndarray:
    """Each orientation's hidden basis has one volume-grade element, the last, lam * I."""
    volume = np.array([[b.coeffs[-1] for b in hidden_basis(lam)] for lam in ORIENTATIONS])
    return np.maximum(np.abs(volume[:, -1] - _LAM), (volume != 0.0).sum(axis=1) - 1.0)


def check_mixed_orientation_rejected() -> float:
    x = AbstractElement(0.0, (1.0, 0.0, 0.0), 1)
    y = AbstractElement(0.0, (1.0, 0.0, 0.0), -1)
    try:
        abstract_product(x, y)
    except OrientationMixError:
        return 0.0
    return 1.0


# -- suite ---------------------------------------------------------------------------------


def run_identity_checks(
    n_pairs: int = 20,
    seed: int = DEFAULT_SEED,
    inject_sign_flip: bool = False,
) -> list[CheckResult]:
    """Every clifford_core and frame property check, one table row per call:
    the names of its stdout lines, in stdout order, then its residuals, one
    per name, or the suite raises.  The bilinear identities run exactly on
    the basis.  One stream seeded by `seed` draws, row by row, `n_pairs`
    integer-valued dense pairs for the Cl(3) naive oracle, 5 for Cl(7) and
    100 integer even elements for each rotor check; every residual is exact,
    whatever the seed.  `inject_sign_flip` corrupts the epsilon sign of the
    abstract structure constants (test mode): the abstract-side checks that
    multiply two different directions must then fail.
    """
    _check_pairs(n_pairs)
    eps_sign = 1.0 if inject_sign_flip else -1.0
    rng = np.random.default_rng(seed)
    frames = _frame_table(_frame_coeffs(ORIENTATIONS))
    table = (
        (_both("right-frame bivector subalgebra", "left-frame bivector subalgebra"),
         check_frame_subalgebra(frames)),
        (_both("basis bivectors square to -1"), check_frame_squares(frames)),
        (_both("basis bivectors anticommute"), check_frame_anticommutation(frames)),
        (_both("ordered frame product is positive", "ordered frame product is negative"),
         check_ordered_product(frames)),
        (_both("frame score expansion, epsilon sign -", "frame score expansion, epsilon sign +"),
         check_score_expansion_embedded(frames)),
        (_both("combined orientation identity"), check_combined_identity(eps_sign)),
        (_both("orientation duality relation"), check_duality()),
        (_both("abstract/embedded isomorphism"), check_abstract_embedded_isomorphism(frames, eps_sign)),
        (_both("standard score squares to -1"), check_score_square(eps_sign)),
        (("vector-basis flip leaves bivector handedness",), check_vector_basis_flip()),
        (_both("hidden basis volume element sign"), check_hidden_basis()),
        (("mixed-orientation products rejected",), check_mixed_orientation_rejected()),
        (("generator anticommutation, Cl(3,0)",), check_generator_anticommutation(3)),
        (("generator anticommutation, Cl(7,0)",), check_generator_anticommutation(7)),
        (("associativity of the blade table, Cl(3,0)",), check_associativity(3)),
        (("associativity of the blade table, Cl(7,0)",), check_associativity(7)),
        (("vector product = contraction + wedge",), check_vector_product_decomposition()),
        (("fast product vs naive blade multiplier, Cl(3,0)",), check_product_against_naive_oracle(3, rng, n_pairs)),
        (("fast product vs naive blade multiplier, Cl(7,0)",), check_product_against_naive_oracle(7, rng, 5)),
        (("rotor sandwich rotates by twice the angle",), check_rotor_rotation(frames, rng)),
        (("rotor norm and reversion inverse",), check_rotor_unit(frames, rng)),
    )
    return [CheckResult(name, float(residual)) for names, residuals in table
            for name, residual in zip(names, np.atleast_1d(residuals), strict=True)]
