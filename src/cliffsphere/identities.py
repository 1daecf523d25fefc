"""Self-contained verification suite for the algebra and frame identities.

Each check evaluates one identity numerically and reports its worst residual
against a tolerance.  Exact checks (integer sign arithmetic) carry tolerance
0; floating algebraic identities default to 1e-12 absolute and accept a
configurable override; the associativity and rotor-rotation bounds are fixed
at their contracted values.

The random-pair checks draw all their inputs up front and evaluate every
pair at once on (N, 2**n) coefficient arrays through the product kernel;
a check's residual is the largest row norm, so a NaN row fails it.

The suite carries its own naive blade multiplier (explicit list sorting per
blade pair) so that the fast table-driven product is validated against an
independent code path.  Each oracle check sorts every blade pair once into
a fresh table, which both its exhaustive comparison and its dense products
read.  A sign-flip injection hook corrupts the epsilon term of the abstract
structure constants; it exists purely to demonstrate that the suite catches
a mutated algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import (
    AbstractElement,
    OrientationMixError,
    _structure_coeffs,
    abstract_product,
    build_frame,
    duality_check,
    hidden_basis,
    vector3,
    volume3,
)
from .multivector import (
    Multivector,
    _product,
    _tables,
    _vector_coeffs,
    contract,
    geometric_product,
    norm,
    reversion,
    rotor_exp,
    unit_vector,
    wedge,
)

#: Fixed bound for associativity (relative) and rotor-rotation (absolute).
FIXED_TOL = 1e-10

IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


# -- independent naive multiplier --------------------------------------------------


def _naive_blade(a_mask: int, b_mask: int) -> tuple[int, int]:
    """(mask, sign) of e_A e_B by concatenating index lists and sorting."""
    factors = [j for j in range(8) if a_mask >> j & 1] + [
        j for j in range(8) if b_mask >> j & 1
    ]
    swaps = 0
    for i in range(1, len(factors)):
        j = i
        while j > 0 and factors[j - 1] > factors[j]:
            factors[j - 1], factors[j] = factors[j], factors[j - 1]
            swaps += 1
            j -= 1
    mask = 0
    for f in factors:
        mask ^= 1 << f  # repeated generators cancel with +1
    return mask, (-1 if swaps % 2 else 1)


def _naive_table(dim: int) -> tuple[list[int], list[int]]:
    """(masks, signs) of e_i e_j from `_naive_blade`, flat at i * 2**dim + j."""
    masks, signs = [], []
    for i in range(1 << dim):
        for j in range(1 << dim):
            mask, sign = _naive_blade(i, j)
            masks.append(mask)
            signs.append(sign)
    return masks, signs


def _naive_product(x: np.ndarray, y: np.ndarray, masks: list[int], signs: list[int]) -> np.ndarray:
    size = len(x)
    x, y = x.tolist(), y.tolist()
    out = [0.0] * size
    for i in range(size):
        if x[i] == 0.0:
            continue
        for j in range(size):
            if y[j] == 0.0:
                continue
            k = i * size + j
            out[masks[k]] += signs[k] * x[i] * y[j]
    return np.array(out)


# -- helpers -------------------------------------------------------------------------


def _random_units(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _worst(rows) -> float:
    """Largest row norm of a (..., k) residual array; NaN if any row is NaN."""
    return float(np.max(np.linalg.norm(rows, axis=-1)))


def _scores(units: np.ndarray, lam: int) -> np.ndarray:
    """Abstract coefficients (N, 4) of the standard scores lam * n_j beta_j."""
    n = unit_vector(units)
    return np.concatenate([np.zeros((len(n), 1)), lam * n], axis=1)


def _frame_matrix(lam: int) -> np.ndarray:
    """Columns are the coefficient vectors of 1 and the frame's beta_1..beta_3."""
    frame = build_frame(lam)
    return np.stack([Multivector.scalar(3, 1.0).coeffs, *(b.coeffs for b in frame.beta)], axis=1)


EPS_TRIPLES = ((1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1), (2, 1, 3, -1), (3, 2, 1, -1), (1, 3, 2, -1))


# -- clifford_core checks --------------------------------------------------------------


def check_generator_anticommutation(dim: int) -> CheckResult:
    worst = 0.0
    for j in range(1, dim + 1):
        for k in range(1, dim + 1):
            ej = Multivector.basis_vector(dim, j)
            ek = Multivector.basis_vector(dim, k)
            anti = geometric_product(ej, ek) + geometric_product(ek, ej)
            want = Multivector.scalar(dim, 2.0 if j == k else 0.0)
            worst = max(worst, norm(anti - want))
    return CheckResult(f"generator anticommutation, Cl({dim},0)", worst, 0.0)


def check_associativity(dim: int, rng, n_triples: int = 100) -> CheckResult:
    x, y, z = np.moveaxis(rng.normal(size=(n_triples, 3, 1 << dim)), 1, 0)
    lhs = _product("geometric", _product("geometric", x, y), z)
    rhs = _product("geometric", x, _product("geometric", y, z))
    scale = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1) * np.linalg.norm(z, axis=1)
    worst = float(np.max(np.linalg.norm(lhs - rhs, axis=1) / scale))
    return CheckResult(f"associativity on random triples, Cl({dim},0)", worst, FIXED_TOL)


def check_vector_product_decomposition(rng, tol: float, n_pairs: int = 200) -> CheckResult:
    av = _vector_coeffs(_random_units(rng, n_pairs), 3)
    bv = _vector_coeffs(_random_units(rng, n_pairs), 3)
    diff = _product("geometric", av, bv) - _product("contract", av, bv) - _product("wedge", av, bv)
    return CheckResult("vector product = contraction + wedge", _worst(diff), tol)


def check_product_against_naive_oracle(dim: int, rng, tol: float, n_pairs: int) -> CheckResult:
    size = 1 << dim
    xor, sign, _ = _tables(dim)
    masks, signs = _naive_table(dim)
    # exhaustive blade-level comparison of the fast Cayley tables
    worst = float(np.any(np.reshape(masks, (size, size)) != xor)
                  or np.any(np.reshape(signs, (size, size)) != sign))
    # dense random multivector pairs through both full product paths
    for _ in range(n_pairs):
        x = rng.normal(size=size)
        y = rng.normal(size=size)
        fast = geometric_product(Multivector(dim, x), Multivector(dim, y)).coeffs
        worst = max(worst, float(np.max(np.abs(fast - _naive_product(x, y, masks, signs)))))
    return CheckResult(f"fast product vs naive blade multiplier, Cl({dim},0)", worst, tol)


def check_rotor_rotation(rng, n_cases: int = 100) -> CheckResult:
    worst = 0.0
    for _ in range(n_cases):
        u = _random_units(rng, 1)[0]
        w = rng.normal(size=3)
        w -= np.dot(w, u) * u
        w /= np.linalg.norm(w)
        theta = rng.uniform(-2.0, 2.0)
        B = wedge(vector3(u), vector3(w))
        R = rotor_exp(B, theta)
        v = rng.uniform(-1, 1) * u + rng.uniform(-1, 1) * w
        out = geometric_product(geometric_product(R, vector3(v)), reversion(R))
        cu, cw = np.dot(v, u), np.dot(v, w)
        want = (cu * math.cos(2 * theta) + cw * math.sin(2 * theta)) * u + (
            -cu * math.sin(2 * theta) + cw * math.cos(2 * theta)
        ) * w
        worst = max(worst, float(np.max(np.abs(out.vector_components() - want))))
    return CheckResult("rotor sandwich rotates by twice the angle", worst, FIXED_TOL)


def check_rotor_unit(rng, tol: float, n_cases: int = 100) -> CheckResult:
    worst = 0.0
    for _ in range(n_cases):
        c = _random_units(rng, 1)[0]
        R = rotor_exp(contract(volume3(), vector3(c)), rng.uniform(-3, 3))
        worst = max(worst, abs(norm(R) - 1.0))
        worst = max(
            worst, norm(geometric_product(R, reversion(R)) - Multivector.scalar(3, 1.0))
        )
    return CheckResult("rotor norm and reversion inverse", worst, tol)


# -- frame and orientation checks --------------------------------------------------------


def check_frame_subalgebra(lam: int, tol: float) -> CheckResult:
    """beta_j beta_k = -delta_jk - lam eps_jkl beta_l in the embedded frame."""
    frame = build_frame(lam)
    worst = 0.0
    for j in range(1, 4):
        got = geometric_product(frame.beta[j - 1], frame.beta[j - 1])
        worst = max(worst, norm(got - Multivector.scalar(3, -1.0)))
    for j, k, l, s in EPS_TRIPLES:
        got = geometric_product(frame.beta[j - 1], frame.beta[k - 1])
        want = float(-lam * s) * frame.beta[l - 1]
        worst = max(worst, norm(got - want))
    side = "right" if lam == 1 else "left"
    return CheckResult(f"{side}-frame bivector subalgebra (lam={lam:+d})", worst, tol)


def check_frame_squares(lam: int) -> CheckResult:
    frame = build_frame(lam)
    worst = 0.0
    for b in frame.beta:
        worst = max(worst, norm(geometric_product(b, b) - Multivector.scalar(3, -1.0)))
    return CheckResult(f"basis bivectors square to -1 (lam={lam:+d})", worst, 0.0)


def check_frame_anticommutation(lam: int) -> CheckResult:
    frame = build_frame(lam)
    worst = 0.0
    for j in range(3):
        for k in range(3):
            if j == k:
                continue
            anti = geometric_product(frame.beta[j], frame.beta[k]) + geometric_product(
                frame.beta[k], frame.beta[j]
            )
            worst = max(worst, norm(anti))
    return CheckResult(f"basis bivectors anticommute (lam={lam:+d})", worst, 0.0)


def check_ordered_product(lam: int) -> CheckResult:
    got = build_frame(lam).ordered_product()
    residual = norm(got - Multivector.scalar(3, float(lam)))
    hand = "positive" if lam == 1 else "negative"
    return CheckResult(f"ordered frame product is {hand} (lam={lam:+d})", residual, 0.0)


def check_score_expansion_embedded(lam: int, rng, tol: float, n_pairs: int) -> CheckResult:
    """{a_j beta_j}{b_k beta_k} = -a.b - lam (a x b).beta in the lam frame."""
    M = _frame_matrix(lam)
    a, b = _random_units(rng, n_pairs), _random_units(rng, n_pairs)
    got = _product("geometric", a @ M[:, 1:].T, b @ M[:, 1:].T)
    want = np.concatenate([-np.sum(a * b, axis=1, keepdims=True), -lam * np.cross(a, b)], axis=1)
    return CheckResult(
        f"frame score expansion, epsilon sign {'-' if lam == 1 else '+'} (lam={lam:+d})",
        _worst(got - want @ M.T),
        tol,
    )


def check_combined_identity(lam: int, rng, tol: float, n_pairs: int, eps_sign: float) -> CheckResult:
    """(mu.a)(mu.b) = -a.b - mu.(a x b) in the abstract algebra."""
    a, b = _random_units(rng, n_pairs), _random_units(rng, n_pairs)
    got = np.stack(_structure_coeffs(_scores(a, lam).T, _scores(b, lam).T, eps_sign * lam), axis=1)
    want = np.concatenate([-np.sum(a * b, axis=1, keepdims=True), -lam * np.cross(a, b)], axis=1)
    return CheckResult(f"combined orientation identity (lam={lam:+d})", _worst(got - want), tol)


def check_duality(lam: int, rng, tol: float, n_pairs: int) -> CheckResult:
    a, b = _random_units(rng, n_pairs), _random_units(rng, n_pairs)
    worst = float(np.max(duality_check(a, b, lam)))
    return CheckResult(f"orientation duality relation (lam={lam:+d})", worst, tol)


def check_abstract_embedded_isomorphism(lam: int, rng, tol: float, eps_sign: float, n_pairs: int = 200) -> CheckResult:
    M = _frame_matrix(lam)
    x, y = np.moveaxis(rng.normal(size=(n_pairs, 2, 4)), 1, 0)
    abstract = np.stack(_structure_coeffs(x.T, y.T, eps_sign * lam), axis=1)
    embedded = _product("geometric", x @ M.T, y @ M.T)
    return CheckResult(f"abstract/embedded isomorphism (lam={lam:+d})", _worst(abstract @ M.T - embedded), tol)


def check_score_square(lam: int, rng, tol: float, eps_sign: float, n_cases: int = 200) -> CheckResult:
    s = _scores(_random_units(rng, n_cases), lam).T
    got = np.stack(_structure_coeffs(s, s, eps_sign * lam), axis=1)
    return CheckResult(f"standard score squares to -1 (lam={lam:+d})", _worst(got - [-1.0, 0, 0, 0]), tol)


def check_vector_basis_flip() -> CheckResult:
    """Flipping e_y -> -e_y flips I but leaves the bivector handedness at +1."""
    ex = Multivector.basis_vector(3, 1)
    ey = -1.0 * Multivector.basis_vector(3, 2)
    ez = Multivector.basis_vector(3, 3)
    I_flipped = geometric_product(geometric_product(ex, ey), ez)
    beta = [contract(I_flipped, v) for v in (ex, ey, ez)]
    prod = geometric_product(geometric_product(beta[0], beta[1]), beta[2])
    residual = norm(prod - Multivector.scalar(3, 1.0))
    residual = max(residual, norm(I_flipped + volume3()))
    return CheckResult("vector-basis flip leaves bivector handedness", residual, 0.0)


def check_hidden_basis(lam: int) -> CheckResult:
    basis = hidden_basis(lam)
    volume_coeff = basis.volume_element().coeffs[-1]
    residual = abs(volume_coeff - float(lam))
    others = sum(1 for b in basis.blades if b.coeffs[-1] != 0.0)
    residual = max(residual, float(others - 1))
    return CheckResult(f"hidden basis volume element sign (lam={lam:+d})", residual, 0.0)


def check_mixed_orientation_rejected() -> CheckResult:
    x = AbstractElement(0.0, (1.0, 0.0, 0.0), 1)
    y = AbstractElement(0.0, (1.0, 0.0, 0.0), -1)
    try:
        abstract_product(x, y)
    except OrientationMixError:
        return CheckResult("mixed-orientation products rejected", 0.0, 0.0)
    return CheckResult("mixed-orientation products rejected", 1.0, 0.0)


# -- suites --------------------------------------------------------------------------------


def equation_suite(
    tolerance: float = IDENTITY_TOL,
    n_pairs: int = 1000,
    seed: int = 20240901,
    eps_sign: float = -1.0,
) -> list[CheckResult]:
    """The frame-identity block: subalgebras, handedness, score expansions,
    and the combined orientation identity, over `n_pairs` random unit-vector
    pairs and both orientations."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1: the random-pair checks would not run")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    rng = np.random.default_rng(seed)
    results = [
        check_frame_subalgebra(1, tolerance),
        check_frame_squares(1),
        check_frame_squares(-1),
        check_frame_anticommutation(1),
        check_frame_anticommutation(-1),
        check_ordered_product(1),
        check_ordered_product(-1),
        check_frame_subalgebra(-1, tolerance),
        check_score_expansion_embedded(1, rng, tolerance, n_pairs),
        check_score_expansion_embedded(-1, rng, tolerance, n_pairs),
        check_combined_identity(1, rng, tolerance, n_pairs, eps_sign),
        check_combined_identity(-1, rng, tolerance, n_pairs, eps_sign),
    ]
    return results


def run_identity_checks(
    tolerance: float = IDENTITY_TOL,
    n_pairs: int = 1000,
    seed: int = 20240901,
    inject_sign_flip: bool = False,
) -> list[CheckResult]:
    """Every clifford_core and frame property check, in a fixed order.

    `inject_sign_flip` corrupts the epsilon sign of the abstract structure
    constants (test mode): the abstract-side checks must then fail.
    """
    eps_sign = 1.0 if inject_sign_flip else -1.0
    rng = np.random.default_rng(seed)
    results = list(equation_suite(tolerance, n_pairs, seed, eps_sign))
    results += [
        check_duality(1, rng, tolerance, n_pairs),
        check_duality(-1, rng, tolerance, n_pairs),
        check_abstract_embedded_isomorphism(1, rng, tolerance, eps_sign),
        check_abstract_embedded_isomorphism(-1, rng, tolerance, eps_sign),
        check_score_square(1, rng, tolerance, eps_sign),
        check_score_square(-1, rng, tolerance, eps_sign),
        check_vector_basis_flip(),
        check_hidden_basis(1),
        check_hidden_basis(-1),
        check_mixed_orientation_rejected(),
        check_generator_anticommutation(3),
        check_generator_anticommutation(7),
        check_associativity(3, rng),
        check_associativity(7, rng),
        check_vector_product_decomposition(rng, tolerance),
        check_product_against_naive_oracle(3, rng, tolerance, n_pairs=20),
        check_product_against_naive_oracle(7, rng, tolerance, n_pairs=5),
        check_rotor_rotation(rng),
        check_rotor_unit(rng, tolerance),
    ]
    return results
