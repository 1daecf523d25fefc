"""Handed bivector frames and the orientation-parameterized subalgebra.

An orientation is a sign lam in {+1, -1}.  It selects one of two bivector
frames in Cl(3,0): beta_j = lam * (I . e_j), where I = e1 e2 e3 is the fixed
right-handed volume element.  Both frames satisfy beta_j^2 = -1 and pairwise
anticommutation; they are told apart by the ordered product beta_1 beta_2
beta_3 = lam and by the sign of the epsilon term in their subalgebra

    beta_j beta_k = -delta_jk - lam * eps_jkl beta_l.

The same subalgebra is also realized abstractly on the formal span
{1, beta_x, beta_y, beta_z} with lam entering only through the structure
constants (`AbstractElement`).  The two representations are kept in lockstep:
every single-orientation product can be cross-checked against its embedded
realization, while products that treat lam as a live parameter (the combined
identity, the trial averages) are computed abstractly.  Elements of opposite
orientation never combine; attempting to mix them raises
`OrientationMixError`.

The embedded frame is one (3, 8) coefficient array (`_frame_coeffs`), which
the identity suite reads.  The estimators and the suite build standard scores
lam n_j beta_j as (4, N) `_score_coeffs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multivector import Multivector, _cross, _product, _vector_coeffs, unit_vector, wedge

ORIENTATIONS = (1, -1)

#: Read-only coefficients of the right-handed volume element I = e1 e2 e3.
_VOLUME3 = Multivector.volume(3).coeffs


class OrientationMixError(ValueError):
    """Raised when elements carrying different orientations are combined."""


def check_orientation(lam: int) -> int:
    if lam not in ORIENTATIONS:
        raise ValueError(f"orientation must be +1 or -1, got {lam!r}")
    return int(lam)


def _frame_coeffs(lam: int) -> np.ndarray:
    """(3, 8) coefficients of the frame beta_j = lam * (I . e_j), j = 1..3,
    from one batched contraction; `lam` is already checked."""
    return float(lam) * _product("contract", _VOLUME3, _vector_coeffs(np.eye(3), 3))


@dataclass(frozen=True)
class AbstractElement:
    """Element c0 + c1 beta_x + c2 beta_y + c3 beta_z of one orientation's
    formal quaternion-like algebra."""

    c0: float
    c: tuple[float, float, float]
    lam: int

    def __post_init__(self):
        check_orientation(self.lam)
        vals = (self.c0, *self.c)
        if not all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")


def _structure_coeffs(x, y, s: float) -> tuple:
    """Product with 1 central and beta_j beta_k = -delta_jk + s * eps_jkl beta_l
    of elements whose coefficients over {1, beta_x, beta_y, beta_z} lie along
    the first axis of x and y: 4 floats each, or (4, N) arrays of N elements.
    Returns the 4 product coefficients the same way.  The model's subalgebra
    is s = -lam; the identity suite's sign-flip canary passes s = +lam."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 - (x1 * y1 + x2 * y2 + x3 * y3),
        x0 * y1 + y0 * x1 + s * (x2 * y3 - x3 * y2),
        x0 * y2 + y0 * x2 + s * (x3 * y1 - x1 * y3),
        x0 * y3 + y0 * x3 + s * (x1 * y2 - x2 * y1),
    )


def abstract_product(x: AbstractElement, y: AbstractElement) -> AbstractElement:
    """Product in the orientation's formal algebra,
    beta_j beta_k = -delta_jk - lam * eps_jkl beta_l."""
    if x.lam != y.lam:
        raise OrientationMixError(
            "cannot multiply elements of opposite orientation; the two handed "
            "subalgebras never combine"
        )
    c0, *c = _structure_coeffs((x.c0, *x.c), (y.c0, *y.c), -1.0 * x.lam)
    return AbstractElement(c0, tuple(c), x.lam)


def _score_coeffs(n: np.ndarray, lam: int) -> np.ndarray:
    """(4, N) coefficients [0, lam n] over {1, beta_x, beta_y, beta_z} of the
    standard scores lam n_j beta_j of the normalized rows n (N, 3)."""
    return np.vstack([np.zeros(len(n)), lam * n.T])


def duality_check(a, b, lam: int) -> float | np.ndarray:
    """Residual of the orientation's duality relation, evaluated in Cl(3,0)
    with the orientation's own trivector lam * I:

        || a ^ b  -  lam * ((lam I) . (a x b)) ||

    for one pair of unit vectors, or one residual per row for (N, 3) arrays.
    """
    lam = check_orientation(lam)
    a = unit_vector(a)
    b = unit_vector(b)
    lhs = _product("wedge", _vector_coeffs(a, 3), _vector_coeffs(b, 3))
    mu = float(lam) * _VOLUME3
    rhs = float(lam) * _product("contract", mu, _vector_coeffs(_cross(a, b), 3))
    return np.linalg.norm(lhs - rhs, axis=-1)


def hidden_basis(lam: int) -> tuple[Multivector, ...]:
    """Basis {1, e_x, e_y, e_z, e_x^e_y, e_y^e_z, e_z^e_x, lam * e_x e_y e_z};
    the volume element, scaled by lam, comes last."""
    lam = check_orientation(lam)
    ex, ey, ez = (Multivector.basis_vector(3, j) for j in (1, 2, 3))
    return (
        Multivector.scalar(3, 1.0),
        ex,
        ey,
        ez,
        wedge(ex, ey),
        wedge(ey, ez),
        wedge(ez, ex),
        Multivector(3, float(lam) * _VOLUME3),
    )
