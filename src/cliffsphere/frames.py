"""Handed bivector frames, the orientation axis and the handed products on it.

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

Only this module builds batches over the orientation axis (a leading axis
of 2, row 0 for lam = +1, values `_LAM`): the frames, the standard scores
and their abstract products, the dual-plane products (s I.n)(lam I.n') and
the duality residuals, which the estimators, the transport and the identity
suite share.  Every plane I . n dual to a vector is built by `_dual_plane`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multivector import Multivector, _cross, _product, _vector_coeffs

ORIENTATIONS = (1, -1)

#: The orientations lam = +1, -1 as floats, in the order of a batch's leading axis.
_LAM = np.array(ORIENTATIONS, dtype=np.float64)

#: Read-only coefficients of the right-handed volume element I = e1 e2 e3.
_VOLUME3 = Multivector.volume(3).coeffs


class OrientationMixError(ValueError):
    """Raised when elements carrying different orientations are combined."""


def check_orientation(lam: int) -> int:
    if lam not in ORIENTATIONS:
        raise ValueError(f"orientation must be +1 or -1, got {lam!r}")
    return int(lam)


def _dual_plane(n: np.ndarray) -> np.ndarray:
    """Coefficients of the plane I . n dual to the vector n, or (N, 8) rows
    of them for the (N, 3) rows of n, from one contraction."""
    return _product("contract", _VOLUME3, _vector_coeffs(n, 3))


def _frame_coeffs(lam) -> np.ndarray:
    """(3, 8) coefficients of the frame beta_j = lam * (I . e_j), j = 1..3,
    from one batched contraction, or (k, 3, 8), one frame per orientation, for
    a sequence of k orientations such as `ORIENTATIONS`; `lam` is already
    checked."""
    return np.multiply.outer(np.asarray(lam, dtype=np.float64), _dual_plane(np.eye(3)))


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


def _structure_coeffs(x, y, s) -> tuple:
    """Product with 1 central and beta_j beta_k = -delta_jk + s * eps_jkl beta_l
    of elements whose coefficients over {1, beta_x, beta_y, beta_z} lie along
    the first axis of x and y: 4 floats each, or (4, N) arrays of N elements.
    Returns the 4 product coefficients the same way.  The model's subalgebra
    is s = -lam, the identity suite's sign-flip canary s = +lam; `s` is one
    float, or an (N,) array with one sign per column."""
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


def _scores(n: np.ndarray) -> np.ndarray:
    """(4, 2 * m) coefficients [0, lam n] over {1, beta_x, beta_y, beta_z} of
    the standard scores lam n_j beta_j of the m rows n (m, 3), the first m
    columns at lam = +1 and the rest at lam = -1."""
    return np.vstack([np.zeros(2 * len(n)), (_LAM[:, None, None] * n).reshape(-1, 3).T])


def _abstract_products(x: np.ndarray, y: np.ndarray, eps_sign: float) -> np.ndarray:
    """(2, m, 4) products of the columns of x, y (4, 2 * m), the first m at
    lam = +1 and the rest at lam = -1, each in its orientation's abstract
    algebra: one `_structure_coeffs` call, with s = eps_sign * lam per column.
    The model's products take eps_sign = -1."""
    lam = np.repeat(_LAM, x.shape[1] // 2)
    return np.stack(_structure_coeffs(x, y, eps_sign * lam), axis=1).reshape(2, -1, 4)


def _handed_products(side_sign: float, n: np.ndarray, n_prime: np.ndarray) -> np.ndarray:
    """(2, N, 8) coefficients of the Cl(3,0) products (side_sign I.n)(lam I.n')
    of the unit rows n, n' (N, 3), row 0 at lam = +1: both planes from one
    contraction, then both orientations in one product batch."""
    left, right = np.split(_dual_plane(np.concatenate([n, n_prime])), 2)
    left = np.concatenate([side_sign * left] * 2)
    return _product("geometric", left, (_LAM[:, None, None] * right).reshape(-1, 8)).reshape(2, len(n), 8)


def _duality_residuals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(2, ...) residuals || a ^ b - lam * ((lam I) . (a x b)) || of the
    duality relation of the unit vectors a, b (..., 3), row 0 at lam = +1:
    the wedge once, and the contractions of both orientations' trivectors
    lam * I in one batch."""
    lhs = _product("wedge", _vector_coeffs(a, 3), _vector_coeffs(b, 3))
    dual = _vector_coeffs(_cross(a, b), 3).reshape(-1, 8)
    lam = np.repeat(_LAM, len(dual))[:, None]
    rhs = lam * _product("contract", lam * _VOLUME3, np.concatenate([dual, dual]))
    return np.linalg.norm(lhs - rhs.reshape(2, *lhs.shape), axis=-1)


def hidden_basis(lam: int) -> tuple[Multivector, ...]:
    """Basis {1, e_x, e_y, e_z, e_x^e_y, e_y^e_z, e_z^e_x, lam * e_x e_y e_z};
    the volume element, scaled by lam, comes last.  The three bivectors are
    one batched wedge of e_x, e_y, e_z with e_y, e_z, e_x."""
    lam = check_orientation(lam)
    vectors = tuple(Multivector.basis_vector(3, j) for j in (1, 2, 3))
    e = np.stack([v.coeffs for v in vectors])
    return (
        Multivector.scalar(3, 1.0),
        *vectors,
        *(Multivector(3, row) for row in _product("wedge", e, e[[1, 2, 0]])),
        Multivector(3, float(lam) * _VOLUME3),
    )
