"""Rotor transport on the 3-sphere and the null-bivector limit probe.

For unit vectors u, v perpendicular to a unit axis c, the geometric product
u v equals exp((I.c) * theta) with theta the angle from u to v about c.  The
twist of the circle fibration shows up in the exact relation between such
exponentials: with a' and b' obtained by rotating a and b about c = a x b /
|a x b| through psi_a and psi_b = psi_a + phi_ab, the products satisfy
b b' = (a b)(a a') identically (not merely to first order in psi_a).

The limit probe studies the normalized wedge (a ^ a') / |a x a'| as a'
closes in on a: its magnitude and plane are computed and reported as they
come out, with no assertion about the limiting behavior.

The transition, transport and phase-flip relations are 2 pi-periodic in
psi_a, so each reduces psi_a modulo 2 pi (exactly, by fmod) before adding phi
or pi; the sum then rounds at ulp(2 pi), not ulp(psi_a).

Everything runs on coefficient arrays, the probe's separations as one batch
(each row bit for bit a batch of one) whose rows are one structured array
with the columns of ``null_limit.csv`` (`NULL_LIMIT_COLUMNS`).  `_transition` and `_transport` take
the pair of `_fiber_pair` ready made: a run of both builds it once, and its
three rotors as one rotor batch, whose plane is checked once.  The transport
multiplies with `frames._handed_products`, as the raw scores do.
"""

from __future__ import annotations

import math

import numpy as np

from .frames import ORIENTATIONS, _VOLUME3, _dual_plane, _handed_products
from .multivector import _cross, _product, _rotor_coeffs, _row_norms, _sandwich, _vector_coeffs, unit_vector

#: Two directions are treated as spanning a usable rotation axis only if
#: |a x b| exceeds this.
AXIS_TOL = 1e-6


class DegenerateAxisError(ValueError):
    """The direction pair is too close to (anti)parallel to define an axis."""


def _axis_between(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit rotation axis a x b / |a x b| and the angle from a to b about it."""
    axb = _cross(a, b)
    s = float(np.linalg.norm(axb))
    if s <= AXIS_TOL:
        raise DegenerateAxisError(f"|a x b| = {s!r} is too small to define a rotation axis")
    phi = math.atan2(s, float(np.dot(a, b)))
    return axb / s, phi


def _rotors(B: np.ndarray, angles) -> np.ndarray:
    """(N, 8) rotors exp(B t) = cos t + sin t B of the unit plane B, one row
    per finite angle t, by `math.sin` and `math.cos`, as the oracles' `rotor_exp`."""
    if not all(map(math.isfinite, angles)):
        raise ValueError("rotation angles must be finite")
    return _rotor_coeffs(B, *(np.array([f(t) for t in angles]) for f in (math.sin, math.cos)))


def _fiber_pair(a, b, psi_a: float):
    """The rotor exp(B phi) of the plane B = I.c of c = a x b / |a x b| and
    the angle phi from a to b, and the (4, 3) rows a, b, a', b': a and b
    renormalized by `unit_vector`, then rotated about c by psi_a (mod 2 pi)
    and psi_a + phi, by the sandwich with exp(-B psi / 2).  The three rotors
    are one batch."""
    a, b = unit_vector(a), unit_vector(b)
    c, phi = _axis_between(a, b)
    psi_a = math.fmod(psi_a, math.tau)
    R = _rotors(_dual_plane(unit_vector(c)), [-0.5 * psi_a, -0.5 * (psi_a + phi), phi])
    ab = np.array([a, b])
    return R[2], np.concatenate([ab, _sandwich(R[:2], ab)])


def _check_psi_a(psi_a: float) -> float:
    """The ``--psi-a`` fiber angle, refused unless finite and positive."""
    if not 0.0 < psi_a < math.inf:
        raise ValueError("psi_a must be finite and positive")
    return psi_a


def _check_phi_deg(phi_deg: float) -> float:
    """``--phi-deg`` as phi in radians, refused unless 0 < phi < pi and
    sin phi > `AXIS_TOL`, as |a x b| must be for the CLI's pair a = e_x,
    b = (cos phi, sin phi, 0)."""
    phi = math.radians(phi_deg)
    if not 0.0 < phi < math.pi:
        raise ValueError("phi must lie strictly between 0 and pi")
    if not math.sin(phi) > AXIS_TOL:
        raise ValueError(f"sin(phi) = {math.sin(phi)!r} is too small to define a rotation axis")
    return phi


def _transition(pair) -> tuple[np.ndarray, np.ndarray, float]:
    """Both sides of b b' = (a b)(a a') for a `_fiber_pair`, and their
    coefficient residual; the identity is exact for any psi_a."""
    v = _vector_coeffs(pair[1], 3)  # a, b, a', b'
    lhs, ab, aa_prime = _product("geometric", v[[1, 0, 0]], v[[3, 1, 2]])  # b b', a b, a a'
    rhs = _product("geometric", ab, aa_prime)
    return lhs, rhs, float(np.linalg.norm(lhs - rhs))


def _transport(pair, lam: int) -> float:
    """Residual of (+I.b)(lam I.b') = R_ab {(+I.a)(lam I.a')} for a
    `_fiber_pair` and an orientation lam in {+1, -1}, with the rotor acting
    by left multiplication."""
    R_ab, v = pair
    v = unit_vector(v)  # renormalized once more: dropping it changes the residual's last bits
    q_b, q_a = _handed_products(1.0, v[[1, 0]], v[[3, 2]])[ORIENTATIONS.index(lam)]  # b, a and b', a'
    return float(np.linalg.norm(q_b - _product("geometric", R_ab, q_a)))


def phase_flip_at_pi(psi_a: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Fiber phases exp((I.c) psi_a) and exp((I.c)(psi_a + pi)) about the
    axis c = e_z: the second is the negative of the first.  Returns both
    quaternions' (8,) coefficients and ||q_a + q_b||.

    The transition angle pi cannot be realized by a direction pair (the axis
    degenerates), so the check runs directly in fiber coordinates about an
    explicit axis.
    """
    psi_a = math.fmod(psi_a, math.tau)
    q_a, q_b = _rotors(_dual_plane(np.array([0.0, 0.0, 1.0])), [psi_a, psi_a + math.pi])
    return q_a, q_b, float(np.linalg.norm(q_a + q_b))


# -- null-bivector limit probe ---------------------------------------------------


#: The columns of a probe row, in `null_limit.csv` order, all float64: the
#: separation, the normalized wedge's magnitude and its plane's unit axis.
#: An undefined row (zero separation) carries NaNs after its separation.
NULL_LIMIT_COLUMNS = np.dtype(
    [(name, np.float64) for name in ("psi_rad", "wedge_magnitude", "axis_x", "axis_y", "axis_z")])


def perpendicular_axis(a) -> np.ndarray:
    """A deterministic unit axis perpendicular to the unit vector a."""
    a = unit_vector(a)
    ref = np.array([0.0, 0.0, 1.0]) if abs(a[2]) <= 0.9 else np.array([1.0, 0.0, 0.0])
    axis = _cross(a, ref)
    return axis / np.linalg.norm(axis)


def _separations(values) -> list[float]:
    """`values` as floats, refused unless they are a non-empty, strictly
    decreasing list of finite, nonnegative angles."""
    seps = [float(p) for p in values]
    if not seps:
        raise ValueError("separations must not be empty: the probe would not run")
    if not all(0.0 <= p < math.inf for p in seps):
        raise ValueError("separations must be finite and nonnegative")
    if any(x <= y for x, y in zip(seps, seps[1:])):
        raise ValueError("separations must be strictly decreasing")
    return seps


def null_limit_probe(a, separations) -> np.ndarray:
    """Normalized wedge (a ^ a') / |a x a'| for a' at each separation angle,
    as (N,) `NULL_LIMIT_COLUMNS` rows.

    a' is a rotated about a fixed axis perpendicular to a, so the plane of
    the wedge is the same for every row.  The magnitude is |a ^ a'| (Clifford
    wedge) divided by |a x a'| (`_cross`); the two norms are independent
    computations of the same quantity.  Magnitudes are reported as computed,
    not asserted.
    """
    a = unit_vector(a)
    seps = _separations(separations)
    B = _dual_plane(unit_vector(perpendicular_axis(a)))
    a_prime = _sandwich(_rotors(B, [-0.5 * p for p in seps]), a)  # a turned by each separation
    w = _product("wedge", _vector_coeffs(a, 3), _vector_coeffs(a_prime, 3))
    wedge_norm, cross_norm = _row_norms(w), _row_norms(_cross(a, a_prime))
    ok = cross_norm != 0.0  # zero separation: the row is undefined
    rows = np.full((len(seps), 5), math.nan)  # five float64 make one NULL_LIMIT_COLUMNS row
    rows[:, 0] = seps
    rows[ok, 1] = wedge_norm[ok] / cross_norm[ok]
    rows[ok, 2:] = _product("contract", -1.0 * _VOLUME3, w[ok] * (1.0 / wedge_norm[ok, None]))[:, [1, 2, 4]]
    return rows.view(NULL_LIMIT_COLUMNS)[:, 0]
