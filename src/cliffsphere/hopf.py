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
(each row bit for bit a batch of one).  `_transition` and `_transport` take
the pair of `_fiber_pair` ready made, so a run of both builds it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import _VOLUME3
from .multivector import (
    Multivector, _cross, _product, _reversion_sign, _rotor_coeffs, _vector_coeffs, unit_vector)

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


def _plane_coeffs(axis) -> np.ndarray:
    """Coefficients of I . c, c the axis renormalized by `unit_vector`."""
    return _product("contract", _VOLUME3, _vector_coeffs(unit_vector(axis), 3))


def _rotors(B: np.ndarray, angles) -> np.ndarray:
    """(N, 8) rotors exp(B t) = cos t + sin t B of the unit plane B, one row
    per finite angle t, by `math.sin` and `math.cos` as in `rotor_exp`."""
    if not all(map(math.isfinite, angles)):
        raise ValueError("rotation angles must be finite")
    return _rotor_coeffs(B, *(np.array([f(t) for t in angles]) for f in (math.sin, math.cos)))


def _rotated(v: np.ndarray, B: np.ndarray, angles) -> np.ndarray:
    """(N, 3): the vector coefficients v, or row j of (N, 8) v, rotated by
    angles[j] about the axis of the unit plane B by the sandwich R v ~R,
    R = exp(-B angles[j] / 2); each row's bits are those of a batch of one."""
    R = _rotors(B, [-0.5 * t for t in angles])
    return _product("geometric", _product("geometric", R, v), R * _reversion_sign(3))[:, [1, 2, 4]]


def _fiber_pair(a, b, psi_a: float):
    """a and b renormalized by `unit_vector`, the plane B = I.c of c =
    a x b / |a x b|, the angle phi from a to b, and a', b': a and b rotated
    about c by psi_a (mod 2 pi) and psi_a + phi."""
    a, b = unit_vector(a), unit_vector(b)
    c, phi = _axis_between(a, b)
    psi_a = math.fmod(psi_a, math.tau)
    B = _plane_coeffs(c)
    return (a, b, B, phi, *_rotated(_vector_coeffs(np.array([a, b]), 3), B, [psi_a, psi_a + phi]))


@dataclass(frozen=True)
class FiberProbe:
    """Validated fiber angles for the transition checks, which pin psi_b to
    psi_a + phi.  sin phi must exceed `AXIS_TOL`, as |a x b| must for the
    CLI's pair a = e_x, b = (cos phi, sin phi, 0)."""

    psi_a: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.psi_a < math.inf:
            raise ValueError("psi_a must be finite and positive")
        if not 0.0 < self.phi < math.pi:
            raise ValueError("phi must lie strictly between 0 and pi")
        if not math.sin(self.phi) > AXIS_TOL:
            raise ValueError(f"sin(phi) = {math.sin(self.phi)!r} is too small to define "
                             "a rotation axis")


def _transition(pair) -> tuple[np.ndarray, np.ndarray, float]:
    """Both sides of b b' = (a b)(a a') for a `_fiber_pair`, and their
    coefficient residual; the identity is exact for any psi_a."""
    a, b, _, _, a_prime, b_prime = pair
    v = _vector_coeffs(np.array([a, b, a_prime, b_prime]), 3)
    lhs, ab, aa_prime = _product("geometric", v[[1, 0, 0]], v[[3, 1, 2]])  # b b', a b, a a'
    rhs = _product("geometric", ab, aa_prime)
    return lhs, rhs, float(np.linalg.norm(lhs - rhs))


def _quaternion_coeffs(n, n_prime, lam: int, side_sign: int) -> np.ndarray:
    """(side_sign I.n)(lam I.n') for unit vectors, or (N, 3) rows of them."""
    left = float(side_sign) * _product("contract", _VOLUME3, _vector_coeffs(n, 3))
    right = float(lam) * _product("contract", _VOLUME3, _vector_coeffs(n_prime, 3))
    return _product("geometric", left, right)


def _transport(pair, lam: int) -> float:
    """Residual of (+I.b)(lam I.b') = R_ab {(+I.a)(lam I.a')} for a
    `_fiber_pair` and an orientation lam in {+1, -1}, with the rotor acting
    by left multiplication."""
    a, b, B, phi, a_prime, b_prime = pair
    # each vector renormalized once more; dropping it changes the residual's last bits
    q_b, q_a = _quaternion_coeffs(np.array([unit_vector(b), unit_vector(a)]),
                                  np.array([unit_vector(b_prime), unit_vector(a_prime)]), lam, +1)
    transported = _product("geometric", _rotors(B, [phi])[0], q_a)
    return float(np.linalg.norm(q_b - transported))


def phase_flip_at_pi(psi_a: float) -> tuple[Multivector, Multivector, float]:
    """Fiber phases exp((I.c) psi_a) and exp((I.c)(psi_a + pi)) about the
    axis c = e_z: the second is the negative of the first.  Returns both
    quaternions and ||q_a + q_b||.

    The transition angle pi cannot be realized by a direction pair (the axis
    degenerates), so the check runs directly in fiber coordinates about an
    explicit axis.
    """
    psi_a = math.fmod(psi_a, math.tau)
    q_a, q_b = _rotors(_plane_coeffs((0.0, 0.0, 1.0)), [psi_a, psi_a + math.pi])
    return Multivector(3, q_a), Multivector(3, q_b), float(np.linalg.norm(q_a + q_b))


# -- null-bivector limit probe ---------------------------------------------------


@dataclass(frozen=True)
class NullLimitRow:
    """One probe row.  Undefined rows (zero separation) carry NaNs."""

    psi_rad: float
    magnitude: float
    axis: tuple[float, float, float]


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


def null_limit_probe(a, separations) -> list[NullLimitRow]:
    """Normalized wedge (a ^ a') / |a x a'| for a' at each separation angle.

    a' is a rotated about a fixed axis perpendicular to a, so the plane of
    the wedge is the same for every row.  The magnitude is |a ^ a'| (Clifford
    wedge) divided by |a x a'| (`_cross`); the two norms are independent
    computations of the same quantity.  Magnitudes are reported as computed,
    not asserted.
    """
    a = unit_vector(a)
    seps = _separations(separations)
    va = _vector_coeffs(a, 3)
    a_prime = _rotated(va, _plane_coeffs(perpendicular_axis(a)), seps)
    w = _product("wedge", va, _vector_coeffs(a_prime, 3))
    # one 1-D norm per row: a batched norm(axis=-1) can round differently
    wedge_norm = np.array([np.linalg.norm(row) for row in w])
    cross_norm = np.array([np.linalg.norm(row) for row in _cross(a, a_prime)])
    ok = cross_norm != 0.0  # zero separation: the row is undefined
    magnitude = np.divide(wedge_norm, cross_norm, out=np.full(len(seps), math.nan), where=ok)
    axis = np.full((len(seps), 3), math.nan)
    unit_w = w[ok] * (1.0 / wedge_norm[ok, None])
    axis[ok] = _product("contract", -1.0 * _VOLUME3, unit_w)[:, [1, 2, 4]]
    return [NullLimitRow(psi, float(m), tuple(map(float, ax)))
            for psi, m, ax in zip(seps, magnitude, axis)]
