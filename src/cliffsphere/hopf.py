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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import check_orientation, cross
from .multivector import (
    Multivector,
    contract,
    geometric_product,
    norm,
    reversion,
    rotor_exp,
    unit_vector,
    wedge,
)

#: Two directions are treated as spanning a usable rotation axis only if
#: |a x b| exceeds this.
AXIS_TOL = 1e-6


class DegenerateAxisError(ValueError):
    """The direction pair is too close to (anti)parallel to define an axis."""


def _axis_between(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit rotation axis a x b / |a x b| and the angle from a to b about it."""
    axb = cross(a, b)
    s = float(np.linalg.norm(axb))
    if s <= AXIS_TOL:
        raise DegenerateAxisError(
            f"|a x b| = {s!r} is too small to define a rotation axis"
        )
    phi = math.atan2(s, float(np.dot(a, b)))
    return axb / s, phi


def plane_bivector(axis) -> Multivector:
    """Unit bivector I . c of the plane perpendicular to the unit axis c."""
    return contract(Multivector.volume(3), Multivector.from_vector(unit_vector(axis), dim=3))


def rotate_vector(v, axis, angle: float) -> np.ndarray:
    """Rotate v by `angle` about the unit `axis` (right-hand rule) using the
    two-sided half-angle rotor sandwich R v ~R."""
    R = rotor_exp(plane_bivector(axis), -0.5 * angle)
    sandwich = geometric_product(
        geometric_product(R, Multivector.from_vector(np.asarray(v, dtype=np.float64), dim=3)),
        reversion(R),
    )
    return sandwich.vector_components()


@dataclass(frozen=True)
class FiberProbe:
    """Validated fiber angles for the transition checks, which pin psi_b to
    psi_a + phi."""

    psi_a: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.psi_a < math.inf:
            raise ValueError("psi_a must be finite and positive")
        if not 0.0 < self.phi < math.pi:
            raise ValueError("phi must lie strictly between 0 and pi")


def transition_relation(a, b, psi_a: float) -> tuple[Multivector, Multivector, float]:
    """Both sides of b b' = (a b)(a a') and their coefficient residual.

    a' and b' are a and b rotated about c = a x b / |a x b| through psi_a
    and psi_a + phi_ab respectively; the identity is exact for any psi_a.
    """
    a = unit_vector(a)
    b = unit_vector(b)
    c, phi = _axis_between(a, b)
    psi_a = math.fmod(psi_a, math.tau)
    a_prime = rotate_vector(a, c, psi_a)
    b_prime = rotate_vector(b, c, psi_a + phi)
    va, vb, va_prime, vb_prime = (Multivector.from_vector(v, dim=3) for v in (a, b, a_prime, b_prime))
    lhs = geometric_product(vb, vb_prime)
    rhs = geometric_product(geometric_product(va, vb), geometric_product(va, va_prime))
    return lhs, rhs, norm(lhs - rhs)


def quaternion_point(n, n_prime, lam: int, side_sign: int) -> Multivector:
    """The 3-sphere point (side_sign * I.n)(lam * I.n'); unit norm, with
    scalar part -side_sign * lam * (n . n')."""
    if side_sign not in (1, -1):
        raise ValueError("side_sign must be +1 or -1")
    lam = check_orientation(lam)
    n = unit_vector(n)
    n_prime = unit_vector(n_prime)
    left = float(side_sign) * contract(Multivector.volume(3), Multivector.from_vector(n, dim=3))
    right = float(lam) * contract(Multivector.volume(3), Multivector.from_vector(n_prime, dim=3))
    return geometric_product(left, right)


def parallel_transport_check(a, b, psi_a: float, lam: int) -> float:
    """Residual of (+I.b)(lam I.b') = R_ab {(+I.a)(lam I.a')} with the rotor
    acting by left multiplication and psi_b = psi_a + phi_ab."""
    a = unit_vector(a)
    b = unit_vector(b)
    c, phi = _axis_between(a, b)
    psi_a = math.fmod(psi_a, math.tau)
    a_prime = rotate_vector(a, c, psi_a)
    b_prime = rotate_vector(b, c, psi_a + phi)
    lhs = quaternion_point(b, b_prime, lam, +1)
    transported = geometric_product(
        rotor_exp(plane_bivector(c), phi), quaternion_point(a, a_prime, lam, +1)
    )
    return norm(lhs - transported)


def phase_flip_at_pi(psi_a: float) -> tuple[Multivector, Multivector, float]:
    """Fiber phases exp((I.c) psi_a) and exp((I.c)(psi_a + pi)) about the
    axis c = e_z: the second is the negative of the first.  Returns both
    quaternions and ||q_a + q_b||.

    The transition angle pi cannot be realized by a direction pair (the axis
    degenerates), so the check runs directly in fiber coordinates about an
    explicit axis.
    """
    B = plane_bivector((0.0, 0.0, 1.0))
    psi_a = math.fmod(psi_a, math.tau)
    q_a = rotor_exp(B, psi_a)
    q_b = rotor_exp(B, psi_a + math.pi)
    return q_a, q_b, norm(q_a + q_b)


# -- null-bivector limit probe ---------------------------------------------------


@dataclass(frozen=True)
class NullLimitRow:
    """One probe row; wedge_norm and cross_norm are the two code paths behind
    the magnitude.  Undefined rows (zero separation) carry NaNs."""

    psi_rad: float
    magnitude: float
    axis: tuple[float, float, float]
    wedge_norm: float
    cross_norm: float


def perpendicular_axis(a) -> np.ndarray:
    """A deterministic unit axis perpendicular to the unit vector a."""
    a = unit_vector(a)
    ref = np.array([0.0, 0.0, 1.0]) if abs(a[2]) <= 0.9 else np.array([1.0, 0.0, 0.0])
    axis = cross(a, ref)
    return axis / np.linalg.norm(axis)


def null_limit_probe(a, separations) -> list[NullLimitRow]:
    """Normalized wedge (a ^ a') / |a x a'| for a' at each separation angle.

    a' is a rotated about a fixed axis perpendicular to a, so the plane of
    the wedge is the same for every row.  The magnitude is |a ^ a'| (Clifford
    wedge) divided by |a x a'| (numpy cross); the two norms are independent
    computations of the same quantity.  Magnitudes are reported as computed,
    not asserted.
    """
    a = unit_vector(a)
    seps = [float(p) for p in separations]
    if not seps:
        raise ValueError("separations must not be empty: the probe would not run")
    if not all(0.0 <= p < math.inf for p in seps):
        raise ValueError("separations must be finite and nonnegative")
    if any(x <= y for x, y in zip(seps, seps[1:])):
        raise ValueError("separations must be strictly decreasing")
    axis = perpendicular_axis(a)
    rows = []
    nan3 = (math.nan, math.nan, math.nan)
    for psi in seps:
        a_prime = rotate_vector(a, axis, psi)
        w = wedge(Multivector.from_vector(a, dim=3), Multivector.from_vector(a_prime, dim=3))
        wedge_norm = norm(w)
        cross_norm = float(np.linalg.norm(cross(a, a_prime)))
        if cross_norm == 0.0:
            rows.append(NullLimitRow(psi, math.nan, nan3, wedge_norm, cross_norm))
            continue
        unit_w = (1.0 / wedge_norm) * w
        dual = contract(-1.0 * Multivector.volume(3), unit_w)
        rows.append(
            NullLimitRow(
                psi,
                wedge_norm / cross_norm,
                tuple(float(x) for x in dual.vector_components()),
                wedge_norm,
                cross_norm,
            )
        )
    return rows
