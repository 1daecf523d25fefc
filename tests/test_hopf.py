"""Hopf transport tests: transition identity, left-action transport, null probe."""

import math

import numpy as np
import pytest

from cliffsphere.frames import ORIENTATIONS, _dual_plane, _handed_products
from cliffsphere.hopf import (
    AXIS_TOL,
    DegenerateAxisError,
    NULL_LIMIT_COLUMNS,
    null_limit_probe,
    perpendicular_axis,
    phase_flip_at_pi,
    _axis_between,
    _check_phi_deg,
    _check_psi_a,
    _fiber_pair,
    _rotors,
    _transition,
    _transport,
)
from cliffsphere.multivector import (
    Multivector,
    contract,
    geometric_product,
    scalar_part,
    unit_vector,
    wedge,
    _sandwich,
)

from .oracles import norm, null_limit_rows, reversion, rotor_exp, sandwich_rotation

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_pair(rng, min_cross=1e-3):
    while True:
        a, b = random_unit(rng), random_unit(rng)
        if np.linalg.norm(np.cross(a, b)) > min_cross:
            return a, b


def plane(c):
    """Unit bivector I . c of the plane perpendicular to the unit axis c, from
    the public products: a reference that shares no `hopf` code."""
    return contract(Multivector.volume(3), Multivector.from_vector(c))


def rotate(v, axis, angle):
    """v rotated by `angle` about `axis` through the steps that `hopf` runs:
    the sandwich with the rotor exp(-(I.c) angle / 2)."""
    return _sandwich(_rotors(_dual_plane(unit_vector(axis)), [-0.5 * angle]), v)[0]


def quaternion(n, n_prime, lam, side_sign):
    """The 3-sphere point (side_sign I.n)(lam I.n') of the unit vectors n, n',
    read from the batch of both orientations that the transport runs."""
    both = _handed_products(float(side_sign), unit_vector(n)[None], unit_vector(n_prime)[None])
    return Multivector(3, both[ORIENTATIONS.index(lam), 0])


def rodrigues(v, k, psi):
    """Independent rotation oracle: Rodrigues' formula."""
    v = np.asarray(v, dtype=float)
    k = np.asarray(k, dtype=float)
    return (
        v * math.cos(psi)
        + np.cross(k, v) * math.sin(psi)
        + k * np.dot(k, v) * (1 - math.cos(psi))
    )


# -- rotation plumbing ------------------------------------------------------------


def test_rotate_vector_matches_rodrigues_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        axis = random_unit(rng)
        v = rng.normal(size=3)
        psi = rng.uniform(-2 * math.pi, 2 * math.pi)
        got = rotate(v, axis, psi)
        assert np.max(np.abs(got - rodrigues(v, axis, psi))) < 1e-12


def test_rotor_unit_and_fixes_axis():
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = random_unit(rng)
        angle = rng.uniform(-3, 3)
        R = rotor_exp(plane(c), angle)
        assert np.linalg.norm(geometric_product(R, reversion(R)).coeffs - Multivector.blade(3, 0, 1.0).coeffs) < 1e-12
        assert np.max(np.abs(rotate(c, c, angle) - c)) < 1e-12


# the fiber probe's angles are checked at their own flags, `--psi-a` by
# `_check_psi_a` and `--phi-deg` by `_check_phi_deg`


@pytest.mark.parametrize("psi_a", [-0.5, 0.0, math.inf, math.nan])
def test_fiber_probe_requires_a_finite_positive_psi_a(psi_a):
    with pytest.raises(ValueError, match="psi_a must be finite and positive"):
        _check_psi_a(psi_a)


@pytest.mark.parametrize("phi", [0.0, math.pi, math.inf, math.nan])
def test_fiber_probe_requires_phi_inside_the_open_interval(phi):
    with pytest.raises(ValueError, match="phi"):
        _check_phi_deg(math.degrees(phi))  # the flag is in degrees


def test_fiber_probe_refuses_phi_exactly_where_the_axis_degenerates():
    # the CLI's pair a = e_x, b = (cos phi, sin phi, 0), phi = radians(--phi-deg):
    # _check_phi_deg refuses each --phi-deg whose phi _axis_between refuses,
    # so the refusal can name the flag
    degs = [1e-5, 179.99999]
    for edge in (math.degrees(math.asin(AXIS_TOL)), 180.0 - math.degrees(math.asin(AXIS_TOL))):
        for toward in (0.0, 180.0):
            deg = edge
            for _ in range(5):
                degs.append(deg)
                deg = math.nextafter(deg, toward)
    refused = []
    for deg in degs:
        phi = math.radians(deg)
        try:
            _axis_between(EX, np.array([math.cos(phi), math.sin(phi), 0.0]))
        except DegenerateAxisError:
            refused.append(deg)
            with pytest.raises(ValueError, match="too small to define a rotation axis"):
                _check_phi_deg(deg)
        else:
            assert _check_phi_deg(deg) == phi
    assert refused[:2] == degs[:2]  # the CLI's 1e-5 and 179.99999 degrees
    assert 2 < len(refused) < len(degs) - 2  # the ulps around each edge straddle it


# -- transition relation -----------------------------------------------------------


def test_transition_zero_fiber_angle_reduces_to_ab():
    # psi_a = 0: both sides equal a b = exp((I.c) phi); oracle: explicit
    # exponential evaluation
    lhs, rhs, res = _transition(_fiber_pair(EX, EY, 0.0))
    assert res < 1e-10
    expected = rotor_exp(plane(EZ), math.pi / 2).coeffs
    assert np.linalg.norm(lhs - expected) < 1e-12
    assert np.linalg.norm(rhs - expected) < 1e-12


def test_transition_perpendicular_small_fiber_angle():
    lhs, rhs, res = _transition(_fiber_pair(EX, EY, 0.01))
    assert res < 1e-10
    # oracle: complex-exponential model in the c-plane,
    # e^{i psi_b} = e^{i phi} e^{i psi_a}
    psi_b = 0.01 + math.pi / 2
    expected = rotor_exp(plane(EZ), psi_b).coeffs
    assert np.linalg.norm(lhs - expected) < 1e-12
    assert np.linalg.norm(rhs - expected) < 1e-12


def test_transition_residual_is_exact_not_first_order():
    # the identity holds at machine precision for fiber angles of any size
    rng = np.random.default_rng(3)
    for psi_a in (1e-1, 1e-2, 1e-3):
        for _ in range(30):
            a, b = random_pair(rng)
            _, _, res = _transition(_fiber_pair(a, b, psi_a))
            assert res < 1e-10


def test_transition_rejects_parallel_directions():
    with pytest.raises(DegenerateAxisError):
        _transition(_fiber_pair(EX, EX, 0.01))
    with pytest.raises(DegenerateAxisError):
        _transition(_fiber_pair(EX, -EX, 0.01))


# -- parallel transport ---------------------------------------------------------------


def test_transport_small_angle_perpendicular():
    assert _transport(_fiber_pair(EX, EY, 0.01), 1) < 1e-10


def test_transport_matches_exponential_bookkeeping():
    # oracle: for lam = +1 the transported quaternion is
    # -exp((I.c)(phi + psi_a))
    psi_a = 0.01
    phi = math.pi / 2
    lhs = quaternion(EY, rotate(EY, EZ, psi_a + phi), 1, +1)
    expected = -1.0 * rotor_exp(plane(EZ), phi + psi_a).coeffs
    assert np.linalg.norm(lhs.coeffs - expected) < 1e-12


def test_transport_random_pairs_lambda_plus():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = random_pair(rng)
        psi_a = rng.uniform(1e-3, 0.3)
        assert _transport(_fiber_pair(a, b, psi_a), 1) < 1e-10


def test_transport_also_closes_for_negative_orientation():
    # computed fact: the lam signs cancel pairwise, so the residual closes
    # for the mirrored orientation as well
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = random_pair(rng)
        assert _transport(_fiber_pair(a, b, 0.05), -1) < 1e-10


def test_transport_rejects_parallel_directions():
    with pytest.raises(DegenerateAxisError):
        _transport(_fiber_pair(EX, EX, 0.01), 1)


def test_phase_flip_at_pi():
    q_a, q_b, res = phase_flip_at_pi(0.01)
    assert res < 1e-12
    assert q_a[0] > 0 > q_b[0]
    assert abs(q_a[0] + q_b[0]) < 1e-15
    assert np.linalg.norm(q_a + q_b) < 1e-12


# -- 3-sphere points ----------------------------------------------------------------------


def test_quaternion_points_lie_on_unit_sphere():
    rng = np.random.default_rng(6)
    for _ in range(500):
        n, m = random_unit(rng), random_unit(rng)
        lam = 1 if rng.random() < 0.5 else -1
        side = 1 if rng.random() < 0.5 else -1
        q = quaternion(n, m, lam, side)
        assert abs(norm(q) - 1.0) < 1e-12
        assert abs(scalar_part(q) - (-side * lam * np.dot(n, m))) < 1e-12


def test_quaternion_point_parallel_case():
    q = quaternion(EX, EX, 1, +1)
    assert np.linalg.norm(q.coeffs - Multivector.blade(3, 0, -1.0).coeffs) < 1e-15


def test_alice_and_bob_quaternions_differ():
    # the two transported points are distinct multivectors for a != b
    psi_a = 0.01
    c = EZ
    a, b = EX, EY
    phi = math.pi / 2
    q_a = quaternion(a, rotate(a, c, psi_a), 1, +1)
    q_b = quaternion(b, rotate(b, c, psi_a + phi), 1, +1)
    assert np.linalg.norm(q_a.coeffs - q_b.coeffs) > 1.0



# -- null-bivector limit probe ----------------------------------------------------------


def test_null_probe_magnitude_is_unity_down_to_1e6():
    rows = null_limit_probe(EX, [10 ** (-k) for k in range(1, 7)])
    assert not np.isnan(rows["wedge_magnitude"]).any()
    assert np.max(np.abs(rows["wedge_magnitude"] - 1.0)) < 1e-12


def test_null_probe_quarter_turn_magnitude():
    (row,) = null_limit_probe(EX, [math.pi / 2])
    assert abs(row["wedge_magnitude"] - 1.0) < 1e-12
    # a quarter turn makes a ^ a' a unit bivector
    a_prime = rotate(EX, perpendicular_axis(EX), math.pi / 2)
    assert abs(norm(wedge(Multivector.from_vector(EX), Multivector.from_vector(a_prime))) - 1.0) < 1e-12


def test_null_probe_axis_constant_across_rows():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_unit(rng)
        rows = null_limit_probe(a, [0.5, 1e-2, 1e-4, 1e-6])
        axes = np.column_stack([rows["axis_x"], rows["axis_y"], rows["axis_z"]])
        assert abs(np.dot(axes[0], a)) < 1e-12
        assert np.max(np.abs(axes[1:] - axes[0])) < 1e-9


def test_null_probe_zero_separation_marks_row_undefined():
    rows = null_limit_probe(EX, [1e-3, 0.0])
    assert not math.isnan(rows[0]["wedge_magnitude"])
    assert rows[1]["psi_rad"] == 0.0
    assert all(math.isnan(x) for x in rows[1].tolist()[1:])


def test_null_probe_validates_separations():
    with pytest.raises(ValueError, match="strictly decreasing"):
        null_limit_probe(EX, [1e-3, 1e-2])
    with pytest.raises(ValueError, match="nonnegative"):
        null_limit_probe(EX, [1e-3, -1e-4])
    with pytest.raises(ValueError, match="empty"):
        null_limit_probe(EX, [])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            null_limit_probe(EX, [bad])


def test_batched_probe_equals_the_per_separation_path_bit_for_bit():
    # oracle: the probe one separation at a time through the public
    # operations; bytes compared, so NaN rows and signed zeros count too
    rng = np.random.default_rng(9)
    special = [2 * math.pi, math.pi, 1e-300, 0.0]
    for trial in range(30):
        a = EX if trial == 0 else random_unit(rng)
        seps = {*special, *rng.uniform(0.0, 7.0, size=5), *10.0 ** -rng.uniform(0, 12, size=5)}
        seps = sorted(seps, reverse=True)
        for chosen in (seps, seps[1:-1], [0.0], [1e-300]):
            got = null_limit_probe(a, chosen)
            assert got.dtype == NULL_LIMIT_COLUMNS
            assert got.tobytes() == null_limit_rows(a, chosen).tobytes()
        axis, v = random_unit(rng), rng.normal(size=3)
        for psi in seps:
            got = rotate(v, axis, psi)
            assert got.tobytes() == sandwich_rotation(v, axis, psi).tobytes()
    assert math.isnan(null_limit_probe(EX, [1e-300, 0.0])[1]["wedge_magnitude"])


def test_perpendicular_axis_is_perpendicular():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = random_unit(rng)
        axis = perpendicular_axis(a)
        assert abs(np.dot(axis, a)) < 1e-12
        assert abs(np.linalg.norm(axis) - 1.0) < 1e-12
