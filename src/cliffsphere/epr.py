"""Hidden-variable EPR-Bohm simulation.

Each trial draws a fair-coin orientation lam in {+1, -1}.  The orientation
stream is counter-based (Philox keyed by the seed, one counter block per
trial index), so the value of trial i depends only on (seed, i): chunks of
the stream can be generated in any order, in parallel, and reproduce bit for
bit.

Per trial, Alice's raw score is the scalar of the Cl(3,0) product
(-I.a)(lam I.a) and Bob's is the scalar of (+I.b)(lam I.b); both products
are evaluated in the algebra and checked to be scalar, never assumed.  Since
the scores depend on the directions only through these products (which
collapse to lam and -lam), the estimators evaluate the products once per
orientation value, verify them, and weight the verified values by the
orientation counts.  Averages are then exact: the counts are integers, so
the results are independent of summation order at any trial count.

Since a raw score depends on lam only, never on the detector direction, the
counts (n_plus, n_minus) are the only random quantity of a run.
`orientation_counts` draws them by walking the stream in fixed chunks of
COUNT_CHUNK trials, so memory is bounded by the chunk, not by n.  A run draws
them once and passes them to each estimator and every sweep angle (the CLI
records them in its manifest).
`orientation_prefix_counts` is the same walk reporting the counts of several
prefixes at once.

Three averaging procedures are provided: the componentwise average of the
abstract standard-score products over the formal basis {1, beta_x, beta_y,
beta_z} (scalar part -a.b per trial, fluctuating bivector residual), the
plain mean of raw-score products (identically -1), and the marginal averages
of single-side scores (all components tend to 0 at the 1/sqrt(n) rate).
Both correlation estimators are computed from the same orientation counts
and reported side by side.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .frames import (
    abstract_product,
    check_orientation,
    cross,
    standard_score,
    vector3,
    volume3,
)
from .multivector import (
    DEFAULT_TOL,
    Multivector,
    contract,
    geometric_product,
    norm,
    scalar_part,
    unit_vector,
)


class TrialConsistencyError(RuntimeError):
    """A per-trial multivector evaluation violated the model's contract."""


class Side(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


# -- orientation sampling ---------------------------------------------------------


#: `lambda_stream` keys Philox with the seed as one uint64: seeds lie in [0, 2**64).
SEED_LIMIT = 2**64
#: Trials per `lambda_stream` call when counting orientations; bounds the
#: walk's working memory (4 uint64 words per trial, 2 MiB) whatever n is.
COUNT_CHUNK = 1 << 16


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def lambda_stream(seed: int, n: int, start: int = 0) -> np.ndarray:
    """Orientations for trials start..start+n-1 as an int8 array of +-1.

    Trial i consumes the low bit of the first word of Philox counter block i
    under key `seed`, so the draw is a pure function of (seed, i).
    """
    _check_seed(seed)
    if n < 0:
        raise ValueError("trial count must be nonnegative")
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    bg = np.random.Philox(key=np.uint64(seed), counter=[start, 0, 0, 0])
    words = bg.random_raw(4 * n)[0::4]
    return (2 * (words & 1).astype(np.int8) - 1).astype(np.int8)


@dataclass(frozen=True)
class OrientationCounts:
    """How many of the first n trials drew lam = +1 and lam = -1."""

    n: int
    n_plus: int
    n_minus: int

    @property
    def lam_mean(self) -> float:
        return (self.n_plus - self.n_minus) / self.n


def orientation_prefix_counts(seed: int, sizes) -> tuple[OrientationCounts, ...]:
    """Counts over the first n trials for each n in `sizes` (ascending), from
    one walk of the stream in chunks of COUNT_CHUNK trials."""
    sizes = [int(n) for n in sizes]
    if not sizes or sizes[0] < 1 or sizes != sorted(sizes):
        raise ValueError("prefix sizes must be ascending trial counts >= 1")
    counts = []
    running = 0
    for start in range(0, sizes[-1], COUNT_CHUNK):
        plus = lambda_stream(seed, min(COUNT_CHUNK, sizes[-1] - start), start) == 1
        while len(counts) < len(sizes) and sizes[len(counts)] <= start + len(plus):
            n = sizes[len(counts)]
            n_plus = running + int(np.count_nonzero(plus[: n - start]))
            counts.append(OrientationCounts(n, n_plus, n - n_plus))
        running += int(np.count_nonzero(plus))
    return tuple(counts)


def orientation_counts(seed: int, n: int) -> OrientationCounts:
    """Orientation counts of trials 0..n-1, from one walk of the stream."""
    if n < 1:
        raise ValueError("n_trials must be >= 1")
    return orientation_prefix_counts(seed, (n,))[0]


# -- sweep spec and results ------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Angle sweep in degrees: `steps` points from start to stop inclusive."""

    start_deg: float = 0.0
    stop_deg: float = 180.0
    steps: int = 37

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("an angle sweep needs at least 2 points")
        if not math.isfinite(self.stop_deg - self.start_deg):
            raise ValueError(f"sweep span {self.start_deg}..{self.stop_deg} is not finite")

    def angles_deg(self) -> np.ndarray:
        return np.linspace(self.start_deg, self.stop_deg, self.steps)


@dataclass(frozen=True)
class TrialRecord:
    """One run: orientation plus both observed raw scores."""

    index: int
    lam: int
    alice_raw: int
    bob_raw: int

    def __post_init__(self):
        if self.alice_raw not in (1, -1) or self.bob_raw not in (1, -1):
            raise ValueError("raw scores must be +1 or -1")


@dataclass(frozen=True)
class CorrelationEstimate:
    """Scalar estimate plus the formal bivector components of the average."""

    scalar: float
    residual_coeffs: tuple[float, float, float]
    n: int
    stderr: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    @property
    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.residual_coeffs))


# -- raw scores ------------------------------------------------------------------


def _scalar_sign(product: Multivector, tol: float) -> int:
    """Sign of a product that the model requires to be a scalar of unit size."""
    s = scalar_part(product)
    rest = float(np.linalg.norm(product.coeffs[1:]))
    if rest > tol or abs(abs(s) - 1.0) > tol:
        raise TrialConsistencyError(
            f"raw-score product is not a unit scalar: {product}"
        )
    return 1 if s > 0 else -1


def raw_score_alice(a, lam: int, tol: float = DEFAULT_TOL) -> int:
    """Alice's observed outcome: sign of the scalar (-I.a)(lam I.a).

    The product is evaluated in Cl(3,0) and checked to be scalar to `tol`;
    it equals +1 exactly when lam = +1.
    """
    lam = check_orientation(lam)
    ia = contract(volume3(), vector3(unit_vector(a)))
    product = geometric_product(-1.0 * ia, float(lam) * ia)
    return _scalar_sign(product, tol)


def raw_score_bob(b, lam: int, tol: float = DEFAULT_TOL) -> int:
    """Bob's observed outcome: sign of the scalar (+I.b)(lam I.b); equals -lam."""
    lam = check_orientation(lam)
    ib = contract(volume3(), vector3(unit_vector(b)))
    product = geometric_product(ib, float(lam) * ib)
    return _scalar_sign(product, tol)


def _verified_tables(a, b) -> tuple[dict[int, int], dict[int, int]]:
    """Raw scores for both orientation values, multivector-evaluated and
    checked against the per-trial identities A = lam, B = -lam."""
    alice = {lam: raw_score_alice(a, lam) for lam in (1, -1)}
    bob = {lam: raw_score_bob(b, lam) for lam in (1, -1)}
    for lam in (1, -1):
        if alice[lam] != lam or bob[lam] != -lam:
            raise TrialConsistencyError(
                f"per-trial identity violated: A({lam})={alice[lam]}, "
                f"B({lam})={bob[lam]}"
            )
    return alice, bob


def trial_records(a, b, seed: int, n: int) -> list[TrialRecord]:
    """Trials 0..n-1, fully evaluated (one multivector evaluation per side).

    Intended for inspection and small n, as the per-trial reference of the
    estimators, which evaluate once per orientation value and weight the
    results by `orientation_counts`.
    """
    lams = lambda_stream(seed, n)
    return [
        TrialRecord(i, int(lam), raw_score_alice(a, int(lam)), raw_score_bob(b, int(lam)))
        for i, lam in enumerate(lams)
    ]


# -- estimators ----------------------------------------------------------------------


def correlation_standard(a, b, counts: OrientationCounts) -> CorrelationEstimate:
    """Componentwise average of the abstract standard-score products.

    The scalar component is -a.b on every trial, so the average carries it
    exactly; only the bivector components fluctuate, with per-component
    scale |a x b| / sqrt(n).  The average is formed from exact integer
    orientation counts, making it independent of accumulation order.
    """
    a = unit_vector(a)
    b = unit_vector(b)
    products = {
        lam: abstract_product(standard_score(a, lam), standard_score(b, lam))
        for lam in (1, -1)
    }
    if products[1].c0 != products[-1].c0:
        raise TrialConsistencyError("scalar part of the score product must not depend on lam")
    scalar = products[1].c0
    c_plus = np.asarray(products[1].c)
    if not np.array_equal(np.asarray(products[-1].c), -c_plus):
        raise TrialConsistencyError("bivector part of the score product must flip with lam")
    residual = counts.lam_mean * c_plus
    stderr = float(np.linalg.norm(cross(a, b))) / math.sqrt(counts.n)
    return CorrelationEstimate(
        float(scalar), tuple(float(r) for r in residual), counts.n, stderr
    )


def correlation_raw(a, b, counts: OrientationCounts) -> CorrelationEstimate:
    """Arithmetic mean of the raw-score products A_i * B_i.

    The per-trial product depends on lam only, so it is verified once per
    orientation value that occurs in the stream, which is the same as
    verifying it trial by trial: it is (+lam)(-lam) = -1 for both values,
    and the mean is therefore -1 at every direction pair, with zero
    dispersion.
    """
    alice, bob = _verified_tables(a, b)
    occurring = {1: counts.n_plus, -1: counts.n_minus}
    for lam, k in occurring.items():
        if k and alice[lam] * bob[lam] != -1:
            raise TrialConsistencyError("per-trial raw product deviated from -1")
    total = sum(k * alice[lam] * bob[lam] for lam, k in occurring.items())
    return CorrelationEstimate(total / counts.n, (0.0, 0.0, 0.0), counts.n, 0.0)


def marginal_average(n_vec, side: Side, counts: OrientationCounts) -> CorrelationEstimate:
    """Single-side averages: raw marginal mean in `scalar`, componentwise
    standard-score mean in `residual_coeffs`.  All tend to 0 as 1/sqrt(n)."""
    n_vec = unit_vector(n_vec)
    side = Side(side)
    score = raw_score_alice if side is Side.ALICE else raw_score_bob
    total = counts.n_plus * score(n_vec, 1) + counts.n_minus * score(n_vec, -1)
    components = counts.lam_mean * np.asarray(standard_score(n_vec, 1).c)
    stderr = 1.0 / math.sqrt(counts.n)
    return CorrelationEstimate(
        total / counts.n, tuple(float(c) for c in components), counts.n, stderr
    )


def standard_commutator_norm(a, b, lam: int) -> float:
    """Coefficient norm of xy - yx for the two standard scores.

    Unlike the raw scores, the standardized variables do not commute: the
    norm equals 2 |a x b|.
    """
    x = standard_score(a, lam)
    y = standard_score(b, lam)
    diff = abstract_product(x, y).coeffs - abstract_product(y, x).coeffs
    return float(np.linalg.norm(diff))


# -- sweeps ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    theta_deg: float
    raw_mean: float
    std_scalar: float
    residual: tuple[float, float, float]
    residual_norm: float
    stderr: float
    n: int


def sweep_directions(theta_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Direction pair at angle theta: a = e_x, b in the xy-plane."""
    t = math.radians(theta_deg)
    return np.array([1.0, 0.0, 0.0]), np.array([math.cos(t), math.sin(t), 0.0])


def correlation_row(theta_deg: float, a, b, counts: OrientationCounts) -> SweepRow:
    """Both estimators for the direction pair (a, b), reported at angle theta."""
    std = correlation_standard(a, b, counts)
    raw = correlation_raw(a, b, counts)
    return SweepRow(float(theta_deg), raw.scalar, std.scalar, std.residual_coeffs,
                    std.residual_norm, std.stderr, counts.n)


def sweep(spec: SweepSpec, counts: OrientationCounts) -> list[SweepRow]:
    """Both estimators at every sweep angle, all rows from the same
    orientation counts; bit-identical for equal (spec, counts)."""
    return [
        correlation_row(theta, *sweep_directions(theta), counts)
        for theta in spec.angles_deg()
    ]


# -- convergence study ------------------------------------------------------------------


def mean_residual_norms(a, b, seeds, sizes) -> np.ndarray:
    """Seed-averaged residual norm |mean of lam over the first n trials| *
    |a x b| for each n in `sizes` (ascending), from exact prefix counts."""
    scale = float(np.linalg.norm(cross(unit_vector(a), unit_vector(b))))
    residuals = [
        [abs(c.lam_mean) * scale for c in orientation_prefix_counts(seed, sizes)]
        for seed in seeds
    ]
    return np.mean(residuals, axis=0)


def residual_convergence_slope(
    a,
    b,
    seeds=range(20),
    sizes=(100, 1_000, 10_000, 100_000, 1_000_000),
) -> float:
    """Log-log slope of the seed-averaged residual norm versus trial count.

    The slope of log10(`mean_residual_norms`) against log10(n) is -1/2 for
    the fair coin.
    """
    sizes = sorted(sizes)
    mean_residual = mean_residual_norms(a, b, seeds, sizes)
    slope, _ = np.polyfit(np.log10(sizes), np.log10(mean_residual), 1)
    return float(slope)
