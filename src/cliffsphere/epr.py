"""Hidden-variable EPR-Bohm simulation.

Each trial draws a fair-coin orientation lam in {+1, -1}.  The orientation
stream is counter-based: trial i reads the Philox4x64-10 block of counter
i + 1 under the key (seed, 0), that is, numpy's `Philox` set to counter i,
which increments its counter before each block.  So the value of trial i
depends only on (seed, i): chunks of the stream can be generated in any
order, in parallel, and reproduce bit for bit.

Per trial, Alice's raw score is the scalar of the Cl(3,0) product
(-I.a)(lam I.a) and Bob's is the scalar of (+I.b)(lam I.b); both products
are evaluated in the algebra and checked to be scalar, never assumed.  Since
the scores depend on the directions only through these products (which
collapse to lam and -lam), the estimators evaluate the products at both
orientation values, for all directions of a sweep, in one batch of arrays
built by `frames`, as the identity suite's are, verify every direction's
values, and weight them by the orientation counts.
A single direction pair is the batch of one.  Averages are then exact: the
counts are integers, so the results are independent of summation order at
any trial count.

Since a raw score depends on lam only, never on the detector direction, the
counts (n_plus, n_minus) are the only random quantity of a run.
`orientation_counts` draws them by walking the stream in fixed chunks of
COUNT_CHUNK trials, counting each chunk's odd words as they come and
dropping the chunk before the next is drawn.  The walkers are the calling
thread and, on a machine with a second usable CPU, one more thread.  The
trials are cut into one list of guided spans (`_spans`), each a fraction of
what is left and the last ones single chunks, and each walker takes the next
span from the list until none is left: a walker that runs slower, or is
descheduled, takes fewer, and the walkers end within about one chunk of each
other.  Each walker has one generator, moved forward over the spans that
the others took.  The walkers' integer counts are added, so the result is
exact and the same on any number of walkers and for any assignment of spans
to walkers, and memory is bounded by one chunk per walker (at most 512 KiB
of Philox words in flight), not by n.  A walker that fails, or an
interrupted caller, whether it walks or waits for the others, stops every
walker at its next chunk, and the call returns once each has stopped.  A
run draws the counts once and passes them to each estimator and every
sweep angle (the CLI records them in its manifest).  `mean_residual_norms` draws them once
per seed and trial count.

Three averaging procedures are provided.  The componentwise average of the
abstract standard-score products over the formal basis {1, beta_x, beta_y,
beta_z} has scalar part -a.b on every trial, so the average carries it
exactly; only the bivector components fluctuate, with per-component scale
|a x b| / sqrt(n), the reported stderr.  The plain mean of the raw-score
products A_i B_i = (+lam)(-lam) is -1 for both orientation values, so it is
-1 at every direction pair, with zero dispersion.  The marginal averages of
single-side scores (`marginal_average`) all tend to 0 at the 1/sqrt(n) rate.
`correlation_row` reports both correlation estimators side by side for one
direction pair and `sweep` for every angle of a sweep, through the same
batched code and from the same orientation counts, as one structured array
whose fields are the columns of ``correlations.csv`` (`SWEEP_COLUMNS`).
"""

from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .frames import _LAM, ORIENTATIONS, _abstract_products, _handed_products, _scores
from .multivector import DEFAULT_TOL, Multivector, _cross, _row_norms, unit_vector


class TrialConsistencyError(RuntimeError):
    """A per-trial multivector evaluation violated the model's contract."""


class Side(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


# -- orientation sampling ---------------------------------------------------------


#: The walk keys Philox with the seed as one uint64: seeds lie in [0, 2**64).
SEED_LIMIT = 2**64
#: Trials per `random_raw` call when counting orientations; bounds a walker's
#: working memory (4 uint64 words per trial, 256 KiB, which stays in a
#: per-core L2 cache) whatever n is.
COUNT_CHUNK = 1 << 13
#: Most walkers, threads included, that count one stream at once.
MAX_WALKERS = 2


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def _check_trials(n: int) -> int:
    """Refuse a trial count outside [1, 2**63).  The bound is the int64 `n`
    column's, not a cost: a walk's memory is flat in n, and its time is
    linear in n (≈12 ms per 10**6 trials, 2-CPU x86), so any tighter bound
    would be a choice of how long a run may take."""
    if n < 1:
        raise ValueError(f"n_trials must be >= 1, got {n}")
    if n >= 2**63:
        raise ValueError(f"n_trials must be < 2**63, got {n}: the n column is int64")
    return n


@dataclass(frozen=True)
class OrientationCounts:
    """How many of the first n trials drew lam = +1 and lam = -1."""

    n: int
    n_plus: int
    n_minus: int

    @property
    def lam_mean(self) -> float:
        return (self.n_plus - self.n_minus) / self.n


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _spans(n: int, walkers: int) -> list[tuple[int, int]]:
    """The (lo, hi) spans of trials 0..n-1 that `walkers` walkers share, in
    order: each is 1 / (2 * walkers) of the trials left, in whole chunks and
    at least one, and the last ends at n.  So the first spans are long and
    the last ones single chunks, and there are O(walkers * log n) of them."""
    spans, lo = [], 0
    while lo < n:
        size = max(COUNT_CHUNK, (n - lo) // (2 * walkers) // COUNT_CHUNK * COUNT_CHUNK)
        spans.append((lo, min(n, lo + size)))
        lo = spans[-1][1]
    return spans


def _count_plus(seed: int, spans, stop: threading.Event) -> int:
    """How many trials of the spans that this walker takes, one at a time,
    from the shared iterator `spans` draw lam = +1.  One generator, set to
    the first trial of the first span and advanced over the spans that other
    walkers took, walks each span in chunks of at most COUNT_CHUNK trials.
    Once `stop` is set the walker returns before its next chunk, with a
    partial count that the walk, which then raises, never adds."""
    bg, at, n_plus = None, 0, 0

    def odd_words(trials: int) -> int:
        # the low byte of each block's first word; the words are freed on
        # return, not held while the next chunk is drawn
        words = bg.random_raw(4 * trials).astype("<u8", copy=False)
        return int(np.count_nonzero(words.view(np.uint8)[0::32] & 1))

    for lo, hi in spans:
        if bg is None:
            bg = np.random.Philox(key=np.uint64(seed), counter=[lo, 0, 0, 0])
        elif lo != at:
            bg.advance(lo - at)
        for chunk in range(lo, hi, COUNT_CHUNK):
            if stop.is_set():
                return n_plus
            n_plus += odd_words(min(COUNT_CHUNK, hi - chunk))
        at = hi
    return n_plus


def orientation_counts(seed: int, n: int) -> OrientationCounts:
    """Orientation counts of trials 0..n-1, from one walk of the stream: trial
    i draws lam = +1 when the first word of the Philox4x64-10 block of
    counter i + 1 under key (seed, 0), numpy's `Philox` set to counter i, is
    odd.  The walkers, at most MAX_WALKERS and no more than the usable CPUs
    or the chunks of the walk, take the spans of `_spans` from one list
    until none is left, the calling thread among them.  A walker's error is
    raised here once every walker has stopped; it, or an exception in the
    calling thread, in its walk or in a join, stops the other walkers at
    their next chunk and is raised once they have."""
    _check_trials(n)
    _check_seed(seed)
    walkers = min(MAX_WALKERS, _usable_cpus(), -(-n // COUNT_CHUNK))
    spans, stop = iter(_spans(n, walkers)), threading.Event()
    parts, ended = [None] * walkers, [threading.Event() for _ in range(walkers)]

    def walk(w: int) -> None:
        try:
            parts[w] = _count_plus(seed, spans, stop)
        except Exception as exc:  # raised by the caller once every walker has stopped
            parts[w] = exc
            stop.set()
        finally:
            ended[w].set()

    threads = [threading.Thread(target=walk, args=(w,)) for w in range(1, walkers)]
    for thread in threads:
        thread.start()
    try:
        walk(0)
        for thread in threads:
            thread.join()
    except BaseException:
        # an interrupt in the calling thread's walk or in a join: stop every
        # walker, wait for each, then re-raise.  An interrupted `join` marks
        # its thread stopped while it still runs (CPython's bpo-45274 branch),
        # so the wait is on the walker's own end before its join.
        stop.set()
        for thread, end in zip(threads, ended[1:]):
            end.wait()
            thread.join()
        raise
    for part in parts:
        if isinstance(part, Exception):
            raise part
    n_plus = sum(parts)
    return OrientationCounts(n, n_plus, n - n_plus)


# -- sweep spec and results ------------------------------------------------------


#: Most points of one angle sweep.  A sweep's peak memory grows with its
#: points (a fresh `simulate --trials 1000` run of 10**6 points peaks at
#: ≈0.8 GB RSS in ≈10 s), so a larger one is refused before it allocates.
MAX_SWEEP_STEPS = 10**6


@dataclass(frozen=True)
class SweepSpec:
    """Angle sweep in degrees: `steps` points from start to stop inclusive."""

    start_deg: float = 0.0
    stop_deg: float = 180.0
    steps: int = 37

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("an angle sweep needs at least 2 points")
        if self.steps > MAX_SWEEP_STEPS:
            raise ValueError(f"an angle sweep takes at most {MAX_SWEEP_STEPS} points, "
                             f"got {self.steps}")
        if not math.isfinite(self.stop_deg - self.start_deg):
            raise ValueError(f"sweep span {self.start_deg}..{self.stop_deg} is not finite")

    def angles_deg(self) -> np.ndarray:
        return np.linspace(self.start_deg, self.stop_deg, self.steps)


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


# -- batched scorers -------------------------------------------------------------


def _unit_rows(vs) -> np.ndarray:
    """The vectors in vs, stacked as rows and checked and renormalized by
    `unit_vector`."""
    rows = np.asarray(vs, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("vector components must be one-dimensional")
    return unit_vector(rows)


def _raw_scores(side: Side, ns: np.ndarray) -> np.ndarray:
    """(2, N) raw scores of `side` for the unit rows of ns, row 0 at lam = +1
    and row 1 at lam = -1: signs of the Cl(3,0) products (-I.n)(lam I.n) for
    Alice and (+I.n)(lam I.n) for Bob, from `_handed_products`.  Every
    product is checked to be a unit scalar to `DEFAULT_TOL`."""
    products = _handed_products(-1.0 if side is Side.ALICE else 1.0, ns, ns).reshape(-1, 8)
    s = products[:, 0]
    off = ~((np.linalg.norm(products[:, 1:], axis=-1) <= DEFAULT_TOL)
            & (np.abs(np.abs(s) - 1.0) <= DEFAULT_TOL))
    if off.any():
        raise TrialConsistencyError(
            f"raw-score product is not a unit scalar: {Multivector(3, products[off.argmax()])}"
        )
    return np.where(s > 0, 1, -1).reshape(2, -1)


def _standard_estimates(a, b, counts: OrientationCounts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalars, (N, 3) residuals and stderrs of the standard-score estimates
    for the unit rows of a and b, both orientations in one batch; every row is
    checked for a lam-independent scalar and a flipping bivector part."""
    x, y = _unit_rows(a), _unit_rows(b)  # renormalized again: without it, some rows' last bits change
    plus, minus = _abstract_products(_scores(x), _scores(y), -1.0).transpose(0, 2, 1)
    if not np.array_equal(plus[0], minus[0]):
        raise TrialConsistencyError("scalar part of the score product must not depend on lam")
    if not np.array_equal(minus[1:], -plus[1:]):
        raise TrialConsistencyError("bivector part of the score product must flip with lam")
    root_n = math.sqrt(counts.n)
    return plus[0], counts.lam_mean * plus[1:].T, _row_norms(_cross(a, b)) / root_n


def _raw_means(a, b, counts: OrientationCounts) -> np.ndarray:
    """Raw-score product means for the unit rows of a and b: each row's raw
    scores are checked against the per-trial identities A = lam, B = -lam."""
    alice, bob = _raw_scores(Side.ALICE, a), _raw_scores(Side.BOB, b)
    off = (alice != _LAM[:, None]) | (bob != -_LAM[:, None])
    if off.any():
        j, i = np.argwhere(off)[0]
        lam = ORIENTATIONS[j]
        raise TrialConsistencyError(
            f"per-trial identity violated: A({lam})={alice[j, i]}, B({lam})={bob[j, i]}"
        )
    return (counts.n_plus * alice[0] * bob[0] + counts.n_minus * alice[1] * bob[1]) / counts.n


# -- estimators ----------------------------------------------------------------------


def marginal_average(n_vec, side: Side, counts: OrientationCounts) -> CorrelationEstimate:
    """Single-side averages: raw marginal mean in `scalar`, componentwise
    standard-score mean in `residual_coeffs`.  All tend to 0 as 1/sqrt(n)."""
    n_vec = _unit_rows([n_vec])
    side = Side(side)
    plus, minus = _raw_scores(side, n_vec)[:, 0].tolist()
    total = counts.n_plus * plus + counts.n_minus * minus
    components = counts.lam_mean * n_vec[0]
    stderr = 1.0 / math.sqrt(counts.n)
    return CorrelationEstimate(
        total / counts.n, tuple(float(c) for c in components), counts.n, stderr
    )


# -- sweeps ---------------------------------------------------------------------------


#: The columns of a sweep row, in `correlations.csv` order: the angle, both
#: estimates, the residual, its norm and the stderr as float64, and the trials.
SWEEP_COLUMNS = np.dtype({"names": ["theta_deg", "raw_mean", "std_scalar", "resid_x", "resid_y", "resid_z",
                                    "resid_norm", "stderr", "n"], "formats": [np.float64] * 8 + [np.int64]})


def _rows(thetas, a, b, counts: OrientationCounts) -> np.ndarray:
    """(N,) `SWEEP_COLUMNS` rows of both estimators for the direction pairs
    a[i], b[i], reported at angles thetas[i], with every product evaluated
    for all pairs in one batch."""
    a, b = _unit_rows(a), _unit_rows(b)
    scalars, residuals, stderrs = _standard_estimates(a, b, counts)
    rows = np.empty(len(a), SWEEP_COLUMNS)
    for name, column in zip(SWEEP_COLUMNS.names, (thetas, _raw_means(a, b, counts), scalars, *residuals.T,
                                                  _row_norms(residuals), stderrs, counts.n)):
        rows[name] = column
    return rows


def correlation_row(theta_deg: float, a, b, counts: OrientationCounts) -> np.ndarray:
    """Both estimators for the direction pair (a, b), reported at angle
    theta: a sweep batch of one, as a (1,) `SWEEP_COLUMNS` array."""
    return _rows([theta_deg], [a], [b], counts)


def sweep(spec: SweepSpec, counts: OrientationCounts) -> np.ndarray:
    """Both estimators at every sweep angle theta, for a = e_x and b =
    (cos theta, sin theta, 0) by `math.cos` and `math.sin` per angle: (steps,)
    `SWEEP_COLUMNS` rows, all from the same orientation counts, bit-identical
    for equal (spec, counts)."""
    thetas = spec.angles_deg()
    t = [math.radians(theta) for theta in thetas.tolist()]
    a = np.tile([1.0, 0.0, 0.0], (len(t), 1))
    b = np.column_stack([[math.cos(x) for x in t], [math.sin(x) for x in t], np.zeros(len(t))])
    return _rows(thetas, a, b, counts)


# -- convergence study ------------------------------------------------------------------


def mean_residual_norms(a, b, seeds, sizes) -> np.ndarray:
    """Seed-averaged residual norm |mean of lam over the first n trials| *
    |a x b| for each n in `sizes`, from the exact counts of each (seed, n)."""
    scale = float(np.linalg.norm(_cross(unit_vector(a), unit_vector(b))))
    residuals = [[abs(orientation_counts(seed, n).lam_mean) * scale for n in sizes] for seed in seeds]
    return np.mean(residuals, axis=0)


def residual_convergence_slope(sizes, residuals) -> float:
    """Least-squares slope of log10(residuals) against log10(sizes); for the
    seed-averaged `mean_residual_norms` of a fair coin it is -1/2."""
    slope, _ = np.polyfit(np.log10(sizes), np.log10(residuals), 1)
    return float(slope)
