"""EPR model tests: orientation stream, raw scores, estimators, sweeps."""

import math
import tracemalloc

import numpy as np
import pytest

from cliffsphere import epr
from cliffsphere.epr import (
    COUNT_CHUNK,
    CorrelationEstimate,
    OrientationCounts,
    Side,
    SweepRow,
    SweepSpec,
    correlation_row,
    lambda_stream,
    marginal_average,
    mean_residual_norms,
    orientation_counts,
    orientation_prefix_counts,
    sweep,
    sweep_directions,
)
from cliffsphere.frames import abstract_product
from cliffsphere.multivector import (
    Multivector,
    contract,
    geometric_product,
    scalar_part,
    unit_vector,
)

from .oracles import abstract_coeffs, raw_score, standard_score, trial_records

# First ten orientations under seed 42, frozen to pin the stream contract.
SEED42_PREFIX = [-1, 1, 1, 1, 1, -1, 1, -1, -1, 1]

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


#: Counts of one trial at each orientation: the marginal average over them
#: is the package's raw score of one side at that orientation.
ONE_TRIAL = {1: OrientationCounts(1, 1, 0), -1: OrientationCounts(1, 0, 1)}


def score(n_vec, side, lam):
    return marginal_average(n_vec, side, ONE_TRIAL[lam]).scalar


# -- orientation sampling ---------------------------------------------------------


def test_lambda_stream_reproducible_prefix():
    assert list(lambda_stream(42, 10)) == SEED42_PREFIX
    assert [int(lambda_stream(42, 1, start=i)[0]) for i in range(10)] == SEED42_PREFIX


def test_lambda_stream_chunking_is_order_insensitive():
    whole = lambda_stream(911, 1000)
    pieces = np.concatenate(
        [lambda_stream(911, 137, 0), lambda_stream(911, 400, 137), lambda_stream(911, 463, 537)]
    )
    assert np.array_equal(whole, pieces)


def test_lambda_stream_seed_sensitivity():
    assert not np.array_equal(lambda_stream(1, 64), lambda_stream(2, 64))


def test_lambda_values_are_signs():
    lams = lambda_stream(5, 4096)
    assert set(np.unique(lams)) == {-1, 1}


def test_lambda_empirical_mean_within_binomial_bound():
    # oracle: 3 / sqrt(n) bound on the mean of n fair-coin signs
    n = 10**6
    mean = lambda_stream(42, n).astype(np.int64).sum() / n
    assert abs(mean) < 3.0 / math.sqrt(n)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_lambda_stream_rejects_out_of_range_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        lambda_stream(seed, 4)


def test_lambda_stream_accepts_extreme_seeds():
    for seed in (0, 2**64 - 1):
        assert len(lambda_stream(seed, 4)) == 4


@pytest.mark.parametrize("start", [0, 10**6])
def test_lambda_stream_of_no_trials_is_empty(start):
    lams = lambda_stream(5, 0, start=start)
    assert lams.dtype == np.int8
    assert lams.shape == (0,)


# -- orientation counts ------------------------------------------------------------


@pytest.mark.parametrize(
    "n", [1, COUNT_CHUNK - 1, COUNT_CHUNK, COUNT_CHUNK + 1, 3 * COUNT_CHUNK + 5]
)
def test_orientation_counts_match_full_stream_at_chunk_boundaries(n):
    # oracle: a direct count over the whole stream, built in one piece
    counts = orientation_counts(31, n)
    n_plus = int(np.count_nonzero(lambda_stream(31, n) == 1))
    assert counts == OrientationCounts(n, n_plus, n - n_plus)


def test_orientation_prefix_counts_match_cumsum():
    n = 2 * COUNT_CHUNK + 7
    prefix = np.cumsum(lambda_stream(8, n) == 1)
    sizes = [1, 2, 99, COUNT_CHUNK - 1, COUNT_CHUNK, COUNT_CHUNK, COUNT_CHUNK + 1,
             2 * COUNT_CHUNK, n]
    counts = orientation_prefix_counts(8, sizes)
    assert [c.n for c in counts] == sizes
    assert [c.n_plus for c in counts] == [int(prefix[k - 1]) for k in sizes]
    assert all(c.n_plus + c.n_minus == c.n for c in counts)


def test_orientation_prefix_counts_reject_bad_sizes():
    for sizes in ([], [0, 5], [10, 5]):
        with pytest.raises(ValueError, match="ascending"):
            orientation_prefix_counts(1, sizes)


def test_orientation_counts_memory_is_bounded_by_the_chunk():
    # the whole stream at 10^7 trials is ~320 MB of Philox words
    tracemalloc.start()
    try:
        counts = orientation_counts(2024, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.n_plus + counts.n_minus == 10**7
    assert peak < 16 * 2**20


def test_mean_residual_norms_match_literal_prefix_sums():
    sizes = [10, 1000, 5000]
    got = mean_residual_norms(EX, EY, range(3), sizes)
    want = [
        np.mean([abs(int(lambda_stream(seed, n).astype(np.int64).sum())) / n for seed in range(3)])
        for n in sizes
    ]
    assert np.array_equal(got, want)


# -- raw scores --------------------------------------------------------------------


@pytest.mark.parametrize("lam", [1, -1])
def test_raw_scores_follow_orientation(lam):
    rng = np.random.default_rng(100 + lam)
    for _ in range(1000):
        a = random_unit(rng)
        assert score(a, Side.ALICE, lam) == lam
        assert score(a, Side.BOB, lam) == -lam


@pytest.mark.parametrize("lam", [1, -1])
def test_raw_scores_do_not_depend_on_direction(lam):
    # non-contextuality: for fixed lam, changing a (or b) never changes the score
    rng = np.random.default_rng(200 + lam)
    a_ref = score(random_unit(rng), Side.ALICE, lam)
    b_ref = score(random_unit(rng), Side.BOB, lam)
    for _ in range(100):
        assert score(random_unit(rng), Side.ALICE, lam) == a_ref
        assert score(random_unit(rng), Side.BOB, lam) == b_ref


def test_one_trial_marginals_equal_the_multivector_raw_score():
    # oracle: (side_sign I.n)(lam I.n) built from public Multivector operations
    rng = np.random.default_rng(150)
    for _ in range(1000):
        n_vec = random_unit(rng)
        for side, side_sign in ((Side.ALICE, -1), (Side.BOB, 1)):
            for lam in (1, -1):
                assert score(n_vec, side, lam) == raw_score(side_sign, n_vec, lam)


@pytest.mark.parametrize("lam", [1, -1])
def test_raw_product_is_minus_one_by_direct_evaluation(lam):
    # oracle: the full four-factor multivector product evaluated in Cl(3,0)
    rng = np.random.default_rng(300 + lam)
    I = Multivector.volume(3)
    for _ in range(50):
        a, b = random_unit(rng), random_unit(rng)
        ia = contract(I, Multivector.from_vector(a, dim=3)).coeffs
        ib = contract(I, Multivector.from_vector(b, dim=3)).coeffs
        alice = geometric_product(Multivector(3, -1.0 * ia), Multivector(3, float(lam) * ia))
        bob = geometric_product(Multivector(3, ib), Multivector(3, float(lam) * ib))
        product = geometric_product(alice, bob)
        assert np.linalg.norm(product.coeffs - Multivector.scalar(3, -1.0).coeffs) < 1e-12


def test_raw_scores_reject_bad_inputs():
    with pytest.raises(ValueError, match="unit vector"):
        score([2.0, 0.0, 0.0], Side.ALICE, 1)
    with pytest.raises(ValueError, match="not a valid Side"):
        score(EX, "carol", 1)
    with pytest.raises(ValueError, match="one-dimensional"):
        score([[1.0, 0.0, 0.0]], Side.ALICE, 1)


# -- trial records -------------------------------------------------------------------


def test_trial_records_satisfy_per_trial_identities():
    records = trial_records(EX, EY, 7, 500)
    assert len(records) == 500
    for lam, alice, bob in records:
        assert alice == lam
        assert bob == -lam
        assert alice * bob == -1


def test_trial_records_match_estimators():
    records = trial_records(EX, EY, 13, 400)
    raw_mean = sum(alice * bob for _, alice, bob in records) / len(records)
    assert raw_mean == correlation_row(90.0, EX, EY, orientation_counts(13, 400)).raw_mean


# -- standard-score estimator ----------------------------------------------------------


def test_standard_scalar_is_exact_and_trial_independent():
    rng = np.random.default_rng(4)
    a, b = random_unit(rng), random_unit(rng)
    values = {
        n: correlation_row(0.0, a, b, orientation_counts(42, n)).std_scalar
        for n in (1, 2, 3, 17, 1000)
    }
    assert len(set(values.values())) == 1
    assert values[1] == pytest.approx(-float(np.dot(a, b)), abs=1e-16)


def test_standard_equal_directions():
    row = correlation_row(0.0, EX, EX, orientation_counts(1, 1000))
    assert row.std_scalar == -1.0
    assert row.residual == (0.0, 0.0, 0.0)
    assert row.stderr == 0.0


def test_standard_perpendicular_directions_large_n():
    n = 10**6
    row = correlation_row(90.0, EX, EY, orientation_counts(1234, n))
    assert row.std_scalar == 0.0
    bound = 3.0 / math.sqrt(n)
    for c in row.residual:
        assert abs(c) < bound
    assert row.stderr == pytest.approx(1.0 / math.sqrt(n))


def test_standard_sixty_degrees_reads_minus_half():
    a, b = sweep_directions(60.0)
    row = correlation_row(60.0, a, b, orientation_counts(42, 10**5))
    assert abs(row.std_scalar - (-0.5)) < 1e-15
    assert row.residual_norm < 3.0 * row.stderr


def test_standard_matches_literal_per_trial_average():
    # oracle: literal per-trial abstract products averaged with math.fsum
    rng = np.random.default_rng(77)
    a, b = random_unit(rng), random_unit(rng)
    counts = orientation_counts(99, 2000)
    lams = lambda_stream(99, 2000)
    per_trial = [
        abstract_coeffs(abstract_product(standard_score(a, int(l)), standard_score(b, int(l))))
        for l in lams
    ]
    literal = np.array(
        [math.fsum(col) / counts.n for col in np.array(per_trial).T]
    )
    row = correlation_row(0.0, a, b, counts)
    got = np.array([row.std_scalar, *row.residual])
    assert np.max(np.abs(got - literal)) < 1e-15


# -- raw-score estimator -----------------------------------------------------------------


def test_raw_estimator_is_minus_one_everywhere():
    rng = np.random.default_rng(8)
    for n, seed in ((1, 0), (10, 5), (1000, 9), (10**5, 42)):
        a, b = random_unit(rng), random_unit(rng)
        assert correlation_row(0.0, a, b, orientation_counts(seed, n)).raw_mean == -1.0


def test_raw_estimator_equal_directions_matches_singlet_point():
    row = correlation_row(0.0, EX, EX, orientation_counts(3, 100))
    assert row.raw_mean == row.std_scalar == -1.0


# -- marginals ------------------------------------------------------------------------


def test_marginal_single_trial_degenerate_case():
    # seed 0 draws lam = +1 at trial 0, so the single-trial average is the
    # standard score itself
    n_vec = np.array([0.6, 0.0, 0.8])
    est = marginal_average(n_vec, Side.ALICE, orientation_counts(0, 1))
    assert est.residual_coeffs == (0.6, 0.0, 0.8)
    assert est.scalar == 1.0


@pytest.mark.parametrize("side", [Side.ALICE, Side.BOB])
def test_marginal_large_n_tends_to_zero(side):
    n = 10**6
    est = marginal_average(np.array([0.0, 1.0, 0.0]), side, orientation_counts(2718, n))
    bound = 3.0 / math.sqrt(n)
    assert abs(est.scalar) < bound
    for c in est.residual_coeffs:
        assert abs(c) < bound
    assert est.stderr == pytest.approx(1.0 / math.sqrt(n))


def test_marginal_raw_mean_matches_trial_records():
    counts = orientation_counts(13, 300)
    records = trial_records(EX, EY, 13, 300)
    alice = sum(alice for _, alice, _ in records) / len(records)
    bob = sum(bob for _, _, bob in records) / len(records)
    assert marginal_average(EX, Side.ALICE, counts).scalar == alice
    assert marginal_average(EY, Side.BOB, counts).scalar == bob


def test_marginal_accepts_side_value():
    est = marginal_average(EX, "bob", orientation_counts(0, 10))
    assert isinstance(est, CorrelationEstimate)


# -- commutativity ----------------------------------------------------------------------


def commutator_norm(a, b, lam):
    # oracle: abstract products taken in both orders
    x, y = standard_score(a, lam), standard_score(b, lam)
    return float(np.linalg.norm(abstract_coeffs(abstract_product(x, y)) - abstract_coeffs(abstract_product(y, x))))


def test_standard_scores_do_not_commute():
    rng = np.random.default_rng(32)
    for lam in (1, -1):
        for _ in range(100):
            a, b = random_unit(rng), random_unit(rng)
            got = commutator_norm(a, b, lam)
            assert abs(got - 2.0 * np.linalg.norm(np.cross(a, b))) < 1e-12


def test_standard_commutator_vanishes_for_parallel_directions():
    assert commutator_norm(EX, EX, 1) == 0.0


# -- sweep ------------------------------------------------------------------------------


def test_sweep_closed_form_values():
    spec = SweepSpec(start_deg=0.0, stop_deg=180.0, steps=3)
    rows = sweep(spec, orientation_counts(42, 2000))
    assert [r.theta_deg for r in rows] == [0.0, 90.0, 180.0]
    want = [-1.0, 0.0, 1.0]
    for row, expected in zip(rows, want):
        assert abs(row.std_scalar - expected) < 1e-15
        assert row.raw_mean == -1.0
        assert row.n == 2000


def test_sweep_is_deterministic():
    spec = SweepSpec(steps=5)
    assert sweep(spec, orientation_counts(7, 5000)) == sweep(spec, orientation_counts(7, 5000))


def test_sweep_rows_share_one_trial_stream():
    rows = sweep(SweepSpec(steps=5), orientation_counts(7, 5000))
    lam_mean = lambda_stream(7, 5000).astype(np.int64).sum() / 5000
    for row in rows:
        a, b = sweep_directions(row.theta_deg)
        expected = -lam_mean * np.cross(a, b)
        assert np.max(np.abs(np.asarray(row.residual) - expected)) < 1e-15


def test_correlation_row_reports_both_estimators():
    a, b = sweep_directions(40.0)
    counts = orientation_counts(5, 777)
    row = correlation_row(40, a, b, counts)
    assert repr(row) == repr(reference_row(40, a, b, counts))
    assert row == sweep(SweepSpec(0.0, 40.0, 2), counts)[1]


def reference_row(theta, a, b, counts):
    """One sweep row from single-pair calls and 1-D norms, sharing no batched code."""
    a, b = unit_vector(a), unit_vector(b)
    products = {lam: abstract_product(standard_score(a, lam), standard_score(b, lam))
                for lam in (1, -1)}
    assert products[1].c0 == products[-1].c0
    assert np.array_equal(products[-1].c, -np.asarray(products[1].c))
    I = Multivector.volume(3)
    ia, ib = (contract(I, Multivector.from_vector(n, dim=3)).coeffs for n in (a, b))
    total = 0
    for lam, k in ((1, counts.n_plus), (-1, counts.n_minus)):
        alice = geometric_product(Multivector(3, -1.0 * ia), Multivector(3, float(lam) * ia))
        bob = geometric_product(Multivector(3, ib), Multivector(3, float(lam) * ib))
        assert np.linalg.norm(alice.coeffs - Multivector.scalar(3, lam).coeffs) < 1e-12
        assert np.linalg.norm(bob.coeffs - Multivector.scalar(3, -lam).coeffs) < 1e-12
        total += k * round(scalar_part(alice)) * round(scalar_part(bob))
    residual = tuple(float(c) for c in counts.lam_mean * np.asarray(products[1].c))
    stderr = float(np.linalg.norm(np.cross(a, b))) / math.sqrt(counts.n)
    return SweepRow(float(theta), total / counts.n, float(products[1].c0), residual,
                    float(np.linalg.norm(residual)), stderr, counts.n)


@pytest.mark.parametrize("spec, n, seed", [
    (SweepSpec(), 10**5, 42),
    (SweepSpec(0.0, 360.0, 91), 10**6, 7),
    (SweepSpec(-33.3, 271.9, 57), 1_234_567, 9),
])
def test_sweep_rows_equal_a_per_row_reference(spec, n, seed):
    counts = orientation_counts(seed, n)
    want = [reference_row(t, *sweep_directions(t), counts) for t in spec.angles_deg()]
    assert list(map(repr, sweep(spec, counts))) == list(map(repr, want))


def test_batched_rows_equal_a_per_row_reference_at_random_directions():
    # a batched norm changes the last bit of a unit vector on 8% of these rows
    rng = np.random.default_rng(2144)
    thetas = rng.uniform(-720.0, 720.0, 2000)
    a = rng.normal(size=(2000, 3))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    b = np.array([sweep_directions(t)[1] for t in thetas])
    counts = orientation_counts(11, 1001)
    want = [reference_row(t, ai, bi, counts) for t, ai, bi in zip(thetas, a, b)]
    assert list(map(repr, epr._rows(thetas, a, b, counts))) == list(map(repr, want))


MIDDLE_ROW = 18


def corrupt(monkeypatch, name, when, index, change):
    """Make epr.`name` replace entry `index` of its result by change(entry) on
    the calls that `when` selects."""
    real = getattr(epr, name)

    def corrupted(*args):
        out = np.array(real(*args))
        if when(*args):
            out[index] = change(out[index])
        return out

    monkeypatch.setattr(epr, name, corrupted)


@pytest.mark.parametrize("blade, change, message", [
    (0, np.negative, "per-trial identity"),
    (5, lambda c: 1e-6, "not a unit scalar"),
])
def test_sweep_checks_every_raw_product_row(monkeypatch, blade, change, message):
    corrupt(monkeypatch, "_product", lambda kind, x, y: kind == "geometric",
            (MIDDLE_ROW, blade), change)
    with pytest.raises(epr.TrialConsistencyError, match=message):
        sweep(SweepSpec(), orientation_counts(1, 100))


@pytest.mark.parametrize("component, message", [
    (0, "scalar part .* must not depend on lam"),
    (1, "bivector part .* must flip with lam"),
    (3, "bivector part .* must flip with lam"),
])
def test_sweep_checks_every_standard_product_row(monkeypatch, component, message):
    # one ulp on one row of the lam = -1 products, whose structure sign s is +1
    corrupt(monkeypatch, "_structure_coeffs", lambda x, y, s: s > 0,
            (component, MIDDLE_ROW), lambda c: np.nextafter(c, np.inf))
    with pytest.raises(epr.TrialConsistencyError, match=message):
        sweep(SweepSpec(), orientation_counts(1, 100))


def test_estimators_read_only_the_counts_they_are_given(monkeypatch):
    # the counts are the run's only random input: no estimator walks the stream
    counts = OrientationCounts(10, 7, 3)

    def no_stream(*args, **kwargs):
        raise AssertionError("the stream was drawn")

    monkeypatch.setattr(epr, "lambda_stream", no_stream)
    rows = sweep(SweepSpec(steps=3), counts)
    assert [r.residual[2] for r in rows] == pytest.approx([0.0, -0.4, 0.0], abs=1e-15)
    assert marginal_average(EX, Side.ALICE, counts).scalar == pytest.approx(0.4)


def test_sweep_requires_angle_spec():
    with pytest.raises(ValueError, match="2 points"):
        SweepSpec(steps=1)
    assert SweepSpec(steps=10**6).steps == epr.MAX_SWEEP_STEPS
    with pytest.raises(ValueError, match="at most 1000000 points, got 1000001"):
        SweepSpec(steps=10**6 + 1)
    for start, stop in ((0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0), (1e308, -1e308)):
        with pytest.raises(ValueError, match="not finite"):
            SweepSpec(start, stop, 3)


# -- configuration ------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="n_trials"):
        orientation_counts(1, 0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            orientation_counts(seed, 1)
