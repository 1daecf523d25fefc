"""EPR model tests: orientation stream, raw scores, estimators, sweeps."""

import collections
import math
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from cliffsphere import epr, frames
from cliffsphere.epr import (
    COUNT_CHUNK,
    CorrelationEstimate,
    OrientationCounts,
    Side,
    SWEEP_COLUMNS,
    SweepSpec,
    correlation_row,
    marginal_average,
    mean_residual_norms,
    orientation_counts,
    sweep,
)
from cliffsphere.frames import abstract_product
from cliffsphere.multivector import (
    Multivector,
    contract,
    geometric_product,
    scalar_part,
    unit_vector,
)

from .oracles import (
    abstract_coeffs,
    lambda_stream,
    philox4x64_10,
    philox_orientations,
    raw_score,
    standard_score,
    trial_records,
)

# First ten orientations under seed 42, frozen to pin the stream contract.
SEED42_PREFIX = [-1, 1, 1, 1, 1, -1, 1, -1, -1, 1]

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def directions(theta_deg):
    """The direction pair of a sweep at angle theta: a = e_x, b in the xy-plane."""
    t = math.radians(theta_deg)
    return EX, np.array([math.cos(t), math.sin(t), 0.0])


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


#: Counts of one trial at each orientation: the marginal average over them
#: is the package's raw score of one side at that orientation.
ONE_TRIAL = {1: OrientationCounts(1, 1, 0), -1: OrientationCounts(1, 0, 1)}


def score(n_vec, side, lam):
    return marginal_average(n_vec, side, ONE_TRIAL[lam]).scalar


# -- orientation sampling ---------------------------------------------------------
# `lambda_stream` is the oracles' reference of the stream, one generator per call


def test_lambda_stream_reproducible_prefix():
    assert list(lambda_stream(42, 10)) == SEED42_PREFIX
    assert [int(lambda_stream(42, 1, start=i)[0]) for i in range(10)] == SEED42_PREFIX
    n_plus = np.cumsum(np.array(SEED42_PREFIX) == 1)
    assert [orientation_counts(42, n).n_plus for n in range(1, 11)] == n_plus.tolist()


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


# -- orientation counts ------------------------------------------------------------


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_orientation_counts_reject_out_of_range_seed(seed):
    # checked before the generator is built, where np.uint64 raises OverflowError
    with pytest.raises(ValueError, match="seed"):
        orientation_counts(seed, 4)


def test_orientation_counts_accept_extreme_seeds():
    for seed in (0, 2**64 - 1):
        n_plus = int(np.count_nonzero(lambda_stream(seed, 4) == 1))
        assert orientation_counts(seed, 4) == OrientationCounts(4, n_plus, 4 - n_plus)


@pytest.mark.parametrize("n", [0, -1])
def test_orientation_counts_refuse_no_trials(n):
    with pytest.raises(ValueError, match="n_trials"):
        orientation_counts(5, n)


@pytest.mark.parametrize("n", [1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_orientation_counts_match_full_stream_at_chunk_boundaries(n):
    # oracle: a direct count over the whole stream, built in one piece; 2**16
    # is a multiple of every power-of-two COUNT_CHUNK up to it, so these
    # sizes sit at the chunk ends of one walker and of two
    assert 2**16 % COUNT_CHUNK == 0
    counts = orientation_counts(31, n)
    n_plus = int(np.count_nonzero(lambda_stream(31, n) == 1))
    assert counts == OrientationCounts(n, n_plus, n - n_plus)


def force_walkers(monkeypatch, walkers: int) -> None:
    """Walk on `walkers` walkers where the walk has that many chunks, however
    many CPUs this machine has."""
    monkeypatch.setattr(epr, "_usable_cpus", lambda: walkers)


def test_the_stream_is_the_published_philox_at_counter_i_plus_1(monkeypatch):
    # a pure-Python Philox4x64-10 from the published constants, no numpy generator:
    # trial i reads the block of counter i + 1 under key (seed, 0)
    n = 2000
    reference = {seed: philox_orientations(seed, n) for seed in (0, 42, 2**64 - 1)}
    for seed, lams in reference.items():
        assert lams.tobytes() == lambda_stream(seed, n).tobytes()
    # the walk, on two walkers, over guided spans of small chunks
    monkeypatch.setattr(epr, "COUNT_CHUNK", 16)
    force_walkers(monkeypatch, 2)
    assert len(epr._spans(n, 2)) > 10
    n_plus = int(np.count_nonzero(reference[42] == 1))
    assert orientation_counts(42, n) == OrientationCounts(n, n_plus, n - n_plus)
    # numpy's counter carries from word 0 into word 1 as the published one does;
    # 2**64 - 2 goes in a uint64 array, since a list of it makes numpy warn
    counter = np.array([2**64 - 2, 0, 0, 0], dtype=np.uint64)
    words = np.random.Philox(key=np.uint64(42), counter=counter).random_raw(4 * 3).reshape(3, 4)
    assert words.tolist() == [list(philox4x64_10(c, (42, 0))) for c in range(2**64 - 1, 2**64 + 2)]


def prefix_counts(seed: int, n: int) -> list[tuple[int, int, int]]:
    """(k, n_plus, n_minus) of trials 0..k-1 for k = 1..n, from the cumulative
    sum of the oracle's stream, built in one piece by a fresh generator."""
    n_plus = np.cumsum(lambda_stream(seed, n) == 1).tolist()
    return [(k, p, k - p) for k, p in enumerate(n_plus, start=1)]


@pytest.mark.parametrize("chunk", [1, 3, 1000])
def test_the_walk_continues_the_stream_across_chunk_ends(monkeypatch, chunk):
    # on one walker and on two, at sizes on both sides of chunk ends, of n // 2
    # and of the longest walk's guided span edges, some of them twice
    monkeypatch.setattr(epr, "COUNT_CHUNK", chunk)
    n = 20 * chunk + 2
    edges = {lo for walkers in (1, 2) for lo, _ in epr._spans(n, walkers)[1:]}
    assert len(edges) > 5
    sizes = sorted([1, 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk,
                    n // 2 - 1, n // 2, n // 2, n // 2 + 1, n - 1, n, n]
                   + [k for edge in edges for k in (edge - 1, edge, edge + 1) if k >= 1])
    want = prefix_counts(77, n)
    for walkers in (1, 2):
        force_walkers(monkeypatch, walkers)
        counts = [orientation_counts(77, k) for k in sizes]
        assert [(c.n, c.n_plus, c.n_minus) for c in counts] == [want[k - 1] for k in sizes]


def test_a_walker_advances_over_the_spans_that_others_took():
    # one generator for the walker's spans, moved over the trials between them
    spans = [(5, COUNT_CHUNK), (3 * COUNT_CHUNK + 1, 5 * COUNT_CHUNK + 7), (6 * COUNT_CHUNK, 6 * COUNT_CHUNK + 1)]
    lams = lambda_stream(9, spans[-1][1])
    want = sum(int(np.count_nonzero(lams[lo:hi] == 1)) for lo, hi in spans)
    assert epr._count_plus(9, iter(spans), threading.Event()) == want


@pytest.mark.parametrize("walkers", [1, 2, 3, 4])
def test_the_spans_tile_the_walk_in_whole_chunks_and_end_in_single_chunks(walkers):
    c = COUNT_CHUNK
    rng = np.random.default_rng(walkers)
    sizes = [1, 2, c - 1, c, c + 1, 3 * c + 5, 5 * c, 2 * walkers * c - 1, 2 * walkers * c + 1,
             10**6, 1_234_567, 10**7, *rng.integers(1, 10**7, 40).tolist()]
    for n in sizes:
        spans = epr._spans(n, walkers)
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == n
        lengths = [hi - lo for lo, hi in spans]
        assert min(lengths) > 0 and all(length % c == 0 for length in lengths[:-1])
        # guided: each span is no longer than the last, and those that start
        # within 2 * walkers chunks of n are single chunks
        assert lengths[:-1] == sorted(lengths[:-1], reverse=True)
        assert all(hi - lo <= c for lo, hi in spans if n - lo < 2 * walkers * c)


def test_the_span_list_stays_logarithmic_in_the_trials():
    assert [len(epr._spans(n, 2)) for n in (10**6, 10**7, 10**9)] == [19, 27, 43]


def test_orientation_prefix_counts_match_cumsum():
    n = 2 * COUNT_CHUNK + 7
    want = prefix_counts(8, n)
    sizes = [1, 2, 99, COUNT_CHUNK - 1, COUNT_CHUNK, COUNT_CHUNK, COUNT_CHUNK + 1,
             2 * COUNT_CHUNK, n]
    counts = [orientation_counts(8, k) for k in sizes]
    assert [(c.n, c.n_plus, c.n_minus) for c in counts] == [want[k - 1] for k in sizes]


def test_orientation_counts_memory_is_bounded_by_the_chunk(monkeypatch):
    # the whole stream at 10^7 trials is ~320 MB of Philox words; each walker
    # holds one chunk of them (256 KiB) at a time.  A process's first walk
    # also imports numpy.random (~0.7 MiB), which is no part of the walk.
    force_walkers(monkeypatch, epr.MAX_WALKERS)
    orientation_counts(2024, 1)
    tracemalloc.start()
    try:
        counts = orientation_counts(2024, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.n_plus + counts.n_minus == 10**7
    assert peak < 2**20


def spans_walked(monkeypatch) -> tuple[list[str], list[tuple[str, int, int]]]:
    """The thread of every walker from now on, and (thread name, first trial,
    end) of every span that a walker takes from the shared list."""
    real, walkers, spans = epr._count_plus, [], []

    def recorded(seed, shared, stop):
        name = threading.current_thread().name
        walkers.append(name)

        def taken():
            for lo, hi in shared:
                spans.append((name, lo, hi))
                yield lo, hi

        return real(seed, taken(), stop)

    monkeypatch.setattr(epr, "_count_plus", recorded)
    return walkers, spans


def test_a_walk_of_one_chunk_starts_no_thread(monkeypatch):
    force_walkers(monkeypatch, epr.MAX_WALKERS)
    walkers, spans = spans_walked(monkeypatch)
    orientation_counts(5, COUNT_CHUNK)
    caller = threading.current_thread().name
    assert walkers == [caller]
    assert spans == [(caller, 0, COUNT_CHUNK)]


def test_a_longer_walk_shares_one_list_of_contiguous_spans_between_two_walkers(monkeypatch):
    force_walkers(monkeypatch, epr.MAX_WALKERS)
    walkers, spans = spans_walked(monkeypatch)
    before = threading.active_count()
    n = 3 * COUNT_CHUNK
    orientation_counts(5, n)
    assert threading.active_count() == before
    caller = threading.current_thread().name
    assert len(walkers) == 2 and caller in walkers and len(set(walkers)) == 2
    # the walkers take the spans in order from one list that tiles [0, n),
    # each span once
    assert sorted(span for _, *span in spans) == [[0, COUNT_CHUNK], [COUNT_CHUNK, 2 * COUNT_CHUNK],
                                                 [2 * COUNT_CHUNK, n]]
    for walker in walkers:
        mine = [lo for name, lo, _ in spans if name == walker]
        assert mine == sorted(mine)


def test_a_held_back_walker_leaves_more_than_half_the_trials_to_the_calling_thread(monkeypatch):
    # the second walker waits on its first span until the calling thread
    # has walked every other span: the counts are the same
    force_walkers(monkeypatch, 2)
    walkers, spans = spans_walked(monkeypatch)
    recorded, caller, caller_done = epr._count_plus, threading.current_thread().name, threading.Event()

    def held(seed, shared, stop):
        if threading.current_thread().name == caller:
            try:
                return recorded(seed, shared, stop)
            finally:
                caller_done.set()

        def first_held():
            for k, span in enumerate(shared):
                if k == 0:
                    caller_done.wait(10)
                yield span

        return recorded(seed, first_held(), stop)

    monkeypatch.setattr(epr, "_count_plus", held)
    n = 10**6
    counts = orientation_counts(5, n)
    n_plus = int(np.count_nonzero(lambda_stream(5, n) == 1))
    assert counts == OrientationCounts(n, n_plus, n - n_plus)
    assert sum(hi - lo for name, lo, hi in spans if name == caller) > n // 2
    assert len(walkers) == 2


def test_more_walkers_than_cores_take_each_span_once_under_fast_thread_switches(monkeypatch):
    # the shared span list is the walkers' only shared state: a span taken
    # twice or lost would change the counts or the spans taken
    monkeypatch.setattr(epr, "MAX_WALKERS", 4)
    force_walkers(monkeypatch, 4)
    walkers, spans = spans_walked(monkeypatch)
    n = 40 * COUNT_CHUNK + 3
    n_plus = int(np.count_nonzero(lambda_stream(3, n) == 1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            walkers.clear()
            spans.clear()
            assert orientation_counts(3, n) == OrientationCounts(n, n_plus, n - n_plus)
            assert len(walkers) == 4
            assert sorted((lo, hi) for _, lo, hi in spans) == epr._spans(n, 4)
    finally:
        sys.setswitchinterval(interval)


class WalkerFault(RuntimeError):
    pass


def test_a_failing_walker_fails_the_call_and_leaves_no_thread(monkeypatch):
    # the second walker's error reaches the caller as itself, not as a
    # missing part of the counts
    force_walkers(monkeypatch, 2)
    real, caller = epr._count_plus, threading.current_thread().name

    def failing(seed, spans, stop):
        if threading.current_thread().name != caller:
            raise WalkerFault("the second walker drew no words")
        return real(seed, spans, stop)

    monkeypatch.setattr(epr, "_count_plus", failing)
    before = threading.active_count()
    with pytest.raises(WalkerFault, match="drew no words"):
        orientation_counts(5, 4 * COUNT_CHUNK)
    assert threading.active_count() == before


def trials_walked(monkeypatch, before_chunk) -> collections.Counter:
    """Trials that each thread's generators walk from now on, by thread name.
    Before each chunk, before_chunk(thread name, trials walked so far) runs
    and may raise."""
    walked = collections.Counter()

    class Recorded(np.random.Philox):
        def random_raw(self, size=None, output=True):
            name = threading.current_thread().name
            before_chunk(name, walked[name])
            walked[name] += size // 4
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "Philox", Recorded)
    return walked


def test_a_failing_walker_stops_the_calling_thread_at_its_next_chunk(monkeypatch):
    # the second walker fails on its first chunk, once the calling thread
    # has begun its second and waits there; a walker that went on would walk
    # n / 2
    force_walkers(monkeypatch, 2)
    caller, walking, failed = threading.current_thread().name, threading.Event(), threading.Event()

    def before_chunk(name, walked):
        if name != caller:
            walking.wait(10)
            failed.set()
            raise WalkerFault("the second walker lost its words")
        if walked:
            walking.set()
            failed.wait(10)

    walked = trials_walked(monkeypatch, before_chunk)
    n = 10**6
    with pytest.raises(WalkerFault, match="lost its words"):
        orientation_counts(5, n)
    assert 2 * COUNT_CHUNK <= walked[caller] < n // 8


def test_an_interrupted_walk_stops_the_second_walker_at_its_next_chunk(monkeypatch):
    # Ctrl-C in the calling thread, once both walkers walk: the second walker
    # stops at its next chunk and the interrupt reaches the caller.  How far
    # the second walker has walked when the interrupt comes is the scheduler's
    # choice, so what is counted is what it walks after
    force_walkers(monkeypatch, 2)
    caller, started, at_interrupt = threading.current_thread().name, threading.Event(), []

    def before_chunk(name, walked):
        if name != caller:
            started.set()
        elif walked:
            started.wait(10)
            at_interrupt.append(helper_walked())
            raise KeyboardInterrupt

    walked = trials_walked(monkeypatch, before_chunk)
    helper_walked = lambda: walked.total() - walked[caller]
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        orientation_counts(5, 10**6)
    assert threading.active_count() == before
    assert 0 < at_interrupt[0] <= helper_walked() <= at_interrupt[0] + 2 * COUNT_CHUNK


def test_an_interrupt_in_join_stops_the_held_walker_before_it_reaches_the_caller(monkeypatch):
    # a real SIGINT from a timer, while the calling thread has walked every
    # other span and waits in `join` for the second walker, which was held
    # on its first span and walks it slowly: the second walker stops within
    # a chunk or two of the signal, the interrupt reaches the caller only
    # then, and no thread is left
    if threading.current_thread() is not threading.main_thread() or not hasattr(signal, "pthread_kill"):
        pytest.skip("this process cannot send SIGINT to its own main thread")
    force_walkers(monkeypatch, 2)
    real, caller, caller_done = epr._count_plus, threading.current_thread().name, threading.Event()
    at_signal = []

    def send_sigint():
        at_signal.append(helper_walked())
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

    interrupt = threading.Timer(0.03, send_sigint)

    def held(seed, shared, stop):
        if threading.current_thread().name == caller:
            try:
                return real(seed, shared, stop)
            finally:
                caller_done.set()

        def first_held():
            for k, span in enumerate(shared):
                if k == 0:
                    caller_done.wait(10)
                    interrupt.start()
                yield span

        return real(seed, first_held(), stop)

    monkeypatch.setattr(epr, "_count_plus", held)
    walked = trials_walked(monkeypatch, lambda name, _: name != caller and time.sleep(0.005))
    helper_walked = lambda: walked.total() - walked[caller]
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    before = threading.active_count()
    try:
        with pytest.raises(KeyboardInterrupt):
            orientation_counts(5, 10**6)
    finally:
        signal.signal(signal.SIGINT, handler)
        interrupt.cancel()
    at_return = helper_walked()
    time.sleep(0.05)
    assert helper_walked() == at_return
    assert threading.active_count() == before
    assert 0 < at_signal[0] <= at_return <= at_signal[0] + 2 * COUNT_CHUNK


def test_mean_residual_norms_match_the_cumsum_oracle_bit_for_bit(monkeypatch):
    # at the chunk ends of one walker and of two, and in any order of sizes:
    # each (seed, n) is its own walk
    sizes = [COUNT_CHUNK + 1, 1, COUNT_CHUNK, 2 * COUNT_CHUNK + 7, 99]
    a, b = [0.6, 0.8, 0.0], EY
    scale = float(np.linalg.norm(np.cross(unit_vector(a), unit_vector(b))))
    oracle = {seed: prefix_counts(seed, max(sizes)) for seed in range(3)}
    want = np.mean([[abs(oracle[seed][n - 1][1] - oracle[seed][n - 1][2]) / n * scale for n in sizes]
                    for seed in oracle], axis=0)
    for walkers in (1, 2):
        force_walkers(monkeypatch, walkers)
        got = mean_residual_norms(a, b, range(3), sizes)
        assert got.tobytes() == want.tobytes()


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


def test_raw_score_rows_equal_the_multivector_raw_score():
    # row 0 holds every direction's score at lam = +1, row 1 at lam = -1
    rng = np.random.default_rng(160)
    ns = rng.normal(size=(50, 3))
    ns /= np.linalg.norm(ns, axis=1, keepdims=True)
    for side, side_sign in ((Side.ALICE, -1), (Side.BOB, 1)):
        want = [[raw_score(side_sign, n, lam) for n in ns] for lam in (1, -1)]
        assert epr._raw_scores(side, ns).tolist() == want


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
        assert np.linalg.norm(product.coeffs - Multivector.blade(3, 0, -1.0).coeffs) < 1e-12


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
    assert raw_mean == correlation_row(90.0, EX, EY, orientation_counts(13, 400))["raw_mean"]


# -- standard-score estimator ----------------------------------------------------------


def test_standard_scalar_is_exact_and_trial_independent():
    rng = np.random.default_rng(4)
    a, b = random_unit(rng), random_unit(rng)
    values = {
        n: float(correlation_row(0.0, a, b, orientation_counts(42, n))["std_scalar"][0])
        for n in (1, 2, 3, 17, 1000)
    }
    assert len(set(values.values())) == 1
    assert values[1] == pytest.approx(-float(np.dot(a, b)), abs=1e-16)


def test_standard_equal_directions():
    (row,) = correlation_row(0.0, EX, EX, orientation_counts(1, 1000))
    assert row["std_scalar"] == -1.0
    assert row[["resid_x", "resid_y", "resid_z"]].tolist() == (0.0, 0.0, 0.0)
    assert row["stderr"] == 0.0


def test_standard_perpendicular_directions_large_n():
    n = 10**6
    (row,) = correlation_row(90.0, EX, EY, orientation_counts(1234, n))
    assert row["std_scalar"] == 0.0
    bound = 3.0 / math.sqrt(n)
    for c in row[["resid_x", "resid_y", "resid_z"]].tolist():
        assert abs(c) < bound
    assert row["stderr"] == pytest.approx(1.0 / math.sqrt(n))


def test_standard_sixty_degrees_reads_minus_half():
    a, b = directions(60.0)
    (row,) = correlation_row(60.0, a, b, orientation_counts(42, 10**5))
    assert abs(row["std_scalar"] - (-0.5)) < 1e-15
    assert row["resid_norm"] < 3.0 * row["stderr"]


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
    (row,) = correlation_row(0.0, a, b, counts)
    got = np.array(row[["std_scalar", "resid_x", "resid_y", "resid_z"]].tolist())
    assert np.max(np.abs(got - literal)) < 1e-15


# -- raw-score estimator -----------------------------------------------------------------


def test_raw_estimator_is_minus_one_everywhere():
    rng = np.random.default_rng(8)
    for n, seed in ((1, 0), (10, 5), (1000, 9), (10**5, 42)):
        a, b = random_unit(rng), random_unit(rng)
        assert correlation_row(0.0, a, b, orientation_counts(seed, n))["raw_mean"] == -1.0


def test_raw_estimator_equal_directions_matches_singlet_point():
    (row,) = correlation_row(0.0, EX, EX, orientation_counts(3, 100))
    assert row["raw_mean"] == row["std_scalar"] == -1.0


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
    assert rows.dtype == SWEEP_COLUMNS
    assert rows["theta_deg"].tolist() == [0.0, 90.0, 180.0]
    assert np.max(np.abs(rows["std_scalar"] - [-1.0, 0.0, 1.0])) < 1e-15
    assert rows["raw_mean"].tolist() == [-1.0] * 3
    assert rows["n"].tolist() == [2000] * 3


def test_sweep_is_deterministic():
    spec = SweepSpec(steps=5)
    assert sweep(spec, orientation_counts(7, 5000)).tobytes() == sweep(spec, orientation_counts(7, 5000)).tobytes()


def test_sweep_rows_share_one_trial_stream():
    rows = sweep(SweepSpec(steps=5), orientation_counts(7, 5000))
    lam_mean = lambda_stream(7, 5000).astype(np.int64).sum() / 5000
    for row in rows:
        a, b = directions(row["theta_deg"])
        expected = -lam_mean * np.cross(a, b)
        assert np.max(np.abs(np.array(row[["resid_x", "resid_y", "resid_z"]].tolist()) - expected)) < 1e-15


def test_correlation_row_reports_both_estimators():
    a, b = directions(40.0)
    counts = orientation_counts(5, 777)
    row = correlation_row(40, a, b, counts)
    assert row.tobytes() == reference_row(40, a, b, counts).tobytes()
    assert row.tobytes() == sweep(SweepSpec(0.0, 40.0, 2), counts)[1:].tobytes()


def reference_row(theta, a, b, counts):
    """One sweep row, as a (1,) array, from single-pair calls and 1-D norms,
    sharing no batched code."""
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
        assert np.linalg.norm(alice.coeffs - Multivector.blade(3, 0, lam).coeffs) < 1e-12
        assert np.linalg.norm(bob.coeffs - Multivector.blade(3, 0, -lam).coeffs) < 1e-12
        total += k * round(scalar_part(alice)) * round(scalar_part(bob))
    residual = tuple(float(c) for c in counts.lam_mean * np.asarray(products[1].c))
    stderr = float(np.linalg.norm(np.cross(a, b))) / math.sqrt(counts.n)
    return np.array([(theta, total / counts.n, products[1].c0, *residual,
                      np.linalg.norm(residual), stderr, counts.n)], SWEEP_COLUMNS)


@pytest.mark.parametrize("spec, n, seed", [
    (SweepSpec(), 10**5, 42),
    (SweepSpec(0.0, 360.0, 91), 10**6, 7),
    (SweepSpec(-33.3, 271.9, 57), 1_234_567, 9),
])
def test_sweep_rows_equal_a_per_row_reference(spec, n, seed):
    counts = orientation_counts(seed, n)
    want = np.concatenate([reference_row(t, *directions(t), counts) for t in spec.angles_deg()])
    assert sweep(spec, counts).tobytes() == want.tobytes()


def test_batched_rows_equal_a_per_row_reference_at_random_directions():
    # a batched norm changes the last bit of a unit vector on 8% of these rows
    rng = np.random.default_rng(2144)
    thetas = rng.uniform(-720.0, 720.0, 2000)
    a = rng.normal(size=(2000, 3))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    b = np.array([directions(t)[1] for t in thetas])
    counts = orientation_counts(11, 1001)
    want = np.concatenate([reference_row(t, ai, bi, counts) for t, ai, bi in zip(thetas, a, b)])
    assert epr._rows(thetas, a, b, counts).tobytes() == want.tobytes()


MIDDLE_ROW = 18


def corrupt(monkeypatch, module, name, when, index, change):
    """Make module.`name` replace entry `index` of its result by change(entry)
    on the calls that `when` selects."""
    real = getattr(module, name)

    def corrupted(*args):
        out = np.array(real(*args))
        if when(*args):
            out[index] = change(out[index])
        return out

    monkeypatch.setattr(module, name, corrupted)


@pytest.mark.parametrize("blade, change, message", [
    (0, np.negative, "per-trial identity"),
    (5, lambda c: 1e-6, "not a unit scalar"),
])
def test_sweep_checks_every_raw_product_row(monkeypatch, blade, change, message):
    # the raw products run in `frames._handed_products`, row MIDDLE_ROW at lam = +1
    corrupt(monkeypatch, frames, "_product", lambda kind, x, y: kind == "geometric",
            (MIDDLE_ROW, blade), change)
    with pytest.raises(epr.TrialConsistencyError, match=message):
        sweep(SweepSpec(), orientation_counts(1, 100))


@pytest.mark.parametrize("component, message", [
    (0, "scalar part .* must not depend on lam"),
    (1, "bivector part .* must flip with lam"),
    (3, "bivector part .* must flip with lam"),
])
def test_sweep_checks_every_standard_product_row(monkeypatch, component, message):
    # one ulp on one row of the lam = -1 products, the second half of the
    # columns of the one `_structure_coeffs` call of `frames._abstract_products`
    corrupt(monkeypatch, frames, "_structure_coeffs", lambda x, y, s: True,
            (component, SweepSpec().steps + MIDDLE_ROW), lambda c: np.nextafter(c, np.inf))
    with pytest.raises(epr.TrialConsistencyError, match=message):
        sweep(SweepSpec(), orientation_counts(1, 100))


def test_estimators_read_only_the_counts_they_are_given(monkeypatch):
    # the counts are the run's only random input: no estimator walks the stream
    counts = OrientationCounts(10, 7, 3)

    def no_stream(*args, **kwargs):
        raise AssertionError("the stream was drawn")

    monkeypatch.setattr(np.random, "Philox", no_stream)
    rows = sweep(SweepSpec(steps=3), counts)
    assert rows["resid_z"].tolist() == pytest.approx([0.0, -0.4, 0.0], abs=1e-15)
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
