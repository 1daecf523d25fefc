"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single ``ACCEPTANCE <k>: PASS`` line once its assertions
hold, so ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
"""

import csv
import hashlib
import json
import math
import time

import numpy as np
import pytest

from cliffsphere.cli import main
from cliffsphere.epr import (
    OrientationCounts,
    Side,
    SweepSpec,
    correlation_row,
    marginal_average,
    mean_residual_norms,
    orientation_counts,
    residual_convergence_slope,
    sweep,
)
from cliffsphere.frames import _frame_coeffs
from cliffsphere.hopf import _fiber_pair, _transition, _transport, null_limit_probe, phase_flip_at_pi
from cliffsphere.identities import run_identity_checks
from cliffsphere.multivector import Multivector, contract, geometric_product
from cliffsphere.seven_sphere import (
    J_TRIPLES,
    build_J,
    embed,
    raw_score_7,
)

from .oracles import basis_vector, naive_contract, naive_product, norm

SEEDS_20 = list(range(20))


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    """One CLI sweep at 1e5 trials, shared by criteria 4 and 5."""
    out = tmp_path_factory.mktemp("acceptance") / "sweep"
    code = main(["simulate", "--trials", "100000", "--seed", "42", "--out", str(out)])
    assert code == 0
    with (out / "correlations.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return out, rows


def test_criterion_01_identity_suite():
    # the bilinear frame identities hold exactly on every ordered basis pair,
    # hence for all inputs; the oracle and rotor checks multiply integers that
    # floats hold exactly: every check must read residual 0
    start = time.perf_counter()
    results = run_identity_checks()
    elapsed = time.perf_counter() - start
    for r in results:
        assert r.residual == 0.0, f"{r.name}: {r.residual}"
    assert elapsed < 5.0, f"identity suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS ({len(results)} identity checks, all exact, {elapsed:.2f}s)")


def test_criterion_02_handedness_detectors():
    for lam in (1, -1):
        bx, by, bz = (Multivector(3, row) for row in _frame_coeffs(lam))
        got = geometric_product(geometric_product(bx, by), bz)
        assert np.array_equal(got.coeffs, Multivector.blade(3, 0, float(lam)).coeffs)
    print("\nACCEPTANCE 2: PASS (ordered products +1 and -1, exact)")


def test_criterion_03_raw_scores():
    # the marginal average over one trial is that trial's raw score
    rng = np.random.default_rng(303)
    for lam, one_trial in ((1, OrientationCounts(1, 1, 0)), (-1, OrientationCounts(1, 0, 1))):
        for _ in range(1000):
            assert marginal_average(random_unit(rng), Side.ALICE, one_trial).scalar == lam
            assert marginal_average(random_unit(rng), Side.BOB, one_trial).scalar == -lam
    print("\nACCEPTANCE 3: PASS (raw scores lam / -lam over 1000 directions x both)")


def test_criterion_04_standard_score_correlation(sweep_csv):
    rng = np.random.default_rng(404)
    a, b = random_unit(rng), random_unit(rng)
    # scalar equals -a.b for every n, exactly
    reference = None
    for n in (1, 3, 100, 4096):
        (row,) = correlation_row(0.0, a, b, orientation_counts(8, n))
        reference = row["std_scalar"] if reference is None else reference
        assert row["std_scalar"] == reference
    assert reference == pytest.approx(-float(np.dot(a, b)), abs=1e-16)
    # residual components within 3|a x b|/sqrt(n) for >= 18 of 20 seeds
    n = 100_000
    bound = 3.0 * float(np.linalg.norm(np.cross(a, b))) / math.sqrt(n)
    good = 0
    for seed in SEEDS_20:
        (row,) = correlation_row(0.0, a, b, orientation_counts(seed, n))
        if all(abs(c) < bound for c in row[["resid_x", "resid_y", "resid_z"]].tolist()):
            good += 1
    assert good >= 18, f"only {good}/20 seeds inside the bound"
    # the 60-degree row of the recorded sweep reads -0.5 to 1e-15
    _, rows = sweep_csv
    row60 = next(r for r in rows if float(r["theta_deg"]) == 60.0)
    assert abs(float(row60["std_scalar"]) - (-0.5)) < 1e-15
    # runtime bound for the full 37-point sweep at 1e5 trials
    start = time.perf_counter()
    sweep(SweepSpec(), orientation_counts(42, n))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 4: PASS (exact scalar, {good}/20 seeds, sweep {elapsed:.2f}s)")


def test_criterion_05_raw_estimator(sweep_csv):
    _, rows = sweep_csv
    assert len(rows) == 37
    for row in rows:
        assert float(row["raw_mean"]) == -1.0
    for seed in (0, 1, 2, 3):
        assert sweep(SweepSpec(steps=5), orientation_counts(seed, 1000))["raw_mean"].tolist() == [-1.0] * 5
    print("\nACCEPTANCE 5: PASS (raw estimator -1 at every angle and seed)")


def test_criterion_06_marginals():
    n = 1_000_000
    bound = 3.0 / math.sqrt(n)
    direction = np.array([0.36, 0.48, 0.8])
    good = 0
    for seed in SEEDS_20:
        counts = orientation_counts(seed, n)
        ok = True
        for side in (Side.ALICE, Side.BOB):
            est = marginal_average(direction, side, counts)
            ok = ok and abs(est.scalar) < bound
            ok = ok and all(abs(c) < bound for c in est.residual_coeffs)
        good += 1 if ok else 0
    assert good >= 18, f"only {good}/20 seeds inside the bound"
    print(f"\nACCEPTANCE 6: PASS (marginals within 3/sqrt(n) for {good}/20 seeds)")


def test_criterion_07_convergence_exponent():
    sizes = (100, 1_000, 10_000, 100_000, 1_000_000)
    residuals = mean_residual_norms(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), SEEDS_20, sizes)
    slope = residual_convergence_slope(sizes, residuals)
    assert abs(slope - (-0.5)) <= 0.1, f"slope {slope}"
    print(f"\nACCEPTANCE 7: PASS (log-log slope {slope:.3f})")


def test_criterion_08_hopf_transport():
    worst = 0.0
    for psi_a in (1e-1, 1e-2, 1e-3):
        for phi_deg in (30.0, 90.0, 150.0):
            phi = math.radians(phi_deg)
            a = np.array([1.0, 0.0, 0.0])
            b = np.array([math.cos(phi), math.sin(phi), 0.0])
            pair = _fiber_pair(a, b, psi_a)
            t_res, p_res = _transition(pair)[2], _transport(pair, 1)
            worst = max(worst, t_res, p_res)
            assert t_res < 1e-10 and p_res < 1e-10
    q_a, q_b, flip = phase_flip_at_pi(0.01)
    assert flip < 1e-12
    assert q_a[0] > 0 > q_b[0]
    print(f"\nACCEPTANCE 8: PASS (worst residual {worst:.2e}, sign flip at pi)")


def test_criterion_09_null_limit_probe():
    separations = [10.0 ** (-k) for k in range(1, 7)]
    rows = null_limit_probe(np.array([1.0, 0.0, 0.0]), separations)
    assert np.max(np.abs(rows["wedge_magnitude"] - 1.0)) < 1e-12
    print("\nACCEPTANCE 9: PASS (magnitude 1 +- 1e-12 down to 1e-6 rad)")


def test_criterion_10_seven_sphere():
    J = build_J().value
    expected = np.zeros(128)
    for i, j, k in J_TRIPLES:
        expected[(1 << (i - 1)) | (1 << (j - 1)) | (1 << (k - 1))] = 1.0
    assert np.array_equal(J.coeffs, expected)
    got = contract(J, basis_vector(7, 1))
    line = np.zeros(128)
    for i, j in ((2, 4), (5, 6), (3, 7)):
        line[(1 << (i - 1)) | (1 << (j - 1))] = 1.0
    assert np.array_equal(got.coeffs, line)
    rng = np.random.default_rng(1010)
    for _ in range(100):
        a = random_unit(rng)
        lam = 1 if rng.random() < 0.5 else -1
        report = raw_score_7(a, lam)
        n7 = Multivector.from_vector(embed(a), dim=7).coeffs
        jn = naive_contract(J.coeffs, n7)
        want = naive_product(-jn, lam * jn)
        assert np.max(np.abs(report.coeffs - want)) < 1e-12
    print("\nACCEPTANCE 10: PASS (J exact, Fano line exact, oracle to 1e-12 x100)")


def test_criterion_11_manifest_determinism(tmp_path):
    first_runs = {
        "simulate": (["simulate", "--trials", "20000", "--seed", "11"], 0),
        "simulate-pair": (["simulate", "--trials", "2000", "--a=-0.6,0,0.8", "--b=0,-1,0"], 0),
        "hopf": (["hopf", "--psi-a", "0.02", "--phi-deg", "60"], 0),
        "s7": (["s7", "--a", "0,1,0", "--lambda", "-1"], 0),
        "s7-negative": (["s7", "--a=-0.6,0,0.8"], 0),
        "identities": (["identities", "--pairs", "50"], 0),
        "identities-canary": (["identities", "--pairs", "50", "--inject-sign-flip"], 1),
    }
    for name, (argv, code) in first_runs.items():
        out1 = tmp_path / name / "first"
        out2 = tmp_path / name / "replay"
        assert main(argv + ["--out", str(out1)]) == code
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert main(manifest["argv"] + ["--out", str(out2)]) == code
        replay = json.loads((out2 / "manifest.json").read_text())
        assert replay["argv"] == manifest["argv"]
        assert replay["config"] == {**manifest["config"], "out": str(out2)}
        originals = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        replays = {o["path"]: o["sha256"] for o in replay["outputs"]}
        assert originals == replays
        for path, digest in originals.items():
            data = (out2 / path).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
    print("\nACCEPTANCE 11: PASS (manifest argv replays byte-identical for all commands)")
