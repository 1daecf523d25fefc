"""Self-test of the benchmark: tiny workloads pass their checks, corrupted
outputs fail them, the pre-flight passes, and the tracer counts what it
should.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from cliffsphere import cli, multivector  # noqa: E402


def main(argv):
    return cli.main(argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_has_no_failed_ops(workload, tmp_path):
    phase = workloads.run_phase(workload, 7, 60.0, tmp_path, main,
                                size=workloads.TINY, max_ops=3)
    assert len(phase.times) == len(phase.ref_times) == 3
    assert phase.failed == 0, phase.problems
    if workload != "identities":
        assert all(phase.digests)


def _sweep_op(tmp_path) -> workloads.Call:
    (call,) = workloads.make_op("sweep", 7, 0, tmp_path, workloads.TINY)
    assert workloads.run_op([call], main).problems == []
    return call


def _set_field(path: Path, row: int, column: str, value: str) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][rows[0].index(column)] = value
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _repin_manifest(out: Path) -> None:
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["outputs"]:
        entry["sha256"] = workloads.sha256_file(out / entry["path"])
    manifest_path.write_text(json.dumps(manifest))


def test_corrupted_correlations_csv_fails_the_digest_check(tmp_path):
    call = _sweep_op(tmp_path)
    _set_field(call.out / "correlations.csv", 1, "raw_mean", "-0.99999")
    problems, _ = workloads.check_manifest(call.out)
    assert problems


@pytest.mark.parametrize("column, value", [
    ("raw_mean", "-0.99999"),
    ("std_scalar", "-0.9999999999"),
    ("n", "999"),
])
def test_corrupted_correlations_csv_fails_the_value_check(tmp_path, column, value):
    call = _sweep_op(tmp_path)
    _set_field(call.out / "correlations.csv", 1, column, value)
    _repin_manifest(call.out)
    assert workloads.check_manifest(call.out)[0] == []
    assert call.check(0, "", call.out)


def test_a_missing_sweep_row_fails(tmp_path):
    call = _sweep_op(tmp_path)
    path = call.out / "correlations.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert call.check(0, "", call.out)


def test_report_checks_fail_on_wrong_outputs(tmp_path):
    pool = workloads.write_embedding_pool(7, tmp_path)
    hopf, s7 = workloads.make_op("reports", 7, 0, tmp_path, pool=pool)
    assert workloads.run_op([hopf, s7], main).problems == []
    lam = int(s7.argv[s7.argv.index("--lambda") + 1])
    assert workloads.check_s7(-lam)(0, "", s7.out)
    _set_field(hopf.out / "null_limit.csv", 1, "wedge_magnitude", "1.000001")
    assert workloads.check_hopf(0, "", hopf.out)
    assert workloads.check_hopf(1, "", hopf.out)


def test_identity_check_needs_every_pass_line():
    passing = "\n".join(["PASS  x"] * workloads.IDENTITY_CHECKS)
    assert workloads.check_identities(0, passing, Path()) == []
    assert workloads.check_identities(1, passing, Path())
    assert workloads.check_identities(0, passing.replace("PASS", "FAIL", 1), Path())


def test_an_op_that_raises_counts_as_failed(tmp_path):
    call = workloads.Call(["simulate", "--trials", "not-a-number", "--out", str(tmp_path)],
                          tmp_path, workloads.check_sweep(1))
    assert workloads.run_op([call], main).problems


def test_preflight_passes(tmp_path):
    result = workloads.preflight(main, tmp_path, np.__version__)
    assert result["ok"], result["problems"]
    assert result["canary_fail_lines"] > 0


def test_op_inputs_depend_only_on_seed_and_index(tmp_path):
    a = workloads.make_op("reports", 3, 5, tmp_path, pool=[Path("e")] * workloads.EMBEDDING_POOL)
    b = workloads.make_op("reports", 3, 5, tmp_path, pool=[Path("e")] * workloads.EMBEDDING_POOL)
    c = workloads.make_op("reports", 3, 6, tmp_path, pool=[Path("e")] * workloads.EMBEDDING_POOL)
    assert [x.argv for x in a] == [x.argv for x in b] != [x.argv for x in c]
    assert workloads.op_seed(3, 5) != workloads.op_seed(3, 6)


def test_probe_time_is_left_out_and_speed_scales_the_op():
    probe = workloads.SpeedProbe("sweep")
    probe.starts, probe.durations = [0.0, 1.0, 1.5, 3.0], [0.001, 0.002, 0.002, 0.001]
    wall, ref = probe.op_times(workloads.OpResult(intervals=[(1.0, 2.0)]))
    assert wall == pytest.approx(0.996)
    assert ref == pytest.approx(0.996 * probe.ref_s / 0.002)
    wall, ref = probe.op_times(workloads.OpResult(intervals=[(2.0, 2.01)]))
    assert wall == pytest.approx(0.01)
    assert ref == pytest.approx(0.01 * probe.ref_s / 0.002)


def test_data_digest_prefixes_agree_across_run_lengths():
    ops = [[(f"f{i}", f"{i:064x}")] for i in range(5)]
    short, long = workloads.data_digest(ops[:3]), workloads.data_digest(ops)
    assert short["prefix_sha256"]["2"] == long["prefix_sha256"]["2"]
    assert short["sha256"] != long["sha256"]


def _traced_phase(workload, tmp_path, ops=2):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = workloads.run_phase(workload, 7, 60.0, tmp_path, main, size=workloads.TINY,
                                    max_ops=ops, tracer=tracer)
    finally:
        tracer.uninstall()
    assert phase.failed == 0, phase.problems
    return tracer.layer_metrics(tracer.span_table(), ops)


def test_tracer_counts_stream_builds_per_sweep_op(tmp_path):
    m = _traced_phase("sweep", tmp_path)
    assert m["epr.lambda_stream.calls"] == 74
    assert m["epr.lambda_stream.trials"] == 74 * workloads.TINY.trials
    assert m["epr.stream_useful_ratio"] == pytest.approx(1 / 74)
    assert m["cli.calls"] == 3


def test_tracer_counts_build_J_per_reports_op(tmp_path):
    m = _traced_phase("reports", tmp_path)
    assert m["seven_sphere.build_J.calls"] == 3
    assert m["multivector.product.calls.cl7"] > 0
    assert m["epr.lambda_stream.calls"] == 0


def test_uninstall_restores_every_binding():
    before = (cli.main, multivector.geometric_product, cli.contract, multivector.Multivector.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.contract is not before[2]
    tracer.uninstall()
    after = (cli.main, multivector.geometric_product, cli.contract, multivector.Multivector.__init__)
    assert after == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: sum(range(1000)), lambda args: tracer._id("t.inner"))
    outer = tracer._wrap(lambda: [inner() for _ in range(3)], lambda args: tracer._id("t.outer"))
    outer()
    table = tracer.span_table()
    assert table["t.inner"]["calls"] == 3
    assert table["t.outer"]["self_s"] == pytest.approx(
        table["t.outer"]["total_s"] - table["t.inner"]["total_s"], abs=1e-12)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
