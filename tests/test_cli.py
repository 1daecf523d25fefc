"""End-to-end CLI tests: file schemas, exit codes, determinism, seeding."""

import csv
import hashlib
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsphere import cli, epr
from cliffsphere.cli import main
from cliffsphere.epr import lambda_stream
from cliffsphere.identities import run_identity_checks

CSV_HEADER = [
    "theta_deg", "raw_mean", "std_scalar", "resid_x", "resid_y", "resid_z",
    "resid_norm", "stderr", "n",
]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


# -- simulate -------------------------------------------------------------------


def test_simulate_sweep_schema_and_values(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--trials", "20000", "--seed", "42", "--out", str(out)]) == 0
    rows = read_csv(out / "correlations.csv")
    assert rows[0] == CSV_HEADER
    body = rows[1:]
    assert len(body) == 37
    for row in body:
        assert float(row[1]) == -1.0
        assert row[8] == "20000"
    by_theta = {float(r[0]): r for r in body}
    assert abs(float(by_theta[60.0][2]) - (-0.5)) < 1e-15
    assert abs(float(by_theta[0.0][2]) - (-1.0)) < 1e-15
    assert abs(float(by_theta[90.0][2])) < 1e-15
    assert abs(float(by_theta[180.0][2]) - 1.0) < 1e-15


def test_simulate_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["simulate", "--trials", "5000", "--seed", "9", "--sweep", "0:90:4"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert digest(out1 / "correlations.csv") == digest(out2 / "correlations.csv")
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"][0]["sha256"] == m2["outputs"][0]["sha256"]


def test_simulate_seed_changes_residuals(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--trials", "5000", "--seed", "1", "--out", str(out1)]) == 0
    assert main(["simulate", "--trials", "5000", "--seed", "2", "--out", str(out2)]) == 0
    assert digest(out1 / "correlations.csv") != digest(out2 / "correlations.csv")


def test_simulate_single_pair(tmp_path):
    out = tmp_path / "pair"
    code = main(
        ["simulate", "--trials", "1000", "--seed", "3", "--out", str(out),
         "--a", "1,0,0", "--b", "0,1,0"]
    )
    assert code == 0
    rows = read_csv(out / "correlations.csv")
    assert len(rows) == 2
    assert abs(float(rows[1][0]) - 90.0) < 1e-12
    assert float(rows[1][1]) == -1.0
    assert abs(float(rows[1][2])) < 1e-15


def test_simulate_rejects_bad_vectors(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["simulate", "--out", out, "--a", "1,0", "--b", "0,1,0"]) == 2
    assert main(["simulate", "--out", out, "--a", "2,0,0", "--b", "0,1,0"]) == 2
    assert main(["simulate", "--out", out, "--a", "1,0,zz", "--b", "0,1,0"]) == 2
    assert main(["simulate", "--out", out, "--a", "1,0,0"]) == 2
    assert main(["simulate", "--out", out, "--a", "nan,0,0", "--b", "0,1,0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_simulate_rejects_bad_sweep(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["simulate", "--out", out, "--sweep", "0:180"]) == 2
    assert main(["simulate", "--out", out, "--sweep", "0:180:1"]) == 2
    capsys.readouterr()
    for spec in ("0:inf:3", "1e308:-1e308:3"):
        # rejected as a spec, before numpy warns on stderr about the angles
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--out", out, "--sweep", spec])
        assert_usage_error(capsys, code)


def test_seed_env_var_and_flag_override(tmp_path, monkeypatch):
    out_env = tmp_path / "env"
    out_flag = tmp_path / "flag"
    out_override = tmp_path / "override"
    monkeypatch.setenv("CLIFFSPHERE_SEED", "123")
    assert main(["simulate", "--trials", "500", "--out", str(out_env)]) == 0
    monkeypatch.delenv("CLIFFSPHERE_SEED")
    assert main(["simulate", "--trials", "500", "--seed", "123", "--out", str(out_flag)]) == 0
    assert digest(out_env / "correlations.csv") == digest(out_flag / "correlations.csv")
    monkeypatch.setenv("CLIFFSPHERE_SEED", "123")
    assert main(["simulate", "--trials", "500", "--seed", "77", "--out", str(out_override)]) == 0
    assert digest(out_override / "correlations.csv") != digest(out_env / "correlations.csv")
    monkeypatch.setenv("CLIFFSPHERE_SEED", "not-an-int")
    assert main(["simulate", "--trials", "500", "--out", str(tmp_path / "zz")]) == 2


FAST_ARGV = {
    "simulate": ["simulate", "--trials", "100"],
    "hopf": ["hopf"],
    "s7": ["s7"],
    "identities": ["identities", "--pairs", "1"],
}
DATA_FILES = {"simulate": "correlations.csv", "hopf": "null_limit.csv", "s7": "s7_report.json"}


@pytest.mark.parametrize("command", sorted(FAST_ARGV))
def test_manifest_schema(tmp_path, command):
    out = tmp_path / "m"
    assert main([*FAST_ARGV[command], "--seed", "5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("command", "config", "seed", "version", "outputs"):
        assert key in manifest
    assert manifest["command"] == command
    assert manifest["config"]["out"] == str(out)
    assert manifest["seed"] == 5
    want = [DATA_FILES[command]] if command in DATA_FILES else []
    assert [entry["path"] for entry in manifest["outputs"]] == want
    assert sorted(p.name for p in out.iterdir()) == sorted(want + ["manifest.json"])
    for entry in manifest["outputs"]:
        assert entry["sha256"] == digest(out / entry["path"])
    assert manifest["started_utc"] <= manifest["finished_utc"]


def test_manifest_records_orientation_counts(tmp_path):
    for argv in (["--trials", "3001", "--seed", "12"],
                 ["--trials", "2500", "--seed", "4", "--a", "1,0,0", "--b", "0,0,1"]):
        out = tmp_path / argv[3]
        assert main(["simulate", *argv, "--out", str(out)]) == 0
        trials, seed = int(argv[1]), int(argv[3])
        orientation = json.loads((out / "manifest.json").read_text())["orientation"]
        assert orientation["n"] == trials
        assert orientation["n_plus"] + orientation["n_minus"] == trials
        # oracle: a direct count over the stream
        n_plus = int((lambda_stream(seed, trials) == 1).sum())
        assert orientation["n_plus"] == n_plus


def assert_usage_error(capsys, code):
    """Exit 2 with one `error:` line on stderr; returns what was printed."""
    assert code == 2
    printed = capsys.readouterr()
    assert printed.err.startswith("error:")
    assert len(printed.err.strip().splitlines()) == 1
    assert "Traceback" not in printed.err
    return printed


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_rejects_out_of_range_seed(tmp_path, capsys, seed):
    code = main(["simulate", "--trials", "100", "--seed", seed, "--out", str(tmp_path / "x")])
    assert_usage_error(capsys, code)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["hopf", "s7", "identities"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_every_subcommand_rejects_out_of_range_seed(tmp_path, capsys, command, seed):
    code = main([command, "--seed", seed, "--out", str(tmp_path / "x")])
    assert_usage_error(capsys, code)
    assert not (tmp_path / "x").exists()


def test_stale_manifest_is_dropped_before_data_is_written(tmp_path, monkeypatch):
    out = tmp_path / "x"
    assert main(["simulate", "--trials", "100", "--seed", "5", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()

    def crash(*args, **kwargs):
        raise RuntimeError("stopped between the data file and the manifest")

    monkeypatch.setattr(cli, "_write_manifest", crash)
    with pytest.raises(RuntimeError):
        main(["simulate", "--trials", "100", "--seed", "6", "--out", str(out)])
    assert (out / "correlations.csv").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", sorted(FAST_ARGV))
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unusable_out_is_a_usage_error(tmp_path, capsys, command, out):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code = main([*FAST_ARGV[command], "--out", str(tmp_path / out)])
    printed = assert_usage_error(capsys, code)
    assert "--out" in printed.err
    # a rejected run prints nothing on stdout, not even the checks it ran
    assert printed.out == ""
    assert blocker.read_text() == "not a directory\n"


def test_trial_inconsistency_is_a_verification_failure(tmp_path, capsys, monkeypatch):
    # a batched Bob scorer that follows lam instead of -lam (Alice's product
    # on Bob's directions) breaks the per-trial identity
    scores = epr._raw_scores
    monkeypatch.setattr(epr, "_raw_scores", lambda side, ns, lam: scores(epr.Side.ALICE, ns, lam))
    code = main(["simulate", "--trials", "100", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "per-trial identity" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x").exists()


def test_simulate_rejects_out_of_range_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CLIFFSPHERE_SEED", "-1")
    code = main(["simulate", "--trials", "100", "--out", str(tmp_path / "x")])
    assert_usage_error(capsys, code)


@pytest.mark.parametrize("argv, env_seed, refused", [
    (["simulate", "--a", "1,0,0", "--b", "2,0,0"], None, "--b '2,0,0': "),
    (["s7", "--a", "1,1,0"], None, "--a '1,1,0': "),
    (["hopf", "--seed", "-1"], None, "--seed: "),
    (["hopf"], "-1", "CLIFFSPHERE_SEED: "),
], ids=["simulate-b", "s7-a", "seed-flag", "seed-env"])
def test_usage_error_names_the_refused_flag(tmp_path, capsys, monkeypatch, argv, env_seed, refused):
    monkeypatch.delenv("CLIFFSPHERE_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("CLIFFSPHERE_SEED", env_seed)
    code = main([*argv, "--out", str(tmp_path / "x")])
    printed = assert_usage_error(capsys, code)
    assert printed.err.startswith(f"error: {refused}")
    assert not (tmp_path / "x").exists()


def test_simulate_accepts_largest_seed(tmp_path):
    out = tmp_path / "x"
    assert main(["simulate", "--trials", "100", "--seed", str(2**64 - 1), "--out", str(out)]) == 0


def test_csv_floats_are_17_digit_and_locale_independent(tmp_path):
    out = tmp_path / "fmt"
    assert main(["simulate", "--trials", "100", "--seed", "5", "--out", str(out)]) == 0
    text = (out / "correlations.csv").read_text()
    assert "," in text and ";" not in text.splitlines()[0]
    # a 17-significant-digit value appears (not repr-shortened)
    assert "-0.99619469809174555" in text


# -- hopf ---------------------------------------------------------------------------


def test_hopf_defaults(tmp_path, capsys):
    out = tmp_path / "h"
    assert main(["hopf", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "transition residual" in printed
    assert "transport residual" in printed
    assert "phase flip at pi" in printed
    rows = read_csv(out / "null_limit.csv")
    assert rows[0] == ["psi_rad", "wedge_magnitude", "axis_x", "axis_y", "axis_z"]
    assert len(rows) == 7
    for row in rows[1:]:
        assert abs(float(row[1]) - 1.0) < 1e-9


def test_hopf_rejects_degenerate_phi(tmp_path):
    assert main(["hopf", "--phi-deg", "0", "--out", str(tmp_path / "x")]) == 2
    assert main(["hopf", "--phi-deg", "180", "--out", str(tmp_path / "y")]) == 2


def test_hopf_rejects_bad_separations(tmp_path):
    out = str(tmp_path / "x")
    assert main(["hopf", "--limit-separations", "1e-3,1e-2", "--out", out]) == 2
    assert main(["hopf", "--limit-separations", "1e-3,oops", "--out", out]) == 2


@pytest.mark.parametrize("flag", ["--psi-a=-0.5", "--psi-a=0", "--psi-a=inf", "--psi-a=nan",
                                  "--phi-deg=inf", "--phi-deg=nan", "--phi-deg=-30"])
def test_hopf_rejects_bad_fiber_angles(tmp_path, capsys, flag):
    code = main(["hopf", flag, "--out", str(tmp_path / "x")])
    assert flag.split("=")[0] in assert_usage_error(capsys, code).err
    assert not (tmp_path / "x").exists()


def test_hopf_rejects_an_empty_separation_list(tmp_path, capsys):
    # with no separations the null-limit probe would pass without having run
    code = main(["hopf", "--limit-separations", "", "--out", str(tmp_path / "x")])
    assert "--limit-separations" in assert_usage_error(capsys, code).err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", sorted(DATA_FILES))
def test_data_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "x"
    (out / DATA_FILES[command]).mkdir(parents=True)
    code = main([*FAST_ARGV[command], "--out", str(out)])
    assert DATA_FILES[command] in assert_usage_error(capsys, code).err
    assert sorted(p.name for p in out.iterdir()) == [DATA_FILES[command]]


def test_failed_write_keeps_the_previous_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "x"
    assert main(["hopf", "--out", str(out)]) == 0
    before = (out / "null_limit.csv").read_bytes()

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", no_space)
    code = main(["hopf", "--limit-separations", "1e-1", "--out", str(out)])
    assert "No space left" in assert_usage_error(capsys, code).err
    assert (out / "null_limit.csv").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["null_limit.csv"]


#: sha256 of the default-flag data files at seed 42 (ROADMAP).
GOLDEN_NUMPY = "2.4.6"
GOLDEN = {
    "simulate": ("correlations.csv", "39667133e080e30c929bce0cd5907994d080f4141755435e9af6625f14c49371"),
    "hopf": ("null_limit.csv", "4440a95edac89419d1e5a52297a4de5962d18abc2c250746eae8a10cc14cc698"),
    "s7": ("s7_report.json", "4cbd95640d0b5db257f803efed3639b6c28e62faacc675236a468f0132a4c4d9"),
}


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"the golden digests are pinned for numpy {GOLDEN_NUMPY}, "
                           f"and float output may round differently under numpy {np.__version__}")
@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_runs_match_the_golden_digests(tmp_path, monkeypatch, command):
    monkeypatch.delenv("CLIFFSPHERE_SEED", raising=False)
    name, want = GOLDEN[command]
    assert main([command, "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / name) == want


def test_hopf_reruns_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["hopf", "--out", str(out1)]) == 0
    assert main(["hopf", "--out", str(out2)]) == 0
    assert digest(out1 / "null_limit.csv") == digest(out2 / "null_limit.csv")


# -- s7 ------------------------------------------------------------------------------


def test_s7_default_report(tmp_path):
    out = tmp_path / "s"
    assert main(["s7", "--out", str(out)]) == 0
    report = json.loads((out / "s7_report.json").read_text())
    assert set(report["contract_terms"]) == {"e24", "e56", "e37"}
    assert len(report["J"]) == 7
    assert all(v == 1.0 for v in report["J"].values())
    assert report["raw_score"]["scalar_part"] == 3.0
    assert set(report["raw_score"]["grade_norms"]) == {str(g) for g in range(8)}
    assert report["raw_score"]["grade_norms"]["0"] == 3.0
    assert report["raw_score"]["grade_norms"]["4"] == pytest.approx(2 * math.sqrt(3))


def test_s7_lambda_flip_negates_standard_score(tmp_path):
    out_plus, out_minus = tmp_path / "p", tmp_path / "m"
    assert main(["s7", "--lambda", "1", "--out", str(out_plus)]) == 0
    assert main(["s7", "--lambda", "-1", "--out", str(out_minus)]) == 0
    plus = json.loads((out_plus / "s7_report.json").read_text())["standard_score"]
    minus = json.loads((out_minus / "s7_report.json").read_text())["standard_score"]
    assert {k: -v for k, v in plus.items()} == minus


def test_s7_user_embedding_file(tmp_path):
    matrix = tmp_path / "iso.txt"
    lines = []
    for row in range(7):
        cols = ["1" if (row, col) in ((4, 0), (5, 1), (6, 2)) else "0" for col in range(3)]
        lines.append(" ".join(cols))
    matrix.write_text("\n".join(lines) + "\n")
    out = tmp_path / "s"
    assert main(["s7", "--embedding", str(matrix), "--out", str(out)]) == 0
    report = json.loads((out / "s7_report.json").read_text())
    assert report["n7"] == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]


def test_s7_bad_embedding_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 0\n0 1 0\n")
    assert main(["s7", "--embedding", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert main(["s7", "--embedding", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "y")]) == 2


# -- identities ------------------------------------------------------------------------


def test_identities_passes_and_prints_checks(tmp_path, capsys):
    out = tmp_path / "i"
    assert main(["identities", "--pairs", "100", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    lines = [l for l in printed.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 30
    assert all(l.startswith("PASS") for l in lines)
    assert (out / "manifest.json").exists()


def test_identities_default_stdout_is_the_library_suite(tmp_path, capsys, monkeypatch):
    # at their defaults the CLI and the library call check the same inputs
    monkeypatch.delenv("CLIFFSPHERE_SEED", raising=False)
    assert main(["identities", "--out", str(tmp_path)]) == 0
    results = run_identity_checks()
    assert capsys.readouterr().out.splitlines() == [
        "identity suite: tolerance 1e-12, 1000 vector pairs",
        *(f"{'PASS' if r.passed else 'FAIL'}  {r.name:55s} max residual {r.residual:.3e}  tol {r.tolerance:.1e}"
          for r in results),
        f"{len(results)}/{len(results)} checks passed",
    ]


def test_identities_sign_flip_canary_fails(tmp_path, capsys):
    out = tmp_path / "i"
    assert main(["identities", "--pairs", "50", "--inject-sign-flip", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert any(l.startswith("FAIL") for l in printed.splitlines())


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
def test_identities_rejects_meaningless_tolerance(tmp_path, capsys, tolerance):
    code = main(["identities", "--pairs", "1", f"--tolerance={tolerance}",
                 "--out", str(tmp_path / "i")])
    assert "checks passed" not in assert_usage_error(capsys, code).out
    assert not (tmp_path / "i").exists()


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_identities_rejects_nonpositive_pairs(tmp_path, capsys, pairs):
    code = main(["identities", "--pairs", pairs, "--out", str(tmp_path / "i")])
    assert "checks passed" not in assert_usage_error(capsys, code).out


def test_identities_tolerance_flag_is_applied_and_echoed(tmp_path, capsys):
    out = tmp_path / "i"
    main(["identities", "--pairs", "20", "--tolerance", "1e-15", "--out", str(out)])
    printed = capsys.readouterr().out
    assert "1e-15" in printed
    assert "tol 1.0e-15" in printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["tolerance"] == 1e-15


# -- generated argv ------------------------------------------------------------------

SEEDS = [None, "0", "42", "-1", str(2**64), str(2**64 - 1)]
VECTORS = ["1,0,0", "0.6,0.8,0", "0,0,-1", "nan,0,0", "inf,0,0", "0,0,0", "1,0", "2,0,0"]
SWEEPS = ["0:180:5", "0:90:2", "90:-90:3", "0:180:1", "0:180", "a:b:c", "0:nan:3",
          "0:inf:3", "1e308:-1e308:3"]
SEPARATIONS = ["1e-1,1e-2,1e-3", "1e-3,1e-2", "1e-1,1e-1", "1e-1,oops", "nan", "0", ""]
TOLERANCES = ["1e-12", "1e-6", "0", "nan", "inf", "-inf", "-1"]
EMBEDDINGS = ["default", "good.txt", "nan.txt", "inf.txt", "missing.txt"]
OUTS = ["new/run", "file", "file/sub"]


@st.composite
def cli_invocations(draw):
    """(argv without --out, --out relative to a fresh directory)."""
    pick = lambda pool: draw(st.sampled_from(pool))  # noqa: E731
    command = pick(["simulate", "hopf", "s7", "identities"])
    argv = [command]
    seed = pick(SEEDS)
    if seed is not None:
        argv += ["--seed", seed]
    if command == "simulate":
        argv += ["--trials", str(draw(st.integers(-2, 1000)))]
        mode = pick(["sweep", "pair", "a only"])
        if mode == "sweep":
            argv += ["--sweep", pick(SWEEPS)]
        else:
            argv += ["--a", pick(VECTORS)] + (["--b", pick(VECTORS)] if mode == "pair" else [])
    elif command == "hopf":
        argv += ["--limit-separations", pick(SEPARATIONS),
                 "--phi-deg", pick(["90", "30", "150", "0", "180", "nan"]),
                 "--psi-a", pick(["0.01", "0.5", "0", "-0.5", "inf", "nan"])]
    elif command == "s7":
        argv += ["--a", pick(VECTORS), "--lambda", pick(["1", "-1", "0"]),
                 "--embedding", pick(EMBEDDINGS)]
    else:
        argv += ["--pairs", pick(["1", "2", "0", "-1"]), f"--tolerance={pick(TOLERANCES)}"]
        if draw(st.booleans()):
            argv.append("--inject-sign-flip")
    return argv, pick(OUTS)


def run_main(argv):
    """(exit code, stderr, whether argparse exited) of one in-process run;
    numpy warnings are raised, so a warning escapes like any other error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return main(argv), err.getvalue(), False
        except SystemExit as exc:
            return exc.code, err.getvalue(), True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cli_invocations())
def test_generated_argv_exits_with_a_documented_code(invocation):
    argv, out = invocation
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "file").write_text("not a directory\n")
        np.savetxt(base / "good.txt", np.eye(7, 3))
        np.savetxt(base / "nan.txt", np.full((7, 3), np.nan))
        np.savetxt(base / "inf.txt", np.where(np.eye(7, 3) == 1, np.inf, 0.0))
        argv = [str(base / a) if a in EMBEDDINGS[1:] else a for a in argv]
        code, err, from_argparse = run_main([*argv, "--out", str(base / out)])

        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert argv[0] == "identities"
        if code == 2 and not from_argparse:
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        if code in (0, 1):
            assert (base / out / "manifest.json").is_file()
        for manifest in base.rglob("manifest.json"):
            for entry in json.loads(manifest.read_text())["outputs"]:
                assert digest(manifest.parent / entry["path"]) == entry["sha256"]


def test_main_reuses_one_parser():
    # a parser is a web of reference cycles; one per call would be garbage
    assert cli.build_parser() is cli.build_parser()

