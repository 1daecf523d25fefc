"""End-to-end CLI tests: file schemas, exit codes, determinism, seeding."""

import argparse
import ast
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffsphere import cli, epr, hopf, multivector
from cliffsphere.cli import main
from cliffsphere.identities import run_identity_checks

from .oracles import lambda_stream

CSV_HEADER = [
    "theta_deg", "raw_mean", "std_scalar", "resid_x", "resid_y", "resid_z",
    "resid_norm", "stderr", "n",
]


#: numpy's build record of its BLAS.
BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]


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


@pytest.mark.parametrize("argv, refused", [
    (["simulate", "--sweep", "0:180:1099511627776"], "--sweep '0:180:1099511627776': "),
    (["identities", "--pairs", "1099511627776"], "--pairs 1099511627776: n_pairs must be <= "),
], ids=["simulate-sweep", "identities-pairs"])
def test_inputs_too_large_to_hold_are_refused_before_allocating(tmp_path, capsys, argv, refused):
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path / "x")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    printed = assert_usage_error(capsys, code)
    assert printed.err.startswith(f"error: {refused}")
    assert printed.out == ""
    assert peak < 4 * 2**20
    assert not (tmp_path / "x").exists()


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
    environment = manifest["environment"]
    assert environment["numpy"] == np.__version__
    assert environment["machine"] == platform.machine()
    blas = {key: BLAS.get(key) for key in ("name", "version", "openblas configuration")}
    assert environment["blas"] == {**blas, **{"corename": core for core in [cli._blas_corename()] if core}}
    assert ("OPENBLAS_CORETYPE" in environment) == ("OPENBLAS_CORETYPE" in os.environ)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64") or BLAS.get("name") != "scipy-openblas",
                    reason="OPENBLAS_CORETYPE selects x86-64 OpenBLAS kernels")
def test_manifest_names_the_running_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel as it loads, and the build's "openblas
    # configuration" names only its target: the manifest asks the library
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "cliffsphere", "s7", "--out", "x"],
                          cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "x" / "manifest.json").read_text())["environment"]["blas"]["corename"] == "Haswell"


def test_manifest_leaves_out_a_kernel_that_the_blas_does_not_name(tmp_path, monkeypatch):
    # a BLAS other than scipy-openblas has no call that names its kernel
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())
    cli._blas_corename.cache_clear()
    try:
        assert main(["s7", "--out", str(tmp_path)]) == 0
    finally:
        cli._blas_corename.cache_clear()
    blas = json.loads((tmp_path / "manifest.json").read_text())["environment"]["blas"]
    assert sorted(blas) == ["name", "openblas configuration", "version"]


def test_manifest_records_the_blas_kernel_when_it_is_set(tmp_path, monkeypatch):
    # OpenBLAS reads the variable when it loads, so a set value describes the
    # kernel only when it was set before the process started; the manifest
    # records what the environment holds
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")
    assert main(["s7", "--out", str(tmp_path)]) == 0
    environment = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert environment["OPENBLAS_CORETYPE"] == "Prescott"


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


def test_stale_manifest_is_dropped_before_data_is_written(tmp_path, capsys, monkeypatch):
    out = tmp_path / "x"
    assert main(["simulate", "--trials", "100", "--seed", "5", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()

    def crash(*args, **kwargs):
        raise RuntimeError("stopped between the data file and the manifest")

    monkeypatch.setattr(cli, "_write_manifest", crash)
    assert main(["simulate", "--trials", "100", "--seed", "6", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "stopped between the data file and the manifest" in err
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
    monkeypatch.setattr(epr, "_raw_scores", lambda side, ns: scores(epr.Side.ALICE, ns))
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
    (["identities", "--pairs", "0"], None, "--pairs 0: "),
    (["simulate", "--trials", "-1"], None, "--trials -1: "),
    (["simulate", "--sweep", "0:180:1"], None, "--sweep '0:180:1': "),
    (["simulate", "--sweep", "a:b:c"], None, "--sweep 'a:b:c': "),
    (["identities", "--tolerance", "1e-12"], None, "unrecognized arguments: --tolerance 1e-12\n"),
    (["hopf", "--limit-separations", "1e-3,oops"], None, "--limit-separations '1e-3,oops': "),
    (["hopf"], "x", "CLIFFSPHERE_SEED: "),
    (["s7", "--embedding", "missing.txt"], None, "--embedding 'missing.txt': "),
], ids=["simulate-b", "s7-a", "seed-flag", "seed-env", "identities-pairs", "simulate-trials",
        "sweep-steps", "sweep-text", "identities-tolerance", "hopf-separations",
        "seed-env-text", "s7-embedding"])
def test_usage_error_names_the_refused_flag(tmp_path, capsys, monkeypatch, argv, env_seed, refused):
    monkeypatch.chdir(tmp_path)  # where no embedding file exists
    monkeypatch.delenv("CLIFFSPHERE_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("CLIFFSPHERE_SEED", env_seed)
    code = main([*argv, "--out", str(tmp_path / "x")])
    printed = assert_usage_error(capsys, code)
    assert printed.err.startswith(f"error: {refused}")
    assert printed.out == ""
    assert not (tmp_path / "x").exists()


def test_a_trial_count_past_the_int64_column_is_refused_before_any_walk(tmp_path, capsys, rebind):
    # 2**63 trials would walk for millennia, then overflow the int64 n column
    def no_walk(*args):
        raise AssertionError("a walk started")

    rebind(epr._count_plus, no_walk)
    code = main(["simulate", "--trials", str(2**63), "--out", str(tmp_path / "x")])
    printed = assert_usage_error(capsys, code)
    assert printed.err == f"error: --trials {2**63}: n_trials must be < 2**63, got {2**63}: the n column is int64\n"
    assert printed.out == ""
    assert not (tmp_path / "x").exists()
    assert epr._check_trials(2**63 - 1) == 2**63 - 1


def test_a_flag_the_run_does_not_use_is_still_checked(tmp_path, capsys):
    # a pair run draws no sweep, but a --sweep it cannot parse is refused
    code = main(["simulate", "--a", "1,0,0", "--b", "0,1,0", "--sweep", "nonsense",
                 "--out", str(tmp_path / "x")])
    printed = assert_usage_error(capsys, code)
    assert printed.err == "error: --sweep 'nonsense': expected 'START:STOP:STEPS'\n"
    assert not (tmp_path / "x").exists()


#: The refusal examples of README's command-line section: the words of each
#: `$ [VAR=value] cliffsphere ...` line and the `error:` line under it.
README_REFUSALS = [
    (shlex.split(command), printed) for command, printed in re.findall(
        r"^\$ (.*)\n(error: .*)$",
        (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.M)
]


def test_readme_shows_its_refusal_examples():
    assert len(README_REFUSALS) >= 7


@pytest.mark.parametrize("words, printed", README_REFUSALS, ids=[" ".join(w) for w, _ in README_REFUSALS])
def test_readme_refusal_examples_print_what_the_cli_prints(tmp_path, capsys, monkeypatch, words, printed):
    monkeypatch.delenv("CLIFFSPHERE_SEED", raising=False)
    at = words.index("cliffsphere")
    for assignment in words[:at]:
        monkeypatch.setenv(*assignment.split("=", 1))
    code = main([*words[at + 1:], "--out", str(tmp_path / "x")])
    assert assert_usage_error(capsys, code).err == printed + "\n"


@pytest.mark.parametrize("argv, refused", [
    (["simulate", "--trials", "x"], "argument --trials: "),
    (["simulate", "--seed=0.0"], "argument --seed: "),
    (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
    (["simulate", "--a", "1,0,0", "--b", "-1,0,0"], "argument --b: "),
    (["s7", "--lambda", "0"], "argument --lambda: "),
], ids=["trials-text", "seed-float", "unknown-flag", "b-negative", "s7-lambda"])
def test_what_argparse_refuses_is_a_usage_error_in_one_line(tmp_path, capsys, argv, refused):
    # argparse would print its usage and raise SystemExit(2) out of main
    code = main([*argv, "--out", str(tmp_path / "x")])
    assert assert_usage_error(capsys, code).err.startswith(f"error: {refused}")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, flag, value", [
    (["simulate", "--a", "1,0,0", "--b", "-1,0,0"], "--b", "-1,0,0"),
    (["s7", "--a", "-1,0,0"], "--a", "-1,0,0"),
])
def test_a_value_that_starts_with_a_dash_is_refused_with_its_equals_form(tmp_path, capsys, argv, flag, value):
    code = main([*argv, "--out", str(tmp_path / "x")])
    assert assert_usage_error(capsys, code).err == (
        f"error: argument {flag}: expected one argument; write a value that starts with '-' as {flag}={value}\n")
    assert main([*argv[:-2], f"{flag}={value}", "--out", str(tmp_path / "x")]) == 0


def test_a_flag_with_no_value_at_all_names_no_equals_form(tmp_path, capsys):
    code = main(["simulate", "--a", "1,0,0", "--out", str(tmp_path / "x"), "--b"])
    assert assert_usage_error(capsys, code).err == "error: argument --b: expected one argument\n"


def test_a_missing_subcommand_is_a_usage_error_in_one_line(capsys):
    assert "command" in assert_usage_error(capsys, main([])).err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exited:
        main([flag])
    assert exited.value.code == 0
    assert "cliffsphere" in capsys.readouterr().out


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


@st.composite
def structured_rows(draw):
    """A structured array of 1 to 9 float64 columns, then an int64 column or
    none, with any float64 values: NaN, infinities, signed zeros and
    subnormals included."""
    floats, ints = draw(st.integers(1, 9)), draw(st.integers(0, 1))
    dtype = np.dtype([(f"c{j}", np.float64) for j in range(floats)] + [("n", np.int64)] * ints)
    row = st.tuples(*[st.floats(width=64)] * floats, *[st.integers(-2**63, 2**63 - 1)] * ints)
    return np.array(draw(st.lists(row, max_size=20)), dtype)


def csv_writer_text(rows) -> str:
    """The CSV text that `csv.writer` writes for rows: the field names, then
    each float by `format(x, ".17g")` and each integer by `str`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rows.dtype.names)
    writer.writerows([format(x, ".17g") if isinstance(x, float) else str(x) for x in row]
                     for row in rows.tolist())
    return buf.getvalue()


SPECIAL_FLOATS = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072009e-308,
                  1e-310, 1.7976931348623157e308, 0.1, -1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(structured_rows())
@example(np.array([SPECIAL_FLOATS], [(f"c{j}", np.float64) for j in range(len(SPECIAL_FLOATS))]))
@example(np.array([(math.nan, -0.0, 2**63 - 1), (1e-310, -math.inf, -2**63)],
                  [("a", np.float64), ("b", np.float64), ("n", np.int64)]))
@example(np.zeros(0, epr.SWEEP_COLUMNS))
def test_csv_text_equals_csv_writer_over_17_digit_fields(rows):
    assert cli._csv_text(rows) == csv_writer_text(rows)


#: Text with what json escapes: quotes, backslashes, control characters,
#: non-ASCII, astral and lone surrogate code points.
JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é\U0001f600\ud800')))
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), JSON_TEXT,
    st.integers(), st.integers(-2**200, 2**200),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308, 1e300, math.nan, math.inf, -math.inf]),
)
JSON_VALUES = st.recursive(JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
    st.dictionaries(JSON_TEXT, children, max_size=5)), max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": (), "d": [[{}]], "e": [np.float64(-0.0), np.float64(math.nan)]})
def test_json_text_is_json_dumps_with_indent_2_and_sorted_keys(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, b"x", {1: "a"}, {"a": [np.int64(1)]}, {"a": {None: 1}}],
                         ids=["np.int64", "set", "bytes", "int-key", "nested-np.int64", "nested-None-key"])
def test_json_text_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


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


def test_hopf_exact_relations_pass_at_a_large_fiber_angle(tmp_path, capsys):
    # unreduced, psi_a + phi rounds at ulp(1e7) ~ 2e-9 and all three fail
    out = tmp_path / "h"
    assert main(["hopf", "--psi-a", "1e7", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["PASS"] * 3
    assert json.loads((out / "manifest.json").read_text())["config"]["psi_a"] == 1e7


def test_hopf_rejects_degenerate_phi(tmp_path):
    assert main(["hopf", "--phi-deg", "0", "--out", str(tmp_path / "x")]) == 2
    assert main(["hopf", "--phi-deg", "180", "--out", str(tmp_path / "y")]) == 2


def test_hopf_rejects_bad_separations(tmp_path):
    out = str(tmp_path / "x")
    assert main(["hopf", "--limit-separations", "1e-3,1e-2", "--out", out]) == 2
    assert main(["hopf", "--limit-separations", "1e-3,oops", "--out", out]) == 2


@pytest.mark.parametrize("flag", ["--psi-a=-0.5", "--psi-a=0", "--psi-a=inf", "--psi-a=nan",
                                  "--phi-deg=inf", "--phi-deg=nan", "--phi-deg=-30",
                                  "--phi-deg=1e-5", "--phi-deg=179.99999"])
def test_hopf_rejects_bad_fiber_angles(tmp_path, capsys, flag):
    # each angle is checked at its own flag: the refusal names no other
    name = flag.split("=")[0]
    code = main(["hopf", flag, "--out", str(tmp_path / "x")])
    err = assert_usage_error(capsys, code).err
    assert err.startswith(f"error: {name} ")
    assert ({"--psi-a", "--phi-deg"} - {name}).pop() not in err
    assert not (tmp_path / "x").exists()


def _cross_flag_refusals():
    """(step, what) for each refusal that a `cmd_*` step of cli.py makes
    itself: a `with _refused(...)` block, or a raised `UsageError`."""
    tree = ast.parse(Path(cli.__file__).read_text())
    found = []
    for step in tree.body:
        if not (isinstance(step, ast.FunctionDef) and step.name.startswith("cmd_")):
            continue
        for node in ast.walk(step):
            if isinstance(node, ast.With):
                found += [(step.name, ast.unparse(item.context_expr)) for item in node.items
                          if "_refused" in {n.id for n in ast.walk(item.context_expr) if isinstance(n, ast.Name)}]
            elif isinstance(node, ast.Raise) and node.exc is not None and "UsageError" in {
                    n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}:
                found.append((step.name, ast.unparse(node.exc)))
    return found


def test_steps_check_no_single_flag():
    # every flag's own rules are the check of its row in cli.COMMANDS, which
    # main runs under that flag's label; a step refuses only what spans flags
    assert _cross_flag_refusals() == [
        ("cmd_simulate", "UsageError('--a and --b must be given together')")]


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


@pytest.mark.parametrize("command", sorted(FAST_ARGV))
def test_short_writes_still_write_every_byte(tmp_path, monkeypatch, command):
    argv = [*FAST_ARGV[command], "--seed", "5"]
    assert main([*argv, "--out", str(tmp_path / "whole")]) == 0
    write = os.write
    monkeypatch.setattr(cli.os, "write", lambda fd, data: write(fd, data[:7]))
    assert main([*argv, "--out", str(tmp_path / "short")]) == 0
    monkeypatch.undo()
    manifest = json.loads((tmp_path / "short" / "manifest.json").read_text())
    assert manifest["outputs"] == json.loads((tmp_path / "whole" / "manifest.json").read_text())["outputs"]
    assert [entry["path"] for entry in manifest["outputs"]] == ([DATA_FILES[command]] if command in DATA_FILES else [])
    for entry in manifest["outputs"]:
        data = (tmp_path / "short" / entry["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert data == (tmp_path / "whole" / entry["path"]).read_bytes()


@pytest.mark.parametrize("command", sorted(FAST_ARGV))
@pytest.mark.parametrize("fails", ["replace", "write"])
def test_a_failed_write_leaves_no_temporary_file_and_no_manifest(tmp_path, capsys, monkeypatch, command, fails):
    def no_space(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, fails, no_space)
    out = tmp_path / "x"
    code = main([*FAST_ARGV[command], "--out", str(out)])
    monkeypatch.undo()
    # identities writes no data file: its first write is the manifest's
    assert (DATA_FILES.get(command, "manifest.json") + "'") in assert_usage_error(capsys, code).err
    assert list(out.iterdir()) == []


def test_a_fresh_nested_out_is_made_with_its_parents(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    assert main(["hopf", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "null_limit.csv"]


#: sha256 of the data file of a run, at seed 42 unless the flags say
#: otherwise: the default-flag runs (ROADMAP), then the single-pair path, a
#: sweep that is not the default one, a 3,001-point sweep past both ends of
#: a turn, and a probe whose zero separation gives a NaN row.
GOLDEN_NUMPY = "2.4.6"
GOLDEN = {
    "simulate": ("correlations.csv", "39667133e080e30c929bce0cd5907994d080f4141755435e9af6625f14c49371"),
    "hopf": ("null_limit.csv", "4440a95edac89419d1e5a52297a4de5962d18abc2c250746eae8a10cc14cc698"),
    "s7": ("s7_report.json", "4cbd95640d0b5db257f803efed3639b6c28e62faacc675236a468f0132a4c4d9"),
    "simulate --a 0.6,0.8,0 --b 0,0,1 --trials 12345":
        ("correlations.csv", "d4b4f5bc2984d634d6de0c7249496fa3d15f029c692994edf9448f33296b4667"),
    "simulate --sweep 10:170:9 --trials 54321 --seed 7":
        ("correlations.csv", "439b3c52a4be3cf51a34928943838a1d7f3fe0ba7e55e7ec184921de9ea6d6d9"),
    "simulate --trials 1000 --sweep=-30:390:3001 --seed 5":
        ("correlations.csv", "facebb30f10c18fa344cfa7d5ec625b14f4eb8bfb0be334e56ebd0887032ee3c"),
    "hopf --limit-separations 1e-1,1e-9,0":
        ("null_limit.csv", "aeedc8f4250c6f0c2752a70c6764013f87cfeb86f3e39f3d68727d4820939b94"),
}


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"the golden digests are pinned for numpy {GOLDEN_NUMPY}, "
                           f"and float output may round differently under numpy {np.__version__}")
@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_default_runs_match_the_golden_digests(tmp_path, monkeypatch, command):
    monkeypatch.delenv("CLIFFSPHERE_SEED", raising=False)
    name, want = GOLDEN[command]
    assert main([*command.split(), "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / name) == want


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"the golden digests are pinned for numpy {GOLDEN_NUMPY}")
@pytest.mark.parametrize("walkers", [1, 2])
def test_the_simulate_digest_does_not_depend_on_the_walkers(tmp_path, monkeypatch, walkers):
    # the default 10^5 trials are 13 chunks of the stream: two walkers split them
    monkeypatch.delenv("CLIFFSPHERE_SEED", raising=False)
    monkeypatch.setattr(epr, "_usable_cpus", lambda: walkers)
    name, want = GOLDEN["simulate"]
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / name) == want


#: Most product-kernel calls that a default run of each subcommand may make.
#: No benchmark counter sees `_product`, so a quantity computed twice shows
#: here first.  A hopf run builds its fiber pair once, with its three rotors
#: in one batch, and contracts the transport's four directions with I in one
#: call; an s7 run makes 4 calls, plus 2 for J in the first run of a
#: process.  A simulate run
#: contracts each side's directions once and multiplies them at both
#: orientations in one batch.  The identity suite checks associativity on
#: the Cayley tables, with no product, and each identity that holds at both
#: orientations once, both in one batch; its rotor checks take their planes
#: from the frame table and make 3 products, and both hidden bases are one
#: wedge.
PRODUCT_BUDGET = {"identities": 23, "simulate": 4, "hopf": 17, "s7": 6}


def count_kernel_calls(rebind) -> list[str]:
    """The kind of every product-kernel call made from now on, in order."""
    real, calls = multivector._product, []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    rebind(real, counted)
    return calls


@pytest.mark.parametrize("command", sorted(PRODUCT_BUDGET))
def test_default_runs_stay_within_their_product_budget(tmp_path, monkeypatch, rebind, command):
    monkeypatch.delenv("CLIFFSPHERE_SEED", raising=False)
    calls = count_kernel_calls(rebind)
    assert main([command, "--out", str(tmp_path)]) == 0
    assert 0 < len(calls) <= PRODUCT_BUDGET[command]


def test_a_fault_is_an_internal_error_not_a_usage_error(tmp_path, capsys, rebind):
    # a kernel fault raises ValueError, as refused input does, but no flag
    # was refused: the run shows its traceback, exits 3 and writes no manifest
    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    rebind(multivector._product, broken)
    code = main(["identities", "--pairs", "5", "--out", str(tmp_path / "x")])
    printed = capsys.readouterr()
    assert code == 3
    assert printed.err.startswith("Traceback") and "could not be broadcast" in printed.err
    assert printed.out == ""
    assert not (tmp_path / "x" / "manifest.json").exists()


def test_a_failing_walker_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # the second walker's error reaches main from its thread, as itself
    monkeypatch.setattr(epr, "_usable_cpus", lambda: 2)
    real, caller = epr._count_plus, threading.current_thread().name

    def failing(seed, spans, stop):
        if threading.current_thread().name != caller:
            raise RuntimeError("the second walker lost its words")
        return real(seed, spans, stop)

    monkeypatch.setattr(epr, "_count_plus", failing)
    code = main(["simulate", "--out", str(tmp_path / "x")])
    printed = capsys.readouterr()
    assert code == 3
    assert printed.err.startswith("Traceback") and "the second walker lost its words" in printed.err
    assert not (tmp_path / "x" / "manifest.json").exists()


def test_a_later_s7_run_reuses_J(tmp_path, monkeypatch, rebind):
    monkeypatch.delenv("CLIFFSPHERE_SEED", raising=False)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["s7", "--out", str(first)]) == 0
    calls = count_kernel_calls(rebind)
    assert main(["s7", "--out", str(second)]) == 0
    # one public contraction, the two score contractions and the raw product
    assert sorted(calls) == ["contract"] * 3 + ["geometric"]
    assert (second / "s7_report.json").read_bytes() == (first / "s7_report.json").read_bytes()


#: sha256 of the whole stdout of a run with `--out out`, and its exit code:
#: identities writes no data file, and hopf's residual lines reach none.
GOLDEN_STDOUT = {
    "identities --seed 42": (0, "0d8342c51ea0d5f99c6fa270a0d1fe9abb8326bb9260dadf94f0a3d1943a2f75"),
    "identities --pairs 50 --inject-sign-flip":
        (1, "712499a2b5cb65ac7ca1d31014cba98208f96a66aeaca19cc84c25a2a41a6eb8"),
    "hopf": (0, "208a2ffeadd5220b2777d3412e972754c25824152cfc63737e475d84062e8b7e"),
    "hopf --psi-a 0.3 --phi-deg 40":
        (0, "0c25962bdaab76e74d550e773b057d9adf042a777e03cb2f28537f8e79bcf2e9"),
    "s7": (0, "f5c17c1fda8fd1d9011a283106f421f3376d4f76e722833b2ad957ecbaae4f6d"),
    "s7 --a=0.6,0,0.8 --lambda -1":
        (0, "a19b8386a8b38c5eee104d049e9f4cb166c362b68e5fe8949a78142840e72f93"),
}


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"the golden digests are pinned for numpy {GOLDEN_NUMPY}, "
                           f"and float output may round differently under numpy {np.__version__}")
@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT))
def test_stdout_matches_the_golden_digests(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.delenv("CLIFFSPHERE_SEED", raising=False)
    monkeypatch.chdir(tmp_path)  # hopf and s7 print the data file's path
    want_code, want = GOLDEN_STDOUT[argv]
    assert main([*argv.split(), "--out", "out"]) == want_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_identities_stdout_does_not_depend_on_the_seed(tmp_path, capsys):
    # every residual is exact, so every seed prints the same lines
    printed = set()
    for seed in range(0, 50, 7):
        assert main(["identities", "--seed", str(seed), "--out", str(tmp_path)]) == 0
        printed.add(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert len(printed) == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(1e-3, 1e3), st.floats(0.5, 179.5))
@example(2 * math.pi + 0.1, 90.0)
@example(1e7, 40.0)
@example(0.01, 90.0)
def test_hopf_residual_lines_are_the_public_checks(psi_a, phi_deg):
    # each line must print what its step returns on the fiber pair of the
    # CLI's a and b, built here from the flags' values
    phi = math.radians(phi_deg)
    a, b = np.array([1.0, 0.0, 0.0]), np.array([math.cos(phi), math.sin(phi), 0.0])
    pair = hopf._fiber_pair(a, b, psi_a)
    want = [("transition residual", hopf._transition(pair)[2]),
            ("transport residual (lam=+1)", hopf._transport(pair, 1))]
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(printed):
        code = main(["hopf", "--psi-a", repr(psi_a), "--phi-deg", repr(phi_deg),
                     "--limit-separations", "1e-1", "--out", tmp])
    assert code == 0
    assert printed.getvalue().splitlines()[:2] == [
        f"{'PASS' if res < cli.HOPF_TOL else 'FAIL'}  {name}: {res:.3e}  (tol {cli.HOPF_TOL:.0e})"
        for name, res in want]


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


def test_s7_empty_embedding_file_is_a_usage_error(tmp_path, capsys):
    # numpy warns on a file with no data; the run must still print one line
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = main(["s7", "--embedding", str(empty), "--out", str(tmp_path / "x")])
    assert "no data" in assert_usage_error(capsys, code).err
    assert not (tmp_path / "x").exists()


def test_s7_comment_only_embedding_file_is_refused_in_one_short_line(tmp_path, capsys):
    # numpy's no-data warning names its input, here every line read
    comments = tmp_path / "comments.txt"
    comments.write_text("# a comment, and no matrix\n" * 1000)
    code = main(["s7", "--embedding", str(comments), "--out", str(tmp_path / "x")])
    err = assert_usage_error(capsys, code).err
    assert "no data" in err and len(err) < 200
    assert not (tmp_path / "x").exists()


def test_blade_label_table_matches_blade_label():
    for dim in range(1, multivector.MAX_DIM + 1):
        assert cli._blade_labels(dim) == tuple(
            multivector.blade_label(mask) for mask in range(1 << dim))


@pytest.mark.parametrize("dim", [1, 3, 7, 8])
def test_nonzero_terms_drop_signed_zeros_as_the_loop_did(dim):
    rng = np.random.default_rng(dim)
    coeffs = rng.choice([0.0, -0.0, 1.0, -2.5, 1e-300, -1e-300], size=1 << dim)
    coeffs[0] = -0.0
    mv = multivector.Multivector(dim, coeffs)
    want = {multivector.blade_label(mask): float(c)
            for mask, c in enumerate(mv.coeffs) if c != 0.0}
    got = cli._nonzero_terms(mv)
    assert list(got.items()) == list(want.items())
    assert all(type(c) is float for c in got.values())


#: Inputs whose squares overflow: numpy warns when the norm of --a, or the
#: embedding's m.T @ m, overflows.
OVERFLOWING = pytest.mark.parametrize("argv, refused", [
    (["s7", "--a=1e200,0,0"], "--a '1e200,0,0': "),
    (["simulate", "--a=1e200,0,0", "--b=0,1,0"], "--a '1e200,0,0': "),
    (["s7", "--embedding", "huge.txt"], "--embedding 'huge.txt': "),
], ids=["s7-a", "simulate-a", "s7-embedding"])


@OVERFLOWING
def test_inputs_whose_squares_overflow_are_refused_not_faults(tmp_path, capsys, monkeypatch, argv, refused):
    # a warning raised as an error would turn the refusal into a fault
    monkeypatch.chdir(tmp_path)
    np.savetxt("huge.txt", np.full((7, 3), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(tmp_path / "x")])
    assert assert_usage_error(capsys, code).err.startswith(f"error: {refused}")
    assert not (tmp_path / "x").exists()


@OVERFLOWING
def test_inputs_whose_squares_overflow_are_refused_in_one_line(tmp_path, argv, refused):
    # a warning printed, as numpy prints it by default, would add two lines
    np.savetxt(tmp_path / "huge.txt", np.full((7, 3), 1e200))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "cliffsphere", *argv, "--out", "x"],
                          cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: {refused}")
    assert len(done.stderr.splitlines()) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this platform")
def test_s7_endless_embedding_file_is_a_usage_error(tmp_path, capsys):
    # the read stops at the bound: the run neither grows nor hangs
    code = main(["s7", "--embedding", "/dev/zero", "--out", str(tmp_path / "x")])
    assert "--embedding '/dev/zero': " in assert_usage_error(capsys, code).err
    assert not (tmp_path / "x").exists()


def test_s7_embedding_file_over_the_bound_is_a_usage_error(tmp_path, capsys):
    # a valid matrix padded with blank lines to one byte over the bound
    path = tmp_path / "long.txt"
    text = "\n".join(" ".join("1" if (row, col) in ((0, 0), (1, 1), (2, 2)) else "0"
                              for col in range(3)) for row in range(7)) + "\n"
    path.write_text(text + "\n" * (cli.MAX_EMBEDDING_BYTES + 1 - len(text)))
    assert path.stat().st_size == cli.MAX_EMBEDDING_BYTES + 1
    code = main(["s7", "--embedding", str(path), "--out", str(tmp_path / "x")])
    assert f"longer than {cli.MAX_EMBEDDING_BYTES} bytes" in assert_usage_error(capsys, code).err
    assert not (tmp_path / "x").exists()
    # one byte less is read whole and accepted
    path.write_text(text + "\n" * (cli.MAX_EMBEDDING_BYTES - len(text)))
    assert main(["s7", "--embedding", str(path), "--out", str(tmp_path / "y")]) == 0


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
        "identity suite: every check exact, 20 Cl(3) oracle pairs",
        *(f"{'PASS' if r.passed else 'FAIL'}  {r.name:55s} max residual {r.residual:.3e}" for r in results),
        f"{len(results)}/{len(results)} checks passed",
    ]


def test_identities_sign_flip_canary_fails(tmp_path, capsys):
    out = tmp_path / "i"
    assert main(["identities", "--pairs", "50", "--inject-sign-flip", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert any(l.startswith("FAIL") for l in printed.splitlines())


@pytest.mark.parametrize("argv,code", [
    (["identities", "--pairs", "50"], 0),
    (["identities", "--pairs", "50", "--inject-sign-flip"], 1),
    (["hopf"], 0),
])
def test_closed_stdout_ends_the_run_with_its_own_code(tmp_path, argv, code):
    # as `cliffsphere ... | head -c 10`: the reader is gone before the first line
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-m", "cliffsphere", *argv, "--out", str(out)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == code
    assert stderr == b""
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [entry["path"] for entry in manifest["outputs"]] + ["manifest.json"])
    for entry in manifest["outputs"]:
        assert entry["sha256"] == digest(out / entry["path"])


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_identities_rejects_nonpositive_pairs(tmp_path, capsys, pairs):
    code = main(["identities", "--pairs", pairs, "--out", str(tmp_path / "i")])
    assert "checks passed" not in assert_usage_error(capsys, code).out


# -- generated argv ------------------------------------------------------------------

SEEDS = ["0", "42", "-1", str(2**64), str(2**64 - 1)]
ENV_SEEDS = [None, "7", "-1", "x", str(2**64)]
VECTORS = ["1,0,0", "0.6,0.8,0", "0,0,-1", "-0.6,0,0.8", "nan,0,0", "inf,0,0", "0,0,0", "1,0", "2,0,0"]
SWEEPS = ["0:180:5", "0:90:2", "90:-90:3", "-30:30:3", "0:180:1", "0:180", "a:b:c", "0:nan:3",
          "0:inf:3", "1e308:-1e308:3", "0:180:1099511627776"]
SEPARATIONS = ["1e-1,1e-2,1e-3", "1e-3,1e-2", "1e-1,1e-1", "1e-1,oops", "nan", "0", ""]
#: `{base}` is the fresh directory of a run, which holds these files.
EMBEDDINGS = ["default", "{base}/good.txt", "{base}/nan.txt", "{base}/inf.txt", "{base}/empty.txt",
              "{base}/missing.txt"]
OUTS = ["new/run", "file", "file/sub"]

#: The values to draw for each flag that a subcommand declares, by flag name;
#: None for a switch.
FLAG_VALUES = {
    "--seed": st.sampled_from(SEEDS),
    "--pairs": st.sampled_from(["1", "2", "0", "-1", "1099511627776"]),
    "--inject-sign-flip": None,
    "--trials": st.integers(-2, 1000).map(str),
    "--sweep": st.sampled_from(SWEEPS),
    "--a": st.sampled_from(VECTORS),
    "--b": st.sampled_from(VECTORS),
    "--psi-a": st.sampled_from(["0.01", "0.5", "0", "-0.5", "inf", "nan"]),
    "--phi-deg": st.sampled_from(["90", "30", "150", "0", "180", "nan"]),
    "--limit-separations": st.sampled_from(SEPARATIONS),
    "--lambda": st.sampled_from(["1", "-1", "0"]),
    "--embedding": st.sampled_from(EMBEDDINGS),
}


def declared_flags() -> dict[str, list[str]]:
    """Each subcommand's flags, as the parser declares them, but --help and --out."""
    (subcommands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {command: [a.option_strings[-1] for a in parser._actions if a.dest not in ("help", "out")]
            for command, parser in subcommands.choices.items()}


DECLARED_FLAGS = declared_flags()


@st.composite
def cli_invocations(draw):
    """(argv without --out, --out relative to a fresh directory,
    $CLIFFSPHERE_SEED or None for unset): each declared flag is given or
    not, a value in the `--flag=value` form."""
    command = draw(st.sampled_from(sorted(DECLARED_FLAGS)))
    argv = [command]
    for flag in DECLARED_FLAGS[command]:
        if draw(st.booleans()):
            values = FLAG_VALUES[flag]
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    return argv, draw(st.sampled_from(OUTS)), draw(st.sampled_from(ENV_SEEDS))


def run_main(argv):
    """(exit code, stderr) of one in-process run; numpy warnings are raised,
    so a warning escapes like any other error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cli_invocations())
@example((["s7", "--embedding={base}/empty.txt"], "new/run", None))
@example((["identities", "--pairs=1099511627776"], "new/run", None))
@example((["simulate", "--sweep=0:180:1099511627776"], "new/run", None))
@example((["hopf"], "new/run", "x"))
@example((["identities", "--pairs=2", "--inject-sign-flip"], "new/run", "7"))
# an old manifest's argv: the removed --tolerance is refused in one line
@example((["identities", "--tolerance=0", "--pairs=1"], "new/run", None))
@example((["s7", "--a=-0.6,0,0.8", "--lambda=-1", "--embedding={base}/good.txt"], "new/run", None))
def test_generated_argv_exits_with_a_documented_code(invocation):
    # every flag the parser declares has values to draw here
    assert {flag for flags in DECLARED_FLAGS.values() for flag in flags} <= set(FLAG_VALUES)
    argv, out, env_seed = invocation
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("CLIFFSPHERE_SEED", None)
        if env_seed is not None:
            os.environ["CLIFFSPHERE_SEED"] = env_seed
        base = Path(tmp)
        (base / "file").write_text("not a directory\n")
        np.savetxt(base / "good.txt", np.eye(7, 3))
        np.savetxt(base / "nan.txt", np.full((7, 3), np.nan))
        np.savetxt(base / "inf.txt", np.where(np.eye(7, 3) == 1, np.inf, 0.0))
        (base / "empty.txt").write_text("")
        argv = [a.format(base=base) for a in argv]
        code, err = run_main([*argv, "--out", str(base / out)])

        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert argv[0] == "identities"
        if code == 2:
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        if code in (0, 1):
            # the manifest's argv alone, with a new --out, reruns the run
            manifest = json.loads((base / out / "manifest.json").read_text())
            os.environ.pop("CLIFFSPHERE_SEED", None)
            assert run_main([*manifest["argv"], "--out", str(base / "replay")]) == (code, "")
            replay = json.loads((base / "replay" / "manifest.json").read_text())
            assert (replay["argv"], replay["outputs"]) == (manifest["argv"], manifest["outputs"])
        for manifest in base.rglob("manifest.json"):
            text = manifest.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            for entry in json.loads(text)["outputs"]:
                assert digest(manifest.parent / entry["path"]) == entry["sha256"]


def test_main_reuses_one_parser():
    # a parser is a web of reference cycles; one per call would be garbage
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", sorted(FAST_ARGV))
def test_a_run_leaves_no_cyclic_garbage(tmp_path, command):
    # a long-lived caller of main would otherwise leave the cycle collector
    # work after every run: an indented json.dumps leaves a 33-object
    # JSONEncoder cycle behind
    argv = [*FAST_ARGV[command], "--out", str(tmp_path)]
    assert main(argv) == 0  # caches, the parser and lazy imports are made once
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()

