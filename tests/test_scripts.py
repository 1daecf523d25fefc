"""Smoke tests of the scripts under scripts/, run as a user would run them."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_run_sweep_prints_and_writes_the_sweep(tmp_path):
    lines = run_script("run_sweep.py", "--trials", "1000", "--steps", "3",
                       "--out", str(tmp_path / "run"))
    table = [line.split() for line in lines[1:4]]
    assert lines[0].split()[:2] == ["theta", "raw"]
    assert [row[:2] for row in table] == [["0.00", "-1.0"], ["90.00", "-1.0"], ["180.00", "-1.0"]]
    assert lines[4].startswith("wrote ")
    with (tmp_path / "run" / "correlations.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert [float(r[0]) for r in rows[1:]] == [0.0, 90.0, 180.0]


def test_run_sweep_writes_a_sweep_that_starts_below_zero(tmp_path):
    lines = run_script("run_sweep.py", "--trials", "1000", "--start", "-30", "--stop", "30",
                       "--steps", "5", "--out", str(tmp_path / "run"))
    assert [line.split()[0] for line in lines[1:6]] == ["-30.00", "-15.00", "0.00", "15.00", "30.00"]
    assert lines[6].startswith("wrote ")
    with (tmp_path / "run" / "correlations.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert [float(r[0]) for r in rows[1:]] == [-30.0, -15.0, 0.0, 15.0, 30.0]


def test_convergence_study_tabulates_each_size():
    lines = run_script("convergence_study.py", "--seeds", "2", "--sizes", "100,1000")
    assert [line.split()[0] for line in lines[1:3]] == ["100", "1000"]
    assert lines[-1].startswith("fitted log-log slope over 2 seeds:")


#: The study's stdout for two seeds at 100, 1000 and 10000 trials; any change
#: to the counts of a (seed, n) or to their average shows here.
CONVERGENCE_2_SEEDS = """\
         n   mean residual     1/sqrt(n)
       100    6.000000e-02  1.000000e-01
      1000    3.500000e-02  3.162278e-02
     10000    1.340000e-02  1.000000e-02

fitted log-log slope over 2 seeds: -0.3255 (target -0.5)
"""


def test_convergence_study_prints_its_pinned_table():
    lines = run_script("convergence_study.py", "--seeds", "2", "--sizes", "100,1000,10000")
    assert "\n".join(lines) + "\n" == CONVERGENCE_2_SEEDS
