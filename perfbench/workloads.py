"""Workloads of the cliffsphere benchmark: per-op inputs, the op runner and
the output checks.

An op is one or more in-process calls to ``cliffsphere.cli.main(argv)``.  Op
``k`` of a run takes its inputs from ``(workload seed, k)``, so no two ops of
a run share inputs.  Only the ``main`` calls are timed; the checks run after
them, outside the timed region, and a failed check, a nonzero exit or an
exception counts the op as failed.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("sweep", "identities", "reports")

SWEEP_SPEC = "0:180:37"
SWEEP_ROWS = 37
IDENTITY_CHECKS = 31
#: Embedding files written before timing; an op picks one of them or "default".
EMBEDDING_POOL = 8

#: sha256 of the default-flag data files at seed 42, pinned for numpy 2.4.6.
GOLDEN_NUMPY = "2.4.6"
GOLDEN = {
    "simulate": ("correlations.csv", "39667133e080e30c929bce0cd5907994d080f4141755435e9af6625f14c49371"),
    "hopf": ("null_limit.csv", "4440a95edac89419d1e5a52297a4de5962d18abc2c250746eae8a10cc14cc698"),
    "s7": ("s7_report.json", "4cbd95640d0b5db257f803efed3639b6c28e62faacc675236a468f0132a4c4d9"),
}


@dataclass(frozen=True)
class Size:
    """Problem size of an op; ``pairs=None`` leaves the CLI default (1000)."""

    trials: int = 1_000_000
    pairs: int | None = None


FULL = Size()
TINY = Size(trials=1000, pairs=10)


@dataclass
class Call:
    """One ``main(argv)`` call and the check of what it left in ``out``."""

    argv: list[str]
    out: Path
    check: Callable[[int, str, Path], list[str]]


@dataclass
class OpResult:
    #: (start, end) perf_counter times of each timed ``main`` call.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: (file name, sha256) of every data file, in call order.
    digests: list[tuple[str, str]] = field(default_factory=list)
    bytes_written: int = 0
    #: PASS and FAIL lines an ``identities`` call printed.
    checks: int = 0
    checks_failed: int = 0


def op_seed(seed: int, k: int) -> int:
    """The CLI ``--seed`` of op k, a pure function of (workload seed, k)."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0] >> np.uint64(1))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- checks -------------------------------------------------------------------


def check_sweep(trials: int) -> Callable[[int, str, Path], list[str]]:
    def check(rc: int, stdout: str, out: Path) -> list[str]:
        if rc != 0:
            return [f"simulate exited {rc}"]
        with (out / "correlations.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if len(rows) != SWEEP_ROWS:
            problems.append(f"{len(rows)} sweep rows, want {SWEEP_ROWS}")
        for row in rows:
            theta = float(row["theta_deg"])
            if float(row["raw_mean"]) != -1.0:
                problems.append(f"theta {theta}: raw_mean {row['raw_mean']} != -1")
            if abs(float(row["std_scalar"]) + math.cos(math.radians(theta))) > 1e-15:
                problems.append(f"theta {theta}: std_scalar {row['std_scalar']} != -cos")
            if int(row["n"]) != trials:
                problems.append(f"theta {theta}: n {row['n']} != {trials}")
        return problems
    return check


def check_identities(rc: int, stdout: str, out: Path) -> list[str]:
    passed = sum(1 for line in stdout.splitlines() if line.startswith("PASS"))
    if rc != 0 or passed != IDENTITY_CHECKS:
        return [f"identities exited {rc} with {passed}/{IDENTITY_CHECKS} PASS lines"]
    return []


def check_hopf(rc: int, stdout: str, out: Path) -> list[str]:
    if rc != 0:
        return [f"hopf exited {rc}"]
    with (out / "null_limit.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["null_limit.csv has no rows"]
    return [
        f"psi {row['psi_rad']}: wedge magnitude {row['wedge_magnitude']} not within 1e-12 of 1"
        for row in rows
        if not abs(float(row["wedge_magnitude"]) - 1.0) <= 1e-12
    ]


def check_s7(lam: int) -> Callable[[int, str, Path], list[str]]:
    def check(rc: int, stdout: str, out: Path) -> list[str]:
        if rc != 0:
            return [f"s7 exited {rc}"]
        report = json.loads((out / "s7_report.json").read_text())
        scalar = report["raw_score"]["scalar_part"]
        if not abs(scalar - 3 * lam) <= 1e-12:
            return [f"s7 scalar part {scalar!r} not within 1e-12 of {3 * lam}"]
        return []
    return check


def check_manifest(out: Path) -> tuple[list[str], list[tuple[str, str]]]:
    """Every data file the manifest lists must match its recorded digest."""
    manifest = json.loads((out / "manifest.json").read_text())
    problems, digests = [], []
    for entry in manifest["outputs"]:
        digest = sha256_file(out / entry["path"])
        if digest != entry["sha256"]:
            problems.append(f"manifest digest of {entry['path']} does not match the file")
        digests.append((entry["path"], digest))
    return problems, digests


# -- ops ----------------------------------------------------------------------


def write_embedding_pool(seed: int, work: Path) -> list[Path]:
    """Orthonormal 7x3 isometry files for the ``reports`` workload."""
    rng = np.random.default_rng([seed, 2**32])
    paths = []
    for i in range(EMBEDDING_POOL):
        q, _ = np.linalg.qr(rng.normal(size=(7, 3)))
        path = work / f"embedding_{i}.txt"
        np.savetxt(path, q)
        paths.append(path)
    return paths


def make_op(workload: str, seed: int, k: int, work: Path, size: Size = FULL,
            pool: list[Path] | None = None) -> list[Call]:
    s_k = str(op_seed(seed, k))
    out = work / "op"
    if workload == "sweep":
        argv = ["simulate", "--trials", str(size.trials), "--sweep", SWEEP_SPEC,
                "--seed", s_k, "--out", str(out)]
        return [Call(argv, out, check_sweep(size.trials))]
    if workload == "identities":
        argv = ["identities", "--seed", s_k, "--out", str(out)]
        if size.pairs is not None:
            argv += ["--pairs", str(size.pairs)]
        return [Call(argv, out, check_identities)]
    if workload == "reports":
        rng = np.random.default_rng([seed, k])
        phi_deg = rng.uniform(5.0, 175.0)
        psi_a = 0.5 * (1.0 - rng.random())
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        lam = int(rng.choice([1, -1]))
        pick = int(rng.integers(0, EMBEDDING_POOL + 1))
        embedding = "default" if pick == EMBEDDING_POOL else str(pool[pick])
        hopf = ["hopf", "--psi-a", repr(float(psi_a)), "--phi-deg", repr(float(phi_deg)),
                "--seed", s_k, "--out", str(out / "hopf")]
        # "--a=" keeps argparse from reading a leading minus sign as an option.
        s7 = ["s7", "--a=" + ",".join(repr(float(x)) for x in a), "--lambda", str(lam),
              "--embedding", embedding, "--seed", s_k, "--out", str(out / "s7")]
        return [Call(hopf, out / "hopf", check_hopf), Call(s7, out / "s7", check_s7(lam))]
    raise ValueError(f"unknown workload {workload!r}")


def call_main(main, argv: list[str]) -> tuple[int | None, str, tuple[float, float]]:
    """(exit code, stdout, (start, end)) of ``main(argv)``; the exit code is
    None when it raised, and the exception is then in place of stdout."""
    stdout = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    except (Exception, SystemExit) as exc:
        return None, f"{argv[0]} raised {exc!r}", (t0, time.perf_counter())
    return rc, stdout.getvalue(), (t0, time.perf_counter())


def run_op(calls: list[Call], main) -> OpResult:
    """Time each ``main(argv)`` call, then check its exit code, stdout and files."""
    result = OpResult()
    for call in calls:
        shutil.rmtree(call.out, ignore_errors=True)
        rc, text, interval = call_main(main, call.argv)
        result.intervals.append(interval)
        if rc is None:
            result.problems.append(text)
            continue
        if call.argv[0] == "identities":
            lines = text.splitlines()
            result.checks += sum(1 for line in lines if line.startswith(("PASS", "FAIL")))
            result.checks_failed += sum(1 for line in lines if line.startswith("FAIL"))
        try:
            result.problems += call.check(rc, text, call.out)
            problems, digests = check_manifest(call.out)
            result.bytes_written += sum(p.stat().st_size for p in call.out.iterdir())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"{call.argv[0]}: unreadable output: {exc!r}")
            continue
        result.problems += problems
        result.digests += digests
    return result


# -- pre-flight ---------------------------------------------------------------


def preflight(main, work: Path, numpy_version: str) -> dict:
    """Untimed checks that the checks can fail and the data bytes are pinned.

    ``identities --inject-sign-flip`` must exit 1 with FAIL lines.  The
    default-flag data files at seed 42 must match the golden digests; the
    comparison is made only on the numpy version the digests were pinned on,
    and on any other version the digests are recorded.
    """
    problems = []
    rc, text, _ = call_main(main, ["identities", "--inject-sign-flip", "--out", str(work / "canary")])
    fails = sum(1 for line in text.splitlines() if line.startswith("FAIL"))
    if rc != 1 or fails == 0:
        problems.append(f"sign-flip canary exited {rc} with {fails} FAIL lines")
    digests = {}
    for command, (name, want) in GOLDEN.items():
        out = work / f"golden_{command}"
        rc, _, _ = call_main(main, [command, "--seed", "42", "--out", str(out)])
        try:
            digests[name] = sha256_file(out / name) if rc == 0 else None
        except OSError:
            digests[name] = None
        if digests[name] is None:
            problems.append(f"golden {command} exited {rc} without {name}")
        elif numpy_version == GOLDEN_NUMPY and digests[name] != want:
            problems.append(f"golden digest of {name} changed: {digests[name]}")
    return {
        "ok": not problems,
        "problems": problems,
        "canary_fail_lines": fails,
        "golden_asserted": numpy_version == GOLDEN_NUMPY,
        "golden_sha256": digests,
    }


# -- the closed loop ----------------------------------------------------------

#: The speed probe samples the machine this often during a timed phase.
PROBE_INTERVAL_S = 0.03
#: An op is scaled by the probes in a window of at least this length around it.
PROBE_WINDOW_S = 0.25
_PROBE_MASKS = (np.arange(8)[:, None] ^ np.arange(8)[None, :]).ravel()


@dataclass(frozen=True)
class _Probed:
    """A validated, read-only small array, built the way the package builds
    its values."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


def _probe_loop() -> None:
    s = 0
    for i in range(4000):
        s += i * i % 7


def _probe_small_arrays() -> None:
    x = np.arange(8.0)
    for _ in range(20):
        z = np.bincount(_PROBE_MASKS, weights=np.outer(x, x).ravel(), minlength=8)
        x = z / (np.linalg.norm(z) + 1.0)


def _probe_objects() -> None:
    x = np.arange(8.0)
    for _ in range(80):
        x = _Probed(x).coeffs + 1.0


def _probe_philox() -> None:
    words = np.random.Philox(key=1).random_raw(40_000)[0::4]
    (2 * (words & 1).astype(np.int8) - 1).sum()


#: Per workload, the probe kernel (fixed work that shares no code with
#: cliffsphere) whose time tracked the workload's op time best as the
#: machine's speed drifted, and the kernel's time on the reference machine.
PROBES = {
    "sweep": ((_probe_loop, _probe_small_arrays, _probe_philox), 0.001),
    "identities": ((_probe_loop, _probe_objects), 0.001),
    "reports": ((_probe_loop, _probe_philox), 0.0008),
}


class SpeedProbe:
    """Samples how fast the machine runs while a phase runs.

    The machine's speed drifts with load from outside the benchmark, by up to
    2x for tens of seconds.  Inside this context a SIGALRM timer runs the
    workload's probe kernel every ``PROBE_INTERVAL_S`` between bytecodes of
    whatever is running, ops included, and records when it started and how
    long it took.
    """

    def __init__(self, workload: str):
        self.kernel, self.ref_s = PROBES[workload]
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        for part in self.kernel:
            part()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def op_times(self, op: OpResult) -> tuple[float, float]:
        """(wall seconds, reference seconds) of an op, the probes that ran
        inside its calls left out.  Reference seconds scale the wall time by
        the kernel's reference time over its mean time in a window around
        the op."""
        seconds = 0.0
        for t0, t1 in op.intervals:
            lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
            seconds += t1 - t0 - sum(self.durations[lo:hi])
        a, b = op.intervals[0][0], op.intervals[-1][1]
        pad = max(0.0, (PROBE_WINDOW_S - (b - a)) / 2)
        lo, hi = bisect.bisect_left(self.starts, a - pad), bisect.bisect_right(self.starts, b + pad)
        if lo == hi:
            lo = hi - 1
        return seconds, seconds * self.ref_s / statistics.fmean(self.durations[lo:hi])


@dataclass
class Phase:
    """Ops of one timed phase, in op order."""

    #: Wall seconds of the timed calls, speed probes left out.
    times: list[float] = field(default_factory=list)
    #: The same ops in reference seconds (SpeedProbe.op_times).
    ref_times: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[list[tuple[str, str]]] = field(default_factory=list)
    bytes_written: int = 0
    checks: int = 0
    checks_failed: int = 0


def run_phase(workload: str, seed: int, seconds: float, work: Path, main,
              size: Size = FULL, first_op: int = 0, max_ops: int | None = None,
              tracer=None) -> Phase:
    """One caller, closed loop: the next op starts when the last has been
    checked.  Ops start until ``seconds`` have passed (at least one op) or
    ``max_ops`` have run.  A SpeedProbe runs throughout."""
    work.mkdir(parents=True, exist_ok=True)
    pool = write_embedding_pool(seed, work) if workload == "reports" else None
    phase, results = Phase(), []
    with SpeedProbe(workload) as probe:
        deadline = time.perf_counter() + seconds
        k = first_op
        while True:
            calls = make_op(workload, seed, k, work, size, pool)
            if tracer is not None:
                tracer.current_op = k
            result = run_op(calls, main)
            results.append(result)
            phase.digests.append(result.digests)
            phase.bytes_written += result.bytes_written
            phase.checks += result.checks
            phase.checks_failed += result.checks_failed
            if result.problems:
                phase.failed += 1
                phase.problems += [f"op {k}: {p}" for p in result.problems[:3]]
            k += 1
            if time.perf_counter() >= deadline or (max_ops is not None and k - first_op >= max_ops):
                break
    for result in results:
        wall, ref = probe.op_times(result)
        phase.times.append(wall)
        phase.ref_times.append(ref)
    return phase


def data_digest(ops: list[list[tuple[str, str]]]) -> dict:
    """sha256 over the data files of every op, in op order, manifests left
    out, with the running digest after 1, 2, 4, ... ops so that runs of
    different lengths on the same seed can be compared on a common prefix."""
    h = hashlib.sha256()
    prefixes = {}
    for i, files in enumerate(ops, start=1):
        for name, digest in files:
            h.update(f"{i} {name} {digest}\n".encode())
        if i & (i - 1) == 0:
            prefixes[str(i)] = h.hexdigest()
    return {"ops": len(ops), "sha256": h.hexdigest(), "prefix_sha256": prefixes}
