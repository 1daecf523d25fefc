"""Command-line front end: verification suite, simulations, and reports.

Subcommands
-----------
identities  run the algebra/frame verification suite, print one line per check
simulate    EPR correlation estimators over an angle sweep or a single pair
hopf        transition/transport residuals and the null-bivector limit probe
s7          7-sphere trivector report (contraction terms, grade decomposition)

Each subcommand is a step ``cmd_*(args, seed)`` that validates its inputs
and computes its results, and returns (exit code, config echo, {file name:
text}, stdout lines, extra manifest fields); it never prints and never
touches the filesystem.  `main` runs every subcommand the same way: resolve
the seed and stamp the start time, run the step, prepare ``--out``, write the
data files, print the lines, and write ``manifest.json`` last.  A rejected
run therefore prints nothing on stdout, only one ``error:`` line on stderr.

The manifest holds the command name, the full config echo (with ``out``),
seed, package version, start/end timestamps, and a sha256 digest per emitted
data file; ``simulate`` adds the orientation counts (n, n_plus, n_minus)
that every row was computed from.  Data files contain no timestamps, so a
rerun with the same flags and seed is byte-identical.  Preparing ``--out``
drops a previous run's manifest before any data file is replaced, and each
file is written to a temporary name in the output directory and moved into
place with ``os.replace``, so a name never holds a partly written file and
no manifest describes other bytes.  Numeric CSV fields carry 17 significant
digits with a locale-independent decimal point.

A refused vector or seed is reported with the flag, or the environment
variable, that it came from.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .epr import (
    SweepSpec,
    TrialConsistencyError,
    _check_seed,
    correlation_row,
    orientation_counts,
    sweep,
)
from .hopf import (
    FiberProbe,
    null_limit_probe,
    parallel_transport_check,
    phase_flip_at_pi,
    transition_relation,
)
from .identities import run_identity_checks
from .multivector import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    blade_label,
    contract,
    grade_norms,
    scalar_part,
    unit_vector,
)
from .seven_sphere import Embedding, build_J, embed, raw_score_7, standard_score_7, vector7

SEED_ENV_VAR = "CLIFFSPHERE_SEED"

#: Acceptance bound for the transport and transition residuals.
HOPF_TOL = 1e-10

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad flag value or configuration input."""


def _fmt(x: float) -> str:
    """17 significant digits, locale independent."""
    return format(float(x), ".17g")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parse_vector(flag: str, text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"{flag} {text!r}: expected 'x,y,z'")
    try:
        return unit_vector(np.array([float(p) for p in parts]))
    except ValueError as exc:
        raise UsageError(f"{flag} {text!r}: {exc}") from exc


def _parse_sweep(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"expected 'START:STOP:STEPS', got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
        return SweepSpec(start_deg=start, stop_deg=stop, steps=steps)
    except ValueError as exc:
        raise UsageError(f"bad sweep {text!r}: {exc}") from exc


def _parse_separations(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"bad separation list {text!r}: {exc}") from exc


def _resolve_seed(flag_value: int | None) -> int:
    """The run's seed from the flag, else the environment, else the default;
    every subcommand requires it to lie in [0, 2**64).  A refused value is
    blamed on the flag or the environment variable it came from."""
    source, seed = "--seed", flag_value
    if seed is None:
        source, env = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
        try:
            seed = int(env)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR}={env!r} is not an integer") from exc
    try:
        _check_seed(seed)
    except ValueError as exc:
        raise UsageError(f"{source}: {exc}") from exc
    return seed


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int,
                    outputs: list[Path], started: str, extra: dict) -> None:
    manifest = {
        **extra,
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": [
            {"path": p.name, "sha256": _sha256(p)} for p in outputs
        ],
    }
    _write_file(out_dir, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_file(out_dir: Path, name: str, text: str) -> Path:
    """Write `text` to out_dir/name through a temporary file in out_dir and
    `os.replace`, so the name never holds a partly written file; an OSError
    (the name is a directory, the disk is full) is a usage error."""
    path = out_dir / name
    tmp = out_dir / f".{name}.{os.getpid()}.tmp"
    try:
        with tmp.open("w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise UsageError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc
    return path


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _prepare_out(out: str) -> Path:
    """Create the output directory once the inputs are validated, and drop a
    previous run's manifest before any data file is replaced, so that a run
    that stops early leaves no manifest describing other bytes."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "manifest.json").unlink(missing_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use --out {out!r}: {exc.strerror or exc}") from exc
    return out_dir


def _nonzero_terms(mv) -> dict[str, float]:
    return {
        blade_label(mask): float(c)
        for mask, c in enumerate(mv.coeffs)
        if c != 0.0
    }


# -- subcommands -----------------------------------------------------------------

#: What a subcommand step returns: (exit code, config echo, {file name: text},
#: stdout lines, extra manifest fields).
_Run = tuple[int, dict, dict[str, str], list[str], dict]


def cmd_identities(args, seed: int) -> _Run:
    results = run_identity_checks(
        tolerance=args.tolerance,
        n_pairs=args.pairs,
        seed=seed,
        inject_sign_flip=args.inject_sign_flip,
    )
    n_pass = sum(1 for r in results if r.passed)
    lines = [
        f"identity suite: tolerance {args.tolerance:g}, {args.pairs} vector pairs",
        *(f"{'PASS' if r.passed else 'FAIL'}  {r.name:55s} max residual {r.residual:.3e}  tol {r.tolerance:.1e}"
          for r in results),
        f"{n_pass}/{len(results)} checks passed",
    ]
    config = {"tolerance": args.tolerance, "pairs": args.pairs, "inject_sign_flip": args.inject_sign_flip}
    return EXIT_OK if n_pass == len(results) else EXIT_VERIFICATION, config, {}, lines, {}


def cmd_simulate(args, seed: int) -> _Run:
    if (args.a is None) != (args.b is None):
        raise UsageError("--a and --b must be given together")
    if args.a is not None:
        a = _parse_vector("--a", args.a)
        b = _parse_vector("--b", args.b)
        theta = math.degrees(
            math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))
        )
        config = {"trials": args.trials, "a": args.a, "b": args.b}
    else:
        spec = _parse_sweep(args.sweep)
        config = {"trials": args.trials, "sweep": args.sweep}
    counts = orientation_counts(seed, args.trials)
    rows = [correlation_row(theta, a, b, counts)] if args.a is not None else sweep(spec, counts)
    text = _csv_text(
        ["theta_deg", "raw_mean", "std_scalar", "resid_x", "resid_y",
         "resid_z", "resid_norm", "stderr", "n"],
        ([_fmt(r.theta_deg), _fmt(r.raw_mean), _fmt(r.std_scalar), *map(_fmt, r.residual),
          _fmt(r.residual_norm), _fmt(r.stderr), str(r.n)] for r in rows),
    )
    lines = [f"wrote {Path(args.out, 'correlations.csv')} ({len(rows)} rows)"]
    return EXIT_OK, config, {"correlations.csv": text}, lines, {"orientation": asdict(counts)}


def cmd_hopf(args, seed: int) -> _Run:
    try:
        probe = FiberProbe(args.psi_a, math.radians(args.phi_deg))
    except ValueError as exc:
        raise UsageError(f"--psi-a {args.psi_a!r}, --phi-deg {args.phi_deg!r}: {exc}") from exc
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([math.cos(probe.phi), math.sin(probe.phi), 0.0])
    separations = _parse_separations(args.limit_separations)
    try:
        rows = null_limit_probe(a, separations)
    except ValueError as exc:
        raise UsageError(f"--limit-separations {args.limit_separations!r}: {exc}") from exc
    residuals = {
        "transition residual": transition_relation(a, b, probe.psi_a)[2],
        "transport residual (lam=+1)": parallel_transport_check(a, b, probe.psi_a, 1),
        "phase flip at pi residual": phase_flip_at_pi(probe.psi_a)[2],
    }
    text = _csv_text(
        ["psi_rad", "wedge_magnitude", "axis_x", "axis_y", "axis_z"],
        ([_fmt(row.psi_rad), _fmt(row.magnitude), *map(_fmt, row.axis)] for row in rows),
    )
    lines = [
        *(f"{'PASS' if res < HOPF_TOL else 'FAIL'}  {name}: {res:.3e}  (tol {HOPF_TOL:.0e})"
          for name, res in residuals.items()),
        f"wrote {Path(args.out, 'null_limit.csv')} ({len(rows)} rows)",
    ]
    config = {"psi_a": args.psi_a, "phi_deg": args.phi_deg, "limit_separations": separations}
    code = EXIT_OK if all(res < HOPF_TOL for res in residuals.values()) else EXIT_VERIFICATION
    return code, config, {"null_limit.csv": text}, lines, {}


def cmd_s7(args, seed: int) -> _Run:
    a = _parse_vector("--a", args.a)
    embedding = None
    if args.embedding != "default":
        try:
            embedding = Embedding(np.loadtxt(args.embedding))
        except (OSError, ValueError) as exc:
            raise UsageError(f"bad isometry file {args.embedding!r}: {exc}") from exc

    J = build_J().value
    n7 = embed(a, embedding)
    terms = _nonzero_terms(contract(J, vector7(n7)))
    raw = raw_score_7(a, args.lam, embedding)
    raw_scalar = scalar_part(raw)
    report = {
        "a": [float(x) for x in a],
        "lambda": args.lam,
        "embedding": args.embedding,
        "n7": [float(x) for x in n7],
        "J": _nonzero_terms(J),
        "contract_terms": terms,
        "standard_score": _nonzero_terms(standard_score_7(a, args.lam, embedding)),
        "raw_score": {
            "coefficients": _nonzero_terms(raw),
            "scalar_part": raw_scalar,
            "grade_norms": {str(g): v for g, v in grade_norms(raw).items()},
        },
    }
    lines = [
        f"wrote {Path(args.out, 's7_report.json')}",
        f"contraction terms: {', '.join(sorted(terms))}",
        f"raw-score scalar part: {_fmt(raw_scalar)}",
    ]
    config = {"a": args.a, "lambda": args.lam, "embedding": args.embedding}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return EXIT_OK, config, {"s7_report.json": text}, lines, {}


# -- argument parsing -----------------------------------------------------------------


# Built once per process: a parser is a web of reference cycles, which a
# long-lived caller of `main` would otherwise leave to the cycle collector
# after every call.
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffsphere",
        description="Clifford-algebra identity suite and EPR-Bohm orientation simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"RNG seed (default ${SEED_ENV_VAR} or {DEFAULT_SEED})",
        )

    p = sub.add_parser("identities", help="run the verification suite")
    common(p)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL,
                   help="threshold for the floating algebraic identities")
    p.add_argument("--pairs", type=int, default=1000,
                   help="random unit-vector pairs per identity (>= 1)")
    p.add_argument("--inject-sign-flip", action="store_true",
                   help="test mode: corrupt a structure constant; the suite must fail")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("simulate", help="run the correlation estimators")
    common(p)
    p.add_argument("--trials", type=int, default=100_000, help="trials per direction pair")
    p.add_argument("--sweep", default="0:180:37",
                   help="angle sweep START:STOP:STEPS in degrees (default 0:180:37)")
    p.add_argument("--a", default=None, help="Alice direction x,y,z (with --b)")
    p.add_argument("--b", default=None, help="Bob direction x,y,z (with --a)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("hopf", help="transport residuals and null-limit probe")
    common(p)
    p.add_argument("--psi-a", type=float, default=0.01, help="fiber angle of a -> a'")
    p.add_argument("--phi-deg", type=float, default=90.0, help="angle between a and b")
    p.add_argument("--limit-separations",
                   default="1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
                   help="comma-separated probe angles, strictly decreasing")
    p.set_defaults(func=cmd_hopf)

    p = sub.add_parser("s7", help="7-sphere trivector report")
    common(p)
    p.add_argument("--a", default="1,0,0", help="base direction x,y,z")
    p.add_argument("--lambda", dest="lam", type=int, default=1, choices=(1, -1),
                   help="orientation sign")
    p.add_argument("--embedding", default="default",
                   help="'default' (zero padding) or a text file with a 7x3 isometry")
    p.set_defaults(func=cmd_s7)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        started = _utc_now()
        seed = _resolve_seed(args.seed)
        code, config, files, lines, extra = args.func(args, seed)
        out_dir = _prepare_out(args.out)
        outputs = [_write_file(out_dir, name, text) for name, text in files.items()]
        for line in lines:
            print(line)
        _write_manifest(out_dir, args.command, {**config, "out": str(args.out)}, seed,
                        outputs, started, extra)
        return code
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrialConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
