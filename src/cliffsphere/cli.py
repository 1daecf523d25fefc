"""Command-line front end: verification suite, simulations, and reports.

Subcommands
-----------
identities  run the algebra/frame verification suite, print one line per check
simulate    EPR correlation estimators over an angle sweep or a single pair
hopf        transition/transport residuals and the null-bivector limit probe
s7          7-sphere trivector report (contraction terms, grade decomposition)

Each subcommand is one entry of `COMMANDS`: its help, its step and its
flags, each flag declared once as (name, argparse keywords, check).
`build_parser`, the validation, the config echo and the replay argv all
come from that table.  `main` runs every subcommand the same way: resolve
the seed and stamp the start time, check every flag's value, used by the
run or not, run the step, prepare ``--out``, write the data files, print
the lines, and write ``manifest.json`` last.  A step
``cmd_*(v, given, seed)`` computes from the checked values ``v`` (``given``
holds them as given, for a report to echo), checks only the one rule
that spans two flags (``--a`` with ``--b``), and returns (exit code,
{file name: text}, stdout lines, extra manifest fields); it never prints
and never touches the filesystem.  A rejected run therefore prints nothing
on stdout, only one ``error:`` line on stderr.

The manifest holds the command name; an ``argv`` that reruns the run when
given a new ``--out``: the subcommand, ``--seed=`` the resolved seed, and
every set flag as ``--flag=value``, a switch bare; the config echo of every
flag's value as given (with ``out``); seed, package version, start/end
timestamps, a sha256 digest per emitted data file, and the numpy, BLAS
(and its kernel; ``OPENBLAS_CORETYPE`` if set) and machine the bytes depend on.
``simulate`` adds the orientation counts (n, n_plus, n_minus) that every
row was computed from.  Data files contain no timestamps, so a rerun with
the same flags and seed is byte-identical.  Preparing ``--out`` drops a
previous run's manifest before any data file is replaced, and each file is
written to a temporary name in the output directory and moved into place
with ``os.replace``, so a name never holds a partly written file and no
manifest describes other bytes.  The output stage costs little more than
its system calls: preparing a new ``--out`` is one ``os.mkdir``, and a
file's bytes go to its temporary name through ``os.write``, with no buffer
between.  A CSV file is written from one structured array: its header is
the field names, and each row is one `%` format, floats with 17
significant digits and a locale-independent decimal point, integers as
integers.  The manifest and ``s7_report.json`` are JSON text from one
writer, `_json_text`: ``json.dumps(value, indent=2, sort_keys=True)`` byte
for byte, without the Python generators that json runs whenever ``indent``
is set, and without the reference cycle that each such call leaves behind.

Every refused input is reported with the flag, or the environment
variable, that it came from: `main` checks each flag's value inside
``_refused(f"{flag} {value!r}")``, and the seed inside `_refused` too, and
reads no other error as a usage error.  What argparse refuses itself (a
value of the wrong type, an unknown flag, a missing subcommand) is a usage
error too, in argparse's one-line message; only ``--help`` and
``--version`` exit from the parser, with code 0.  A value that starts with
``-`` is read by argparse as a flag, so ``--b -1,0,0`` is refused with the
``--b=-1,0,0`` form that passes it.

Quantities that a run would otherwise compute more than once are computed
once: a ``hopf`` run builds its fiber pair, with its three rotors, once for
the transition and the transport residual, and J and the blade labels of a
report are built once per process.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 internal fault, with its traceback.  A stdout closed early by its
reader ends the printing quietly; the run still writes its manifest and
exits with its own code.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import math
import os
import platform
import sys
import traceback
import warnings
from dataclasses import asdict
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .epr import (
    SweepSpec,
    TrialConsistencyError,
    _check_seed,
    _check_trials,
    correlation_row,
    orientation_counts,
    sweep,
)
from .hopf import (_check_phi_deg, _check_psi_a, _fiber_pair, _separations, _transition, _transport,
                   null_limit_probe, phase_flip_at_pi)
from .identities import MAX_PAIRS, _check_pairs, run_identity_checks
from .multivector import (
    DEFAULT_SEED,
    MAX_DIM,
    Multivector,
    _cross,
    blade_label,
    contract,
    grade_norms,
    scalar_part,
    unit_vector,
)
from .seven_sphere import Embedding, build_J, embed, raw_score_7, standard_score_7

SEED_ENV_VAR = "CLIFFSPHERE_SEED"

#: Acceptance bound for the transport and transition residuals.
HOPF_TOL = 1e-10

#: Most bytes read from an ``--embedding`` file: a 7x3 matrix takes a few hundred.
MAX_EMBEDDING_BYTES = 1 << 16

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    """Bad flag value or configuration input."""


class _Parser(argparse.ArgumentParser):
    """A parser whose errors (a value of the wrong type, an unknown flag, a
    missing subcommand) raise `UsageError`, so `main` reports them as it
    reports every refused input, in one line, instead of exiting."""

    def error(self, message):
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        """`parse_args`, but a flag that argparse read with no value, because
        its value starts with '-' (``--b -1,0,0``), is refused with the
        ``--b=-1,0,0`` form that passes that value."""
        args = sys.argv[1:] if args is None else list(args)
        try:
            return super().parse_args(args, namespace)
        except UsageError as exc:
            flag, _, why = str(exc).removeprefix("argument ").partition(": ")
            dashed = [value for name, value in zip(args, args[1:])
                      if name == flag and value.startswith("-") and not value.startswith("--")]
            if why != "expected one argument" or not dashed:
                raise
            raise UsageError(f"{exc}; write a value that starts with '-' as {flag}={dashed[0]}") from None


@contextlib.contextmanager
def _refused(label: str):
    """Raise a `ValueError` from inside as a `UsageError` that starts with
    `label`, the flag or variable of the input.  Only the parsing and
    validation of that input run inside, never a computation on it, so a
    fault is never relabelled as bad input."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{label}: {exc}") from exc


def _fmt(x: float) -> str:
    """17 significant digits, locale independent."""
    return format(float(x), ".17g")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _parse_vector(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected 'x,y,z'")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is inf: refused
        return unit_vector(np.array([float(p) for p in parts]))


def _parse_sweep(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected 'START:STOP:STEPS'")
    return SweepSpec(float(parts[0]), float(parts[1]), int(parts[2]))


def _parse_separations(text: str) -> list[float]:
    return _separations(p for p in text.split(",") if p.strip())


def _read_embedding(path: str) -> Embedding | None:
    """The isometry in the text file `path`, read up to one byte past
    `MAX_EMBEDDING_BYTES`, or None for 'default'."""
    if path == "default":
        return None
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_EMBEDDING_BYTES + 1)
        if len(data) > MAX_EMBEDDING_BYTES:
            raise ValueError(f"the file is longer than {MAX_EMBEDDING_BYTES} bytes")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy only warns on an empty file
            m = np.loadtxt(data.splitlines())
    except OSError as exc:
        raise ValueError(exc) from exc
    except UserWarning as exc:  # numpy's warning names every line read
        raise ValueError("the file holds no data") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing m.T @ m: refused
        return Embedding(m)


def _resolve_seed(flag_value: int | None) -> int:
    """The run's seed from the flag, else the environment, else the default;
    every subcommand requires it to lie in [0, 2**64)."""
    from_flag = flag_value is not None
    with _refused("--seed" if from_flag else SEED_ENV_VAR):
        seed = flag_value if from_flag else int(os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED)))
        _check_seed(seed)
    return seed


@functools.lru_cache(maxsize=1)
def _blas_corename() -> str | None:
    """The OpenBLAS kernel that runs, which the build's "openblas configuration"
    does not name, or None when numpy's BLAS is not its bundled scipy-openblas."""
    call = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), "scipy_openblas_get_corename64_", None)
    if call is None:
        return None
    call.restype = ctypes.c_char_p
    return call().decode()


def _write_manifest(out_dir: str, record: dict, outputs: dict[str, str], started: str) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        **record,
        "version": __version__,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": [{"path": name, "sha256": digest} for name, digest in outputs.items()],
        "environment": {"numpy": np.__version__, "machine": platform.machine(),  # what the bytes depend on
                        "blas": {**{key: blas.get(key) for key in ("name", "version", "openblas configuration")},
                                 **{"corename": core for core in [_blas_corename()] if core}},
                        **{key: os.environ[key] for key in ["OPENBLAS_CORETYPE"] if key in os.environ}},
    }
    _write_file(out_dir, "manifest.json", _json_text(manifest) + "\n")


def _write_file(out_dir: str, name: str, text: str) -> str:
    """Write `text`, UTF-8 encoded, to out_dir/name through a temporary file
    in out_dir and `os.replace`, so the name never holds a partly written
    file; return the sha256 of the bytes written, so that no file is read
    back to be hashed.  The bytes go to the file descriptor with `os.write`,
    through no buffer, again after a short write until all are out.  An
    OSError (the name is a directory, the disk is full) is a usage error."""
    path = os.path.join(out_dir, name)
    tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    data = text.encode()
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise UsageError(f"cannot write {str(Path(path))!r}: {exc.strerror or exc}") from exc
    return hashlib.sha256(data).hexdigest()


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for a
    tree of dicts with str keys, lists and tuples over str, int, float, bool
    and None; any other value or key raises TypeError.  Strings, numbers,
    NaN and the infinities are spelled as json spells them
    (`encode_basestring_ascii`, `int.__repr__`, `float.__repr__`), but the
    text is one list of pieces joined once: json encodes through nested
    Python generators whenever ``indent`` is set."""
    parts: list[str] = []
    _json_parts(value, "\n", parts)
    return "".join(parts)


def _json_parts(value, newline: str, parts: list[str]) -> None:
    """Append the JSON text of `value` to `parts`; `newline` is a line break
    and the indent of the line that `value` starts on."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(float.__repr__(value) if math.isfinite(value)
                     else "NaN" if value != value else "Infinity" if value > 0 else "-Infinity")
    elif isinstance(value, (list, tuple)):
        inner, opener = newline + "  ", "["
        for item in value:
            parts.append(opener + inner)
            _json_parts(item, inner, parts)
            opener = ","
        parts.append(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        inner, opener = newline + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(f"{opener}{inner}{encode_basestring_ascii(key)}: ")
            _json_parts(value[key], inner, parts)
            opener = ","
        parts.append(newline + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv_text(rows: np.ndarray) -> str:
    """CSV text of a structured array: a header of its field names, then one
    line per row, each field with `_fmt`'s 17 digits or as an integer, ended
    by CR LF as `csv.writer` ends them; one `%` format per row."""
    line = ",".join("%d" if rows.dtype[name].kind in "iu" else "%.17g" for name in rows.dtype.names) + "\r\n"
    return "".join([",".join(rows.dtype.names) + "\r\n", *map(line.__mod__, rows.tolist())])


def _prepare_out(out: str) -> str:
    """Create the output directory once the inputs are validated, and drop a
    previous run's manifest before any data file is replaced, so that a run
    that stops early leaves no manifest describing other bytes.  One
    `os.mkdir` comes first: a directory that it made holds no manifest, so
    only a directory that was there is cleared, and only missing parents
    are made."""
    out_dir = os.fspath(Path(out))  # "" names ".", as it did for Path.mkdir
    try:
        try:
            os.mkdir(out_dir)
        except FileExistsError:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(out_dir, "manifest.json"))
        except FileNotFoundError:
            os.makedirs(out_dir)
    except OSError as exc:
        raise UsageError(f"cannot use --out {out!r}: {exc.strerror or exc}") from exc
    return out_dir


def _print_lines(lines: list[str]) -> None:
    """Print `lines`.  A reader that closes stdout early (`| head`) stops the
    printing, not the run: stdout is pointed at the null device, so that
    neither this nor the flush at exit raises, and the run goes on to write
    its manifest and exit with its own code."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


@functools.lru_cache(maxsize=MAX_DIM)
def _blade_labels(dim: int) -> tuple[str, ...]:
    """`blade_label` of every mask of Cl(dim,0), in mask order."""
    return tuple(map(blade_label, range(1 << dim)))


def _nonzero_terms(mv) -> dict[str, float]:
    """{blade label: coefficient} of the blades whose coefficient is not
    zero (+0.0 or -0.0), in mask order."""
    labels, nz = _blade_labels(mv.dim), np.flatnonzero(mv.coeffs)
    return {labels[mask]: c for mask, c in zip(nz.tolist(), mv.coeffs[nz].tolist())}


# -- subcommands -----------------------------------------------------------------

#: What a subcommand step returns: (exit code, {file name: text}, stdout
#: lines, extra manifest fields).
_Run = tuple[int, dict[str, str], list[str], dict]


def cmd_identities(v: dict, given: dict, seed: int) -> _Run:
    results = run_identity_checks(n_pairs=v["pairs"], seed=seed, inject_sign_flip=v["inject_sign_flip"])
    n_pass = sum(1 for r in results if r.passed)
    lines = [
        f"identity suite: every check exact, {v['pairs']} Cl(3) oracle pairs",
        *(f"{'PASS' if r.passed else 'FAIL'}  {r.name:55s} max residual {r.residual:.3e}" for r in results),
        f"{n_pass}/{len(results)} checks passed",
    ]
    return EXIT_OK if n_pass == len(results) else EXIT_VERIFICATION, {}, lines, {}


def cmd_simulate(v: dict, given: dict, seed: int) -> _Run:
    a, b = v["a"], v["b"]
    if (a is None) != (b is None):
        raise UsageError("--a and --b must be given together")
    counts = orientation_counts(seed, v["trials"])
    if a is None:
        rows = sweep(v["sweep"], counts)
    else:
        theta = math.degrees(math.atan2(float(np.linalg.norm(_cross(a, b))), float(np.dot(a, b))))
        rows = correlation_row(theta, a, b, counts)
    lines = [f"wrote {Path(v['out'], 'correlations.csv')} ({len(rows)} rows)"]
    return EXIT_OK, {"correlations.csv": _csv_text(rows)}, lines, {"orientation": asdict(counts)}


def cmd_hopf(v: dict, given: dict, seed: int) -> _Run:
    psi_a, phi = v["psi_a"], v["phi_deg"]  # `_check_phi_deg` gives phi in radians
    a = np.array([1.0, 0.0, 0.0])
    rows = null_limit_probe(a, v["limit_separations"])
    pair = _fiber_pair(a, [math.cos(phi), math.sin(phi), 0.0], psi_a)
    residuals = {
        "transition residual": _transition(pair)[2],
        "transport residual (lam=+1)": _transport(pair, 1),
        "phase flip at pi residual": phase_flip_at_pi(psi_a)[2],
    }
    lines = [
        *(f"{'PASS' if res < HOPF_TOL else 'FAIL'}  {name}: {res:.3e}  (tol {HOPF_TOL:.0e})"
          for name, res in residuals.items()),
        f"wrote {Path(v['out'], 'null_limit.csv')} ({len(rows)} rows)",
    ]
    code = EXIT_OK if all(res < HOPF_TOL for res in residuals.values()) else EXIT_VERIFICATION
    return code, {"null_limit.csv": _csv_text(rows)}, lines, {}


def cmd_s7(v: dict, given: dict, seed: int) -> _Run:
    a, embedding = v["a"], v["embedding"]
    J = build_J().value
    n7 = embed(a, embedding)
    # a public product, not `_product`: perfbench's tracer counts only public products
    terms = _nonzero_terms(contract(J, Multivector.from_vector(n7, dim=7)))
    raw = raw_score_7(a, v["lambda"], embedding)
    raw_scalar = scalar_part(raw)
    report = {
        "a": [float(x) for x in a],
        "lambda": v["lambda"],
        "embedding": given["embedding"],
        "n7": [float(x) for x in n7],
        "J": _nonzero_terms(J),
        "contract_terms": terms,
        "standard_score": _nonzero_terms(standard_score_7(a, v["lambda"], embedding)),
        "raw_score": {
            "coefficients": _nonzero_terms(raw),
            "scalar_part": raw_scalar,
            "grade_norms": {str(g): x for g, x in grade_norms(raw).items()},
        },
    }
    lines = [
        f"wrote {Path(v['out'], 's7_report.json')}",
        f"contraction terms: {', '.join(sorted(terms))}",
        f"raw-score scalar part: {_fmt(raw_scalar)}",
    ]
    return EXIT_OK, {"s7_report.json": _json_text(report) + "\n"}, lines, {}


# -- the flag table ---------------------------------------------------------------

#: Each subcommand's help, step and flags, besides ``--out`` and ``--seed``.  A
#: flag is (name, argparse keywords, check): the check parses and validates
#: the value as given and returns what the step uses; None uses it as is.
COMMANDS = {
    "identities": ("run the verification suite", cmd_identities, (
        ("--pairs", dict(type=int, default=20,
                         help=f"random integer-valued dense pairs of the Cl(3) naive-oracle check (1 to "
                              f"{MAX_PAIRS}); the bilinear identities run exactly on the basis"), _check_pairs),
        ("--inject-sign-flip", dict(action="store_true",
                                    help="test mode: corrupt a structure constant; the suite must fail"), None),
    )),
    "simulate": ("run the correlation estimators", cmd_simulate, (
        ("--trials", dict(type=int, default=100_000, help="trials per direction pair"), _check_trials),
        ("--sweep", dict(default="0:180:37",
                         help="angle sweep START:STOP:STEPS in degrees (default 0:180:37)"), _parse_sweep),
        ("--a", dict(default=None, help="Alice direction x,y,z (with --b)"), _parse_vector),
        ("--b", dict(default=None, help="Bob direction x,y,z (with --a)"), _parse_vector),
    )),
    "hopf": ("transport residuals and null-limit probe", cmd_hopf, (
        ("--psi-a", dict(type=float, default=0.01, help="fiber angle of a -> a'"), _check_psi_a),
        ("--phi-deg", dict(type=float, default=90.0, help="angle between a and b"), _check_phi_deg),
        ("--limit-separations", dict(default="1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
                                     help="comma-separated probe angles, strictly decreasing"),
         _parse_separations),
    )),
    "s7": ("7-sphere trivector report", cmd_s7, (
        ("--a", dict(default="1,0,0", help="base direction x,y,z"), _parse_vector),
        ("--lambda", dict(type=int, default=1, choices=(1, -1), help="orientation sign"), None),
        ("--embedding", dict(default="default",
                             help="'default' (zero padding) or a text file with a 7x3 isometry"), _read_embedding),
    )),
}


# Built once per process: a parser is a web of reference cycles, which a
# long-lived caller of `main` would otherwise leave to the cycle collector
# after every call.
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cliffsphere",
        description="Clifford-algebra identity suite and EPR-Bohm orientation simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default ${SEED_ENV_VAR} or {DEFAULT_SEED})")
        for name, kwargs, _ in flags:
            p.add_argument(name, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        given = vars(build_parser().parse_args(argv))
        started = _utc_now()
        command, seed = given.pop("command"), _resolve_seed(given.pop("seed"))
        _, step, flags = COMMANDS[command]
        v, replay = dict(given), [command, f"--seed={seed}"]
        for name, _, check in flags:
            key = name[2:].replace("-", "_")  # argparse's dest, and the config key
            value = given[key]
            if check is not None and value is not None:
                with _refused(f"{name} {value!r}"):
                    v[key] = check(value)
            if value is not None and value is not False:
                replay.append(name if value is True else f"{name}={value}")
        code, files, lines, extra = step(v, given, seed)
        out_dir = _prepare_out(given["out"])
        outputs = {name: _write_file(out_dir, name, text) for name, text in files.items()}
        _print_lines(lines)
        config = {key: value for key, value in given.items() if value is not None}
        _write_manifest(out_dir, {**extra, "command": command, "argv": replay, "config": config, "seed": seed},
                        outputs, started)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrialConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except Exception:  # a fault, not bad input: its traceback, and no manifest
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
