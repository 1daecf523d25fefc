"""The cliffsphere benchmark.

    python3 perfbench/run.py --workload {sweep,identities,reports} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.  A
run spawns fresh child processes (``child.py``), one after another, each
with one caller:

* ``SETUPS`` children time set-up: from spawning until ``cliffsphere`` is
  imported and each product has run once per dimension the workload uses.
  ``setup_s`` is their median.
* The first child then runs the untimed pre-flight (sign-flip canary and
  golden digests); a failed pre-flight marks the run incorrect.
* The last child runs the closed loop for ``--seconds``.  With ``--trace 1``
  it runs half the time untraced and half with span tracing on, and reports
  the per-layer metrics instead of the end-to-end ones.

The last line of stdout is the result as one JSON object.  The run's full
record (header, op times, data digests, span table) is written to
``perfbench/out/BENCH_<workload>_seed<N>_trace<T>.json``.  See README.md for
the workloads and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups timed per run; setup_s is their median.
SETUPS = 9
#: The run gives up, stopping its children, after this many seconds.
DEADLINE_S = 140


class ChildError(RuntimeError):
    pass


class Child:
    """One child process; construction returns once its set-up is done."""

    def __init__(self, workload: str, trace: bool):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("CLIFFSPHERE_SEED", None)
        # One caller, one thread: keep BLAS from starting a thread pool.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(ROOT), workload, str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.close(kill=True)
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise ChildError(f"child ended with exit code {self.proc.wait()}")
        return json.loads(line)

    def command(self, text: str) -> dict | None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return None if text == "exit" else self._read()

    def close(self, kill: bool = False) -> int:
        """Wait for the child to end; stop it at once if ``kill``, or after 30 s."""
        if kill:
            self.proc.kill()
        self.proc.stdin.close()
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def _read_text(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_header() -> dict:
    """CPU model and cache sizes, read from /proc and /sys."""
    model = None
    cpuinfo = _read_text("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind, size = (_read_text(str(index / f)) for f in ("level", "type", "size"))
        if kind in ("Data", "Unified"):
            caches[f"L{level}"] = size
    return {"cpu_model": model, "nproc": os.cpu_count(), "cache": caches}


def percentile_90(times: list[float]) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    children: list[Child] = []
    finished = False
    try:
        # Child 0 runs the pre-flight; the last child runs the loop.
        for i in range(1 if trace else SETUPS):
            children.append(Child(workload, trace=False))
            if 0 < i < SETUPS - 1:
                children[-1].command("exit")
        preflight = children[0].command(f"preflight {work / 'preflight'}")
        if trace:
            children.append(Child(workload, trace=True))
        result = children[-1].command("run " + json.dumps(
            {"seed": seed, "seconds": seconds, "work": str(work / "loop")}))
        finished = True
    finally:
        signal.alarm(0)
        codes = [c.close(kill=not finished) for c in children]
    return {
        "setup_s": [c.setup_s for c in children if not trace],
        "ready": children[0].ready,
        "preflight": preflight,
        "result": result,
        "exit_codes": codes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cliffsphere" / "__init__.py").is_file():
        print(f"error: no cliffsphere package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def give_up(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s or was stopped")

    # Both raise in the main thread, so run() stops its children on the way out.
    signal.signal(signal.SIGALRM, give_up)
    signal.signal(signal.SIGTERM, give_up)
    signal.alarm(DEADLINE_S)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        raw = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (ChildError, TimeoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    res, pre = raw["result"], raw["preflight"]
    times = res["times"]
    attempted, failed = len(times), res["failed"]
    correct = pre["ok"] and failed == 0 and all(code == 0 for code in raw["exit_codes"])
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(raw["setup_s"]), "unit": "s"},
            "op_ref_s.p50": {"value": statistics.median(res["ref_times"]), "unit": "s"},
            "op_ref_s.p90": {"value": percentile_90(res["ref_times"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    layers = res.get("layers", {})
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": raw["ready"]["python"],
        "numpy": raw["ready"]["numpy"],
        "platform": platform.platform(),
        **machine_header(),
        "epr.lambda_stream.bytes_computed": {
            "label": "computed: 32 B per trial drawn, not measured memory traffic",
            "per_op": layers.get("epr.lambda_stream.bytes_computed"),
            "per_call": (layers["epr.lambda_stream.bytes_computed"] / layers["epr.lambda_stream.calls"]
                         if layers.get("epr.lambda_stream.calls") else None),
        },
    }
    record = {
        "header": header,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": res["problems"],
        "preflight": pre,
        "exit_codes": raw["exit_codes"],
        "metrics": metrics,
        "op_s.p50": statistics.median(times),
        "op_s.p90": percentile_90(times),
        "op_times_s": times,
        "op_ref_times_s": res["ref_times"],
        "setup_times_s": raw["setup_s"],
        "data": res["data"],
    }
    if args.workload == "sweep" and not args.trace:
        trials_per_op = workloads.SWEEP_ROWS * workloads.FULL.trials
        record["trials_per_s"] = trials_per_op * attempted / sum(times)
    if args.trace:
        record.update(traced_ops=res["traced_ops"], untraced_ops=res["untraced_ops"],
                      spans=res["spans"])
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(header), file=sys.stderr)
    for problem in pre["problems"] + res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
