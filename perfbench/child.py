"""One benchmark child process: set-up, then one command from stdin.

    python child.py ROOT WORKLOAD TRACE

Set-up imports ``cliffsphere`` from ``ROOT/src`` and runs each public product
once in every dimension the workload uses, which builds the lazy Cayley
tables.  The child then prints one JSON line and reads one command line:

    exit                    end without further work
    preflight WORK          run the untimed pre-flight in directory WORK
    run JSON                run the timed loop ({"seed", "seconds", "work"})

and prints one JSON result line.  Only the protocol lines go to stdout.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

#: Clifford dimensions each workload multiplies in; set-up builds their tables.
DIMS = {"sweep": (3,), "identities": (3, 7), "reports": (3, 7)}


def products(cliffsphere, dims) -> list[float]:
    """Run each public product once per dimension; return each call's time."""
    times = []
    for d in dims:
        x = cliffsphere.Multivector.from_vector([1.0] * d)
        for product in (cliffsphere.geometric_product, cliffsphere.wedge, cliffsphere.contract):
            t0 = time.perf_counter()
            product(x, x)
            times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    root, workload, trace = Path(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    channel, sys.stdout = sys.stdout, sys.stderr
    import cliffsphere
    import cliffsphere.cli

    if Path(cliffsphere.__file__).resolve().parent != (root / "src" / "cliffsphere").resolve():
        print(f"cliffsphere imported from {cliffsphere.__file__}, not {root / 'src'}", file=sys.stderr)
        return 3

    dims = DIMS[workload]
    first = products(cliffsphere, dims)
    # The first call of each product builds its tables; a repeat call does not.
    tables_s = sum(first) - sum(products(cliffsphere, dims)) if trace else None

    def emit(obj) -> None:
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    import numpy

    emit({"ready": True, "python": platform.python_version(), "numpy": numpy.__version__})
    import workloads

    command, _, arg = sys.stdin.readline().strip().partition(" ")

    def cli_main(argv):
        return cliffsphere.cli.main(argv)

    if command == "exit":
        return 0
    if command == "preflight":
        emit(workloads.preflight(cli_main, Path(arg), numpy.__version__))
        return 0
    if command != "run":
        print(f"unknown command {command!r}", file=sys.stderr)
        return 3
    spec = json.loads(arg)
    seed, seconds, work = spec["seed"], spec["seconds"], Path(spec["work"])
    result = {}
    if not trace:
        phases = [workloads.run_phase(workload, seed, seconds, work, cli_main)]
    else:
        import tracing

        untraced = workloads.run_phase(workload, seed, seconds / 2, work, cli_main)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = workloads.run_phase(workload, seed, seconds / 2, work, cli_main,
                                         first_op=len(untraced.times), tracer=tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        ops = len(traced.times)
        spans = tracer.span_table()
        layers = tracer.layer_metrics(spans, ops)
        layers.update({
            "multivector.tables_s": tables_s,
            "identities.checks": traced.checks / ops,
            "identities.checks_failed": traced.checks_failed / ops,
            "cli.bytes_written": traced.bytes_written / ops,
            "trace.overhead_ratio": median(traced.ref_times) / median(untraced.ref_times),
        })
        result.update(layers=layers, spans=spans, traced_ops=ops,
                      untraced_ops=len(untraced.times))
    result.update(
        times=[t for p in phases for t in p.times],
        ref_times=[t for p in phases for t in p.ref_times],
        failed=sum(p.failed for p in phases),
        problems=[x for p in phases for x in p.problems][:20],
        data=workloads.data_digest([d for p in phases for d in p.digests]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
