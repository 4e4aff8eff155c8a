"""One process of a benchmark run.

    python3 bench/worker.py MODE --workload NAME --seed N [options]

MODE `cli` imports dhlab.cli; MODE `setup` imports dhlab and builds the
workload's prime table.  Both print the monotonic clock when done, so the
parent can time interpreter start-up from outside.  MODE `iteration` sets
up the same way (and reports when it was done), runs the timed body once,
then checks the outputs untimed; with --trace it records spans around
every layer call (see layers.py).

The parent sets PYTHONPATH to the absolute src directory and pins BLAS to
one thread.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["cli", "setup", "iteration"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--record", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    if args.mode == "cli":
        import dhlab.cli  # noqa: F401

        emit({"t_end": time.monotonic()})
        return 0

    import dhlab

    if Path(dhlab.__file__).resolve().parent != (SRC / "dhlab").resolve():
        print(f"dhlab imported from {dhlab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from dhlab import primes
    from workloads import WORKLOADS

    inputs, table_limit, operations, body, check, exact = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True

    inp = inputs(args.seed)
    table = primes.sieve(table_limit(inp))
    t_setup = time.monotonic()
    if args.mode == "setup":
        emit({"t_end": t_setup})
        return 0

    ops = operations(inp)
    ref = None
    if not args.record:
        with open(BENCH / "reference.json") as fh:
            ref = json.load(fh).get(args.workload, {}).get(str(args.seed))
    args.out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        result, error = body(inp, table, args.out), None
    except Exception:  # the run goes on, and every operation counts as failed
        result, error = None, traceback.format_exc(limit=4)
    t1 = time.perf_counter()

    out = {"wall_s": t1 - t0, "t_setup": t_setup, "operations": len(ops)}
    if tracer is not None:
        tracer.active = False
        from layers import layer_metrics

        out["metrics"] = layer_metrics(tracer.spans, t0, t1)
        if args.spans is not None:
            tracer.dump(args.spans)

    if error is not None:
        verdicts, notes = {op: [f"raised: {error}"] for op in ops}, {}
    else:
        verdicts, notes = check(inp, table, result, ref)
        if args.record:
            out["exact"] = exact(inp, table, result)
    failures = {op: problems for op, problems in verdicts.items() if problems}
    shutil.rmtree(args.out, ignore_errors=True)

    out.update(failed=len(failures), failures=failures, notes=notes,
               reference=ref is not None,
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
