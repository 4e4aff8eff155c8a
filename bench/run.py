"""Benchmark entry point: one measured run of one workload.

    python3 bench/run.py --workload {lemmas,theorem,spectrum} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it needs nothing but the sources under
src/ and the Python toolchain the package already depends on.

Every iteration of the workload runs in a fresh interpreter (worker.py)
that imports dhlab from the absolute src path, with BLAS pinned to one
thread, builds its own prime tables, runs the timed body once and checks
the outputs untimed.  Iterations repeat until the next one would end after
--seconds.  With --trace 0 the run also times fresh interpreters that
import dhlab and build the workload's prime table (set-up), and reports
the end-to-end metrics of BENCHMARK.json.  With --trace 1 iterations
alternate between untraced and traced; the traced ones give the per-layer
metrics, and their wall time against the untraced ones gives the tracing
overhead.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  The lines before it print every metric by name with
its unit, the sample counts, failures, and the environment.  The full
record of the run (samples, every metric, environment, source line counts)
is written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("lemmas", "theorem", "spectrum")
PROBES_PER_ITERATION = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever the children do
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
MODULES = ("arcs", "cli", "diophantine", "errors", "expsums", "harness",
           "norms", "precision", "primes", "solver")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    path = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env.update({var: "1" for var in BLAS_PINS})
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def child(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:g} s")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, text=True,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process did not end within the run limit")
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def startup(self, mode: str) -> float:
        """Seconds from spawning an interpreter to the end of `mode`."""
        t0 = time.monotonic()
        return self.child(mode)["t_end"] - t0

    def iterations(self) -> tuple[list[dict], list[float]]:
        """Run iterations until the next one would end after --seconds; a
        traced run alternates untraced and traced, at least one of each.

        Start-up probes (`setup`, or `cli` when traced) run before every
        iteration and once more at the end, and each untraced iteration adds
        its own set-up time, so the start-up samples spread over the whole
        run instead of sharing one moment's machine load."""
        args = self.args
        probe = "cli" if args.trace else "setup"
        end = time.monotonic() + args.seconds
        samples, startups, durations = [], [], []
        while True:
            i = len(samples)
            traced = bool(args.trace) and i % 2 == 1
            tag = f"{args.workload}-seed{args.seed}-{i}"
            extra = ["--out", str(WORK / f"out-{tag}")]
            if traced:
                extra += ["--trace", "1",
                          "--spans", str(WORK / "spans" / f"{tag}.json")]
            t0 = time.monotonic()
            startups += [self.startup(probe) for _ in range(PROBES_PER_ITERATION)]
            spawned = time.monotonic()
            sample = self.child("iteration", *extra)
            if probe == "setup":
                startups.append(sample["t_setup"] - spawned)
            durations.append(time.monotonic() - t0)
            sample["traced"] = traced
            samples.append(sample)
            if len(samples) >= (2 if args.trace else 1) and (
                    time.monotonic() + statistics.median(durations) > end):
                startups += [self.startup(probe) for _ in range(PROBES_PER_ITERATION)]
                return samples, startups


def supported_percentile(n: int) -> str:
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    best = "none, too few samples"
    for p in (50, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = f"p{p}"
    return best


def src_lines() -> dict:
    pkg = SRC / "dhlab"
    counts = {}
    for mod in MODULES:
        path = pkg / f"{mod}.py"
        counts[f"{mod}.src_lines"] = (len(path.read_text().splitlines())
                                      if path.is_file() else 0)
    counts["dhlab.src_lines"] = sum(len(p.read_text().splitlines())
                                    for p in pkg.rglob("*.py"))
    return counts


def environment(env: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "click": version("click"),
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "caches": caches,
        "blas_pins": {var: env[var] for var in BLAS_PINS},
        "loadavg": os.getloadavg(),
    }


def measure(args) -> dict:
    runner = Runner(args)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(runner.env), "src_lines": src_lines()}

    samples, startups = runner.iterations()
    record["samples"] = samples
    record["cli_samples" if args.trace else "setup_samples"] = startups
    record["loadavg_end"] = os.getloadavg()

    untraced = [s["wall_s"] for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    attempted = sum(s["operations"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    record["wall_samples"] = len(untraced)
    record["wall_percentile"] = supported_percentile(len(untraced))

    metrics = {}
    if not args.trace:
        metrics["wall_s"] = statistics.median(untraced)
        metrics["setup_s"] = statistics.median(record["setup_samples"])
        metrics["peak_rss_mb"] = max(s["rss_mb"] for s in samples)
    else:
        layer = [s["metrics"] for s in traced]
        for name in layer[0]:
            values = [m[name] for m in layer]
            counts = all(isinstance(v, int) for v in values)
            metrics[name] = (statistics.median_low if counts
                             else statistics.median)(values)
        traced_wall = statistics.median(s["wall_s"] for s in traced)
        record["traced_wall_s"] = traced_wall
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(untraced) - 1.0
        metrics["cli.startup_s"] = statistics.median(record["cli_samples"])
        metrics["expsums.grid_max_spot_dev"] = max(
            s["notes"].get("max_spot_dev", 0.0) for s in samples)
        metrics.update(record["src_lines"])
    metrics["ops_failed_frac"] = failed / attempted
    record.update(metrics=metrics, attempted=attempted, failed=failed)
    return record


def report(record: dict, spec: dict) -> dict:
    """Print the human-readable lines; return the contract's result object."""
    key = "per_layer" if record["trace"] else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    missing = sorted(set(wanted) - set(record["metrics"]))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")

    n = record["wall_samples"]
    print(f"# {record['workload']} seed {record['seed']}: "
          f"{len(record['samples'])} iterations, wall_s is the median of "
          f"{n} untraced samples (highest percentile with ten samples beyond "
          f"it: {record['wall_percentile']})")
    if not record["trace"]:
        print(f"# setup_s is the median of {len(record['setup_samples'])} "
              f"set-ups in fresh interpreters")
    for name, unit in wanted.items():
        print(f"{name} = {record['metrics'][name]!r} {unit}")
    if record["trace"]:
        wall = record["traced_wall_s"]
        shares = sorted(((v / wall, k) for k, v in record["metrics"].items()
                         if k.endswith("_s") and not k.startswith("cli.")),
                        reverse=True)
        print("# share of traced wall_s ({:.3f} s): ".format(wall) + ", ".join(
            f"{k} {share:.1%}" for share, k in shares if share >= 0.01))
    else:
        print(f"ops_failed_frac = {record['metrics']['ops_failed_frac']!r} "
              f"({record['failed']} of {record['attempted']} operations)")
    for s in record["samples"]:
        for op, problems in s["failures"].items():
            print(f"# FAILED {op}: {'; '.join(problems)}")
    env = record["environment"]
    print(f"# python {env['python']}, numpy {env['numpy']}, mpmath "
          f"{env['mpmath']}, click {env['click']}, nproc {env['nproc']}, "
          f"caches {env['caches']}, BLAS pins {env['blas_pins']}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in wanted.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "dhlab" / "__init__.py").is_file():
        print(f"error: no dhlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        record = measure(args)
        result = report(record, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
