"""Record the exact outputs of the workloads into reference.json.

    python3 bench/record.py [--workloads lemmas,theorem,spectrum] [--seeds 0-31]

Run from the repository root, on a commit whose outputs are trusted.  For
every seed it runs one untimed iteration per workload and stores the exact
values that later runs must reproduce: solution counts per (X, eta) row,
min_eta and sample triples (theorem), quadruple counts (lemmas), window
term counts (spectrum) and sieve counts (all).  A seed whose outputs fail
an oracle check is not recorded.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, ROOT, WORK, WORKLOADS, child_env


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def dump(ref: dict) -> str:
    """JSON with one line per (workload, seed), so a re-record diffs cleanly."""
    blocks = []
    for workload in sorted(ref):
        seeds = sorted(ref[workload], key=int)
        lines = ",\n".join(f"  {json.dumps(s)}: "
                           f"{json.dumps(ref[workload][s], sort_keys=True)}"
                           for s in seeds)
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="0-31")
    args = ap.parse_args()

    path = BENCH / "reference.json"
    ref = json.loads(path.read_text())
    env = child_env()
    for workload in args.workloads.split(","):
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, str(BENCH / "worker.py"), "iteration",
                   "--workload", workload, "--seed", str(seed), "--record", "1",
                   "--out", str(WORK / f"record-{workload}-{seed}")]
            proc = subprocess.run(cmd, env=env, cwd=ROOT, text=True,
                                  capture_output=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exited {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if out["failed"]:
                print(f"{workload} seed {seed}: not recorded, {out['failures']}",
                      file=sys.stderr)
                continue
            ref.setdefault(workload, {})[str(seed)] = out["exact"]
            path.write_text(dump(ref))
            print(f"{workload} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
