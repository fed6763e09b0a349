"""Record a baseline: every workload untraced and traced, plus a held-out seed.

    python3 perfbench/baseline.py [--seed 1] [--held-out 2]

Writes ``perfbench/baseline.json`` with the machine (nproc, Python
version, platform), the git SHA of the measured tree, the end-to-end
metrics at the baseline seed, the per-layer metrics and the three largest
self-time spans of the traced run, and the verdict counts at the held-out
seed.  A later claim is checked on the held-out seed, which no change was
tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", type=int, default=2)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "run_seconds": seconds,
        "baseline_seed": args.seed,
        "held_out_seed": args.held_out,
        "workloads": {},
    }
    for w in workloads.WORKLOADS:
        untraced = run(w, args.seed, seconds, 0)
        traced = run(w, args.seed, seconds, 1)
        with open(os.path.join(HERE, "out", f"trace-{w}-{args.seed}.json"), encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:3]
        held = run(w, args.held_out, seconds, 0)
        out["workloads"][w] = {
            "end_to_end": untraced,
            "per_layer": traced,
            "top_self_s": {name: row["self_s"] for name, row in top},
            "held_out": {k: held[k] for k in ("correct", "attempted", "failed")},
        }
        print(w, "done", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
