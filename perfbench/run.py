"""Benchmark runner for the wakimoto verifier.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Builds the seeded task list of one workload, then runs passes until
``--seconds`` have elapsed.  A pass is a fresh ``worker.py`` process (one
client, closed loop: each task starts when the previous verdict is in)
that imports the package from ``src/``, sets up its algebras and runs every
task.  Two set-up-only passes run first, so ``setup_s`` is a median of
several set-ups even when a pass is long.  After at least three full passes,
a pass starts only while it is expected to end within half a pass of
``--seconds``.  Every verdict is
compared with its known answer.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, all
medians over passes.  With ``--trace 1`` untraced and traced passes
alternate; the traced ones wrap the package's layers (``tracer.py``) and
the line holds per-layer counts and self-time shares, plus the tracing
overhead.  Two traced passes of one seed must agree on every count, or the
run stops with an error.  The full per-span table, in seconds, is written
to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_ONLY_PASSES = 2
MIN_PASSES = 3  # full passes per untraced run: per-task medians of at least 3
PASS_TIMEOUT_S = 150
# Times are reported in seconds of a reference host: one on which the
# worker's reference kernel takes exactly REFERENCE_S.  Set-up and each task
# are scaled by REFERENCE_S over the kernel time interpolated, between the
# two kernel runs that bracket them, to their midpoint; the rest of the pass
# by the median kernel run of the pass.
REFERENCE_S = 0.06


class BenchmarkError(RuntimeError):
    pass


def run_pass(job: dict, trace: bool) -> dict:
    """One worker process; its process group is killed if it overruns."""
    env = {k: v for k, v in os.environ.items() if k != "WAKIMOTO_JOBS"}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps({**job, "trace": trace}), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"worker pass exceeded {PASS_TIMEOUT_S} s")
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    out = json.loads(stdout)
    rescale(out, wall)
    return out


def rescale(out: dict, wall: float) -> None:
    """Put the pass's times in reference seconds (see REFERENCE_S)."""
    refs = out["refs"]
    starts = [t for t, _ in refs]

    def local(t0: float, dur: float) -> float:
        """dur scaled by the kernel time interpolated to the interval's midpoint."""
        b_start, before = refs[max(bisect.bisect_right(starts, t0) - 1, 0)]
        a_start, after = refs[min(bisect.bisect_left(starts, t0 + dur), len(refs) - 1)]
        gap = a_start - (b_start + before)
        w = (t0 + dur / 2 - b_start - before) / gap if gap > 0 else 0.5
        return dur * REFERENCE_S / ((1 - w) * before + w * after)

    ref = statistics.median(d for _, d in refs)
    setup_raw = out["setup"][1]
    tasks_raw = sum(r["s"] for r in out["results"])
    rest = wall - sum(d for _, d in refs) - setup_raw - tasks_raw
    for r in out["results"]:
        r["s"] = local(r["t0"], r["s"])
    out["setup_s"] = local(*out["setup"])
    out["tasks_s"] = sum(r["s"] for r in out["results"])
    out["wall_s"] = out["setup_s"] + out["tasks_s"] + rest * REFERENCE_S / ref
    out["raw_wall_s"] = wall
    out["raw_active_s"] = setup_raw + tasks_raw
    out["ref_median_s"] = ref


def judge(out: dict, expect: dict) -> tuple[list[str], int]:
    """Problems with one pass, and how many of its tasks failed.

    A task fails when it raises, when its verdict or facts differ from the
    known answer (a canary that passes is such a task), or when it passes
    without having checked anything.  Wrong root data at set-up makes the
    pass incorrect without failing a task.
    """
    problems = []
    for name, facts in out["setup_facts"].items():
        if facts != workloads.ROOT_DATA[name]:
            problems.append(f"set-up {name}: root data {facts} != {workloads.ROOT_DATA[name]}")
    failed = 0
    for r in out["results"]:
        want = expect[r["id"]]
        got_facts = {k: r["facts"].get(k) for k in want["facts"]}
        if r["error"]:
            problem = f"raised {r['error']}"
        elif r["verdict"] != want["verdict"] or got_facts != want["facts"]:
            what = "canary not detected" if want["canary"] else "wrong verdict"
            problem = f"{what}: {r['verdict']} {got_facts}"
        elif r["verdict"] == "pass" and r["checks"] < 1:
            problem = "pass without any check"
        else:
            continue
        failed += 1
        problems.append(f"task {r['id']}: {problem}")
    return problems, failed


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups: list[float], passes: list[dict], n_tasks: int) -> dict:
    per_task = {}
    for p in passes:
        for r in p["results"]:
            per_task.setdefault(r["id"], []).append(r["s"])
    task_s = [statistics.median(v) for v in per_task.values()]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s.p50": (quantile(task_s, 50), "s"),
        "verdict_s.p90": (quantile(task_s, 90), "s"),
        "tasks_per_s": (n_tasks / sum(task_s), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def span_names():
    return list(dict.fromkeys(name for _, _, name in tracer.SPANS))


def counts_of(report: dict) -> dict:
    """The exact part of a trace: calls and work counters, no times."""
    return {name: {k: v for k, v in s.items() if not k.endswith("_s")} for name, s in report.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    first = counts_of(traced[0]["trace"])
    for p in traced[1:]:
        if counts_of(p["trace"]) != first:
            raise BenchmarkError("determinism self-test: traced passes of one seed disagree on counts")
    metrics = {}
    table = {}
    for name in span_names():
        stats = [p["trace"].get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}) for p in traced]
        shares = [s["self_s"] / p["raw_active_s"] for s, p in zip(stats, traced)]
        metrics[f"{name}.calls"] = (stats[0]["calls"], "count")
        metrics[f"{name}.self_share"] = (statistics.median(shares), "ratio")
        table[name] = {
            "calls": stats[0]["calls"],
            "self_s": statistics.median(s["self_s"] for s in stats),
            "total_s": statistics.median(s["total_s"] for s in stats),
            **{k: v for k, v in stats[0].items() if not k.endswith("_s") and k != "calls"},
        }
    mul = first.get("coeffs.RatFunc.mul", {})
    metrics["coeffs.RatFunc.mul.const_share"] = (mul.get("const_calls", 0) / max(mul.get("calls", 0), 1), "ratio")
    for name, key in (("ope.contract", "term_pairs"), ("ope.contract", "pole_terms_out"),
                      ("fields.expand_power_levels", "terms_in"), ("fields.expand_power_levels", "terms_out")):
        metrics[f"{name}.{key}"] = (first.get(name, {}).get(key, 0), "count")
    metrics["series.expand_power_levels.calls"] = (first.get("series.expand_power_levels", {}).get("calls", 0), "count")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["host.ref_slice_s"] = (statistics.median(p["ref_median_s"] for p in untraced + traced), "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(p["wall_s"] for p in untraced), "s")
    return metrics, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wakimoto", "__init__.py")):
        print(f"error: no wakimoto package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_root)
    try:
        job, expect = workloads.build(args.workload, args.seed, inputs)
        return measure(args, job, expect, out_root)
    except (BenchmarkError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def measure(args, job: dict, expect: dict, out_root: str) -> int:
    start = time.perf_counter()
    n_tasks = len(job["tasks"])
    problems: list[str] = []
    failed = 0
    setups: list[float] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    if args.trace:
        schedule = [False, True, True]
    else:
        for _ in range(SETUP_ONLY_PASSES):
            out = run_pass({**job, "tasks": []}, trace=False)
            problems += judge(out, expect)[0]
            setups.append(out["setup_s"])
        schedule = [False] * MIN_PASSES
    walls: list[float] = []
    # A pass starts only if it is expected to end no later than half a
    # pass after --seconds, so a run lasts about --seconds on average.
    while schedule or time.perf_counter() - start + statistics.median(walls) / 2 <= args.seconds:
        trace = schedule.pop(0) if schedule else (args.trace == 1 and len(traced) <= len(untraced))
        out = run_pass(job, trace)
        found, n_failed = judge(out, expect)
        problems += found
        failed += n_failed
        (traced if trace else untraced).append(out)
        setups.append(out["setup_s"])
        walls.append(out["wall_s"])

    if args.trace:
        metrics, table = per_layer(untraced, traced)
        with open(os.path.join(out_root, f"trace-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": len(traced), "spans": table}, fh, indent=1)
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            if row["calls"]:
                print(f"{name:34s} calls {row['calls']:>9d}  self {row['self_s']:9.4f} s  total {row['total_s']:9.4f} s")
    else:
        metrics = end_to_end(setups, untraced, n_tasks)
    passes = untraced + traced
    for p in problems:
        print("FAIL", p)
    canaries = sum(1 for e in expect.values() if e["canary"])
    raw = statistics.median(p["raw_wall_s"] for p in passes)
    ref = statistics.median(p["ref_median_s"] for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes x {n_tasks} tasks "
          f"({canaries} canary), {len(problems)} problems; raw wall {raw:.3f} s, "
          f"reference kernel {ref * 1e3:.2f} ms")
    result = {
        "correct": not problems,
        "attempted": n_tasks * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
