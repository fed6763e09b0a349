"""Regenerate ``pools.json``: the cost-ranked pair pool of the sweep workload.

For each sweep algebra, every ordered pair of currents whose operands have
at most ``TERM_PAIR_CAP`` term pairs is run once through ``check_pair``
under the tracer, and the pool is stored sorted by the pair's work: the
number of traced calls (coefficient, field and contraction operations) it
made.  The count is exact, so the ranking does not depend on the machine
or on timing noise.  ``workloads.py`` cuts the ranked list into
consecutive strata and a seed draws one pair from each, so every seed gets
the same cost profile.  The pool is fixed data: regenerate it only in a
change that redefines the benchmark.

    python3 perfbench/make_pools.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402

SWEEP_ALGEBRAS = ("A3", "G2", "B3", "C3")
# Pairs above the cap (the top tenth or so by size, up to 6 s each on B3)
# are left out so that no single draw dominates a pass.
TERM_PAIR_CAP = 2500


def as_json(lab):
    kind, arg = lab
    return [kind, list(arg) if isinstance(arg, tuple) else arg]


def write(pools: dict) -> None:
    """pools.json with one pair per line."""
    lines = ['{"term_pair_cap": %d, "sweep": {' % TERM_PAIR_CAP]
    for i, (name, rows) in enumerate(pools.items()):
        lines.append(f' "{name}": [')
        lines += ["  " + json.dumps(r) + ("," if j < len(rows) - 1 else "") for j, r in enumerate(rows)]
        lines.append(" ]" + ("," if i < len(pools) - 1 else ""))
    lines.append("}}")
    with open(os.path.join(HERE, "pools.json"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> int:
    trace = tracer.install()
    from wakimoto.currents import build_wakimoto, check_pair
    from wakimoto.liealg import get_algebra

    def work() -> int:
        return sum(s.calls for s in trace.stats.values())

    pools = {}
    for name in SWEEP_ALGEBRAS:
        cs = build_wakimoto(*get_algebra(name))
        rows = []
        for a in cs.labels():
            for b in cs.labels():
                if len(cs[a].terms) * len(cs[b].terms) > TERM_PAIR_CAP:
                    continue
                before = work()
                if check_pair(cs, a, b):
                    raise SystemExit(f"{name} {a} {b}: the sweep pool must verify")
                rows.append([as_json(a), as_json(b), work() - before])
        rows.sort(key=lambda r: (r[2], json.dumps(r[:2])))
        pools[name] = rows
        print(name, len(rows), "pairs", flush=True)
    write(pools)
    return 0


if __name__ == "__main__":
    sys.exit(main())
