"""Seeded task lists and their known answers for the four workloads.

``build(workload, seed, out_dir)`` returns the job a pass runs (the
algebras to set up and the tasks, with no answers in it) and the expected
outcome of every task.  Each workload draws from a fixed pool in strata of
similar cost, so different seeds exercise different inputs with the same
cost profile; only the order and the draw within a stratum depend on the
seed.  Every workload carries one planted defect (a canary) whose verdict
must come out "fail".
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("sweep", "series", "realization", "cli")

# (positive roots, dimension, dual Coxeter number) of every algebra used;
# set-up must reproduce them.
ROOT_DATA = {
    "A1": [1, 3, 2], "A2": [3, 8, 3], "B2": [4, 10, 3], "G2": [6, 14, 4],
    "A3": [6, 15, 4], "B3": [9, 21, 5], "C3": [9, 21, 4], "A4": [10, 24, 5],
    "OSP22": [3, 8, 1],
}

SWEEP_STRATUM = 5  # one pair drawn from each run of 5 cost-ranked pairs

# Cartan matrices (package convention) and non-simple positive roots of the
# realization algebras; a seed draws the extraspecial sign of every
# non-simple root, which changes the structure constants but not the work.
# B3 (a 6 s verify_realization) is left out so a run fits three passes.
REALIZATION_ALGEBRAS = {
    "A4": ([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
           ["1,1,0,0", "0,1,1,0", "0,0,1,1", "1,1,1,0", "0,1,1,1", "1,1,1,1"]),
    "C3": ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
           ["1,1,0", "0,1,1", "1,1,1", "0,2,1", "1,2,1", "2,2,1"]),
}
B2_LABELS = [["e", [1, 0]], ["e", [0, 1]], ["e", [1, 1]], ["e", [1, 2]], ["h", 0], ["h", 1],
             ["f", [1, 0]], ["f", [0, 1]], ["f", [1, 1]], ["f", [1, 2]]]

# `ope` products in two cost strata, with the pole orders mathematics fixes.
OPE_CHEAP = [
    (["B2", "E[theta]", "F[theta]"], [1, 2]),
    (["A2", "E[1]", "E[2]"], [1]),
    (["A2", "H[1]", "H[1]"], [2]),
    (["A1", "T", "T"], [1, 2, 4]),
    (["B2", "beta[1]", "gamma[1]"], [1]),
    (["A2", "dphi[1]", "dphi[1]"], [2]),
]
OPE_MEDIUM = [
    (["B2", "E[1]", "F[1]"], [1, 2]),
    (["B2", "T", "E[1]"], [1, 2]),
    (["A3", "E[theta]", "F[theta]"], [1, 2]),
    (["B2", "Tfree", "s[1]"], [1, 2]),
    (["B2", "F[theta]", "s[1]"], [1, 2]),
]
ALL_SUITES = ["currents", "jacobi", "realization", "screening-first", "screening-second", "sugawara"]


class Builder:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.tasks = []
        self.expect = {}

    def add(self, op, verdict="pass", facts=None, canary=False, group=None, **args):
        """Queue a task; tasks sharing a group keep their relative order."""
        tid = len(self.tasks)
        self.tasks.append(({"id": tid, "op": op, **args}, tid if group is None else group))
        self.expect[tid] = {"verdict": verdict, "facts": facts or {}, "canary": canary}

    def job(self, setup):
        groups = list(dict.fromkeys(g for _, g in self.tasks))
        self.rng.shuffle(groups)
        rank = {g: i for i, g in enumerate(groups)}
        tasks = [t for t, g in sorted(self.tasks, key=lambda tg: rank[tg[1]])]
        return {"setup": setup, "tasks": tasks}, self.expect


def sweep(b: Builder, out_dir: str):
    with open(os.path.join(HERE, "pools.json"), encoding="utf-8") as fh:
        pools = json.load(fh)["sweep"]
    for alg, rows in pools.items():
        for i in range(0, len(rows), SWEEP_STRATUM):
            a, bb, _ = b.rng.choice(rows[i:i + SWEEP_STRATUM])
            b.add("check_pair", alg=alg, a=a, b=bb)
    # canary: e_{alpha_i} + beta_theta breaks its OPE with f_theta
    root = [0, 0, 0]
    root[b.rng.randrange(3)] = 1
    b.add("check_pair_perturbed", verdict="fail", canary=True, alg="A3",
          perturb=["e", root], beta=5, a=["e", root], b=["f", [1, 1, 1]])
    return [[alg, alg, "currents"] for alg in pools]


def series(b: Builder, out_dir: str):
    b.add("screening", alg="B2", kind="series")
    b.add("screening", alg="OSP22", kind="osp")
    b.add("naive", alg="B2", j=1)
    b.add("naive", alg="G2", j=b.rng.randrange(2))
    b.add("screening", alg="B2", kind="first", j=b.rng.randrange(2))
    b.add("screening", alg="B2", kind="second", j=0)
    for j in range(3):
        b.add("screening", alg="A3", kind="first", j=j)
        b.add("screening", alg="A3", kind="second", j=j)
    for j in (0, 1):
        b.add("screening", alg="G2", kind="first", j=j)
    b.add("wrong_witness", verdict="fail", canary=True, alg="B2",
          j=b.rng.randrange(2), pick=b.rng.randrange(3))
    return [[alg, alg, "currents"] for alg in ("B2", "A3", "G2", "OSP22")]


def realization(b: Builder, out_dir: str):
    setup = []
    for alg, (cartan, nonsimple) in REALIZATION_ALGEBRAS.items():
        signs = {root: b.rng.choice((-1, 1)) for root in nonsimple}
        path = os.path.join(out_dir, f"{alg}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": alg, "cartan_matrix": cartan, "extraspecial_signs": signs}, fh)
        setup.append([alg, os.path.relpath(path, os.path.dirname(HERE)), "polys"])
        b.add("jacobi", alg=alg, group=alg)
        b.add("diffops", alg=alg, group=alg, facts={"operators": ROOT_DATA[alg][1]})
        b.add("realization", alg=alg, group=alg)
    setup.append(["B2", "B2", "polys"])
    b.add("diffops", alg="B2", group="B2", facts={"operators": 10})
    b.add("realization", verdict="fail", canary=True, alg="B2", group="B2",
          scale=b.rng.choice(B2_LABELS))
    return setup


def cli(b: Builder, out_dir: str):
    """Commands run in the order listed: the peak RSS of a pass depends on it."""

    def add(argv, facts, canary=False):
        b.add("cli", group="cli", canary=canary, argv=argv, facts={"exit": 0, **facts})

    for alg in ("A1", "A2", "OSP22"):
        add(["verify", "--algebra", alg, "--suite", "all"], {"suites": {s: "pass" for s in ALL_SUITES}})
    for alg in ("B2", "G2"):
        dim = ROOT_DATA[alg][1]
        add(["realize", "--algebra", alg, "--format", "json"], {"currents": dim})
        add(["realize", "--algebra", alg, "--format", "latex"], {"lines": 2 * dim + 2})
    for (alg, left, right), poles in b.rng.sample(OPE_CHEAP, 2) + b.rng.sample(OPE_MEDIUM, 2):
        add(["ope", "--algebra", alg, left, right], {"poles": poles})
    add(["verify", "--algebra", "A3", "--suite", "currents", "--jobs", "2"],
        {"suites": {"currents": "pass"}})
    # canary: the naive second-kind current must show its third-order pole
    add(["verify", "--algebra", "B2", "--suite", "naive-second-kind"],
        {"third_order_pole_zero": False, "suites": {"naive-second-kind": "pass"}}, canary=True)
    return [[alg, alg, "currents"] for alg in ("A1", "A2", "B2", "G2", "A3", "OSP22")]


def build(workload: str, seed: int, out_dir: str):
    """(job, expected) for one workload and seed; job["trace"] is set by the caller."""
    b = Builder(seed)
    setup = globals()[workload](b, out_dir)
    return b.job(setup)
