"""One benchmark pass: set up, run a task list, report times and verdicts.

Reads a JSON job from stdin, prints one JSON object to stdout.  The job
names the algebras to set up and the tasks to run; it carries no expected
answers (the parent compares verdicts against those).  Run by ``run.py``
as a fresh process per pass, from the root of a checkout:

    python3 perfbench/worker.py < job.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def label(spec):
    """JSON ["e", [1, 0]] / ["h", 0] -> structure-table label."""
    kind, arg = spec
    return (kind, tuple(arg)) if isinstance(arg, list) else (kind, arg)


def pair_checks(tab, a, b) -> int:
    """Pole orders a pair's verdict compares: the expected ones plus "nothing else"."""
    return 1 + bool(tab.kappa_of(a, b)) + bool(tab.bracket(a, b))


class Session:
    """The algebras a pass set up, and the tasks that run against them."""

    def __init__(self, job):
        self.job = job
        self.cs = {}
        self.alg = {}
        self.polys = {}
        self.ops = {}

    # -- set-up --------------------------------------------------------------

    def setup(self):
        from wakimoto.currents import build_wakimoto, osp22_currents
        from wakimoto.liealg import get_algebra
        from wakimoto.polymat import realization_polynomials

        facts = {}
        for name, selector, build in self.job["setup"]:
            if build == "currents":
                cs = osp22_currents() if selector == "OSP22" else build_wakimoto(*get_algebra(selector))
                self.cs[name] = cs
                rs = cs.rs
            else:
                rs, tab = get_algebra(selector)
                self.alg[name] = (rs, tab)
                self.polys[name] = realization_polynomials(rs, tab)
            facts[name] = [rs.n_pos, rs.dim, rs.hvee]
        return facts

    # -- tasks -----------------------------------------------------------------
    # Each returns (verdict, checks, facts): verdict "pass" or "fail", the
    # number of comparisons the verdict rests on, and task-specific facts.

    def check_pair(self, t):
        from wakimoto.currents import check_pair

        cs = self.cs[t["alg"]]
        a, b = label(t["a"]), label(t["b"])
        bad = check_pair(cs, a, b)
        return ("fail" if bad else "pass"), pair_checks(cs.tab, a, b), {}

    def check_pair_perturbed(self, t):
        """The sweep run on a current set with one current altered."""
        from wakimoto.currents import CurrentSet, check_pair
        from wakimoto.fields import BETA, FieldExpr

        cs = self.cs[t["alg"]]
        lab = label(t["perturb"])
        broken = dict(cs.currents)
        broken[lab] = broken[lab] + FieldExpr.prim(BETA, t["beta"])
        cs2 = CurrentSet(cs.rs, cs.tab, cs.ctx, broken, cs.polys)
        a, b = label(t["a"]), label(t["b"])
        bad = check_pair(cs2, a, b)
        return ("fail" if bad else "pass"), pair_checks(cs.tab, a, b), {}

    def screening(self, t):
        from wakimoto import screening as S

        cs = self.cs[t["alg"]]
        kind = t["kind"]
        if kind == "first":
            rep = S.verify_first_kind(cs, S.first_kind(cs, t["j"]))
        elif kind == "second":
            rep = S.verify_second_kind_mult_one(cs, S.second_kind_mult_one(cs, t["j"]))
        elif kind == "series":
            rep = S.verify_second_kind_b2(cs, S.second_kind_b2(cs))
        elif kind == "osp":
            rep = S.verify_second_kind_osp22(cs, S.second_kind_osp22(cs))
        else:
            raise ValueError(f"unknown screening kind {kind!r}")
        return ("pass" if rep.ok else "fail"), len(rep.checks), {}

    def wrong_witness(self, t):
        """First-kind contract checked against one witness scaled by 2."""
        from wakimoto import screening as S

        cs = self.cs[t["alg"]]
        s = S.first_kind(cs, t["j"])
        wit = {}
        for a, alpha in enumerate(cs.rs.pos_roots):
            w = S.first_kind_witness(cs, s, a)
            if not w.is_structurally_zero:
                wit[("f", alpha)] = w
        key = sorted(wit)[t["pick"] % len(wit)]
        wit[key] = wit[key].scale(2)
        rep = S.verify_screening(cs, s, wit)
        return ("pass" if rep.ok else "fail"), len(rep.checks), {}

    def naive(self, t):
        from wakimoto.screening import naive_second_kind_failure

        fail = naive_second_kind_failure(self.cs[t["alg"]], t["j"])
        ok = fail.nonvanishing and fail.matches_expected_shape
        return ("pass" if ok else "fail"), 2, {}

    def jacobi(self, t):
        from wakimoto.liealg import verify_jacobi

        rs, tab = self.alg[t["alg"]]
        bad = verify_jacobi(tab)
        return ("fail" if bad else "pass"), rs.dim ** 3, {}

    def diffops(self, t):
        from wakimoto.diffop import build_differential_realization

        rs, tab = self.alg[t["alg"]]
        ops = build_differential_realization(rs, tab, self.polys[t["alg"]])
        self.ops[t["alg"]] = ops
        return ("pass" if len(ops) == rs.dim else "fail"), 1, {"operators": len(ops)}

    def realization(self, t):
        from wakimoto.diffop import verify_realization

        rs, tab = self.alg[t["alg"]]
        ops = dict(self.ops[t["alg"]])
        if "scale" in t:
            lab = label(t["scale"])
            ops[lab] = ops[lab].scale(2)
        bad = verify_realization(ops, tab)
        return ("fail" if bad else "pass"), len(ops) ** 2, {}

    def cli(self, t):
        from wakimoto.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(t["argv"])
        text = out.getvalue()
        facts = {"exit": code}
        fmt = t["argv"][t["argv"].index("--format") + 1] if "--format" in t["argv"] else "json"
        checks = 0
        if t["argv"][0] == "verify":
            suites = json.loads(text)["suites"]
            facts["suites"] = {k: v["status"] for k, v in sorted(suites.items())}
            checks = sum(1 for v in suites.values() if v["status"] == "pass" and "skipped" not in v["details"])
            naive = suites.get("naive-second-kind")
            if naive is not None:
                facts["third_order_pole_zero"] = naive["details"]["third_order_pole"] == "0"
        elif t["argv"][0] == "realize" and fmt == "json":
            data = json.loads(text)
            facts["currents"] = len(data["currents"])
            checks = len(data["currents"])
        elif t["argv"][0] == "realize":
            checks = facts["lines"] = len(text.splitlines())
        elif t["argv"][0] == "ope":
            data = json.loads(text)
            facts["poles"] = sorted(int(q) for q in data["poles"])
            checks = 1
        verdict = "pass" if code == 0 else "fail"
        return verdict, checks, facts


# The host's speed drifts by up to 1.8x over seconds to minutes (other
# tenants share the cores).  A fixed reference kernel, run between tasks,
# measures that speed so run.py can put pass times on a common scale.  It
# never calls the package, so no change to the package can move it.
REF_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(12)}
REF_FACTOR = list(REF_TERMS.items())[:30]
REF_EVERY_S = 1.0


def reference_slice() -> list[float]:
    """[start, duration] of three sparse products of Fraction polynomials in dicts."""
    start = time.perf_counter()
    for _ in range(3):
        out = {}
        for (a1, b1), c1 in REF_TERMS.items():
            for (a2, b2), c2 in REF_FACTOR:
                m = (a1 + a2, b1 + b2)
                out[m] = out.get(m, 0) + c1 * c2
    return [start, time.perf_counter() - start]


def main() -> int:
    job = json.load(sys.stdin)
    refs = [reference_slice()]
    t_setup = time.perf_counter()
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    import wakimoto.cli  # noqa: F401  (the whole package, timed as set-up)

    session = Session(job)
    setup_facts = session.setup()
    setup = [t_setup, time.perf_counter() - t_setup]
    refs.append(reference_slice())
    last_ref = time.perf_counter()
    results = []
    for task in job["tasks"]:
        fn = getattr(session, task["op"])
        start = time.perf_counter()
        try:
            verdict, checks, facts = fn(task)
            error = None
        except Exception as exc:  # a task that raises is a failed operation
            verdict, checks, facts, error = "error", 0, {}, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        results.append(
            {"id": task["id"], "t0": start, "s": end - start, "verdict": verdict,
             "checks": checks, "facts": facts, "error": error}
        )
        if end - last_ref >= REF_EVERY_S:
            refs.append(reference_slice())
            last_ref = time.perf_counter()
    refs.append(reference_slice())
    out = {
        "setup": setup,
        "refs": refs,
        "setup_facts": setup_facts,
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer is not None else None,
    }
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
