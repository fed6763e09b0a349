"""The benchmark still finds every span it wraps and every call it makes.

``perfbench/tracer.py`` wraps functions by attribute path from outside the
package, and ``perfbench/worker.py`` calls the package's functions by name
and position, so a rename or a changed signature under ``src/`` would break
either silently.  ``install()`` patches the package for the life of the
process, and a worker pass is a fresh process, hence the subprocesses.
"""

import ast
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import tracer
from wakimoto.coeffs import Pol
from wakimoto.polymat import Poly

t = tracer.install()
Poly.var(2, 0) * Poly.var(2, 1)
Pol.k() * Pol.n()
spans = t.report()
assert set(spans) >= {name for _, _, name in tracer.SPANS}, sorted(spans)
# Pol and Poly share one multiplication but keep separate spans
assert spans["polymat.Poly.mul"]["calls"] == 1, spans["polymat.Poly.mul"]
assert spans["coeffs.Pol.mul"]["calls"] == 1, spans["coeffs.Pol.mul"]
"""


def test_tracer_install_resolves_every_span():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr


# One task per worker op on A1, B2 and OSP22 currents and B2 polynomials,
# with the verdict each must give: the three planted defects (a perturbed
# current, a scaled witness, a scaled operator) fail, every other task passes.
WORKER_JOB = {
    "trace": 0,
    "setup": [["A1", "A1", "currents"], ["B2", "B2", "currents"], ["OSP22", "OSP22", "currents"],
              ["B2p", "B2", "polys"]],
    "tasks": [
        ({"op": "check_pair", "alg": "A1", "a": ["e", [1]], "b": ["f", [1]]}, "pass"),
        ({"op": "check_pair", "alg": "OSP22", "a": ["e", [0, 1]], "b": ["f", [0, 1]]}, "pass"),
        ({"op": "check_pair_perturbed", "alg": "B2", "perturb": ["e", [1, 0]], "beta": 3,
          "a": ["e", [1, 0]], "b": ["f", [1, 2]]}, "fail"),
        ({"op": "screening", "alg": "B2", "kind": "first", "j": 0}, "pass"),
        ({"op": "screening", "alg": "OSP22", "kind": "osp"}, "pass"),
        ({"op": "wrong_witness", "alg": "B2", "j": 0, "pick": 0}, "fail"),
        ({"op": "naive", "alg": "B2", "j": 1}, "pass"),
        ({"op": "jacobi", "alg": "B2p"}, "pass"),
        ({"op": "diffops", "alg": "B2p"}, "pass"),
        ({"op": "realization", "alg": "B2p"}, "pass"),
        ({"op": "realization", "alg": "B2p", "scale": ["e", [1, 0]]}, "fail"),
        ({"op": "cli", "argv": ["verify", "--algebra", "A1", "--suite", "jacobi"]}, "pass"),
    ],
}


def test_worker_runs_every_op_with_its_known_verdict():
    """A job on stdin, as ``perfbench/run.py`` sends it: every op runs without
    an error and gives its verdict, and set-up reproduces the root data."""
    tasks = [{"id": i, **task} for i, (task, _) in enumerate(WORKER_JOB["tasks"])]
    job = {**WORKER_JOB, "tasks": tasks}
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py")], input=json.dumps(job),
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["setup_facts"] == {"A1": [1, 3, 2], "B2": [4, 10, 3], "OSP22": [3, 8, 1], "B2p": [4, 10, 3]}
    assert {t["op"] for t in tasks} == _worker_ops()
    got = [(r["id"], r["verdict"], r["error"], r["checks"] > 0) for r in out["results"]]
    assert got == [(i, verdict, None, True) for i, (_, verdict) in enumerate(WORKER_JOB["tasks"])]


def _worker_ops() -> set:
    """The names of ``Session``'s task methods in ``perfbench/worker.py``."""
    with open(os.path.join(ROOT, "perfbench", "worker.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    session = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Session")
    return {f.name for f in session.body if isinstance(f, ast.FunctionDef)} - {"__init__", "setup"}
