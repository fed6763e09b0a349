"""The benchmark's tracer still finds every span it wraps.

``perfbench/tracer.py`` wraps functions by attribute path from outside the
package, so a rename under ``src/`` would break it silently.  ``install()``
patches the package for the life of the process, hence the subprocess.
"""

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
