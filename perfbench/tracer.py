"""Out-of-process layer tracing for the wakimoto benchmark.

``install()`` replaces selected public functions and methods of the
``wakimoto`` modules with wrappers that record, per span name, the number
of calls, the inclusive time and the self time (inclusive time minus the
time spent in nested traced spans), plus a few work counters measured at
the same boundary.  Nothing under ``src/`` is modified: the wrappers are
installed on the imported module objects and on every module attribute
that refers to the same function, so ``from .ope import contract`` call
sites are traced as well.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# (module, attribute path, span name); the same span name may appear more
# than once to group several functions under one span.
SPANS = [
    ("coeffs", "RatFunc.__mul__", "coeffs.RatFunc.mul"),
    ("coeffs", "RatFunc.__rmul__", "coeffs.RatFunc.mul"),
    ("coeffs", "RatFunc.__add__", "coeffs.RatFunc.add"),
    ("coeffs", "RatFunc.__radd__", "coeffs.RatFunc.add"),
    ("coeffs", "RatFunc.__truediv__", "coeffs.RatFunc.truediv"),
    ("coeffs", "Pol.__mul__", "coeffs.Pol.mul"),
    ("ope", "contract", "ope.contract"),
    ("fields", "FieldExpr.__mul__", "fields.FieldExpr.mul"),
    ("fields", "FieldExpr.__add__", "fields.FieldExpr.add"),
    ("fields", "FieldExpr.derivative", "fields.FieldExpr.derivative"),
    ("fields", "FieldExpr.is_zero", "fields.FieldExpr.is_zero"),
    ("fields", "expand_power_levels", "fields.expand_power_levels"),
    ("series", "SeriesExpr.anchored", "series.SeriesExpr.anchored"),
    ("series", "SeriesExpr.is_zero", "series.SeriesExpr.is_zero"),
    ("currents", "build_wakimoto", "currents.build_wakimoto"),
    ("currents", "check_pair", "currents.check_pair"),
    ("currents", "sugawara_tensor", "currents.sugawara_tensor"),
    ("screening", "verify_screening", "screening.verify_screening"),
    ("screening", "first_kind", "screening.construct"),
    ("screening", "second_kind_mult_one", "screening.construct"),
    ("screening", "second_kind_b2", "screening.construct"),
    ("screening", "second_kind_osp22", "screening.construct"),
    ("liealg", "get_algebra", "liealg.get_algebra"),
    ("liealg", "verify_jacobi", "liealg.verify_jacobi"),
    ("polymat", "realization_polynomials", "polymat.realization_polynomials"),
    ("polymat", "Poly.__mul__", "polymat.Poly.mul"),
    ("diffop", "commutator", "diffop.commutator"),
    ("diffop", "verify_realization", "diffop.verify_realization"),
    ("render", "fieldexpr_to_json", "render.fieldexpr_to_json"),
    ("render", "latex_fieldexpr", "render.latex_fieldexpr"),
    ("cli", "run_suite", "cli.run_suite"),
    ("cli", "main", "cli.main"),
]

# Calls of ``expand_power_levels`` made from the series module (absorption
# iterations and zero tests) are counted under their own name as well.
CALLER_COUNTS = [("series", "expand_power_levels", "series.expand_power_levels")]

MODULES = [
    "coeffs", "liealg", "polymat", "diffop", "fields", "ope",
    "currents", "series", "screening", "render", "cli",
]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Aggregated spans; a stack of open spans gives the self times."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[float]] = []  # [child time] per open span

    def span(self, name: str, fn, counter=None):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame[0]
            if counter is not None:
                counter(stats.counters, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())

        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict:
        return {
            name: {
                "calls": s.calls,
                "total_s": s.total_s,
                "self_s": s.self_s,
                **s.counters,
            }
            for name, s in sorted(self.stats.items())
        }


def _bump(counters: dict, key: str, value: int) -> None:
    counters[key] = counters.get(key, 0) + value


def _count_const_mul(counters, args, out):
    """Both operands plain rationals (an int or Fraction operand is one)."""
    a, b = args
    b_const = b.is_rational if hasattr(b, "is_rational") else getattr(b, "is_const", True)
    if a.is_rational and b_const:
        _bump(counters, "const_calls", 1)


def _count_contract(counters, args, out):
    A, B = args[1], args[2]
    _bump(counters, "term_pairs", len(A.terms) * len(B.terms))
    poles = out.poles if hasattr(out, "poles") else out
    _bump(counters, "pole_terms_out", sum(len(v.terms) for v in poles.values()))


def _count_levels(counters, args, out):
    _bump(counters, "terms_in", len(args[0].terms))
    _bump(counters, "terms_out", len(out.terms))


COUNTERS = {
    "coeffs.RatFunc.mul": _count_const_mul,
    "ope.contract": _count_contract,
    "fields.expand_power_levels": _count_levels,
}


def install() -> Tracer:
    """Wrap the spans of ``SPANS`` in the ``wakimoto`` package; returns the tracer."""
    tracer = Tracer()
    mods = {m: importlib.import_module(f"wakimoto.{m}") for m in MODULES}
    replaced: dict[int, object] = {}
    for mod_name, path, span_name in SPANS:
        owner = mods[mod_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        counter = COUNTERS.get(span_name)
        if isinstance(raw, property):
            new = property(tracer.span(span_name, raw.fget, counter))
        else:
            new = tracer.span(span_name, raw, counter)
            replaced[id(raw)] = (raw, new)
        setattr(owner, attr, new)
    # rebind names imported into other modules (``from .ope import contract``)
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
    for mod_name, attr, name in CALLER_COUNTS:
        setattr(mods[mod_name], attr, tracer.count(name, getattr(mods[mod_name], attr)))
    return tracer
