"""LaTeX and JSON emitters (and the JSON parsers for round-tripping).

The LaTeX output follows the realization's usual typography: rational
coefficients as \\frac, derivative targets in the fixed positive-root order,
monomials in graded-lex order, so a generated realization can be diffed
against a printed one.  JSON encodings are versioned and structural:
parse(emit(x)) reproduces x exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .coeffs import Exp, Pol, RatFunc
from .diffop import DiffOp
from .fields import (
    PHI,
    FieldContext,
    FieldExpr,
    base_expr,
    base_key_of,
    term_order,
)
from .ope import OpeResult
from .polymat import Poly

SCHEMA_EXPR = "wakimoto/expr-v1"
SCHEMA_OPE = "wakimoto/ope-v1"
SCHEMA_REALIZATION = "wakimoto/realization-v1"
SCHEMA_REPORT = "wakimoto/report-v1"


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------

def _signed_sum(bits: list[str]) -> str:
    """Join summands that carry their own leading minus sign; "0" when empty."""
    if not bits:
        return "0"
    return bits[0] + "".join(b if b.startswith("-") else "+" + b for b in bits[1:])


def _frac(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    sign = "-" if f < 0 else ""
    return f"{sign}\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"


def latex_pol(p: Pol) -> str:
    bits = []
    for (ek, en), c in sorted(p.terms.items(), reverse=True):
        body = ""
        if ek:
            body += "k" if ek == 1 else f"k^{{{ek}}}"
        if en:
            body += "n" if en == 1 else f"n^{{{en}}}"
        if not body:
            piece = _frac(c)
        elif c == 1:
            piece = body
        elif c == -1:
            piece = "-" + body
        else:
            piece = _frac(c) + body
        bits.append(piece)
    return _signed_sum(bits)


def latex_ratfunc(c: RatFunc) -> str:
    num = latex_pol(c.num)
    if not c.den:
        return num
    den = "".join(
        f"({latex_pol(p)})" + (f"^{{{e}}}" if e > 1 else "") for p, e in c.den
    )
    return f"\\frac{{{num}}}{{{den}}}"


def _coef_prefix(c: RatFunc) -> str:
    s = latex_ratfunc(c)
    if s == "1":
        return ""
    if s == "-1":
        return "-"
    if "+" in s[1:] or ("-" in s[1:] and not s.startswith("\\frac")):
        return f"\\left({s}\\right)"
    return s


def _root_tex(name: str) -> str:
    return "\\theta" if name == "theta" else name


def latex_poly(p: Poly, names) -> str:
    bits = []
    for expo, c in p.sorted_terms():
        coef = RatFunc.of(c)
        mono = "".join(
            f"x^{{{_root_tex(names[i])}}}" * m for i, m in enumerate(expo)
        )
        pref = _coef_prefix(coef)
        piece = (pref + mono) if mono else latex_ratfunc(coef)
        bits.append(piece if piece else "1")
    return _signed_sum(bits)


def latex_diffop(op: DiffOp) -> str:
    names = [op.rs.root_name(a) for a in op.rs.pos_roots]
    slots = [f"\\partial_{{{_root_tex(name)}}}" for name in names]
    slots += [f"\\Lambda_{{{j + 1}}}" for j in range(op.rs.rank)]
    bits = []
    for p, slot in zip(op.coeffs, slots):
        if p.is_zero:
            continue
        body = latex_poly(p, names)
        if body in ("1", "-1"):
            body = body[:-1]
        elif "+" in body[1:] or "-" in body[1:]:
            body = f"\\left({body}\\right)"
        bits.append(body + slot)
    return _signed_sum(bits)


_TEX_KIND = {0: "\\gamma^{%s}", 1: "c^{%s}", 2: "b_{%s}", 3: "\\beta_{%s}"}


def latex_prim(prim, ctx: FieldContext) -> str:
    kind, label, deriv = prim
    d = "\\partial " * deriv
    if kind == PHI:
        return d + f"\\sqrt{{t}}\\,\\partial\\varphi_{{{label + 1}}}"
    name = _root_tex(ctx.root_names[label])
    return d + (_TEX_KIND[kind] % name)


def latex_fieldexpr(expr: FieldExpr, ctx: FieldContext) -> str:
    bits = []
    for term in sorted(expr.terms, key=term_order):
        (prims, pfs, vertex), coef = term, expr.terms[term]
        body = "".join(latex_prim(p, ctx) + "\\," for p in prims)
        for key, e in pfs:
            inner = latex_fieldexpr(base_expr(key), ctx)
            body += f"\\left({inner}\\right)^{{{e.text()}}}"
        if vertex is not None:
            comps = []
            for i, c in enumerate(vertex):
                if not c.is_zero:
                    comps.append(f"({latex_ratfunc(c)})\\varphi_{{{i + 1}}}")
            body += (
                ":\\!e^{\\frac{1}{\\sqrt{t}}\\left[" + "+".join(comps) + "\\right]}\\!:"
            )
        piece = _coef_prefix(coef) + (body if body else latex_ratfunc(coef))
        bits.append(piece)
    return _signed_sum(bits)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def ratfunc_to_json(c: RatFunc):
    return {
        "num": [[ek, en, str(v)] for (ek, en), v in sorted(c.num.terms.items())],
        "den": [
            {"factor": [[ek, en, str(v)] for (ek, en), v in sorted(p.terms.items())], "power": e}
            for p, e in c.den
        ],
    }


def _pol_from_json(data) -> Pol:
    return Pol({(ek, en): Fraction(v) for ek, en, v in data})


def ratfunc_from_json(data) -> RatFunc:
    den = [(_pol_from_json(d["factor"]), d["power"]) for d in data.get("den", [])]
    if any(type(e) is not int or e < 1 for _, e in den):
        raise ValueError("a denominator power must be a positive integer")
    return RatFunc._make(_pol_from_json(data["num"]), den)


def exp_to_json(e: Exp):
    return [str(e.u), str(e.v), str(e.w)]


def exp_from_json(data) -> Exp:
    return Exp(Fraction(data[0]), Fraction(data[1]), Fraction(data[2]))


def fieldexpr_to_json(expr: FieldExpr):
    terms = []
    for term in sorted(expr.terms, key=term_order):
        (prims, pfs, vertex), coef = term, expr.terms[term]
        entry = {
            "coef": ratfunc_to_json(coef),
            "factors": [list(p) for p in prims],
        }
        if pfs:
            entry["powers"] = [
                {
                    "base": [
                        {"factors": [list(p) for p in bp], "coef": ratfunc_to_json(bc)}
                        for bp, bc in key
                    ],
                    "exp": exp_to_json(e),
                }
                for key, e in pfs
            ]
        if vertex is not None:
            entry["vertex"] = [ratfunc_to_json(c) for c in vertex]
        terms.append(entry)
    return {"schema": SCHEMA_EXPR, "terms": terms}


def _prims_from_json(data) -> tuple:
    return tuple(tuple(p) for p in data)


def fieldexpr_from_json(data) -> FieldExpr:
    raw = []
    for entry in data["terms"]:
        pfs = []
        for pw in entry.get("powers", []):
            base = FieldExpr._from_raw(
                [(ratfunc_from_json(b["coef"]), _prims_from_json(b["factors"]), (), None) for b in pw["base"]]
            )
            pfs.append((base_key_of(base), exp_from_json(pw["exp"])))
        # an all-zero momentum is no vertex, as in ``FieldExpr.vertex``
        vertex = tuple(ratfunc_from_json(c) for c in entry.get("vertex", ()))
        if all(c.is_zero for c in vertex):
            vertex = None
        raw.append((ratfunc_from_json(entry["coef"]), _prims_from_json(entry["factors"]), tuple(pfs), vertex))
    return FieldExpr._from_raw(raw)


def ope_to_json(res: OpeResult, ctx: Optional[FieldContext] = None):
    poles = {}
    for q in res.nonzero_orders():
        poles[str(q)] = fieldexpr_to_json(res.order(q))
        if ctx is not None:
            poles[str(q)]["text"] = res.order(q).text(ctx)
    return {"schema": SCHEMA_OPE, "poles": poles}


def ope_from_json(data) -> OpeResult:
    return OpeResult(
        {int(q): fieldexpr_from_json(v) for q, v in data["poles"].items()}
    )


def poly_to_json(p: Poly):
    return [
        {"expo": list(expo), "coef": ratfunc_to_json(RatFunc.of(c))} for expo, c in p.sorted_terms()
    ]


def diffop_to_json(op: DiffOp):
    names = [op.rs.root_name(a) for a in op.rs.pos_roots]
    return {
        "derivatives": {
            names[b]: poly_to_json(p) for b, p in enumerate(op.dpart) if not p.is_zero
        },
        "weights": {
            str(j + 1): poly_to_json(p) for j, p in enumerate(op.lpart) if not p.is_zero
        },
    }
