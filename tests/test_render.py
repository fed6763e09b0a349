import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wakimoto.coeffs import Exp, RatFunc
from wakimoto.currents import build_wakimoto
from wakimoto.diffop import build_differential_realization
from wakimoto.fields import BETA, GAMMA, PHI, FieldContext, FieldExpr, base_key_of
from wakimoto.liealg import build_root_system, build_structure_table
from wakimoto.polymat import realization_polynomials
from wakimoto.render import (
    diffop_to_json,
    fieldexpr_from_json,
    fieldexpr_to_json,
    latex_diffop,
    latex_fieldexpr,
    latex_ratfunc,
    ratfunc_from_json,
    ratfunc_to_json,
)


def b2_setup():
    rs = build_root_system("B2")
    tab = build_structure_table(rs)
    return rs, tab


def test_latex_ratfunc():
    k = RatFunc.k()
    assert latex_ratfunc(k + RatFunc.of(1) / 2) == "k+\\frac{1}{2}"
    assert latex_ratfunc(RatFunc.of(10) * k / (k + 3)) == "\\frac{10k}{(k+3)}"


def test_latex_diffop_matches_expected_form():
    rs, tab = b2_setup()
    ops = build_differential_realization(rs, tab, realization_polynomials(rs, tab))
    tex = latex_diffop(ops[("e", (1, 0))])
    assert tex == (
        "\\partial_{1}"
        "-\\frac{1}{2}x^{2}\\partial_{11}"
        "-\\frac{1}{6}x^{2}x^{2}\\partial_{\\theta}"
    )
    tex_h = latex_diffop(ops[("h", 1)])
    assert "\\Lambda_{2}" in tex_h and "2x^{1}\\partial_{1}" in tex_h


def test_latex_fieldexpr_screening():
    rs, tab = b2_setup()
    cs = build_wakimoto(rs, tab)
    from wakimoto.screening import second_kind_mult_one

    s = second_kind_mult_one(cs, 0)
    tex = latex_fieldexpr(s.expr, cs.ctx)
    assert "^{-t}" in tex and "\\beta_{1}" in tex and "e^{" in tex


def test_ratfunc_json_roundtrip():
    f = (RatFunc.k() * RatFunc.n() + 5) / (RatFunc.n() + 1) / (RatFunc.k() + 3)
    data = json.loads(json.dumps(ratfunc_to_json(f)))
    assert ratfunc_from_json(data) == f
    for power in (0, -1, 1.5):
        data["den"][0]["power"] = power
        with pytest.raises(ValueError, match="positive integer"):
            ratfunc_from_json(data)


def test_diffop_json_shape():
    rs, tab = b2_setup()
    ops = build_differential_realization(rs, tab, realization_polynomials(rs, tab))
    data = diffop_to_json(ops[("f", (1, 2))])
    assert set(data) == {"derivatives", "weights"}
    assert set(data["weights"]) == {"1", "2"}
    assert "theta" in data["derivatives"]


def test_a_zero_vertex_in_json_is_no_vertex():
    data = fieldexpr_to_json(FieldExpr.const(1))
    data["terms"][0]["vertex"] = [ratfunc_to_json(RatFunc.zero())] * 2
    assert fieldexpr_from_json(data) == FieldExpr.const(1)


# Small pools, so that drawn terms often share their factors and differ only
# in a power factor's base or in the vertex momentum.
_CTX = FieldContext.from_algebra(build_root_system("B2"))
_PRIMS = [(), ((GAMMA, 0, 0),), ((GAMMA, 1, 0), (BETA, 3, 1)), ((PHI, 0, 0),)]
_BASES = [
    base_key_of(FieldExpr.prim(GAMMA, 2)),
    base_key_of(FieldExpr.prim(BETA, 0) * FieldExpr.prim(GAMMA, 1) + FieldExpr.prim(PHI, 1, 0, 2)),
]
_PFS = [(), ((_BASES[0], Exp(-1, 0, 0)),), ((_BASES[1], Exp(-1, 0, 0)),), ((_BASES[1], Exp(0, 1, 1)),)]
_VERTICES = [None, (1, 0), (0, 1), (2, -1)]
_COEFS = [RatFunc.of(1), RatFunc.of(-1), RatFunc.of(3) / 2, RatFunc.k() + 1, RatFunc.of(-2) / RatFunc.t(3)]


def _raw_term(idx):
    prims, pfs, vertex, coef = idx
    mom = None if _VERTICES[vertex] is None else tuple(RatFunc.of(c) for c in _VERTICES[vertex])
    return (_COEFS[coef], _PRIMS[prims], _PFS[pfs], mom)


_term_indices = st.tuples(*(st.integers(0, len(pool) - 1) for pool in (_PRIMS, _PFS, _VERTICES, _COEFS)))
# two terms that differ only in a power factor's base; two that differ only in the vertex momentum
_TIED = [[(1, 1, 0, 0), (1, 2, 0, 1)], [(2, 0, 1, 2), (2, 0, 2, 3)]]


def _writers(expr):
    return expr.text(_CTX), latex_fieldexpr(expr, _CTX), json.dumps(fieldexpr_to_json(expr))


@settings(deadline=None, max_examples=60)
@given(st.lists(_term_indices, min_size=1, max_size=8, unique_by=lambda t: t[:3]), st.randoms())
@example(_TIED[0], None)
@example(_TIED[1], None)
def test_writers_do_not_depend_on_the_order_of_terms(indices, rnd):
    expr = FieldExpr._from_raw([_raw_term(i) for i in indices])
    items = list(expr.terms.items())
    orders = [items[::-1]]
    if rnd is not None:
        orders.append(rnd.sample(items, len(items)))
    want = _writers(expr)
    for order in orders:
        assert _writers(FieldExpr(dict(order))) == want
    back = fieldexpr_from_json(json.loads(want[2]))
    assert back.terms == expr.terms
    assert _writers(back) == want
