from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expand_power_levels_termwise, series_residual_rescan
from wakimoto.coeffs import Exp, RatFunc
from wakimoto.currents import build_wakimoto
from wakimoto.fields import GAMMA, FieldExpr, expand_power_levels
from wakimoto.liealg import build_root_system, build_structure_table
from wakimoto.screening import _b2_bases, second_kind_b2
from wakimoto.series import SeriesExpr


@pytest.fixture(scope="module")
def setup():
    return _b2()


def series_term(cs, coef, a_off=0, b_off=0, extra=None):
    A, B = _b2_bases(cs)
    body = FieldExpr.power(A, Exp(0, a_off, 1)) * FieldExpr.power(
        B, Exp(-2, b_off, -2)
    )
    if extra is not None:
        body = extra * body
    return SeriesExpr(body.scale(coef))


def test_anchoring_applies_recursion(setup):
    cs = setup
    ctx = cs.ctx
    # C_n f(n) A^{n+1} B^{-2t-2n}  ==  C_n f(n-1)/rho(n-1) A^n B^{-2t-2n+2},
    # rho(n-1) = (-2t-2n+2)(-2t-2n+1) / 2n, divided one linear factor at a time
    f = RatFunc.n() + 5
    lhs = series_term(cs, f, a_off=1, b_off=0)
    t, n = RatFunc.t(ctx.hvee), RatFunc.n()
    g = f.shift_n(-1) * 2 * n / (-2 * t - 2 * n + 2) / (-2 * t - 2 * n + 1)
    rhs = series_term(cs, g, a_off=0, b_off=2)
    assert lhs.equals(rhs, ctx)
    assert not lhs.equals(rhs.scale(2), ctx)


def test_shift_invertibility(setup):
    cs = setup
    s = series_term(cs, RatFunc.n() * RatFunc.k() + 7)
    shifted = SeriesExpr(s.body.shift_n(3).shift_n(-3))
    assert shifted.equals(s, cs.ctx)


def test_copy_absorption(setup):
    cs = setup
    ctx = cs.ctx
    A, B = _b2_bases(cs)
    # :A_fields A^n B^e: == A^{n+1} B^e as series
    lhs = SeriesExpr(
        A * FieldExpr.power(A, Exp(0, 0, 1)) * FieldExpr.power(B, Exp(-2, 0, -2))
    )
    rhs = series_term(cs, RatFunc.one(), a_off=1, b_off=0)
    assert lhs.equals(rhs, ctx)
    # and B-copies via level expansion
    lhs = SeriesExpr(
        B * FieldExpr.power(A, Exp(0, 0, 1)) * FieldExpr.power(B, Exp(-2, -1, -2))
    )
    rhs = series_term(cs, RatFunc.one(), a_off=0, b_off=0)
    assert lhs.equals(rhs, ctx)


def test_weight_bookkeeping_is_n_independent(setup):
    cs = setup
    s = second_kind_b2(cs)
    w = s.expr.body.weight(cs.ctx)
    # weight = 2n + (-2t-2n)*1 + (2t+1) = 1, free of n
    assert w == RatFunc.of(1)
    assert all(b == 0 for _, b in w.num.terms)


def test_residual_reporting(setup):
    cs = setup
    bad = series_term(cs, RatFunc.one(), extra=FieldExpr.prim(GAMMA, 0))
    res = bad.residual(cs.ctx)
    assert not res.is_structurally_zero
    assert "gamma" in res.text(cs.ctx)


def test_copy_absorption_raising_the_floor(setup):
    cs = setup
    ctx = cs.ctx
    A, B = _b2_bases(cs)
    # the rewrite removes every term at the B floor, so the promoted
    # A^{n+1} term stays at its own level: the residual is that term anchored
    lone = SeriesExpr(
        A * FieldExpr.power(A, Exp(0, 0, 1)) * FieldExpr.power(B, Exp(-2, 0, -2))
    )
    promoted = series_term(cs, RatFunc.one(), a_off=1, b_off=0)
    res = lone.residual(ctx)
    assert res.terms == promoted.anchored(ctx).body.terms
    assert len(res.terms) == 1


def test_absorption_orders_terms_with_equal_prims(setup):
    cs = setup
    ctx = cs.ctx
    A, B = _b2_bases(cs)
    An = FieldExpr.power(A, Exp(0, 0, 1))
    # two rewritable terms whose prims tie: the order falls through to the
    # power factors, whose Exp exponents have no `<`
    s = SeriesExpr(
        A * An * FieldExpr.power(B, Exp(-2, 0, -2)) + A * An * FieldExpr.power(B, Exp(-1, 0, -2))
    )
    assert not s.is_zero(ctx)
    assert len(s.residual(ctx).terms) == 2


_small = st.integers(-3, 3)


@st.composite
def _coefs(draw):
    c = RatFunc.of(draw(_small)) + RatFunc.k() * draw(_small) + RatFunc.n() * draw(_small)
    if draw(st.booleans()):
        c = c / (RatFunc.n() + draw(st.integers(1, 3)))
    return c


@st.composite
def _b2_sums(draw, max_terms, max_offset, extras):
    """Sums of C_n c(k, n) extra A^(n+a) B^(-2t-2n+b) with random a, b."""
    cs = _b2()
    A, B = _b2_bases(cs)
    pool = [FieldExpr.const(1), A, B, FieldExpr.prim(GAMMA, 0), A * A][:extras]
    offsets = st.integers(-max_offset, max_offset)
    body = FieldExpr.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        extra = pool[draw(st.integers(0, len(pool) - 1))]
        term = series_term(cs, draw(_coefs()), draw(offsets), draw(offsets), extra)
        body = body + term.body
    return cs, body


@cache
def _b2():
    rs = build_root_system("B2")
    return build_wakimoto(rs, build_structure_table(rs))


@settings(deadline=None, max_examples=40)
@given(_b2_sums(max_terms=4, max_offset=2, extras=5))
def test_level_expansion_matches_termwise_reference(case):
    _, body = case
    assert expand_power_levels(body).terms == expand_power_levels_termwise(body).terms


@pytest.mark.parametrize("a_off, b_off", [(0, 0), (1, -1)])
def test_double_copy_residual_matches_rescan_reference(setup, a_off, b_off):
    # rewriting one bare copy of A leaves the other in the new terms, which
    # must be rewritten in turn
    cs = setup
    A, _ = _b2_bases(cs)
    s = series_term(cs, RatFunc.n() + 1, a_off, b_off, A * A)
    got = s.residual(cs.ctx)
    assert got.terms == series_residual_rescan(cs.ctx, s).terms


# larger sums grow residuals of hundreds of terms, which the reference
# re-expands on every rewrite
@settings(deadline=None, max_examples=20)
@given(_b2_sums(max_terms=3, max_offset=1, extras=4))
def test_series_residual_matches_rescan_reference(case):
    cs, body = case
    got = SeriesExpr(body).residual(cs.ctx)
    want = series_residual_rescan(cs.ctx, SeriesExpr(body))
    assert got.terms == want.terms
    assert got.text(cs.ctx) == want.text(cs.ctx)
