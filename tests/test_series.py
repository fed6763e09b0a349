from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_one_form_terms, expand_power_levels_termwise, series_residual_rescan
from wakimoto.coeffs import Exp, RatFunc
from wakimoto.currents import build_wakimoto
from wakimoto.fields import GAMMA, FieldExpr, UnsupportedContraction, beta_kind, expand_power_levels, gamma_kind
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
    rs = cs.rs
    # C_n f(n) A^{n+1} B^{-2t-2n}  ==  C_n f(n-1)/rho(n-1) A^n B^{-2t-2n+2},
    # rho(n-1) = (-2t-2n+2)(-2t-2n+1) / 2n, divided one linear factor at a time
    f = RatFunc.n() + 5
    lhs = series_term(cs, f, a_off=1, b_off=0)
    t, n = RatFunc.t(rs.hvee), RatFunc.n()
    g = f.shift_n(-1) * 2 * n / (-2 * t - 2 * n + 2) / (-2 * t - 2 * n + 1)
    rhs = series_term(cs, g, a_off=0, b_off=2)
    assert lhs.equals(rhs, rs)
    assert not lhs.equals(rhs.scale(2), rs)


def test_shift_invertibility(setup):
    cs = setup
    s = series_term(cs, RatFunc.n() * RatFunc.k() + 7)
    shifted = SeriesExpr(s.body.shift_n(3).shift_n(-3))
    assert shifted.equals(s, cs.rs)


def test_copy_absorption(setup):
    cs = setup
    rs = cs.rs
    A, B = _b2_bases(cs)
    # :A_fields A^n B^e: == A^{n+1} B^e as series
    lhs = SeriesExpr(
        A * FieldExpr.power(A, Exp(0, 0, 1)) * FieldExpr.power(B, Exp(-2, 0, -2))
    )
    rhs = series_term(cs, RatFunc.one(), a_off=1, b_off=0)
    assert lhs.equals(rhs, rs)
    # and B-copies via level expansion
    lhs = SeriesExpr(
        B * FieldExpr.power(A, Exp(0, 0, 1)) * FieldExpr.power(B, Exp(-2, -1, -2))
    )
    rhs = series_term(cs, RatFunc.one(), a_off=0, b_off=0)
    assert lhs.equals(rhs, rs)


def test_weight_bookkeeping_is_n_independent(setup):
    cs = setup
    s = second_kind_b2(cs)
    w = s.expr.body.weight(cs.rs)
    # weight = 2n + (-2t-2n)*1 + (2t+1) = 1, free of n
    assert w == RatFunc.of(1)
    assert all(b == 0 for _, b in w.num.terms)


def test_residual_reporting(setup):
    cs = setup
    bad = series_term(cs, RatFunc.one(), extra=FieldExpr.prim(GAMMA, 0))
    res = bad.residual(cs.rs)
    assert not res.is_structurally_zero
    assert "gamma" in res.text(cs.rs)


def test_copy_absorption_raising_the_floor(setup):
    cs = setup
    rs = cs.rs
    A, B = _b2_bases(cs)
    # the rewrite removes every term at the B floor, so the promoted
    # A^{n+1} term stays at its own level: the residual is that term anchored
    lone = SeriesExpr(
        A * FieldExpr.power(A, Exp(0, 0, 1)) * FieldExpr.power(B, Exp(-2, 0, -2))
    )
    promoted = series_term(cs, RatFunc.one(), a_off=1, b_off=0)
    res = lone.residual(rs)
    assert res.terms == promoted.anchored(rs).body.terms
    assert len(res.terms) == 1


def test_absorption_orders_terms_with_equal_prims(setup):
    cs = setup
    rs = cs.rs
    A, B = _b2_bases(cs)
    An = FieldExpr.power(A, Exp(0, 0, 1))
    # two rewritable terms whose prims tie: the order falls through to the
    # power factors, whose Exp exponents have no `<`
    s = SeriesExpr(
        A * An * FieldExpr.power(B, Exp(-2, 0, -2)) + A * An * FieldExpr.power(B, Exp(-1, 0, -2))
    )
    assert not s.is_zero(rs)
    assert len(s.residual(rs).terms) == 2


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
    got = s.residual(cs.rs)
    assert got.terms == series_residual_rescan(cs.rs, s).terms
    assert_one_form_terms(got)


# larger sums grow residuals of hundreds of terms, which the reference
# re-expands on every rewrite
@settings(deadline=None, max_examples=20)
@given(_b2_sums(max_terms=3, max_offset=1, extras=4))
def test_series_residual_matches_rescan_reference(case):
    cs, body = case
    got = SeriesExpr(body).residual(cs.rs)
    want = series_residual_rescan(cs.rs, SeriesExpr(body))
    assert got.terms == want.terms
    assert got.text(cs.rs) == want.text(cs.rs)
    assert_one_form_terms(got)


def _found_sum(cs):
    """C_n[(n+1) :A A: A^(n+1) B^(-2t-2n+1) + (n+2) A A^(n-1) B^(-2t-2n)
    + (n+3) B A^(n+1) B^(-2t-2n-1)]: 603 rewrites, once past a cap of 500."""
    A, B = _b2_bases(cs)
    n = RatFunc.n()
    return SeriesExpr(
        (A * A).scale(n + 1) * FieldExpr.power(A, Exp(0, 1, 1)) * FieldExpr.power(B, Exp(-2, 1, -2))
        + A.scale(n + 2) * FieldExpr.power(A, Exp(0, -1, 1)) * FieldExpr.power(B, Exp(-2, 0, -2))
        + B.scale(n + 3) * FieldExpr.power(A, Exp(0, 1, 1)) * FieldExpr.power(B, Exp(-2, -1, -2))
    )


def test_long_copy_absorption_is_decided(setup):
    cs = setup
    s = _found_sum(cs)
    res = s.residual(cs.rs)
    assert len(res.terms) == 265
    assert_one_form_terms(res)
    # the residual is linear: twice the sum leaves twice the residual, term for term
    assert s.scale(2).residual(cs.rs).terms == res.scale(2).terms


def test_copy_absorption_refuses_a_base_sharing_the_pivot_primitive(setup):
    """The rewrite terminates because the pivot's greatest primitive, d(beta[theta])
    for A, lies in no other monomial of the anchor base and no other power base."""
    cs = setup
    rs = cs.rs
    A, B = _b2_bases(cs)
    ith = cs.rs.root_index(cs.rs.theta)
    dbeta = FieldExpr.prim(beta_kind(rs, ith), ith, 1)
    base = (FieldExpr.prim(gamma_kind(rs, 0), 0) + FieldExpr.prim(gamma_kind(rs, 0), 0, 1)) * dbeta
    shared = SeriesExpr(base * FieldExpr.power(base, Exp(0, 0, 1)) * FieldExpr.power(B, Exp(-2, 0, -2)))
    beside = series_term(cs, RatFunc.one(), extra=A * FieldExpr.power(dbeta, Exp(-1, 0, 0)))
    for s in (shared, beside):
        with pytest.raises(UnsupportedContraction):
            s.residual(rs)
