from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ratfunc_values, ratfuncs_equal_by_evaluation
from wakimoto.coeffs import Exp, Pol, RatFunc
from wakimoto.fields import BETA, GAMMA, FieldExpr
from wakimoto.polymat import Poly


def test_pol_ring_basics():
    k = Pol.k()
    n = Pol.n()
    p = (k + n) * (k - n)
    assert p == k * k - n * n
    assert (p - p).is_zero
    assert Pol.const(0).is_zero


def test_pol_exact_division():
    k = Pol.k()
    n = Pol.n()
    p = (k + Pol.const(1)) * (n + Pol.const(2)) * (n + Pol.const(2))
    q = p.divide_exact(n + Pol.const(2))
    assert q == (k + Pol.const(1)) * (n + Pol.const(2))
    assert p.divide_exact(n + Pol.const(3)) is None


def test_pol_shift_n_roundtrip():
    p = Pol.k() * Pol.n() ** 3 + Pol.n() + Pol.const(7)
    assert p.shift_n(2).shift_n(-2) == p


def test_ratfunc_reduction_and_equality():
    k = RatFunc.k()
    n = RatFunc.n()
    a = (k + 1) * (n + 1) / (n + 1)
    assert a == k + 1
    # same value built along two different routes
    b = (k * k - 1) / (k - 1)
    assert b == k + 1
    assert (a - b).is_zero


def test_ratfunc_add_with_denominators():
    t = RatFunc.t(3)
    x = RatFunc.one() / t + RatFunc.one()
    assert x * t == t + 1


def test_ratfunc_substitutions():
    k = RatFunc.k()
    n = RatFunc.n()
    f = (k + 2 * n) / (n + 1)
    assert f.subs_k(Fraction(3)).subs_n(1) == Fraction(5, 2)
    g = f.shift_n(1)
    assert g == (k + 2 * n + 2) / (n + 2)
    with pytest.raises(ZeroDivisionError):
        f.subs_n(-1)


def test_exp_affine():
    e = Exp(-2, 0, -2)  # -2t - 2n
    assert e.shift_n(1) == Exp(-2, -2, -2)
    assert (e + 1) == Exp(-2, 1, -2)
    assert e.as_ratfunc(hvee=3) == -2 * (RatFunc.k() + 3) - 2 * RatFunc.n()
    assert Exp(0, 3, 0).subs_t(Fraction(1)) == 3
    assert e.subs_t(Fraction(1)) is None
    assert Exp(-1, 0, 0).subs_t(Fraction(-3)) == 3


_small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_pols = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _small, max_size=3
).map(lambda d: Pol({m: c for m, c in d.items() if c}))
_factors = st.sampled_from(
    [Pol.k() + Pol.const(3), Pol.n() + Pol.const(1), Pol.k().scale(2) + Pol.n(), Pol.k() - Pol.n()]
)
_ratfuncs = st.builds(
    RatFunc._make, _pols, st.lists(st.tuples(_factors, st.integers(1, 2)), max_size=2)
)


@settings(deadline=None)
@given(_ratfuncs, _small.filter(bool))
def test_constant_product_matches_general_path(x, c):
    """The constant short cut in RatFunc.__mul__ gives exactly _make's form."""
    cr = RatFunc.of(c)
    want = RatFunc._make(x.num * cr.num, x.den + cr.den)
    for got in (x * cr, cr * x, x * c, c * x):
        assert got == want and hash(got) == hash(want)
        assert got.num.terms == want.num.terms
        assert got.den == want.den
    assert x * 1 == x and (x * 1).den == x.den and (1 * x).num.terms == x.num.terms


# -- canonical form -----------------------------------------------------------

_lin_coef = st.sampled_from([Fraction(c) for c in (-2, -1, 0, 1, 2)] + [Fraction(1, 2)])
_linear = st.builds(
    lambda a, b, c: Pol({m: v for m, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v}),
    _lin_coef,
    _lin_coef,
    st.sampled_from([Fraction(c) for c in (-1, 0, 1, 3)] + [Fraction(5, 2)]),
).filter(lambda p: not p.is_const)
_built = st.recursive(
    st.one_of(_small.map(RatFunc.of), _linear.map(RatFunc.of)),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda ab: ab[0] + ab[1]),
        st.tuples(kids, kids).map(lambda ab: ab[0] - ab[1]),
        st.tuples(kids, kids).map(lambda ab: ab[0] * ab[1]),
        st.tuples(kids, _linear).map(lambda ap: ap[0] / ap[1]),
    ),
    max_leaves=6,
)


def _assert_canonical(x):
    again = RatFunc._make(x.num, x.den)
    assert again.num.terms == x.num.terms and again.den == x.den
    keys = [p.frozen() for p, _ in x.den]
    assert keys == sorted(set(keys))
    for p, e in x.den:
        assert e > 0 and p.leading_coeff() == 1
        assert not p.is_const and all(a + b <= 1 for a, b in p.terms)
        assert x.num.divide_exact(p) is None


@settings(deadline=None, max_examples=150)
@given(_built, _built, _linear)
def test_ratfunc_equality_matches_evaluation(x, y, lin):
    """Arithmetic agrees with pointwise evaluation, == with the oracle, and
    equal values hash equal, whatever route built them."""
    for z in (x, y):
        _assert_canonical(z)
    for a, b in ((x, y), (x + y, y + x), (x * y, y * x), ((x + y) * lin, x * lin + y * lin),
                 (x / lin * lin, x), (x - y + y, x), (x * lin / lin, x)):
        _assert_canonical(a)
        same = ratfuncs_equal_by_evaluation(a, b)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b) and a.key() == b.key()
    for got, op in ((x + y, Fraction.__add__), (x - y, Fraction.__sub__), (x * y, Fraction.__mul__)):
        for g, u, v in zip(ratfunc_values(got), ratfunc_values(x), ratfunc_values(y)):
            if None not in (g, u, v):
                assert g == op(u, v)


def test_partial_fractions_hash_equal():
    k = RatFunc.k()
    a = 1 / k + 1 / (k + 1)
    b = (2 * k + 1) / k / (k + 1)
    assert a == b and hash(a) == hash(b)
    assert (k * k + k) / k / k / (k + 1) == 1 / k


def test_division_by_nonlinear_factor_raises():
    k = RatFunc.k()
    with pytest.raises(ValueError, match="not linear"):
        RatFunc.one() / (k * k + k)


def test_power_factor_order_sees_coefficient_denominators():
    """Bases that differ only in a coefficient's denominator sort apart."""
    k = RatFunc.k()
    bases = [
        FieldExpr.prim(BETA, 0) + FieldExpr.prim(GAMMA, 0, coef=1 / (k + c)) for c in (0, 1)
    ]
    P1, P2 = (FieldExpr.power(b, Exp(-1, 0, 0)) for b in bases)
    assert P1 * P2 == P2 * P1
    assert (P1 * P2 - P2 * P1).is_structurally_zero


def test_equal_polys_hash_equal():
    h = Fraction(1, 2)
    a = Poly.var(2, 0, h + Fraction(1, 3)) + Poly.const(2, Fraction(6, 4) - 1)
    b = Poly.const(2, h) + Poly.var(2, 0, Fraction(5, 6))  # other insertion order
    assert a == b and hash(a) == hash(b)
    assert a != b + Poly.const(2, 1)
