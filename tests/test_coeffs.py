from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakimoto.coeffs import Exp, Pol, RatFunc


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
