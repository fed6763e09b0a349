from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FracPol,
    add_reference,
    assert_canonical_coefficients,
    divide_exact,
    make_reference,
    mul_reference,
    ratfunc_value,
    ratfunc_values,
    ratfuncs_equal_by_evaluation,
)
from wakimoto.coeffs import Exp, Pol, RatFunc, _cancel, _divide_linear, canonical
from wakimoto.fields import BETA, GAMMA, FieldExpr, base_key_of
from wakimoto.liealg import build_root_system
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
    f = n + Pol.const(2)
    p = (k + Pol.const(1)) * f * f
    assert _cancel(p, ((f, 1),)) == ((k + Pol.const(1)) * f, ())
    assert _cancel(p, ((f, 3),)) == (k + Pol.const(1), ((f, 1),))
    g = n + Pol.const(3)
    assert _cancel(p, ((g, 1),)) == (p, ((g, 1),))
    assert _cancel(p, ((k + n + Pol.const(1), 1), (f, 2))) == (k + Pol.const(1), ((k + n + Pol.const(1), 1),))


def test_pol_shift_n_roundtrip():
    p = Pol.k() * Pol.n() ** 3 + Pol.n() + Pol.const(7)
    assert p.shift_n(2).shift_n(-2) == p


def test_pol_negative_power_raises():
    """A negative power is not a polynomial: refused, not silently 1."""
    assert Pol.k() ** 0 == Pol.const(1) and Pol.k() ** 3 == Pol.k(3)
    with pytest.raises(ValueError, match="negative"):
        Pol.k() ** -1


def test_pol_non_int_power_raises():
    with pytest.raises(TypeError, match="not an int"):
        Pol.k() ** Fraction(2)
    with pytest.raises(TypeError, match="not an int"):
        Pol.n() ** 2.0


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


def test_floats_are_refused():
    """A float is inexact: the kernel refuses it instead of storing its binary fraction."""
    with pytest.raises(TypeError, match="inexact"):
        Pol.const(0.1)
    with pytest.raises(TypeError, match="inexact"):
        Pol.k().scale(1 / 3)
    with pytest.raises(TypeError, match="inexact"):
        Exp(0.5)
    with pytest.raises(TypeError, match="inexact"):
        Exp(1, 0, 0).subs_t(0.1)
    rs = build_root_system("A1")
    with pytest.raises(TypeError, match="inexact"):
        FieldExpr.prim(BETA, 0).subs_t(rs, 0.1)


def test_exp_affine():
    e = Exp(-2, 0, -2)  # -2t - 2n
    assert e.shift_n(1) == Exp(-2, -2, -2)
    assert (e + 1) == Exp(-2, 1, -2)
    assert e.as_ratfunc(hvee=3) == -2 * (RatFunc.k() + 3) - 2 * RatFunc.n()
    assert Exp(0, 3, 0).subs_t(Fraction(1)) == 3
    assert e.subs_t(Fraction(1)) is None
    assert Exp(-1, 0, 0).subs_t(Fraction(-3)) == 3


# in the canonical form of stored coefficients: integral values are ints
_small = st.fractions(min_value=-5, max_value=5, max_denominator=4).map(
    lambda c: c.numerator if c.denominator == 1 else c
)
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

_lin_coef = st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2)])
_linear = st.builds(
    lambda a, b, c: Pol({m: v for m, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v}),
    _lin_coef,
    _lin_coef,
    st.sampled_from([-1, 0, 1, 3, Fraction(5, 2)]),
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
        assert e > 0 and p.terms[max(p.terms)] == 1
        assert not p.is_const and all(a + b <= 1 for a, b in p.terms)
        assert divide_exact(x.num, p) is None


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


@settings(deadline=None)
@given(st.lists(_small, max_size=6), _ratfuncs)
def test_rational_values_hash_equal_in_either_form(values, x):
    """A rational RatFunc equals its int or Fraction and hashes alike, so a
    set or dict built from one form finds the other."""
    wrapped = [RatFunc.of(v) for v in values]
    assert all(w == v and hash(w) == hash(v) for w, v in zip(wrapped, values))
    assert {*values, *wrapped} == set(values) == set(wrapped)
    assert len({*values, *wrapped}) == len(set(values))
    table = {v: i for i, v in enumerate(values)}
    assert all(table[w] == table[v] for w, v in zip(wrapped, values))
    # a value in which k or n appears equals no number
    assert x in {x} and (x.is_rational or x not in {*values, *wrapped})


def test_wrapped_and_plain_bases_intern_to_one_key():
    """A power base built from wrapped constants is the key of the same base
    built from plain numbers: one object."""
    plain = FieldExpr.prim(BETA, 0) + FieldExpr.prim(GAMMA, 1, coef=Fraction(1, 2))
    wrapped = FieldExpr({t: RatFunc.of(c) for t, c in plain.terms.items()})
    assert base_key_of(plain) is base_key_of(wrapped)
    assert FieldExpr.power(plain, Exp(-1, 0, 0)).terms == FieldExpr.power(wrapped, Exp(-1, 0, 0)).terms


@pytest.mark.parametrize("value", [0, 3, -1, Fraction(0), Fraction(-2, 3), Fraction(5, 7)])
def test_truthiness_agrees_across_int_fraction_and_ratfunc(value):
    """A coefficient is falsy exactly when it is zero, whichever type carries it."""
    k = RatFunc.k()
    assert bool(RatFunc.of(value)) is bool(value) is (value != 0)
    assert bool(canonical(RatFunc.of(value))) is bool(value)
    assert bool(k * value) is bool(value)
    assert bool(RatFunc.of(value) / (k + 1)) is bool(value)
    assert bool(k - k + value) is bool(value)
    # the polynomial rings under RatFunc and the realization
    assert bool(Pol.const(value)) is bool(Pol.k().scale(value)) is bool(value)
    assert bool(Pol.n() - Pol.n() + Pol.const(value)) is bool(value)
    assert bool(Poly.const(2, value)) is bool(Poly.var(2, 1, value)) is bool(value)
    assert bool(Poly.var(2, 0) - Poly.var(2, 0) + Poly.const(2, value)) is bool(value)
    assert not Pol() and not Poly.zero(2)


# -- the division kernel and cancellation across operands ----------------------

_monomials4 = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda m: sum(m) <= 4)
_pols4 = st.dictionaries(_monomials4, _small, max_size=6).map(
    lambda d: Pol({m: c for m, c in d.items() if c})
)
_monic_linear = st.one_of(
    st.builds(lambda a, b: Pol.k() + Pol.n().scale(a) + Pol.const(b), _small, _small),
    st.builds(lambda b: Pol.n() + Pol.const(b), _small),
)


@settings(deadline=None, max_examples=200)
@given(_pols4, _pols4, _monic_linear, st.integers(1, 3))
def test_horner_kernel_matches_long_division(q, r, p, e):
    """``_cancel`` undoes a product exactly, and refuses a division exactly
    when the long-division oracle finds a remainder."""
    assert _cancel(q * p**e, ((p, e),)) == (q, ())
    want = divide_exact(r, p)
    num, left = _cancel(r, ((p, 1),))
    if want is None:
        assert num is r and left == ((p, 1),)
    else:
        assert num == want and left == ()
        assert_canonical_coefficients(num)


_den_factors = [
    Pol.k() + Pol.n() + Pol.const(1),
    Pol.k().scale(2) + Pol.n().scale(2) + Pol.const(1),
    Pol.n() + Pol.const(1),
    Pol.k() + Pol.const(3),
    Pol.t(4),
    # a leading coefficient of 3: 1/3 has no exact binary float
    Pol.k().scale(3) + Pol.n() + Pol.const(2),
]


def _exponents(top):
    return st.lists(st.integers(0, top), min_size=len(_den_factors), max_size=len(_den_factors))


@st.composite
def _canonical(draw):
    """A canonical RatFunc whose numerator often shares factors with the denominators."""
    num = draw(_pols.filter(bool))
    for f, a in zip(_den_factors, draw(_exponents(1))):
        num = num * f**a
    den = [(f, e) for f, e in zip(_den_factors, draw(_exponents(2))) if e]
    return RatFunc._make(num, den)


@settings(deadline=None, max_examples=100)
@given(_canonical(), _canonical(), _small)
def test_products_and_sums_match_the_cancel_route(a, b, c):
    """``a*b``, ``a+b`` and ``a*c`` equal, structurally, the canonical form the
    merge-and-divide route builds, and agree with pointwise evaluation."""
    for got, want in ((a * b, mul_reference(a, b)), (a + b, add_reference(a, b)),
                      (a * c, make_reference(a.num * Pol.const(c), a.den)),
                      (c * a, make_reference(a.num * Pol.const(c), a.den))):
        assert got.num == want.num and got.den == want.den
        assert ratfuncs_equal_by_evaluation(got, want)
        assert_canonical_coefficients(got)
        _assert_canonical(got)
    for got, op in ((a * b, Fraction.__mul__), (a + b, Fraction.__add__)):
        for g, u, v in zip(ratfunc_values(got), ratfunc_values(a), ratfunc_values(b)):
            if None not in (g, u, v):
                assert g == op(u, v)


# -- the integer form: numerators over one content denominator ----------------


def _assert_integer_form(p):
    """num holds nonzero ints, and den >= 1 shares no factor with all of them."""
    assert all(type(c) is int and c for c in p.num.values()), p.num
    assert type(p.den) is int and p.den >= 1 and gcd(p.den, *p.num.values()) == 1, (p.num, p.den)


def _pol_routes(terms, s, lin):
    """The polynomial with coefficients ``terms``, reached by four routes."""
    parts = Pol.const(s)
    for m, c in terms.items():
        parts = parts + Pol({m: c})
    return [
        Pol(terms),
        Pol({m: c * s for m, c in terms.items()}).scale(Fraction(1) / s),
        parts - Pol.const(s),
        _divide_linear(Pol(terms) * lin, lin),
    ]


def _ratfunc_routes(terms, den, s, lin):
    """The RatFunc Pol(terms) / den, reached by four routes."""
    x = RatFunc._make(Pol(terms), den)
    parts = RatFunc.of(s)
    for m, c in terms.items():
        parts = parts + RatFunc._make(Pol({m: c}), den)
    lin = RatFunc.of(lin)
    return [x, RatFunc._make(Pol(terms).scale(s), den) * (Fraction(1) / s), parts - s, x * lin / lin]


_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _small, max_size=4)
_nonzero = _small.filter(bool)


@settings(deadline=None, max_examples=150)
@given(_terms, _terms, _nonzero, _monic_linear, st.lists(st.tuples(_factors, st.integers(1, 2)), max_size=2),
       st.integers(-3, 3), _small)
def test_integer_form_is_one_form_whatever_the_route(a, b, s, lin, den, delta, v):
    """Routes to one value give one stored form, with equal hash, key and
    text; every result keeps int numerators over a reduced denominator, and
    agrees with the Fraction-dict reference."""
    for routes in (_pol_routes(a, s, lin), _ratfunc_routes(a, den, s, lin)):
        first = routes[0]
        for r in routes:
            pols = [r] if isinstance(r, Pol) else [r.num, *(p for p, _ in r.den)]
            for p in pols:
                _assert_integer_form(p)
            assert r == first and hash(r) == hash(first) and r.text() == first.text()
            assert (r.frozen() == first.frozen()) if isinstance(r, Pol) else (r.key() == first.key())
    pa, pb, ra, rb = Pol(a), Pol(b), FracPol(a), FracPol(b)
    assert ra.matches(pa) and FracPol(pa.terms).matches(pa)
    for got, want in ((pa + pb, ra + rb), (pa - pb, ra + rb.scale(-1)), (pa * pb, ra * rb),
                      (pa.scale(s), ra.scale(s)), (pa.scale(v), ra.scale(v)),
                      (pa.shift_n(delta), ra.shift_n(delta)),
                      (pa.subs_k(v), ra.subs(k=v)), (pa.subs_n(s), ra.subs(n=s))):
        _assert_integer_form(got)
        assert want.matches(got), (got, want.terms)
    x, y = RatFunc._make(pa, den), RatFunc._make(pb, den)
    for got in (x + y, x * y, x * s, x.shift_n(delta)):
        for p in [got.num, *(p for p, _ in got.den)]:
            _assert_integer_form(p)
    xs, ys = ratfunc_values(x), ratfunc_values(y)
    for got, want in ((x + y, [None if None in (u, w) else u + w for u, w in zip(xs, ys)]),
                      (x * s, [None if u is None else u * s for u in xs])):
        assert all(g == w for g, w in zip(ratfunc_values(got), want) if None not in (g, w))
    # no factor drawn for den vanishes identically at k = 7/3 or at n = -5/2
    k0, n0 = Fraction(7, 3), Fraction(-5, 2)
    for got, want in ((x.shift_n(delta), ratfunc_value(x, k0, n0 + delta)),
                      (x.subs_k(k0), ratfunc_value(x, k0, n0)), (x.subs_n(n0), ratfunc_value(x, k0, n0))):
        value = ratfunc_value(got, k0, n0)
        assert value == want or None in (value, want)
