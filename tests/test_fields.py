from fractions import Fraction

import pytest

from wakimoto.coeffs import Exp, RatFunc
from wakimoto.fields import (
    BETA,
    BGH,
    CGH,
    GAMMA,
    PHI,
    FieldExpr,
    UnsupportedContraction,
    base_key_of,
)
from wakimoto.liealg import build_root_system, osp22_fixture


@pytest.fixture(scope="module")
def rs():
    return build_root_system("B2")


@pytest.fixture(scope="module")
def osp():
    rs, _ = osp22_fixture()
    return rs


def test_normal_product_is_graded_commutative(rs, osp):
    g = FieldExpr.prim(GAMMA, 0)
    b = FieldExpr.prim(BETA, 1)
    assert (g * b - b * g).is_zero
    c = FieldExpr.prim(CGH, 1)
    bb = FieldExpr.prim(BGH, 1)
    # odd factors anticommute inside the normal product
    assert (c * bb + bb * c).is_zero
    assert (c * c).is_zero
    # double swap restores the original
    x = c * bb
    assert ((c * bb) - (bb * c).scale(-1)).is_zero


def test_vertex_merging(rs):
    v1 = FieldExpr.vertex([RatFunc.of(1), RatFunc.zero()])
    v2 = FieldExpr.vertex([RatFunc.of(2), RatFunc.of(1)])
    prod = v1 * v2
    (term, coef), = prod.terms.items()
    assert term[2] == (RatFunc.of(3), RatFunc.of(1))
    # opposite momenta cancel to the identity
    v3 = FieldExpr.vertex([RatFunc.of(-3), RatFunc.of(-1)])
    assert (prod * v3).equals(FieldExpr.const(1))


def test_power_factor_merge_and_expand(rs):
    X = FieldExpr.prim(BETA, 0, coef=-1) + FieldExpr.prim(GAMMA, 1) * FieldExpr.prim(BETA, 2)
    p = FieldExpr.power(X, Exp(-1, 0, 0))
    q = FieldExpr.power(X, Exp(1, 2, 0))
    prod = p * q
    # exponents added: -t + (t+2) = 2 -> expanded to a plain product
    assert all(not term[1] for term in prod.terms)
    assert prod.equals(X * X)


def test_power_base_rules(rs):
    odd = FieldExpr.prim(CGH, 1)
    with pytest.raises(UnsupportedContraction):
        base_key_of(odd)
    with pytest.raises(UnsupportedContraction):
        base_key_of(FieldExpr.vertex([RatFunc.of(1), RatFunc.zero()]))
    even = FieldExpr.prim(CGH, 1) * FieldExpr.prim(BGH, 2)
    base_key_of(even)  # even composite of two odd factors is fine


def test_power_derivative_rule(rs):
    X = FieldExpr.prim(BETA, 0, coef=-1)
    p = FieldExpr.power(X, Exp(-1, 0, 0))  # X^{-t}
    d = p.derivative(rs)
    expected = FieldExpr.power(X, Exp(-1, -1, 0)) * FieldExpr.prim(BETA, 0, 1, coef=-1)
    expected = expected.scale(Exp(-1, 0, 0).as_ratfunc(rs.hvee))
    assert d.equals(expected)


def test_zero_test_across_power_levels(rs):
    # :X X^{-t-1}: equals X^{-t}
    X = FieldExpr.prim(BETA, 0, coef=-1) + FieldExpr.prim(GAMMA, 1) * FieldExpr.prim(BETA, 2)
    lhs = X * FieldExpr.power(X, Exp(-1, -1, 0))
    rhs = FieldExpr.power(X, Exp(-1, 0, 0))
    assert (lhs - rhs).is_zero
    assert not (lhs - rhs.scale(2)).is_zero
    # structurally different, equal only once the power levels are expanded
    assert lhs.terms != rhs.terms
    assert lhs.equals(rhs)
    assert not lhs.equals(rhs.scale(2))


def test_derivative_leibniz(rs):
    g = FieldExpr.prim(GAMMA, 0)
    b = FieldExpr.prim(BETA, 0)
    d = (g * b).derivative(rs)
    expected = FieldExpr.prim(GAMMA, 0, 1) * b + g * FieldExpr.prim(BETA, 0, 1)
    assert d.equals(expected)


def test_vertex_derivative(rs):
    # second-kind momentum mu_i = t G_{i1}: d(vertex) = :P_1 vertex:
    t = RatFunc.t(rs.hvee)
    mom = [t * rs.G[i][0] for i in range(rs.rank)]
    v = FieldExpr.vertex(mom)
    d = v.derivative(rs)
    expected = FieldExpr.prim(PHI, 0) * v
    assert d.equals(expected)


def test_weights(rs):
    assert FieldExpr.prim(BETA, 0).weight(rs) == RatFunc.of(1)
    assert FieldExpr.prim(GAMMA, 0, 2).weight(rs) == RatFunc.of(2)
    # first-kind vertex has weight 0: mu = -alpha_j labels
    mom = [RatFunc.of(-rs.cartan[i][0]) for i in range(2)]
    assert FieldExpr.vertex(mom).weight(rs) == RatFunc.zero()
    # second-kind vertex for j=2: t G_22/2 + 1 = 2t + 1
    t = RatFunc.t(rs.hvee)
    mom2 = [t * rs.G[i][1] for i in range(2)]
    w = FieldExpr.vertex(mom2).weight(rs)
    assert w == 2 * t + 1


def test_series_shift_roundtrip(rs):
    X = FieldExpr.prim(BETA, 0, coef=-1)
    A = FieldExpr.prim(GAMMA, 1, 1) * FieldExpr.prim(BETA, 3)
    expr = (FieldExpr.power(A, Exp(0, 0, 1)) * FieldExpr.power(X, Exp(-2, 0, -2))).scale(
        RatFunc.n() + 1
    )
    assert expr.shift_n(1).shift_n(-1).equals(expr)
    assert not expr.shift_n(1).equals(expr)


# -- interned power-factor bases ------------------------------------------------

def _b2_like_base(order):
    """beta[0] + (1/(k+3)) gamma[1] beta[2], its terms added in the given order."""
    k = RatFunc.k()
    parts = [
        FieldExpr.prim(BETA, 0),
        FieldExpr.prim(GAMMA, 1) * FieldExpr.prim(BETA, 2, coef=1 / (k + 3)),
    ]
    out = FieldExpr.zero()
    for i in order:
        out = out + parts[i]
    return out


def test_equal_bases_are_one_object():
    k = RatFunc.k()
    a = base_key_of(_b2_like_base((0, 1)))
    b = base_key_of(_b2_like_base((1, 0)))
    # a third route: scaled twice, and a coefficient rebuilt from (k+3)/(k+3)^2
    c = base_key_of(
        _b2_like_base((0, 1)).scale(2).scale(Fraction(1, 2))
        + FieldExpr.prim(GAMMA, 1) * FieldExpr.prim(BETA, 2, coef=(k + 3) / (k + 3) / (k + 3))
        - FieldExpr.prim(GAMMA, 1) * FieldExpr.prim(BETA, 2, coef=1 / (k + 3))
    )
    assert a is b is c
    assert list(a) == list(a.items) and len(a.items) == 2
    other = base_key_of(FieldExpr.prim(BETA, 0) + FieldExpr.prim(GAMMA, 1) * FieldExpr.prim(BETA, 2))
    assert other is not a and other != a


def test_pickle_reinterns_power_bases():
    import pickle

    X = _b2_like_base((0, 1))
    P = FieldExpr.power(X, Exp(-1, Fraction(1, 2), 1)) * FieldExpr.prim(GAMMA, 1)
    Q = pickle.loads(pickle.dumps(P))
    ((_, (pf,), _),) = P.terms
    ((_, (qf,), _),) = Q.terms
    assert qf[0] is pf[0] is base_key_of(X)
    assert qf[1] == pf[1] and hash(qf[1]) == hash(pf[1])
    assert Q == P and (Q - P).is_structurally_zero


def test_exp_components_are_lean():
    a = Exp(-2, Fraction(1, 2), 1)
    b = Exp(Fraction(-2), Fraction(1, 2), Fraction(1))
    assert a == b and hash(a) == hash(b) and a.key() == b.key()
    assert type(b.u) is int and type(b.w) is int and type(b.v) is Fraction
    assert type((Exp(0, Fraction(1, 2), 0) + Fraction(1, 2)).v) is int
    assert Exp(0, 2, 0) == Exp.const(Fraction(4, 2)) and Exp(0, 2, 0) != Exp(0, 2, 1)


def test_exponent_json_is_unchanged():
    from wakimoto.render import exp_from_json, exp_to_json, fieldexpr_from_json, fieldexpr_to_json

    for e, want in (
        (Exp(Fraction(-2), Fraction(0), Fraction(-2)), ["-2", "0", "-2"]),
        (Exp(-2, Fraction(1, 2), 1), ["-2", "1/2", "1"]),
        (Exp(Fraction(-2, 3), -1, 0), ["-2/3", "-1", "0"]),
    ):
        assert exp_to_json(e) == want and exp_from_json(want) == e
    P = FieldExpr.power(_b2_like_base((0, 1)), Exp(-2, -1, -2))
    data = fieldexpr_to_json(P)
    assert data["terms"][0]["powers"][0]["exp"] == ["-2", "-1", "-2"]
    back = fieldexpr_from_json(data)
    assert back == P and list(back.terms) == list(P.terms)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FieldExpr.const(0.5),
        lambda: FieldExpr.prim(BETA, 0, coef=0.5),
        lambda: FieldExpr.prim(BETA, 0).scale(0.5),
        lambda: FieldExpr._from_raw([(0.5, ((BETA, 0, 0),), (), None)]),
        lambda: FieldExpr._from_raw([(0.5, ((BETA, 0, 0),), (), None)], 3),
    ],
    ids=["const", "prim", "scale", "from_raw", "from_raw-denom"],
)
def test_float_coefficients_are_refused(build):
    """A float is inexact: no constructor stores one."""
    with pytest.raises(TypeError, match="inexact|Rational"):
        build()


def test_stored_coefficients_have_one_form():
    """Rational coefficients are stored as ints and Fractions, whatever form
    they are given in; only a value in which k or n appears is a RatFunc."""
    k = RatFunc.k()
    b = FieldExpr.prim(BETA, 0)
    half = Fraction(1, 2)
    cases = [
        (FieldExpr.const(RatFunc.of(3)), 3),
        (FieldExpr.prim(BETA, 0, coef=Fraction(4, 2)), 2),
        (b.scale(RatFunc.of(half)).scale(2), 1),
        (b.scale(k + 1) + b.scale(-k), 1),
        (b.scale(k / (k + 1)).scale((k + 1) / k), 1),
        (FieldExpr._from_raw([(half, ((BETA, 0, 0),), (), None)] * 2), 1),
        (FieldExpr._from_raw([(3, ((BETA, 0, 0),), (), None)], 6), half),
        (FieldExpr._from_raw([(k * 3, ((BETA, 0, 0),), (), None)], 6), k * half),
    ]
    for expr, want in cases:
        (c,) = expr.terms.values()
        assert c == want and type(c) is type(want), (c, want)
