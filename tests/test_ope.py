import gc
import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_one_form, contract_reference
from wakimoto.coeffs import Exp, RatFunc
from wakimoto.currents import build_wakimoto, osp22_currents, sugawara_tensor
from wakimoto.fields import (
    BETA,
    BGH,
    CGH,
    GAMMA,
    PHI,
    FieldExpr,
    UnsupportedContraction,
    base_key_of,
    prim_parity,
)
from wakimoto.liealg import build_root_system, get_algebra, osp22_fixture
from wakimoto.ope import (
    OpeResult,
    betagamma_tensor,
    central_charge,
    conformal_weight,
    contract,
    free_field_tensor,
    regularized_product,
    scalar_tensor,
)
from wakimoto.screening import first_kind


@pytest.fixture(scope="module")
def rs():
    return build_root_system("B2")


@pytest.fixture(scope="module")
def a1():
    return build_root_system("A1")


def test_basic_contractions(rs):
    beta = FieldExpr.prim(BETA, 0)
    gamma = FieldExpr.prim(GAMMA, 0)
    res = contract(rs, beta, gamma)
    assert res.nonzero_orders() == [1]
    assert res.order(1).equals(FieldExpr.const(1))
    res = contract(rs, gamma, beta)
    assert res.order(1).equals(FieldExpr.const(-1))
    # gamma with gamma: empty
    assert contract(rs, gamma, gamma).nonzero_orders() == []
    # beta against a different root's gamma: empty
    assert contract(rs, beta, FieldExpr.prim(GAMMA, 1)).nonzero_orders() == []


def test_fermion_contractions(rs):
    b = FieldExpr.prim(BGH, 1)
    c = FieldExpr.prim(CGH, 1)
    assert contract(rs, b, c).order(1).equals(FieldExpr.const(1))
    assert contract(rs, c, b).order(1).equals(FieldExpr.const(1))
    # derivative kernels
    assert contract(rs, b, FieldExpr.prim(CGH, 1, 1)).order(2).equals(FieldExpr.const(1))


def test_phi_contractions(rs):
    p1 = FieldExpr.prim(PHI, 0)
    p2 = FieldExpr.prim(PHI, 1)
    res = contract(rs, p1, p2)
    t = RatFunc.t(rs.hvee)
    assert res.order(2).equals(FieldExpr.const(t * rs.G[0][1]))
    # vertex kernels: scaled momentum component comes out directly
    mom = [RatFunc.of(3), RatFunc.of(-1)]
    v = FieldExpr.vertex(mom)
    res = contract(rs, p1, v)
    assert res.order(1).equals(v.scale(3))
    res = contract(rs, v, p1)
    assert res.order(1).equals(v.scale(-3))


def test_vertex_vertex_rejected(rs):
    v = FieldExpr.vertex([RatFunc.of(1), RatFunc.zero()])
    with pytest.raises(UnsupportedContraction):
        contract(rs, v, v)


def test_left_power_factor_rejected(rs):
    X = FieldExpr.prim(BETA, 0, coef=-1)
    p = FieldExpr.power(X, Exp(-1, 0, 0))
    with pytest.raises(UnsupportedContraction):
        contract(rs, p, FieldExpr.prim(GAMMA, 0))


def test_a1_wakimoto_by_hand(a1):
    """E(z)F(w) for the rank-1 realization, checked against hand expansion."""
    rs = a1
    k = RatFunc.k()
    g = lambda d=0: FieldExpr.prim(GAMMA, 0, d)
    b = lambda d=0: FieldExpr.prim(BETA, 0, d)
    P = FieldExpr.prim(PHI, 0)
    E = b()
    H = (g() * b()).scale(-2) + P
    F = (g() * g() * b()).scale(-1) + g() * P + b(0).scale(0) + FieldExpr.prim(
        BETA, 0, 0, coef=0
    ) + FieldExpr.prim(GAMMA, 0, 1, coef=k)
    res = contract(rs, E, F)
    assert res.order(2).equals(FieldExpr.const(k))
    assert res.order(1).equals(H)
    assert res.order(3).is_zero
    # reversed order
    res = contract(rs, F, E)
    assert res.order(2).equals(FieldExpr.const(k))
    assert res.order(1).equals(H.scale(-1))


def test_power_factor_falling_factorial_vs_integer_expansion(rs):
    """contract(J, X^m) via the symbolic rule == contract(J, X*...*X) plainly."""
    X = (
        FieldExpr.prim(BETA, 1, coef=-1)
        + FieldExpr.prim(GAMMA, 0) * FieldExpr.prim(BETA, 2, coef=Fraction(1, 2))
        + FieldExpr.prim(GAMMA, 0) * FieldExpr.prim(GAMMA, 1) * FieldExpr.prim(BETA, 3)
    )
    probes = [
        FieldExpr.prim(BETA, 0),
        FieldExpr.prim(GAMMA, 1),
        FieldExpr.prim(GAMMA, 1, 1) * FieldExpr.prim(BETA, 3),
        betagamma_tensor(rs),
    ]
    for m in (1, 2, 3):
        planted = FieldExpr.const(1)
        for _ in range(m):
            planted = planted * X
        symbolic = FieldExpr.power(X, Exp(0, m, 0) + Exp(-1, 0, 0)) * FieldExpr.power(
            X, Exp(1, 0, 0)
        )
        # (X^{m-t} X^{t}) canonicalizes to the expanded product; instead keep
        # the power symbolic by probing X^{m + 0*t} through a fresh object:
        for J in probes:
            lhs = contract(rs, J, _symbolic_power_times(X, m))
            rhs = contract(rs, J, planted)
            for q in set(lhs.poles) | set(rhs.poles):
                assert lhs.order(q).equals(rhs.order(q)), (m, q)


def _symbolic_power_times(X, m):
    """X^m with the exponent kept symbolic: (X^{m-t}) * X^t is not formed;
    we build the power factor directly with a constant exponent and block
    expansion by going through the raw constructor."""
    from wakimoto.fields import FieldExpr as FE, base_key_of

    key = base_key_of(X)
    return FE({((), ((key, Exp(0, m, 0)),), None): RatFunc.one()})


def test_regularized_product_matches_wick_for_free_pair(rs):
    # :gamma beta: via point splitting equals the plain normal product
    g = FieldExpr.prim(GAMMA, 0)
    b = FieldExpr.prim(BETA, 0)
    assert regularized_product(rs, g, b).equals(g * b)
    # :beta gamma: picks no extra term either (Taylor remainder vanishes)
    assert regularized_product(rs, b, g).equals(b * g)


def test_exchange_symmetry_on_random_expressions(rs):
    """Pole structure of AB determines BA by Taylor re-expansion."""
    rng = random.Random(7)
    pool = [
        FieldExpr.prim(BETA, 0),
        FieldExpr.prim(GAMMA, 0),
        FieldExpr.prim(GAMMA, 0, 1),
        FieldExpr.prim(BETA, 1),
        FieldExpr.prim(GAMMA, 1),
        FieldExpr.prim(PHI, 0),
        FieldExpr.prim(PHI, 1),
    ]
    for trial in range(12):
        A = FieldExpr.const(1)
        B = FieldExpr.const(1)
        for _ in range(rng.randint(1, 2)):
            A = A * rng.choice(pool)
        for _ in range(rng.randint(1, 3)):
            B = B * rng.choice(pool)
        ab = contract(rs, A, B)
        ba = contract(rs, B, A)
        orders = set(ab.poles) | set(ba.poles)
        for r in orders:
            expect = FieldExpr.zero()
            m = 0
            fact = 1
            while r + m <= max(ab.poles, default=0):
                p = ab.order(r + m)
                for _ in range(m):
                    p = p.derivative(rs)
                expect = expect + p.scale(Fraction((-1) ** (m + r), fact))
                m += 1
                fact *= m
            assert ba.order(r).equals(expect), (trial, r)


def test_central_charges(rs):
    k = RatFunc.k()
    t = RatFunc.t(rs.hvee)
    assert central_charge(rs, betagamma_tensor(rs)) == RatFunc.of(8)  # d - r
    c_phi = central_charge(rs, scalar_tensor(rs))
    assert c_phi == 2 - 30 / t  # r - hvee*d/(k+hvee)
    c_tot = central_charge(rs, free_field_tensor(rs))
    assert c_tot == 10 * k / t


def test_osp_ghost_central_charge():
    rs, _ = osp22_fixture()
    # one bosonic pair (+2) and two fermionic pairs (-2 each)
    assert central_charge(rs, betagamma_tensor(rs)) == RatFunc.of(-2)
    assert central_charge(rs, free_field_tensor(rs)) == RatFunc.zero()


def test_conformal_weights_under_free_tensor(rs):
    T = free_field_tensor(rs)
    h, err = conformal_weight(rs, T, FieldExpr.prim(BETA, 2))
    assert err is None and h == RatFunc.of(1)
    h, err = conformal_weight(rs, T, FieldExpr.prim(GAMMA, 2))
    assert err is None and h == RatFunc.zero()
    # identity field
    h, err = conformal_weight(rs, T, FieldExpr.const(5))
    assert err is None and h == RatFunc.zero()
    # vertex weights match the closed formula
    mom = [RatFunc.t(rs.hvee) * rs.G[i][0] for i in range(2)]
    V = FieldExpr.vertex(mom)
    h, err = conformal_weight(rs, T, V)
    assert err is None
    assert h == V.weight(rs)


def test_tt_ope_structure(rs):
    T = free_field_tensor(rs)
    res = contract(rs, T, T)
    assert res.order(3).is_zero
    assert res.order(2).equals(T.scale(2))
    assert res.order(1).equals(T.derivative(rs))


def test_graded_exchange_symmetry():
    """The exchange identity with fermionic operands carries (-1)^{|A||B|}."""
    rs, _ = __import__("wakimoto.liealg", fromlist=["osp22_fixture"]).osp22_fixture()
    pool = [
        (FieldExpr.prim(BGH, 1), 1),
        (FieldExpr.prim(CGH, 1), 1),
        (FieldExpr.prim(CGH, 2), 1),
        (FieldExpr.prim(BGH, 2), 1),
        (FieldExpr.prim(BETA, 0), 0),
        (FieldExpr.prim(GAMMA, 0), 0),
        (FieldExpr.prim(CGH, 1, 1), 1),
    ]
    import random

    rng = random.Random(11)
    for trial in range(10):
        A, pa = FieldExpr.const(1), 0
        B, pb = FieldExpr.const(1), 0
        for _ in range(rng.randint(1, 2)):
            f, p = rng.choice(pool)
            A = A * f
            pa ^= p
        for _ in range(rng.randint(1, 2)):
            f, p = rng.choice(pool)
            B = B * f
            pb ^= p
        if A.is_structurally_zero or B.is_structurally_zero:
            continue
        sign = -1 if (pa and pb) else 1
        ab = contract(rs, A, B)
        ba = contract(rs, B, A)
        orders = set(ab.poles) | set(ba.poles)
        for r in orders:
            expect = FieldExpr.zero()
            m = 0
            fact = 1
            while r + m <= max(ab.poles, default=0):
                p = ab.order(r + m)
                for _ in range(m):
                    p = p.derivative(rs)
                expect = expect + p.scale(Fraction(sign * (-1) ** (m + r), fact))
                m += 1
                fact *= m
            assert ba.order(r).equals(expect), (trial, r)


def test_conformal_weight_reports_anomalous_pole(rs):
    # the ghost-number current :gamma beta: is weight 1 but not primary:
    # T(z)j(w) has a third-order pole (the background-charge anomaly)
    T = betagamma_tensor(rs)
    j = FieldExpr.prim(GAMMA, 0) * FieldExpr.prim(BETA, 0)
    h, err = conformal_weight(rs, T, j)
    assert h is None
    order, offending = err
    assert order == 3
    assert offending.equals(FieldExpr.const(1))


def test_contract_always_returns_ope_result(rs):
    g = FieldExpr.prim(GAMMA, 0)
    b = FieldExpr.prim(BETA, 0)
    full = contract(rs, b, g, min_order=0)
    assert isinstance(full, OpeResult)
    assert full.order(1).equals(FieldExpr.const(1))
    assert full.order(0).equals(b * g)
    with pytest.raises(TypeError):
        contract(rs, b, g, max_order=4)
    with pytest.raises(TypeError):  # an old positional max_order must not pass as min_order
        contract(rs, b, g, 4)


def test_normal_product_of_pairs_without_contraction(rs):
    """At min_order = 0 a term pair with no contraction still gives :AB:."""
    g1, g2 = FieldExpr.prim(GAMMA, 0), FieldExpr.prim(GAMMA, 1)
    assert regularized_product(rs, g1, g2) == g1 * g2
    assert contract(rs, g1, g2).poles == {}
    osp, _ = osp22_fixture()
    c1, c2 = FieldExpr.prim(CGH, 1), FieldExpr.prim(CGH, 2)
    assert regularized_product(osp, c2, c1) == (c1 * c2).scale(-1)


def test_z_vertex_contracts_with_w_scalar_leg(rs):
    # gamma_1 on the z side and the gamma_3 term on the w side have no partner
    mom = [RatFunc.of(3), RatFunc.k()]
    V = FieldExpr.vertex(mom)
    g = [FieldExpr.prim(GAMMA, i) for i in range(3)]
    res = contract(rs, g[0] * V, FieldExpr.prim(PHI, 0) * g[1] + g[2])
    assert res.nonzero_orders() == [1]
    assert res.order(1) == (g[0] * g[1] * V).scale(-3)


def test_z_prim_contracts_into_power_factor_base(rs):
    # gamma_2 meets beta_2 inside the base only; gamma_theta meets nothing
    X = FieldExpr.prim(BETA, 1) + FieldExpr.prim(GAMMA, 0) * FieldExpr.prim(BETA, 2)
    B = FieldExpr.power(X, Exp(-1, 0, 0))
    res = contract(rs, FieldExpr.prim(GAMMA, 1) + FieldExpr.prim(GAMMA, 3), B)
    assert res.nonzero_orders() == [1]
    assert res.order(1) == FieldExpr.power(X, Exp(-1, -1, 0)).scale(RatFunc.t(rs.hvee))
    assert contract(rs, FieldExpr.prim(GAMMA, 3), B).poles == {}


def test_fermionic_pairs_keep_signs():
    osp, _ = osp22_fixture()
    b = [None] + [FieldExpr.prim(BGH, i) for i in (1, 2)]
    c = [None] + [FieldExpr.prim(CGH, i) for i in (1, 2)]
    # b1 b2 (z) c1 c2 (w): the double contraction crosses c1; c1 (z) is dead
    res = contract(osp, b[1] * b[2] + c[1], c[1] * c[2])
    assert res.nonzero_orders() == [2, 1]
    assert res.order(2) == FieldExpr.const(-1)
    assert res.order(1) == (b[1] * c[1] + b[2] * c[2]).scale(-1)


# ---------------------------------------------------------------------------
# the engine against the RatFunc reference engine
# ---------------------------------------------------------------------------

_OSP = osp22_fixture()[0]
_K, _N = RatFunc.k(), RatFunc.n()
_nonzero = st.integers(-3, 3).filter(bool)
_coefs = st.one_of(
    st.builds(lambda a, b: RatFunc.of(Fraction(a, b)), _nonzero, st.integers(1, 3)),
    # coprime and large denominators: operand LCMs well above 1
    st.builds(
        lambda a, b: RatFunc.of(Fraction(a, b)), _nonzero, st.sampled_from([4, 5, 7, 9, 43200])
    ),
    st.builds(lambda a, b: _K * a + b, _nonzero, st.integers(-3, 3)),
    st.builds(
        lambda a, den: RatFunc.of(a) / den,
        _nonzero,
        st.sampled_from([_K + _N + 1, _K * 2 + _N * 2 + 1, _N + 1, _K + 3]),
    ),
)
# osp(2|2): position 0 is a bosonic ghost pair, positions 1 and 2 fermionic
_prims = st.builds(
    lambda kl, d: (kl[0], kl[1], d),
    st.sampled_from([(GAMMA, 0), (BETA, 0), (CGH, 1), (BGH, 1), (CGH, 2), (BGH, 2), (PHI, 0), (PHI, 1)]),
    st.integers(0, 1),
)
_momenta = st.sampled_from([
    (RatFunc.of(1), RatFunc.of(-1)),
    (RatFunc.of(Fraction(1, 2)), RatFunc.zero()),
    (_K + 1, RatFunc.of(2)),
])
_bases = st.sampled_from([
    (((BETA, 0, 0),),),
    (((GAMMA, 0, 0), (BETA, 0, 0)), ((PHI, 0, 0),)),
    (((CGH, 1, 0), (BGH, 2, 0)), ((BETA, 0, 0),), ((PHI, 1, 1),)),
])
_exps = st.builds(
    Exp,
    st.sampled_from([0, 1, -1]),
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)),
    st.sampled_from([0, 1]),
)


@st.composite
def _power_factors(draw):
    monomials = draw(_bases)
    base = FieldExpr._from_raw([(draw(_coefs), prims, (), None) for prims in monomials])
    return ((base_key_of(base), draw(_exps)),)


@st.composite
def _operands(draw, powers: bool, vertex: bool):
    raw = []
    for _ in range(draw(st.integers(1, 3))):
        prims = tuple(draw(st.lists(_prims, max_size=3)))
        pfs = draw(_power_factors()) if powers and draw(st.booleans()) else ()
        mom = draw(_momenta) if vertex and draw(st.booleans()) else None
        raw.append((draw(_coefs), prims, pfs, mom))
    return FieldExpr._from_raw(raw)


@st.composite
def _operand_pairs(draw):
    """Left operands without power factors; a vertex on at most one side."""
    side = draw(st.sampled_from(["none", "z", "w"]))
    return draw(_operands(False, side == "z")), draw(_operands(True, side == "w"))


def _assert_matches_reference(A, B):
    """contract() equals the reference engine: orders, terms and insertion order."""
    for min_order in (0, 1):
        got = contract(_OSP, A, B, min_order=min_order).poles
        want = contract_reference(_OSP, A, B, min_order=min_order)
        assert list(got) == list(want)
        for q, expr in want.items():
            assert list(got[q].terms.items()) == list(expr.terms.items()), q
            for c in got[q].terms.values():
                assert_one_form(c)


@settings(deadline=None, max_examples=200)
@given(_operand_pairs())
def test_contract_matches_the_ratfunc_reference(pair):
    _assert_matches_reference(*pair)


def test_crossing_signs_through_partnerless_factors():
    """Odd ghosts of label 1 have no partner on the w side and are not walked,
    yet they sit between and after contracting factors and must flip signs."""
    def p(kind, label, d=0):
        return FieldExpr.prim(kind, label, d)

    c1, b1, c2, b2 = p(CGH, 1), p(BGH, 1), p(CGH, 2), p(BGH, 2)
    g0, beta0, phi0 = p(GAMMA, 0), p(BETA, 0), p(PHI, 0)
    A = (
        c2 * b1 * b2 * phi0
        + (g0 * c1 * c2 * b1 * beta0).scale(_K + 1)
        + (p(CGH, 1, 1) * b2 * p(BGH, 1) * p(PHI, 1)).scale(Fraction(-2, 3))
        + c1 * b1
    )
    # the base holds partners of b2, gamma_0 and the scalar legs, never of label 1
    X = beta0 + (c2 * b2).scale(Fraction(1, 2)) + p(PHI, 0, 1)
    B = (
        c2 * FieldExpr.power(X, Exp(-1, Fraction(1, 2), 0))
        + (b2 * p(GAMMA, 0, 1) * p(PHI, 1)).scale(_N + 1)
        + p(CGH, 2, 1)
    )
    _assert_matches_reference(A, B)
    assert contract(_OSP, A, B).nonzero_orders() == [4, 3, 2, 1]


def test_uncontracted_patterns_that_can_still_pole_are_kept():
    """The walk skips leaving its last factor uncontracted only where that
    pattern stays below min_order: a z-side vertex can still pole against a
    w-side scalar leg (walked empty and walked with one factor), and at
    min_order 0 the pattern is the normal product itself."""
    g0, beta0, phi0 = FieldExpr.prim(GAMMA, 0), FieldExpr.prim(BETA, 0), FieldExpr.prim(PHI, 0)
    V = FieldExpr.vertex((_K + 1, RatFunc.of(2)))
    # gamma_0 has no partner in phi_0 c_1, and meets beta_0 in phi_0 beta_0
    for rest in (FieldExpr.prim(CGH, 1, 1), beta0):
        _assert_matches_reference(g0 * V, phi0 * rest)
        # V meets phi_0 and gamma_0 survives
        (key,) = (g0 * rest * V).terms
        assert contract(_OSP, g0 * V, phi0 * rest).order(1).terms[key] == -(_K + 1)
    _assert_matches_reference(g0 * V + g0.scale(Fraction(1, 2)), phi0 * beta0 + phi0)
    (key,) = (g0 * phi0 * beta0).terms
    assert regularized_product(_OSP, g0, phi0 * beta0).terms[key] == 1
    assert contract(_OSP, g0, phi0 * beta0).order(1) == phi0.scale(-1)


@settings(deadline=None, max_examples=100)
@given(st.lists(_prims, max_size=5), st.one_of(st.none(), _momenta))
def test_subsequences_of_a_canonical_term_are_canonical(prims, vertex):
    """The lowest-order shortcut of contract(): a surviving sub-tuple of a
    canonical term's factors is itself a canonical term with coefficient 1."""
    expr = FieldExpr._from_raw([(1, tuple(prims), (), vertex)])
    odd = [q for q in prims if prim_parity(q)]
    assert expr.is_structurally_zero is (len(set(odd)) < len(odd))
    for (factors, _, v) in expr.terms:
        for size in range(len(factors) + 1):
            for sub in itertools.combinations(factors, size):
                got = FieldExpr._from_raw([(1, sub, (), v)]).terms
                assert got == {(sub, (), v): RatFunc.one()}


def test_contract_leaves_no_cyclic_garbage():
    """A contract() call and a canonicalization free everything by reference counting."""
    rs, tab = get_algebra("B3")
    cs = build_wakimoto(rs, tab)
    F, E = cs[("f", rs.theta)], cs[("e", rs.theta)]
    gc.collect()
    gc.disable()
    try:
        res = contract(cs.rs, F, E)
        FieldExpr._from_raw([(c, p, f, v) for (p, f, v), c in F.terms.items()])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert res.nonzero_orders() == [2, 1]


def _pole_lines(name, rs, A, B):
    return [f"{name} {q}: {expr.text(rs)}" for q, expr in contract(rs, A, B).poles.items()]


def _contract_pole_digest():
    """sha256 of the sorted pole texts of the A3, G2 and OSP22 current tables,
    B2's TT for both tensors and B2's first-kind contracts."""
    lines = []
    tables = [build_wakimoto(*get_algebra(name)) for name in ("A3", "G2")]
    for cs in tables + [osp22_currents()]:
        for a in cs.labels():
            for b in cs.labels():
                lines += _pole_lines(f"{cs.rs.name} {a} {b}", cs.rs, cs[a], cs[b])
    b2 = build_wakimoto(*get_algebra("B2"))
    for name, T in (("sugawara", sugawara_tensor(b2)), ("free", free_field_tensor(b2.rs))):
        lines += _pole_lines(f"B2 T-{name}", b2.rs, T, T)
    for j in range(b2.rs.rank):
        body = first_kind(b2, j).body
        for a in b2.labels():
            lines += _pole_lines(f"B2 S{j} {a}", b2.rs, b2[a], body)
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def test_contract_poles_are_pinned():
    stored = (Path(__file__).parent / "golden" / "contract-poles.sha256").read_text().split()
    assert [_contract_pole_digest(), "contract-poles"] == stored
