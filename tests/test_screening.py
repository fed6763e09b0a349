from fractions import Fraction

import pytest

from wakimoto.coeffs import Exp, RatFunc
from wakimoto.currents import build_wakimoto, osp22_currents
from wakimoto.fields import BETA, GAMMA, FieldExpr
from wakimoto.liealg import build_root_system, build_structure_table
from wakimoto.ope import contract
from wakimoto.screening import (
    DirectionError,
    b2_series_witnesses,
    first_kind,
    naive_second_kind_failure,
    second_kind_b2,
    second_kind_mult_one,
    second_kind_osp22,
    verify_first_kind,
    verify_screening,
    verify_second_kind_b2,
    verify_second_kind_mult_one,
)
from wakimoto.series import SeriesExpr


def _subs_k(expr, kval):
    """expr with k = kval in every coefficient and vertex momentum."""
    raw = []
    for (prims, pfs, vertex), coef in expr.terms.items():
        nv = tuple(c.subs_k(kval) for c in vertex) if vertex is not None else None
        raw.append((coef.subs_k(kval), prims, pfs, nv))
    return FieldExpr._from_raw(raw)


@pytest.fixture(scope="module")
def b2cs():
    rs = build_root_system("B2")
    return build_wakimoto(rs, build_structure_table(rs))


@pytest.fixture(scope="module")
def a1cs():
    rs = build_root_system("A1")
    return build_wakimoto(rs, build_structure_table(rs))


def test_first_kind_b2_s1_form(b2cs):
    s = first_kind(b2cs, 0)
    # (-beta_1 - 1/2 g2 b11 + 1/6 g2 g2 btheta) e^{-phi_1/sqrt t}
    ctx = b2cs.ctx
    V = FieldExpr.vertex(s.momentum)
    expected = (
        FieldExpr.prim(BETA, 0, coef=-1)
        + (FieldExpr.prim(GAMMA, 1) * FieldExpr.prim(BETA, 2)).scale(Fraction(-1, 2))
        + (
            FieldExpr.prim(GAMMA, 1) * FieldExpr.prim(GAMMA, 1) * FieldExpr.prim(BETA, 3)
        ).scale(Fraction(1, 6))
    ) * V
    assert s.expr.equals(expected)
    # momentum: -alpha_1 labels = (-2, 2)
    assert [c.text() for c in s.momentum] == ["-2", "2"]


def test_first_kind_b2_s2_vertex(b2cs):
    s = first_kind(b2cs, 1)
    # -alpha_2 labels: (1, -2), i.e. exponent -phi_2/(2 sqrt t) in metric terms
    assert [c.text() for c in s.momentum] == ["1", "-2"]


def test_first_kind_a1_form(a1cs):
    s = first_kind(a1cs, 0)
    V = FieldExpr.vertex(s.momentum)
    assert s.expr.equals(FieldExpr.prim(BETA, 0, coef=-1) * V)


@pytest.mark.parametrize("j", [0, 1])
def test_first_kind_b2_contract(b2cs, j):
    s = first_kind(b2cs, j)
    report = verify_first_kind(b2cs, s)
    assert report.ok, [(c.label, c.detail) for c in report.failures()]


def test_first_kind_witness_values(b2cs):
    # F_{alpha1}(z)s_1(w): witness -t * 1 * V; F_{alpha2}(z)s_1(w): zero
    s = first_kind(b2cs, 0)
    ctx = b2cs.ctx
    t = ctx.t()
    res = contract(ctx, b2cs[("f", (1, 0))], s.expr)
    V = FieldExpr.vertex(s.momentum)
    assert res.order(2).equals(V.scale(-t))
    res = contract(ctx, b2cs[("f", (0, 1))], s.expr)
    assert res.order(2).is_zero and res.order(1).is_zero
    # H_i(z)s_j(w) regular
    for i in range(2):
        assert contract(ctx, b2cs[("h", i)], s.expr).is_regular()


def test_first_kind_a1_contract(a1cs):
    report = verify_first_kind(a1cs, first_kind(a1cs, 0))
    assert report.ok, [(c.label, c.detail) for c in report.failures()]


def test_second_kind_a1(a1cs):
    s = second_kind_mult_one(a1cs, 0)
    # (-beta)^{-t} e^{sqrt t phi}
    (term, coef), = s.expr.terms.items()
    assert term[1][0][1] == Exp(-1, 0, 0)
    report = verify_second_kind_mult_one(a1cs, s)
    assert report.ok, [(c.label, c.detail) for c in report.failures()]


def test_second_kind_b2_s1(b2cs):
    s = second_kind_mult_one(b2cs, 0)
    (term, coef), = s.expr.terms.items()
    assert term[1][0][1] == Exp(-1, 0, 0)  # exponent -t
    report = verify_second_kind_mult_one(b2cs, s)
    assert report.ok, [(c.label, c.detail) for c in report.failures()]


def test_second_kind_b2_witness_forms(b2cs):
    from wakimoto.screening import prop1_witness, screening_composite

    s = second_kind_mult_one(b2cs, 0)
    ctx = b2cs.ctx
    t = ctx.t()
    X = screening_composite(b2cs, 0)
    V = FieldExpr.vertex(s.momentum)
    i11 = b2cs.rs.root_index((1, 1))
    got = prop1_witness(b2cs, s, i11)
    expected = (
        FieldExpr.prim(GAMMA, 1) * FieldExpr.power(X, Exp(-1, -1, 0)) * V
    ).scale(-2 * t)
    assert got.equals(expected)
    ith = b2cs.rs.root_index((1, 2))
    got = prop1_witness(b2cs, s, ith)
    expected = (
        FieldExpr.prim(GAMMA, 1)
        * FieldExpr.prim(GAMMA, 1)
        * FieldExpr.power(X, Exp(-1, -1, 0))
        * V
    ).scale(t)
    assert got.equals(expected)
    i2 = b2cs.rs.root_index((0, 1))
    assert prop1_witness(b2cs, s, i2).is_structurally_zero


def test_second_kind_a2_both_directions():
    rs = build_root_system("A2")
    cs = build_wakimoto(rs, build_structure_table(rs))
    for j in (0, 1):
        s = second_kind_mult_one(cs, j)
        rep = verify_second_kind_mult_one(cs, s)
        assert rep.ok, [(c.label, c.detail) for c in rep.failures()]


def test_second_kind_rejects_multiplicity_two(b2cs):
    with pytest.raises(DirectionError):
        second_kind_mult_one(b2cs, 1)


def test_naive_failure_direction_two(b2cs):
    fail = naive_second_kind_failure(b2cs, 1)
    assert fail.nonvanishing
    assert fail.matches_expected_shape
    # the offending contracted sequence contains -gamma^1/3 on beta_theta
    txt = fail.third_order_pole.text(b2cs.ctx)
    assert "gamma" in txt


def test_naive_failure_rejects_mult_one(b2cs):
    with pytest.raises(DirectionError):
        naive_second_kind_failure(b2cs, 0)


def test_b2_series_term_weight_is_one(b2cs):
    s = second_kind_b2(b2cs)
    w = s.expr.body.weight(b2cs.ctx)
    assert w == RatFunc.of(1)


def test_b2_series_base_matches_first_kind_composite(b2cs):
    from wakimoto.screening import screening_composite, _b2_bases

    A, B = _b2_bases(b2cs)
    assert B.equals(screening_composite(b2cs, 1))
    # A has conformal weight 2
    assert A.weight(b2cs.ctx) == RatFunc.of(2)


def test_b2_series_recursion_consistency(b2cs):
    from wakimoto.series import cn_ratio

    # (-2t-2n)(-2t-2n-1) C_n = 2(n+1) C_{n+1}
    t = RatFunc.t(3)
    n = RatFunc.n()
    lhs = (-2 * t - 2 * n) * (-2 * t - 2 * n - 1)
    assert cn_ratio(3) * (2 * (n + 1)) == lhs


def test_series_reindex_roundtrip(b2cs):
    s = second_kind_b2(b2cs)
    body = s.expr.body
    shifted = SeriesExpr(body.shift_n(1))
    back = SeriesExpr(shifted.body.shift_n(-1))
    assert back.equals(SeriesExpr(body), b2cs.ctx)
    # anchoring a shifted representation agrees with the original
    assert shifted.anchored(b2cs.ctx).body.is_structurally_zero is False


def test_second_kind_b2_series_full_verification(b2cs):
    s = second_kind_b2(b2cs)
    report = verify_second_kind_b2(b2cs, s)
    assert report.ok, [(c.label, c.detail) for c in report.failures()]


@pytest.mark.parametrize("change", ["scaled", "removed"])
def test_second_kind_b2_series_negative_controls(b2cs, change):
    # the series zero test must also be able to say "nonzero"
    s = second_kind_b2(b2cs)
    witnesses = b2_series_witnesses(b2cs, s)
    for label, witness in witnesses.items():
        wrong = dict(witnesses)
        if change == "scaled":
            wrong[label] = witness.scale(2)
        else:
            del wrong[label]
        report = verify_screening(b2cs, s, wrong)
        assert [c.label for c in report.failures()] == [label]
        prefix, residual = report.failures()[0].detail.split(": ", 1)
        assert prefix == "pole 2 mismatch"
        assert residual not in ("", "0") and "beta" in residual


def test_osp22_second_kind():
    cs = osp22_currents()
    s = second_kind_osp22(cs)
    from wakimoto.screening import verify_second_kind_osp22

    report = verify_second_kind_osp22(cs, s)
    assert report.ok, [(c.label, c.detail) for c in report.failures()]


def test_integer_exponent_degeneration_a1(a1cs):
    """At t = -3 the rank-1 current has exponent 3; plain Wick must agree."""
    ctx = a1cs.ctx
    s = second_kind_mult_one(a1cs, 0)
    tval = Fraction(-3)
    X = FieldExpr.prim(BETA, 0, coef=-1)
    planted = X * X * X * FieldExpr.vertex(tuple(c.subs_k(tval - 2) for c in s.momentum))
    special = s.expr.subs_t(ctx, tval)
    assert special.equals(planted)
    for label, J in a1cs.currents.items():
        lhs = contract(ctx, _subs_k(J, tval - 2), special)
        rhs = contract(ctx, _subs_k(J, tval - 2), planted)
        for q in set(lhs.poles) | set(rhs.poles):
            assert lhs.order(q).equals(rhs.order(q)), (label, q)


def test_integer_exponent_degeneration_b2_naive():
    """At t = -3/2 the naive direction-2 exponent is 3: both sides defined."""
    rs = build_root_system("B2")
    cs = build_wakimoto(rs, build_structure_table(rs))
    ctx = cs.ctx
    from wakimoto.screening import _prop1_form, screening_composite

    s = _prop1_form(cs, 1)
    tval = Fraction(-3, 2)
    kval = tval - 3
    X = screening_composite(cs, 1)
    Xs = _subs_k(X, kval)
    V = FieldExpr.vertex(tuple(c.subs_k(kval) for c in s.momentum))
    planted = Xs * Xs * Xs * V
    special = s.expr.subs_t(ctx, tval)
    assert special.equals(planted)
    probe = _subs_k(cs[("e", (1, 0))], kval)
    lhs = contract(ctx, probe, special)
    rhs = contract(ctx, probe, planted)
    for q in set(lhs.poles) | set(rhs.poles):
        assert lhs.order(q).equals(rhs.order(q)), q


def test_series_ope_specializes_to_integer_powers(b2cs):
    """The symbolic-n OPE per series term specializes to plain expansion."""
    from wakimoto.screening import _b2_bases, second_kind_momentum

    ctx = b2cs.ctx
    A, B = _b2_bases(b2cs)
    V = FieldExpr.vertex(second_kind_momentum(ctx, 1))
    body = (
        FieldExpr.power(A, Exp(0, 0, 1)) * FieldExpr.power(B, Exp(-2, 0, -2)) * V
    )
    J = b2cs[("f", b2cs.rs.theta)]
    res_sym = contract(ctx, J, body)

    def subs_n_expr(e, n0):
        out = FieldExpr.zero()
        for (prims, pfs, vert), coef in e.terms.items():
            npfs = tuple((key, Exp(x.u, x.v + x.w * n0, 0)) for key, x in pfs)
            out = out + FieldExpr._from_raw([(coef.subs_n(n0), prims, npfs, vert)])
        return out

    for n0 in (0, 1, 2):
        direct = FieldExpr.power(B, Exp(-2, -2 * n0, 0)) * V
        for _ in range(n0):
            direct = direct * A
        res_dir = contract(ctx, J, direct)
        for q in set(res_sym.poles) | set(res_dir.poles):
            assert subs_n_expr(res_sym.order(q), n0).equals(res_dir.order(q)), (n0, q)


def test_b2_series_tests_each_pole_once(b2cs, monkeypatch):
    """One series residual per pole order tested, and none for witness texts."""
    s = second_kind_b2(b2cs)
    calls = []
    residual = SeriesExpr.residual

    def counted(self, ctx):
        calls.append(1)
        return residual(self, ctx)

    monkeypatch.setattr(SeriesExpr, "residual", counted)
    report = verify_second_kind_b2(b2cs, s)
    monkeypatch.undo()
    assert report.ok
    from wakimoto.ope import free_field_tensor

    ctx = b2cs.ctx
    probes = list(b2cs.currents.values()) + [free_field_tensor(ctx)]
    poles = sum(len(set(contract(ctx, J, s.expr.body).poles) | {1, 2}) for J in probes)
    assert len(calls) == poles == 25


def test_second_kind_b2_witnesses_are_summands(b2cs):
    s = second_kind_b2(b2cs)
    assert s.body is s.expr.body
    for w in b2_series_witnesses(b2cs, s).values():
        assert isinstance(w, FieldExpr) and not w.is_structurally_zero


def test_prop1_negative_control_shows_unexpanded_difference():
    from wakimoto.fields import expand_power_levels
    from wakimoto.screening import prop1_witness

    rs = build_root_system("A2")
    cs = build_wakimoto(rs, build_structure_table(rs))
    s = second_kind_mult_one(cs, 0)
    assert s.body is s.expr
    label = ("f", (1, 1))
    wrong = {("f", al): prop1_witness(cs, s, a) for a, al in enumerate(rs.pos_roots)}
    wrong[label] = wrong[label].scale(2)
    report = verify_screening(cs, s, wrong)
    assert [c.label for c in report.failures()] == [label]
    diff = contract(cs.ctx, cs[label], s.expr).order(2) - wrong[label]
    detail = report.failures()[0].detail
    assert detail == "pole 2 mismatch: " + diff.text(cs.ctx)
    assert detail != "pole 2 mismatch: " + expand_power_levels(diff).text(cs.ctx)
