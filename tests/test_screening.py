from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakimoto import screening
from wakimoto.coeffs import Exp, RatFunc
from wakimoto.currents import CurrentSet, PackedCurrents, build_wakimoto, osp22_currents
from wakimoto.fields import BETA, GAMMA, FieldExpr
from wakimoto.liealg import build_root_system, build_structure_table, get_algebra
from wakimoto.ope import contract
from wakimoto.screening import (
    DirectionError,
    ScreeningCurrent,
    b2_series_witnesses,
    first_kind,
    first_kind_witness,
    naive_second_kind_failure,
    screening_composite,
    second_kind_b2,
    second_kind_mult_one,
    second_kind_osp22,
    verify_first_kind,
    verify_screening,
    verify_second_kind_b2,
    verify_second_kind_mult_one,
)
from wakimoto.series import SeriesExpr

from test_cli import _FLIPPED_JSON


def _subs_k(expr, kval):
    """expr with k = kval in every coefficient and vertex momentum."""
    raw = []
    for (prims, pfs, vertex), coef in expr.terms.items():
        nv = tuple(c.subs_k(kval) for c in vertex) if vertex is not None else None
        raw.append((RatFunc.of(coef).subs_k(kval), prims, pfs, nv))
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
    rs = b2cs.rs
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
    rs = b2cs.rs
    t = RatFunc.t(rs.hvee)
    res = contract(rs, b2cs[("f", (1, 0))], s.expr)
    V = FieldExpr.vertex(s.momentum)
    assert res.order(2).equals(V.scale(-t))
    res = contract(rs, b2cs[("f", (0, 1))], s.expr)
    assert res.order(2).is_zero and res.order(1).is_zero
    # H_i(z)s_j(w) regular
    for i in range(2):
        assert contract(rs, b2cs[("h", i)], s.expr).is_regular()


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
    rs = b2cs.rs
    t = RatFunc.t(rs.hvee)
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
    txt = fail.third_order_pole.text(b2cs.rs)
    assert "gamma" in txt


def test_naive_failure_rejects_mult_one(b2cs):
    with pytest.raises(DirectionError):
        naive_second_kind_failure(b2cs, 0)


def test_b2_series_term_weight_is_one(b2cs):
    s = second_kind_b2(b2cs)
    w = s.expr.body.weight(b2cs.rs)
    assert w == RatFunc.of(1)


def test_b2_series_base_matches_first_kind_composite(b2cs):
    from wakimoto.screening import screening_composite, _b2_bases

    A, B = _b2_bases(b2cs)
    assert B.equals(screening_composite(b2cs, 1))
    # A has conformal weight 2
    assert A.weight(b2cs.rs) == RatFunc.of(2)


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
    assert back.equals(SeriesExpr(body), b2cs.rs)
    # anchoring a shifted representation agrees with the original
    assert shifted.anchored(b2cs.rs).body.is_structurally_zero is False


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
    rs = a1cs.rs
    s = second_kind_mult_one(a1cs, 0)
    tval = Fraction(-3)
    X = FieldExpr.prim(BETA, 0, coef=-1)
    planted = X * X * X * FieldExpr.vertex(tuple(c.subs_k(tval - 2) for c in s.momentum))
    special = s.expr.subs_t(rs, tval)
    assert special.equals(planted)
    for label, J in a1cs.currents.items():
        lhs = contract(rs, _subs_k(J, tval - 2), special)
        rhs = contract(rs, _subs_k(J, tval - 2), planted)
        for q in set(lhs.poles) | set(rhs.poles):
            assert lhs.order(q).equals(rhs.order(q)), (label, q)


def test_integer_exponent_degeneration_b2_naive():
    """At t = -3/2 the naive direction-2 exponent is 3: both sides defined."""
    rs = build_root_system("B2")
    cs = build_wakimoto(rs, build_structure_table(rs))
    from wakimoto.screening import _prop1_form, screening_composite

    s = _prop1_form(cs, 1)
    tval = Fraction(-3, 2)
    kval = tval - 3
    X = screening_composite(cs, 1)
    Xs = _subs_k(X, kval)
    V = FieldExpr.vertex(tuple(c.subs_k(kval) for c in s.momentum))
    planted = Xs * Xs * Xs * V
    special = s.expr.subs_t(rs, tval)
    assert special.equals(planted)
    probe = _subs_k(cs[("e", (1, 0))], kval)
    lhs = contract(rs, probe, special)
    rhs = contract(rs, probe, planted)
    for q in set(lhs.poles) | set(rhs.poles):
        assert lhs.order(q).equals(rhs.order(q)), q


def test_series_ope_specializes_to_integer_powers(b2cs):
    """The symbolic-n OPE per series term specializes to plain expansion."""
    from wakimoto.screening import _b2_bases, second_kind_momentum

    rs = b2cs.rs
    A, B = _b2_bases(b2cs)
    V = FieldExpr.vertex(second_kind_momentum(rs, 1))
    body = (
        FieldExpr.power(A, Exp(0, 0, 1)) * FieldExpr.power(B, Exp(-2, 0, -2)) * V
    )
    J = b2cs[("f", b2cs.rs.theta)]
    res_sym = contract(rs, J, body)

    def subs_n_expr(e, n0):
        out = FieldExpr.zero()
        for (prims, pfs, vert), coef in e.terms.items():
            npfs = tuple((key, Exp(x.u, x.v + x.w * n0, 0)) for key, x in pfs)
            out = out + FieldExpr._from_raw([(RatFunc.of(coef).subs_n(n0), prims, npfs, vert)])
        return out

    for n0 in (0, 1, 2):
        direct = FieldExpr.power(B, Exp(-2, -2 * n0, 0)) * V
        for _ in range(n0):
            direct = direct * A
        res_dir = contract(rs, J, direct)
        for q in set(res_sym.poles) | set(res_dir.poles):
            assert subs_n_expr(res_sym.order(q), n0).equals(res_dir.order(q)), (n0, q)


def test_b2_series_tests_each_pole_once(b2cs, monkeypatch):
    """One series residual per pole order tested, and none for witness texts."""
    s = second_kind_b2(b2cs)
    calls = []
    residual = SeriesExpr.residual

    def counted(self, rs):
        calls.append(1)
        return residual(self, rs)

    monkeypatch.setattr(SeriesExpr, "residual", counted)
    report = verify_second_kind_b2(b2cs, s)
    monkeypatch.undo()
    assert report.ok
    from wakimoto.ope import free_field_tensor

    rs = b2cs.rs
    probes = list(b2cs.currents.values()) + [free_field_tensor(rs)]
    poles = sum(len(set(contract(rs, J, s.expr.body).poles) | {1, 2}) for J in probes)
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
    diff = contract(cs.rs, cs[label], s.expr).order(2) - wrong[label]
    detail = report.failures()[0].detail
    assert detail == "pole 2 mismatch: " + diff.text(cs.rs)
    assert detail != "pole 2 mismatch: " + expand_power_levels(diff).text(cs.rs)


# ---------------------------------------------------------------------------
# first-kind verdicts: closed-form poles against Wick's theorem
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _built(label):
    """The built current set of a built-in algebra or of a sign-flipped JSON table."""
    if label.startswith("flipped-"):
        data = _FLIPPED_JSON[label.removeprefix("flipped-")]
        rs = build_root_system(data["cartan_matrix"], name=data["name"])
        signs = {tuple(map(int, key.split(","))): v for key, v in data["extraspecial_signs"].items()}
        return build_wakimoto(rs, build_structure_table(rs, signs))
    return build_wakimoto(*get_algebra(label))


def _wick(cs):
    """``cs`` without packed currents, so that Wick's theorem decides every label."""
    out = CurrentSet(cs.rs, cs.tab, currents=cs.currents, polys=cs.polys)
    out.__dict__["packed"] = None
    return out


def _witnesses(cs, s, witness=first_kind_witness):
    return {("f", al): w for a, al in enumerate(cs.rs.pos_roots) if not (w := witness(cs, s, a)).is_zero}


def _closed(cs, s, wit):
    """The labels the closed-form poles decide, with the pole orders they refute."""
    return cs.packed.refuted_labels(PackedCurrents.screening_rows(cs.rs, s.body), wit)


def _both(cs, s, wit):
    """The checks of the packed route, asserted equal to those of an all-Wick run."""
    packed = verify_screening(cs, s, wit).checks
    assert packed == verify_screening(_wick(cs), s, wit).checks
    return packed


def _failed(checks):
    return [c.label for c in checks if not c.ok]


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "flipped-A4", "flipped-C3"]
)
def test_first_kind_verdicts_agree_with_wick_on_every_direction(label):
    cs = _built(label)
    for j in range(cs.rs.rank):
        s = first_kind(cs, j)
        wit = _witnesses(cs, s)
        assert _closed(cs, s, wit) == {lab: [] for lab in cs.labels()}
        checks = _both(cs, s, wit)
        assert len(checks) == len(cs.labels()) + 1 and all(c.ok for c in checks)


@pytest.mark.parametrize("label", ["B2", "G2", "A3"])
def test_scaled_first_kind_witnesses_fail_the_same_labels_on_both_routes(label):
    cs = _built(label)
    for j in range(cs.rs.rank):
        s = first_kind(cs, j)
        wit = {lab: w.scale(2) for lab, w in _witnesses(cs, s).items()}
        assert {lab for lab, orders in _closed(cs, s, wit).items() if orders} == set(wit)
        checks = _both(cs, s, wit)
        assert set(_failed(checks)) == set(wit)
        assert all(c.detail.startswith("pole 2 mismatch: ") for c in checks if not c.ok)


def test_a_witness_with_an_extra_term_fails_on_both_routes(b2cs):
    s = first_kind(b2cs, 0)
    wit = _witnesses(b2cs, s)
    label = ("f", b2cs.rs.theta)
    wit[label] = wit[label] + FieldExpr.prim(GAMMA, 1) * FieldExpr.vertex(s.momentum)
    assert _closed(b2cs, s, wit)[label] == [2, 1]
    assert _failed(_both(b2cs, s, wit)) == [label]


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_a_witness_times_t_is_decided_in_closed_form(label):
    """t R has k^2 terms; k is never differentiated, so the packing takes it
    and refutes it, with the checks of the Wick route."""
    cs = _built(label)
    s = first_kind(cs, 0)
    wit = _witnesses(cs, s)
    lab = ("f", cs.rs.pos_roots[0])
    wit[lab] = wit[lab].scale(RatFunc.t(cs.rs.hvee))
    assert _closed(cs, s, wit)[lab] == [2, 1]
    assert _failed(_both(cs, s, wit)) == [lab]


def test_a_body_with_a_doubled_momentum_fails_on_both_routes(b2cs):
    s = first_kind(b2cs, 1)
    mom = tuple(c * 2 for c in s.momentum)
    doubled = ScreeningCurrent("first", 1, screening_composite(b2cs, 1) * FieldExpr.vertex(mom), mom)
    wit = _witnesses(b2cs, doubled)
    closed = _closed(b2cs, doubled, wit)
    assert closed.keys() == set(b2cs.labels())
    failed = _failed(_both(b2cs, doubled, wit))
    assert failed == [lab for lab, orders in closed.items() if orders] + [("T", 0)]
    assert len(failed) > 2


def test_a_label_refuted_in_closed_form_fails_even_when_wick_passes_it(b2cs, monkeypatch):
    """Wick's theorem is made to pass doubled witnesses by doubling each current it contracts."""
    s = first_kind(b2cs, 0)
    wit = {lab: w.scale(2) for lab, w in _witnesses(b2cs, s).items()}
    currents = [id(J) for J in b2cs.currents.values()]
    real = screening.contract

    def doubled(rs, a, b, *args):
        return real(rs, a.scale(2) if id(a) in currents else a, b, *args)

    monkeypatch.setattr(screening, "contract", doubled)
    report = verify_screening(b2cs, s, wit)
    assert set(_failed(report.checks)) == set(wit)
    assert {c.detail for c in report.failures()} == {
        "the closed-form poles refute this label and Wick's theorem does not"
    }
    assert verify_screening(_wick(b2cs), s, wit).ok


def _contracted(monkeypatch, cs, s, wit):
    """The checks of ``verify_screening`` and the labels it gave Wick's theorem ("T" for T)."""
    names = {id(J): lab for lab, J in cs.currents.items()}
    seen = []
    real = screening.contract

    def spy(rs, a, b, *args):
        seen.append(names.get(id(a), "T"))
        return real(rs, a, b, *args)

    monkeypatch.setattr(screening, "contract", spy)
    checks = verify_screening(cs, s, wit).checks
    monkeypatch.undo()
    assert checks == verify_screening(_wick(cs), s, wit).checks
    return checks, seen


def test_first_kind_bodies_of_another_shape_go_to_wick(b2cs, monkeypatch):
    s = first_kind(b2cs, 0)
    wit = _witnesses(b2cs, s)
    V2 = FieldExpr.vertex(tuple(c * 2 for c in s.momentum))
    bodies = {
        "power factor": s.expr * FieldExpr.power(screening_composite(b2cs, 1), Exp(-1, 0, 0)),
        "term without V": s.expr + FieldExpr.prim(BETA, 1),
        "two momenta": s.expr + FieldExpr.prim(BETA, 1) * V2,
    }
    _, seen = _contracted(monkeypatch, b2cs, s, wit)
    assert seen == ["T"]
    for name, body in bodies.items():
        other = ScreeningCurrent("first", 0, body, s.momentum)
        checks, seen = _contracted(monkeypatch, b2cs, other, wit)
        assert seen == b2cs.labels() + ["T"], name
        assert _failed(checks), name


def test_witnesses_of_another_shape_go_to_wick(b2cs, monkeypatch):
    s = first_kind(b2cs, 0)
    V = FieldExpr.vertex(s.momentum)
    label = ("f", b2cs.rs.theta)
    changes = {
        "power factor": lambda w: w * FieldExpr.power(screening_composite(b2cs, 1), Exp(-1, 0, 0)),
        "term without V": lambda w: w + FieldExpr.prim(GAMMA, 0),
        "two momenta": lambda w: w + FieldExpr.prim(GAMMA, 0) * V * V,
        "a slot factor": lambda w: w + FieldExpr.prim(BETA, 0) * V,
        "denominator outside D": lambda w: w + FieldExpr.prim(GAMMA, 0, coef=Fraction(1, 101)) * V,
    }
    for name, change in changes.items():
        wit = _witnesses(b2cs, s)
        wit[label] = change(wit[label])
        checks, seen = _contracted(monkeypatch, b2cs, s, wit)
        assert seen == [label, "T"], name
        assert _failed(checks) == [label], name


@settings(deadline=None, max_examples=40)
@given(
    st.data(),
    st.lists(st.integers(0, 4), min_size=4, max_size=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool),
)
def test_routes_agree_on_perturbed_witnesses(data, expo, c):
    """A witness plus c gamma^e V, with e and the denominator of c also
    beyond what the packing covers: both routes give the same checks."""
    cs = _built("B2")
    j = data.draw(st.integers(0, 1))
    s = first_kind(cs, j)
    wit = _witnesses(cs, s)
    label = data.draw(st.sampled_from(cs.labels()))
    term = FieldExpr.const(c)
    for pos, e in enumerate(expo):
        for _ in range(e):
            term = term * FieldExpr.prim(GAMMA, pos)
    wit[label] = wit.get(label, FieldExpr.zero()) + term * FieldExpr.vertex(s.momentum)
    assert _failed(_both(cs, s, wit)) == [label]
