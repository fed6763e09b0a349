import copy
import pickle
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from wakimoto import currents
from wakimoto.cli import run_suite
from wakimoto.coeffs import RatFunc
from wakimoto.fields import BETA, GAMMA, PHI, FieldExpr, term_order
from wakimoto.currents import (
    CurrentSet,
    PackedCurrents,
    build_wakimoto,
    check_pair,
    current_slots,
    expected_ope,
    free_field_image,
    osp22_currents,
    sugawara_tensor,
    verify_current_algebra,
    wick_pair,
    with_k,
)
from wakimoto.liealg import build_root_system, build_structure_table, get_algebra
from wakimoto.ope import conformal_weight, contract, free_field_tensor
from wakimoto.polymat import Poly

from fixtures_b2 import B2_ANOMALOUS, B2_DIFFOPS
from test_cli import _FLIPPED_JSON, _refuse
from oracles import (
    assert_one_form_terms,
    engine_vacuum_series,
    expected_ope_reference,
    vacuum_two_point,
)


@pytest.fixture(scope="module")
def b2cs():
    rs = build_root_system("B2")
    tab = build_structure_table(rs)
    return build_wakimoto(rs, tab)


@pytest.fixture(scope="module")
def a1cs():
    rs = build_root_system("A1")
    return build_wakimoto(rs, build_structure_table(rs))


def reference_current(cs, label):
    """Current rebuilt from the printed realization plus anomalous terms."""
    rs = cs.rs
    k = RatFunc.k()
    dspec, lspec = B2_DIFFOPS[label]
    expr = FieldExpr.zero()
    for pos, terms in dspec.items():
        for expo, coef in terms.items():
            term = FieldExpr.const(coef)
            for p, mult in enumerate(expo):
                for _ in range(mult):
                    term = term * FieldExpr.prim(GAMMA, p)
            expr = expr + term * FieldExpr.prim(BETA, pos)
    for j, terms in lspec.items():
        for expo, coef in terms.items():
            term = FieldExpr.const(coef)
            for p, mult in enumerate(expo):
                for _ in range(mult):
                    term = term * FieldExpr.prim(GAMMA, p)
            expr = expr + term * FieldExpr.prim(PHI, j)
    for (expo, pos), (ck, c0) in B2_ANOMALOUS.get(label, {}).items():
        term = FieldExpr.const(k * ck + c0)
        for p, mult in enumerate(expo):
            for _ in range(mult):
                term = term * FieldExpr.prim(GAMMA, p)
        expr = expr + term * FieldExpr.prim(GAMMA, pos, 1)
    return expr


def test_b2_currents_match_reference_list(b2cs):
    for label in B2_DIFFOPS:
        assert b2cs[label].equals(reference_current(b2cs, label)), label


def test_e_theta_is_beta_theta(b2cs):
    ith = b2cs.rs.root_index(b2cs.rs.theta)
    assert b2cs[("e", b2cs.rs.theta)].equals(FieldExpr.prim(BETA, ith))


def test_raising_and_cartan_have_no_anomalous_terms(b2cs):
    for label, cur in b2cs.currents.items():
        if label[0] == "f":
            continue
        for (prims, pfs, vertex) in cur.terms:
            for kind, lab, deriv in prims:
                if kind in (GAMMA,) and deriv > 0:
                    raise AssertionError(f"d(gamma) term in {label}")


def test_e_theta_f_theta_pair(b2cs):
    rs = b2cs.rs
    res = contract(b2cs.rs, b2cs[("e", rs.theta)], b2cs[("f", rs.theta)])
    k = RatFunc.k()
    assert res.order(2).equals(FieldExpr.const(k))
    assert res.order(1).equals(b2cs[("h", 0)] + b2cs[("h", 1)])
    assert res.order(3).is_zero


def test_e_e_pair_regular(b2cs):
    rs = b2cs.rs
    e1 = b2cs[("e", (1, 0))]
    assert contract(b2cs.rs, e1, e1).is_regular()


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "G2"])
def test_small_algebra_sweep(label):
    rs = build_root_system(label)
    cs = build_wakimoto(rs, build_structure_table(rs))
    assert verify_current_algebra(cs) == []


def test_b2_full_sweep(b2cs):
    assert verify_current_algebra(b2cs) == []


def test_sweep_detects_wrong_current(b2cs):
    broken = dict(b2cs.currents)
    broken[("e", (1, 0))] = broken[("e", (1, 0))] + FieldExpr.prim(BETA, 3)
    cs2 = CurrentSet(b2cs.rs, b2cs.tab, currents=broken)
    bad = {v.pair for v in verify_current_algebra(cs2)}
    assert (("e", (1, 0)), ("f", (1, 2))) in bad


def _all_pairs(cs):
    return [(a, b) for a in cs.labels() for b in cs.labels()]


def _both_routes(cs, pairs):
    """The (a, b, order) refuted by the closed-form poles, and Wick's violations in pair order."""
    packed = cs.packed
    assert packed is not None
    by_packed = {(a, b, q) for a, b in pairs for q in packed.refuted_orders(a, b)}
    return by_packed, [v for a, b in pairs for v in wick_pair(cs, a, b)]


def _orders(violations):
    return {(*v.pair, v.order) for v in violations}


def _with_rows(cs):
    """``cs``, built from given currents, with the rows ``split`` reads off
    them injected, so that the closed form decides it too."""
    cs.__dict__["rows"] = {lab: PackedCurrents.split(cs.rs, J)[0][:-1] for lab, J in cs.currents.items()}
    return cs


def _planted(cs, defect):
    """``cs`` with one wrong current, and its rows: "canary" adds beta_theta
    to e_alpha1, "drop" drops the first d gamma term of f_theta, "level"
    doubles the level part of f_theta's d gamma terms."""
    rs, cur = cs.rs, dict(cs.currents)
    if defect == "canary":
        e1, th = ("e", rs.pos_roots[0]), rs.root_index(rs.theta)
        cur[e1] = cur[e1] + FieldExpr.prim(BETA, th)
    else:
        f = ("f", rs.theta)
        dgamma = {t: c for t, c in cur[f].terms.items() if any(d for _, _, d in t[0])}
        if defect == "drop":
            first = min(dgamma, key=term_order)
            cur[f] = FieldExpr({t: c for t, c in cur[f].terms.items() if t != first})
        else:
            level = [(RatFunc.of(c) - RatFunc.of(c).subs_k(0), *t) for t, c in dgamma.items()]
            cur[f] = cur[f] + FieldExpr._from_raw(level)
    return _with_rows(CurrentSet(rs, cs.tab, currents=cur))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_packed_and_wick_refute_the_same_pairs(label):
    cs = build_wakimoto(*get_algebra(label))
    assert _both_routes(cs, _all_pairs(cs)) == (set(), [])
    assert [v for a, b in _all_pairs(cs) for v in check_pair(cs, a, b)] == []


@pytest.mark.parametrize("label", ["A4", "C3"])
def test_packed_and_wick_agree_on_sign_flipped_tables(label):
    """A seeded sample of 40 pairs of each sign-flipped table, as built and
    with the level part of f_theta doubled; the sample holds refuted pairs."""
    data = _FLIPPED_JSON[label]
    rs = build_root_system(data["cartan_matrix"], name=label)
    signs = {tuple(map(int, key.split(","))): v for key, v in data["extraspecial_signs"].items()}
    cs = build_wakimoto(rs, build_structure_table(rs, signs))
    pairs = random.Random(1).sample(_all_pairs(cs), 40)
    assert _both_routes(cs, pairs) == (set(), [])
    by_packed, wick = _both_routes(_planted(cs, "level"), pairs)
    assert by_packed == _orders(wick) and wick


@pytest.mark.parametrize(
    "label, defect, count",
    [("A3", "canary", 20), ("A3", "drop", 31), ("A3", "level", 31),
     ("G2", "drop", 29), ("G2", "level", 29)],
)
def test_planted_defects_fail_the_same_pairs_on_both_routes(label, defect, count):
    """The sweep reports Wick's violations, in pair order, for exactly the
    pairs the closed-form poles refute."""
    cs = _planted(build_wakimoto(*get_algebra(label)), defect)
    by_packed, wick = _both_routes(cs, _all_pairs(cs))
    assert verify_current_algebra(cs) == wick
    assert by_packed == _orders(wick)
    assert len({v.pair for v in wick}) == count


def test_a_pair_refuted_in_closed_form_fails_even_when_wick_passes_it(monkeypatch):
    cs = _planted(build_wakimoto(*get_algebra("A3")), "canary")
    monkeypatch.setattr(currents, "wick_pair", lambda cs, a, b: [])
    bad = verify_current_algebra(cs)
    assert len(bad) == 20 and all("Wick" in v.detail for v in bad)
    ok, details = run_suite(cs, "currents", None)
    assert not ok and len(details["violations"]) == 20


@pytest.mark.parametrize("defect", ["canary", "drop", "level", "f", "kappa"])
def test_check_pair_is_wick_pair_on_every_planted_pair(defect):
    """The closed form decides each pair of a planted A3 set first, and the
    violations are those of Wick's theorem on every ordered pair."""
    cs = build_wakimoto(*get_algebra("A3"))
    cs = _one_sided(cs, defect) if defect in ("f", "kappa") else _planted(cs, defect)
    assert cs.packed is not None
    for a, b in _all_pairs(cs):
        assert check_pair(cs, a, b) == wick_pair(cs, a, b), (a, b)


# a planted defect fails on the first failing draw, unshrunk: shrinking re-runs Wick's theorem per step
_NO_SHRINK = tuple(p for p in Phase if p != Phase.shrink)


@st.composite
def _planted_rows(draw):
    """A fresh A2, B2 or G2 set, one current of it, and its rows with one drawn
    monomial, with or without k, added to one beta, dphi or d gamma row."""
    cs = CurrentSet(*get_algebra(draw(st.sampled_from(["A2", "B2", "G2"]))))
    np_, rows = cs.rs.n_pos, dict(cs.rows)
    label = draw(st.sampled_from(sorted(rows)))
    # the beta_b, dphi_j or d gamma_b rows, as (first slot, count)
    start, size = draw(st.sampled_from([(0, np_), (np_, cs.rs.rank), (np_ + cs.rs.rank, np_)]))
    y = start + draw(st.integers(0, size - 1))
    expo = draw(st.tuples(*[st.integers(0, 1)] * np_, st.integers(0, 1)))
    coef = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))
    row = rows[label][y]
    rows[label] = list(rows[label])
    rows[label][y] = (row if row.nvars > np_ else with_k(row)) + Poly(np_ + 1, {expo: coef})
    cs.__dict__["rows"] = rows
    return cs, label


@settings(deadline=None, max_examples=20, phases=_NO_SHRINK)
@given(_planted_rows())
def test_a_defect_planted_in_any_row_is_decided_as_wick_decides_it(planted):
    """A monomial planted in any slot of one current, the dphi rows and the d gamma
    rows of E and H included: the closed form and Wick's theorem give the same
    violations on every ordered pair that involves that current."""
    cs, label = planted
    for other in cs.labels():
        for a, b in {(label, other), (other, label)}:
            assert check_pair(cs, a, b) == wick_pair(cs, a, b), (a, b)


def test_a_holding_pair_builds_no_field_expression_current():
    """``check_pair`` decides a pair that holds from the packed rows alone."""
    cs = CurrentSet(*get_algebra("B3"))
    th = cs.rs.theta
    assert check_pair(cs, ("e", th), ("f", th)) == []
    assert cs.packed is not None and "currents" not in vars(cs)


def test_check_pair_reports_a_refuted_pair_that_wick_passes(monkeypatch):
    """A pair the closed form refutes fails even when Wick's theorem passes it."""
    cs = _planted(build_wakimoto(*get_algebra("A3")), "canary")
    rs = cs.rs
    pair = (("e", rs.pos_roots[0]), ("f", rs.theta))
    assert wick_pair(cs, *pair)
    monkeypatch.setattr(currents, "wick_pair", lambda cs, a, b: [])
    assert check_pair(cs, *pair) == [currents.SweepViolation(
        pair, cs.packed.refuted_orders(*pair)[0], "the closed-form poles refute this pair and Wick's theorem does not")]


def _every_pair_decided(cs):
    """Wick's violations for each ordered pair the closed-form poles refute,
    every ordered pair decided on its own, in pair order."""
    packed = cs.packed
    return [v for a, b in _all_pairs(cs) if packed.refuted_orders(a, b) for v in wick_pair(cs, a, b)]


def _one_sided(cs, kind):
    """``cs`` over a copy of its table with one entry of one ordered pair doubled,
    and its rows: "f" doubles f[(f_{alpha1+alpha2}, e_alpha1)], "kappa"
    kappa[(f_alpha1, e_alpha1)]."""
    tab, (a1, *_, a12) = copy.deepcopy(cs.tab), cs.rs.pos_roots[:cs.rs.rank + 1]
    if kind == "f":
        key = (("f", a12), ("e", a1))
        tab.f[key] = {c: 2 * v for c, v in tab.f[key].items()}
    else:
        key = (("f", a1), ("e", a1))
        tab.kappa[key] *= 2
    return _with_rows(CurrentSet(cs.rs, tab, currents=cs.currents, polys=cs.polys))


def _flipped_set(label):
    data = _FLIPPED_JSON[label]
    rs = build_root_system(data["cartan_matrix"], name=label)
    signs = {tuple(map(int, key.split(","))): v for key, v in data["extraspecial_signs"].items()}
    return build_wakimoto(rs, build_structure_table(rs, signs))


@pytest.mark.parametrize(
    "label, defects",
    [("A3", ("f",)), ("A3", ("kappa",)), ("A3", ("f", "canary")), ("A3", ("f", "drop")),
     ("A3", ("f", "level")), ("G2", ("f", "drop")), ("G2", ("f", "level")),
     ("A4", ("f", "canary")), ("C3", ("f", "canary"))],
)
def test_pairs_inferred_by_skew_symmetry_keep_every_violation(label, defects):
    """A (b, a) the sweep infers from a held (a, b) is never a failure the
    pair-by-pair decision reports: one-sided table defects, alone and with a
    planted current, give equal violation lists, in pair order."""
    cs = _flipped_set(label) if label in _FLIPPED_JSON else build_wakimoto(*get_algebra(label))
    for defect in defects:
        cs = _one_sided(cs, defect) if defect in ("f", "kappa") else _planted(cs, defect)
    bad = verify_current_algebra(cs)
    assert bad and bad == _every_pair_decided(cs)


def test_a_pair_of_odd_currents_is_inferred_with_the_graded_sign(monkeypatch):
    """For two odd currents skew-symmetry gives f_ba = f_ab and kappa_ba = -kappa_ab:
    the osp(2|2) sweep infers (f_a2, e_a2) from (e_a2, f_a2), and a table that
    writes that pair with the signs of even fields is reported, as pair by pair."""
    cs = osp22_currents()
    a, b = ("e", (0, 1)), ("f", (0, 1))
    computed = []
    monkeypatch.setattr(currents, "check_pair", lambda cs, x, y: computed.append((x, y)) or wick_pair(cs, x, y))
    assert verify_current_algebra(cs) == [] and (a, b) in computed and (b, a) not in computed
    tab = copy.deepcopy(cs.tab)
    tab.f[(b, a)] = {c: -v for c, v in tab.f[(a, b)].items()}
    tab.kappa[(b, a)] = tab.kappa[(a, b)]
    cs2 = CurrentSet(cs.rs, tab, currents=cs.currents)
    bad = verify_current_algebra(cs2)
    assert {v.pair for v in bad} == {(b, a)}
    assert bad == [v for x, y in _all_pairs(cs2) for v in wick_pair(cs2, x, y)]


def test_a_term_of_another_shape_goes_to_wick():
    """A bare gamma in e_alpha1 has no beta, dphi or d gamma factor: the
    set is swept by Wick, and the term is not dropped."""
    cs = build_wakimoto(*get_algebra("A1"))
    broken = dict(cs.currents)
    broken[("e", (1,))] = broken[("e", (1,))] + FieldExpr.prim(GAMMA, 0)
    cs2 = CurrentSet(cs.rs, cs.tab, currents=broken)
    assert cs2.packed is None
    ok, details = run_suite(cs2, "currents", None)
    assert not ok and details["route"] == "wick" and details["pairs"] == 9
    wick = [v for a, b in _all_pairs(cs2) for v in wick_pair(cs2, a, b)]
    assert wick and len(details["violations"]) == len(wick)
    assert run_suite(cs, "currents", None) == (True, {"pairs": 9, "route": "packed", "violations": []})


_B2 = build_root_system("B2")
# rows over B2's ten slots: polynomials in its four gammas and k, with rational coefficients
_b2_rows = st.lists(
    st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * (_B2.n_pos + 1)),
        st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
        max_size=3,
    ).map(lambda terms: Poly(_B2.n_pos + 1, terms)),
    min_size=len(current_slots(_B2)),
    max_size=len(current_slots(_B2)),
)


@settings(deadline=None, max_examples=60)
@given(_b2_rows)
def test_split_inverts_the_free_field_image(rows):
    """``split`` reads back every row, its denominator included, with nothing
    outside the slots and no momentum."""
    comps, mu = PackedCurrents.split(_B2, free_field_image(_B2, rows, current_slots(_B2)))
    assert mu is None and comps[-1].is_zero
    assert [(p.num, p.den) for p in comps[:-1]] == [(p.num, p.den) for p in rows]


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "flipped-A4", "flipped-C3"])
def test_each_current_is_the_image_of_its_rows(label):
    cs = _flipped_set(label.removeprefix("flipped-")) if label.startswith("flipped-") else (
        build_wakimoto(*get_algebra(label)))
    assert cs.rows.keys() == cs.currents.keys()
    np_ = cs.rs.n_pos
    for lab, rows in cs.rows.items():
        comps, mu = PackedCurrents.split(cs.rs, cs.current(lab))
        in_k = np_ if lab[0] == "f" else 0  # only a lowering current's d gamma rows carry k
        assert [p.nvars for p in rows] == [np_] * (len(rows) - in_k) + [np_ + 1] * in_k
        assert all(p is q for p, q in zip(rows, cs.ops[lab].coeffs))
        assert mu is None and comps[-1].is_zero and comps[:-1] == [with_k(p) if p.nvars == np_ else p for p in rows]


def test_passing_bosonic_suites_build_no_field_expression_current():
    """The currents and first-kind suites decide a fresh B3 set from its packed rows alone."""
    cs = CurrentSet(*get_algebra("B3"))
    for suite in ("currents", "screening-first"):
        ok, details = run_suite(cs, suite, None)
        assert ok, details
    assert cs.packed is not None and "currents" not in vars(cs)


def test_a_set_built_from_given_currents_takes_wick():
    """Given currents have no rows, so nothing is packed, and the planted pair
    e_alpha1 + beta_theta against f_theta is still reported."""
    built = build_wakimoto(*get_algebra("A2"))
    cur = dict(built.currents)
    cur[("e", (1, 0))] = cur[("e", (1, 0))] + FieldExpr.prim(BETA, built.rs.root_index(built.rs.theta))
    cs = CurrentSet(built.rs, built.tab, currents=cur)
    assert cs.rows is None and cs.packed is None
    ok, details = run_suite(cs, "currents", None)
    assert not ok and details["route"] == "wick"
    assert str((("e", (1, 0)), ("f", (1, 1)))) in {v["pair"] for v in details["violations"]}


def test_the_closed_form_needs_no_realization_polynomials(monkeypatch):
    """The packing is fitted to the rows and the table alone: a set built from
    given currents, with rows injected and one current planted wrong, refutes
    in closed form the pairs Wick's theorem refutes, and no realization
    polynomial is built."""
    cs = _planted(build_wakimoto(*get_algebra("A2")), "canary")
    monkeypatch.setattr(currents, "realization_polynomials", _refuse)
    refuted = {(a, b) for a, b in _all_pairs(cs) if cs.packed.refuted_orders(a, b)}
    assert refuted and refuted == {v.pair for a, b in _all_pairs(cs) for v in wick_pair(cs, a, b)}
    assert "polys" not in vars(cs)


@pytest.mark.parametrize("label", ["G2", "OSP22"])
def test_one_current_is_the_one_the_set_builds(label):
    """``current`` builds one current, the anomalous term only for a lowering
    one, and reads the ``currents`` stage once it is built."""
    built = CurrentSet(*get_algebra(label)).built()
    for lab in built.labels():
        cs = CurrentSet(built.rs, built.tab)
        assert cs.current(lab) == built.currents[lab]
        assert ("currents" in vars(cs)) == (label == "OSP22")
        assert ("anomalous" in vars(cs)) == (label != "OSP22" and lab[0] == "f")
    given = CurrentSet(built.rs, built.tab, currents=built.currents)
    assert all(given.current(lab) is built.currents[lab] for lab in built.labels())


def test_an_unbuilt_current_set_pickles_without_stages():
    cs = pickle.loads(pickle.dumps(CurrentSet(*get_algebra("B2"))))
    assert set(vars(cs)) == {"rs", "tab"}


def test_the_ctx_of_a_current_set_is_its_root_system(b2cs):
    """``ctx`` reads ``rs``; the argument takes the set's own root system and nothing else."""
    cs = CurrentSet(b2cs.rs, b2cs.tab, b2cs.ctx, b2cs.currents, b2cs.polys)
    assert cs.ctx is cs.rs is b2cs.rs and cs.currents is b2cs.currents
    assert set(vars(CurrentSet(b2cs.rs, b2cs.tab, b2cs.rs))) == {"rs", "tab"}
    for other in ("B2", get_algebra("A2")[0]):
        with pytest.raises(ValueError, match="own root system"):
            CurrentSet(b2cs.rs, b2cs.tab, other)


def test_a_built_current_set_unpickles_without_rebuilding(b2cs, monkeypatch):
    data = pickle.dumps(b2cs)

    def refuse(*args, **kwargs):
        raise AssertionError("a pickled stage was built again")

    for name in ("realization_polynomials", "build_differential_realization", "anomalous_term"):
        monkeypatch.setattr(currents, name, refuse)
    cs = pickle.loads(data)
    assert cs.currents == b2cs.currents and cs.ops.keys() == b2cs.ops.keys() and cs.rs == b2cs.rs
    assert cs.polys.V_plus == b2cs.polys.V_plus


@pytest.mark.parametrize("label", ["A3", "G2", "OSP22"])
def test_current_coefficients_have_one_form(label):
    """Every stored coefficient is an int, a Fraction with a denominator
    above 1, or a RatFunc in which k appears."""
    cs = osp22_currents() if label == "OSP22" else build_wakimoto(*get_algebra(label))
    for expr in cs.currents.values():
        assert_one_form_terms(expr)
    assert any(type(c) is RatFunc for expr in cs.currents.values() for c in expr.terms.values())


@pytest.mark.parametrize("label", ["B2", "G2", "OSP22"])
def test_expected_ope_matches_the_scale_and_add_construction(label):
    if label == "OSP22":
        cs = osp22_currents()
    else:
        rs = build_root_system(label)
        cs = build_wakimoto(rs, build_structure_table(rs))
    for a in cs.labels():
        for b in cs.labels():
            got, want = expected_ope(cs, a, b), expected_ope_reference(cs, a, b)
            assert got.keys() == want.keys(), (a, b)
            assert all(got[q].terms == want[q].terms for q in got), (a, b)


def test_sugawara_equals_free_tensor(a1cs, b2cs):
    for cs in (a1cs, b2cs):
        T = sugawara_tensor(cs)
        assert T.equals(free_field_tensor(cs.rs))


def test_currents_are_weight_one_primaries(b2cs):
    T = free_field_tensor(b2cs.rs)
    for label, J in b2cs.currents.items():
        h, err = conformal_weight(b2cs.rs, T, J)
        assert err is None, (label, err)
        assert h == RatFunc.of(1), label


def test_mode_oracle_vacuum_match(a1cs, b2cs):
    """E/H-sector vacuum two-point functions vs the truncated mode expansion."""
    for cs in (a1cs, b2cs):
        rs = cs.rs
        pairs = [(("e", a), ("f", a)) for a in rs.pos_roots]
        pairs += [(("h", i), ("h", j)) for i in range(rs.rank) for j in range(rs.rank)]
        for a, b in pairs:
            oracle = vacuum_two_point(cs.rs, cs[a], cs[b], modes=4, orders=6)
            engine = engine_vacuum_series(cs.rs, cs[a], cs[b], orders=6)
            assert oracle == engine, (a, b)


def test_osp22_current_sweep():
    cs = osp22_currents()
    assert verify_current_algebra(cs) == []


def test_osp22_sugawara_and_weights():
    cs = osp22_currents()
    T = sugawara_tensor(cs)
    Tfree = free_field_tensor(cs.rs)
    assert T.equals(Tfree)
    for label, J in cs.currents.items():
        h, err = conformal_weight(cs.rs, Tfree, J)
        assert err is None, (label, err)
        assert h == RatFunc.of(1), label
