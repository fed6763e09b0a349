import pickle

import pytest

from wakimoto import currents
from wakimoto.coeffs import RatFunc
from wakimoto.fields import BETA, GAMMA, PHI, FieldExpr
from wakimoto.currents import (
    CurrentSet,
    build_wakimoto,
    expected_ope,
    osp22_currents,
    sugawara_tensor,
    verify_current_algebra,
)
from wakimoto.liealg import build_root_system, build_structure_table, get_algebra
from wakimoto.ope import conformal_weight, contract, free_field_tensor

from fixtures_b2 import B2_ANOMALOUS, B2_DIFFOPS
from oracles import engine_vacuum_series, expected_ope_reference, vacuum_two_point


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
    rs, ctx = cs.rs, cs.ctx
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
    res = contract(b2cs.ctx, b2cs[("e", rs.theta)], b2cs[("f", rs.theta)])
    k = RatFunc.k()
    assert res.order(2).equals(FieldExpr.const(k))
    assert res.order(1).equals(b2cs[("h", 0)] + b2cs[("h", 1)])
    assert res.order(3).is_zero


def test_e_e_pair_regular(b2cs):
    rs = b2cs.rs
    e1 = b2cs[("e", (1, 0))]
    assert contract(b2cs.ctx, e1, e1).is_regular()


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
    cs2 = CurrentSet(b2cs.rs, b2cs.tab, b2cs.ctx, broken)
    assert verify_current_algebra(cs2, pairs=[(("e", (1, 0)), ("f", (1, 2)))]) != []


def test_an_unbuilt_current_set_pickles_without_stages():
    cs = pickle.loads(pickle.dumps(CurrentSet(*get_algebra("B2"))))
    assert set(vars(cs)) == {"rs", "tab"}


def test_a_built_current_set_unpickles_without_rebuilding(b2cs, monkeypatch):
    data = pickle.dumps(b2cs)

    def refuse(*args, **kwargs):
        raise AssertionError("a pickled stage was built again")

    for name in ("realization_polynomials", "build_differential_realization", "anomalous_term"):
        monkeypatch.setattr(currents, name, refuse)
    monkeypatch.setattr(currents.FieldContext, "from_algebra", refuse)
    cs = pickle.loads(data)
    assert cs.currents == b2cs.currents and cs.ops.keys() == b2cs.ops.keys() and cs.ctx == b2cs.ctx
    assert cs.polys.V_plus == b2cs.polys.V_plus


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
        assert T.equals(free_field_tensor(cs.ctx))


def test_currents_are_weight_one_primaries(b2cs):
    T = free_field_tensor(b2cs.ctx)
    for label, J in b2cs.currents.items():
        h, err = conformal_weight(b2cs.ctx, T, J)
        assert err is None, (label, err)
        assert h == RatFunc.of(1), label


def test_mode_oracle_vacuum_match(a1cs, b2cs):
    """E/H-sector vacuum two-point functions vs the truncated mode expansion."""
    for cs in (a1cs, b2cs):
        rs = cs.rs
        pairs = [(("e", a), ("f", a)) for a in rs.pos_roots]
        pairs += [(("h", i), ("h", j)) for i in range(rs.rank) for j in range(rs.rank)]
        for a, b in pairs:
            oracle = vacuum_two_point(cs.ctx, cs[a], cs[b], modes=4, orders=6)
            engine = engine_vacuum_series(cs.ctx, cs[a], cs[b], orders=6)
            assert oracle == engine, (a, b)


def test_osp22_current_sweep():
    cs = osp22_currents()
    assert verify_current_algebra(cs) == []


def test_osp22_sugawara_and_weights():
    cs = osp22_currents()
    T = sugawara_tensor(cs)
    Tfree = free_field_tensor(cs.ctx)
    assert T.equals(Tfree)
    for label, J in cs.currents.items():
        h, err = conformal_weight(cs.ctx, Tfree, J)
        assert err is None, (label, err)
        assert h == RatFunc.of(1), label
