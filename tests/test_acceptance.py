"""Acceptance battery: one test per criterion, exact equality throughout.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion including its runtime against the stated budget.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from wakimoto.coeffs import Exp, RatFunc
from wakimoto.currents import CurrentSet, build_wakimoto, osp22_currents, sugawara_tensor
from wakimoto.diffop import verify_realization
from wakimoto.fields import BETA, BGH, CGH, GAMMA, FieldExpr
from wakimoto.liealg import (
    build_root_system,
    build_structure_table,
    osp22_fixture,
    verify_jacobi,
)
from wakimoto.ope import (
    betagamma_tensor,
    central_charge,
    contract,
    free_field_tensor,
    scalar_tensor,
)
from wakimoto.screening import (
    first_kind,
    naive_second_kind_failure,
    second_kind_b2,
    second_kind_mult_one,
    second_kind_osp22,
    verify_first_kind,
    verify_second_kind_b2,
    verify_second_kind_mult_one,
    verify_second_kind_osp22,
)
from wakimoto.series import SeriesExpr
from wakimoto.currents import verify_current_algebra

from fixtures_b2 import B2_DIFFOPS


@contextmanager
def criterion(num, desc, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - start
        print(f"ACCEPTANCE {num}: FAIL - {desc} ({dt:.2f}s)")
        raise
    dt = time.perf_counter() - start
    print(f"ACCEPTANCE {num}: PASS - {desc} ({dt:.2f}s < {budget_s}s)")
    assert dt < budget_s, f"criterion {num} exceeded its runtime budget"


@pytest.fixture(scope="module")
def b2():
    rs = build_root_system("B2")
    tab = build_structure_table(rs)
    return rs, tab


@pytest.fixture(scope="module")
def b2cs(b2):
    rs, tab = b2
    return build_wakimoto(rs, tab)


def test_criterion_1_root_data():
    with criterion(1, "B2 root data and strange formula", 1.0):
        rs = build_root_system("B2")
        assert len(rs.pos_roots) == 4
        assert rs.dim == 10
        assert rs.hvee == 3
        assert rs.theta == (1, 2)
        for label in ("A1", "A2", "B2"):
            r = build_root_system(label)
            assert r.rho_norm2() == Fraction(r.hvee * 2 * r.dim, 24)


def test_criterion_2_structure_constants(b2):
    with criterion(2, "structure constants and (graded) Jacobi", 1.0):
        rs, tab = b2
        a1, a2, a11, th = (1, 0), (0, 1), (1, 1), (1, 2)
        expected = [
            (("e", a1), ("e", a2), ("e", a11), 1),
            (("e", a2), ("e", a11), ("e", th), 2),
            (("h", 0), ("e", a11), ("e", a11), 1),
            (("h", 1), ("e", a11), ("e", a11), 0),
            (("h", 0), ("e", th), ("e", th), 0),
            (("h", 1), ("e", th), ("e", th), 2),
            (("e", a11), ("f", a11), ("h", 0), 2),
            (("e", a11), ("f", a11), ("h", 1), 1),
            (("e", th), ("f", th), ("h", 0), 1),
            (("e", th), ("f", th), ("h", 1), 1),
        ]
        for a, b, c, v in expected:
            assert tab.fconst(a, b, c) == v, (a, b, c)
        for label in ("A1", "A2"):
            r = build_root_system(label)
            assert verify_jacobi(build_structure_table(r)) == []
        assert verify_jacobi(tab) == []
        _, osp_tab = osp22_fixture()
        assert verify_jacobi(osp_tab) == []


def test_criterion_3_differential_realization(b2):
    with criterion(3, "differential realization and bracket tables", 10.0):
        rs, tab = b2
        ops = CurrentSet(rs, tab).ops
        from test_diffop import make_op

        for lab, (dspec, lspec) in B2_DIFFOPS.items():
            assert (ops[lab] - make_op(rs, dspec, lspec)).is_zero, lab
        for label in ("A1", "A2", "B2"):
            r = build_root_system(label)
            t = build_structure_table(r)
            assert verify_realization(CurrentSet(r, t).ops, t) == []


def test_criterion_4_wakimoto_currents(b2cs):
    with criterion(4, "B2 currents verbatim and full OPE sweep", 120.0):
        from test_currents import reference_current

        for label in B2_DIFFOPS:
            assert b2cs[label].equals(reference_current(b2cs, label)), label
        assert verify_current_algebra(b2cs) == []


def test_criterion_5_central_charges(b2cs):
    with criterion(5, "Sugawara tensor and central charges", 30.0):
        rs = b2cs.rs
        k = RatFunc.k()
        t = RatFunc.t(rs.hvee)
        T = sugawara_tensor(b2cs)
        Tfree = free_field_tensor(rs)
        assert T.equals(Tfree)
        assert central_charge(rs, Tfree) == 10 * k / t
        assert central_charge(rs, betagamma_tensor(rs)) == RatFunc.of(8)
        assert central_charge(rs, scalar_tensor(rs)) == 2 - 30 / t


def test_criterion_6_first_kind(b2cs):
    with criterion(6, "first-kind screening contract for s_1 and s_2", 60.0):
        for j in (0, 1):
            rep = verify_first_kind(b2cs, first_kind(b2cs, j))
            assert rep.ok, [(c.label, c.detail) for c in rep.failures()]


def test_criterion_7_prop1(b2cs):
    with criterion(7, "second kind in the multiplicity-one direction", 120.0):
        s = second_kind_mult_one(b2cs, 0)
        rep = verify_second_kind_mult_one(b2cs, s)
        assert rep.ok, [(c.label, c.detail) for c in rep.failures()]
        # witnesses match the closed forms, e.g. R_{-a11} = -2t gamma^2 X^{-t-1}
        from wakimoto.screening import prop1_witness, screening_composite

        rs = b2cs.rs
        t = RatFunc.t(rs.hvee)
        X = screening_composite(b2cs, 0)
        V = FieldExpr.vertex(s.momentum)
        i11 = b2cs.rs.root_index((1, 1))
        assert prop1_witness(b2cs, s, i11).equals(
            (FieldExpr.prim(GAMMA, 1) * FieldExpr.power(X, Exp(-1, -1, 0)) * V).scale(-2 * t)
        )
        # power-factor engine vs integer brute force
        probes = [
            b2cs[("e", (0, 1))],
            b2cs[("h", 0)],
            betagamma_tensor(rs),
        ]
        for m in (1, 2, 3):
            from wakimoto.fields import base_key_of

            key = base_key_of(X)
            sym = FieldExpr({((), ((key, Exp(0, m, 0)),), None): RatFunc.one()})
            planted = FieldExpr.const(1)
            for _ in range(m):
                planted = planted * X
            for J in probes:
                lhs = contract(rs, J, sym)
                rhs = contract(rs, J, planted)
                for q in set(lhs.poles) | set(rhs.poles):
                    assert lhs.order(q).equals(rhs.order(q)), (m, q)


def test_criterion_8_negative_control(b2cs):
    with criterion(8, "naive construction fails in the a^2 = 2 direction", 30.0):
        fail = naive_second_kind_failure(b2cs, 1)
        assert fail.nonvanishing
        assert fail.matches_expected_shape
        # the S dS sequence concretely contains -gamma^1/3 on beta_theta
        rs = b2cs.rs
        ith = b2cs.rs.root_index((1, 2))
        found = False
        for (prims, pfs, vertex), coef in fail.expected_shape.terms.items():
            if prims == ((GAMMA, 0, 0), (BETA, ith, 0)):
                found = True
        assert found


def test_criterion_9_prop2_series(b2cs):
    with criterion(9, "B2 series current verified termwise in symbolic n", 300.0):
        s = second_kind_b2(b2cs)
        rep = verify_second_kind_b2(b2cs, s)
        assert rep.ok, [(c.label, c.detail) for c in rep.failures()]
        # R vanishes for E, H and the alpha_1 lowering direction
        by_label = {c.label: c for c in rep.checks}
        for lab in list(b2cs.currents) + [("T", 0)]:
            assert by_label[lab].ok
        assert by_label[("f", (1, 0))].witness_text == "0"
        # the verification only ever relabels n: the reindexed representation
        # (n -> n+1 with the matching C_{n+1}/C_n factor) verifies identically
        from wakimoto.series import cn_ratio
        from wakimoto.screening import ScreeningCurrent, verify_second_kind_b2 as vb2

        relabeled = SeriesExpr(s.expr.body.shift_n(1).scale(cn_ratio(b2cs.rs.hvee)))
        assert relabeled.equals(s.expr, b2cs.rs)
        s2 = ScreeningCurrent(s.kind, s.direction, relabeled, s.momentum)
        rep2 = vb2(b2cs, s2)
        assert rep2.ok, [(c.label, c.detail) for c in rep2.failures()]


def test_criterion_10_prop3_osp22():
    with criterion(10, "osp(2|2) currents and second-kind witnesses", 120.0):
        cs = osp22_currents()
        assert verify_current_algebra(cs) == []
        s = second_kind_osp22(cs)
        rep = verify_second_kind_osp22(cs, s)
        assert rep.ok, [(c.label, c.detail) for c in rep.failures()]
        # R_{-alpha1} = t (beta - (t+1)/2 c B) beta^{-t-2}
        from wakimoto.screening import osp22_witnesses

        rs = cs.rs
        t = RatFunc.t(rs.hvee)
        wit = osp22_witnesses(cs, s)
        beta = FieldExpr.prim(BETA, 0)
        c_ = FieldExpr.prim(CGH, 1)
        B_ = FieldExpr.prim(BGH, 2)
        V = FieldExpr.vertex(s.momentum)
        expected = (
            (beta - (c_ * B_).scale((t + 1) * Fraction(1, 2)))
            * FieldExpr.power(beta, Exp(-1, -2, 0))
            * V
        ).scale(t)
        assert wit[("f", (1, 0))].equals(expected)
        # graded signs: the two-field fermion oracle
        assert contract(rs, B_, FieldExpr.prim(CGH, 2)).order(1).equals(FieldExpr.const(1))
        assert contract(rs, FieldExpr.prim(CGH, 2), B_).order(1).equals(FieldExpr.const(1))
        assert ((c_ * B_) + (B_ * c_)).is_zero
