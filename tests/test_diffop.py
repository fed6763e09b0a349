from fractions import Fraction

import pytest

from wakimoto.diffop import (
    DiffOp,
    build_differential_realization,
    commutator,
    realized,
    verify_realization,
)
from wakimoto.liealg import build_root_system, build_structure_table
from wakimoto.polymat import Poly, realization_polynomials

from fixtures_b2 import B2_DIFFOPS
from oracles import check_gauss_decomposition, eval_zero


def make_op(rs, dspec, lspec):
    op = DiffOp.zero(rs)
    for pos, terms in dspec.items():
        op.dpart[pos] = Poly(rs.n_pos, {e: Fraction(c) for e, c in terms.items()})
    for j, terms in lspec.items():
        op.lpart[j] = Poly(rs.n_pos, {e: Fraction(c) for e, c in terms.items()})
    return op


@pytest.fixture(scope="module")
def b2_setup():
    rs = build_root_system("B2")
    tab = build_structure_table(rs)
    ops = build_differential_realization(rs, tab)
    return rs, tab, ops


def test_b2_generated_operators_match_reference(b2_setup):
    rs, tab, ops = b2_setup
    assert set(ops) == set(B2_DIFFOPS)
    for lab, (dspec, lspec) in B2_DIFFOPS.items():
        expected = make_op(rs, dspec, lspec)
        assert (ops[lab] - expected).is_zero, f"mismatch at {lab}"


def test_e_theta_is_pure_derivative(b2_setup):
    rs, tab, ops = b2_setup
    op = ops[("e", rs.theta)]
    ith = rs.root_index(rs.theta)
    assert op.dpart[ith] == Poly.const(rs.n_pos, 1)
    assert all(p.is_zero for i, p in enumerate(op.dpart) if i != ith)
    assert all(p.is_zero for p in op.lpart)


def test_commutator_basics(b2_setup):
    rs, tab, ops = b2_setup
    h1 = ops[("h", 0)]
    e1 = ops[("e", (1, 0))]
    # [h_1, e_{alpha1}] = 2 e_{alpha1}
    assert (commutator(h1, e1) - e1.scale(2)).is_zero
    # antisymmetry
    assert (commutator(e1, h1) + e1.scale(2)).is_zero
    assert commutator(e1, e1).is_zero
    # [e, f] reproduces the Cartan combination from the table
    f1 = ops[("f", (1, 0))]
    expected = realized(ops, dict(tab.bracket(("e", (1, 0)), ("f", (1, 0)))))
    assert (commutator(e1, f1) - expected).is_zero


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_full_bracket_table(label):
    rs = build_root_system(label)
    tab = build_structure_table(rs)
    ops = build_differential_realization(rs, tab)
    assert verify_realization(ops, tab) == []


def test_verify_detects_broken_operator(b2_setup):
    rs, tab, ops = b2_setup
    broken = dict(ops)
    bad = DiffOp.zero(rs)
    bad.dpart = list(ops[("e", (1, 0))].dpart)
    bad.dpart[0] = bad.dpart[0] + Poly.var(rs.n_pos, 1)
    broken[("e", (1, 0))] = bad
    assert verify_realization(broken, tab) != []


def test_lowest_weight_property(b2_setup):
    rs, tab, ops = b2_setup
    for alpha in rs.pos_roots:
        f = ops[("f", alpha)]
        # derivative coefficients vanish at x = 0, weight part is P(0) L
        for p in f.dpart:
            assert eval_zero(p) == 0
        e = ops[("e", alpha)]
        for p in e.lpart:
            assert p.is_zero


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_gauss_decomposition_oracle(label):
    rs = build_root_system(label)
    tab = build_structure_table(rs)
    polys = realization_polynomials(rs, tab)
    assert check_gauss_decomposition(rs, tab, polys) == []
