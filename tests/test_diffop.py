import copy
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wakimoto.currents import CurrentSet
from wakimoto.diffop import (
    DiffOp,
    build_differential_realization,
    commutator,
    verify_realization,
)
from wakimoto.liealg import build_root_system, build_structure_table, get_algebra
from wakimoto.polymat import Poly, realization_polynomials

from fixtures_b2 import B2_DIFFOPS
from oracles import (
    check_gauss_decomposition,
    commutator_fraction,
    eval_zero,
    realization_failures_fraction,
    realized,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402


def make_op(rs, dspec, lspec):
    """The operator with derivative coefficients ``dspec`` and weight coefficients ``lspec``."""
    slots = {**dspec, **{rs.n_pos + j: terms for j, terms in lspec.items()}}
    coeffs = [
        Poly(rs.n_pos, {e: Fraction(c) for e, c in slots.get(i, {}).items()})
        for i in range(rs.n_pos + rs.rank)
    ]
    return DiffOp(rs, coeffs)


@pytest.fixture(scope="module")
def b2_setup():
    rs = build_root_system("B2")
    tab = build_structure_table(rs)
    ops = build_differential_realization(rs, tab, realization_polynomials(rs, tab))
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


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4"])
def test_full_bracket_table(label):
    rs = build_root_system(label)
    tab = build_structure_table(rs)
    ops = build_differential_realization(rs, tab, realization_polynomials(rs, tab))
    assert verify_realization(ops, tab) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_full_bracket_table_on_sign_flipped_json_algebras(tmp_path, seed):
    # the A4 and C3 algebra files of the benchmark's realization workload,
    # whose seed draws the extraspecial sign of every non-simple root
    workloads.build("realization", seed, str(tmp_path))
    for alg in ("A4", "C3"):
        rs, tab = get_algebra(str(tmp_path / f"{alg}.json"))
        assert verify_realization(CurrentSet(rs, tab).ops, tab) == []


def test_verify_detects_broken_operator(b2_setup):
    rs, tab, ops = b2_setup
    broken = dict(ops)
    coeffs = list(ops[("e", (1, 0))].coeffs)
    coeffs[0] = coeffs[0] + Poly.var(rs.n_pos, 1)
    broken[("e", (1, 0))] = DiffOp(rs, coeffs)
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


# Random first-order operators on B2's four coordinates, applied to a test
# polynomial in (x^1, x^2, x^11, x^theta, L1, L2): the L_j are extra variables
# that no derivative touches, and an operator's weight part multiplies.
_B2 = build_root_system("B2")
_NX, _NL = _B2.n_pos, _B2.rank
_coef = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


def _polys(nvars, max_size):
    return st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), _coef, max_size=max_size)


_ops = st.lists(_polys(_NX, 3), min_size=_NX + _NL, max_size=_NX + _NL).map(
    lambda specs: DiffOp(_B2, [Poly(_NX, dict(t)) for t in specs])
)


def _apply(op, f):
    """op(f) with op's coefficients lifted to the variables (x..., L...)."""
    nv = f.nvars
    out = Poly.zero(nv)
    for i, c in enumerate(op.coeffs):
        lifted = Poly(nv, {e + (0,) * _NL: v for e, v in c.terms.items()})
        out = out + lifted * (f.deriv(i) if i < _NX else Poly.var(nv, i) * f)
    return out


@settings(deadline=None, max_examples=60)
@given(_ops, _ops, _polys(_NX + _NL, 4))
def test_commutator_acts_as_its_definition(a, b, fspec):
    f = Poly(_NX + _NL, dict(fspec))
    c = commutator(a, b)
    assert _apply(c, f) == _apply(a, _apply(b, f)) - _apply(b, _apply(a, f))


def test_commutator_packs_without_carrying():
    # on the first two coordinates, x1^5 d_2 (x1^5 x2^5) = 5 x1^10 x2^4: with emax = 5
    # a packing base of emax + 1 = 6 would carry x1^10 into x1^4 x2^5
    a = make_op(_B2, {1: {(5, 0, 0, 0): 1}, 3: {(0, 0, 5, 0): Fraction(2, 3)}}, {})
    b = make_op(
        _B2,
        {0: {(5, 5, 0, 0): 1}, 2: {(0, 5, 5, 0): Fraction(1, 2)}},
        {0: {(0, 5, 0, 5): 3}, 1: {(1, 1, 1, 1): -1}},
    )
    c = commutator(a, b)
    assert c == commutator_fraction(a, b)
    assert c.coeffs[0].terms == {(10, 4, 0, 0): Fraction(5)}
    for fspec in ({(1, 1, 1, 1, 0, 0): 1}, {(0, 3, 2, 1, 1, 0): Fraction(-1, 2)}, {(2, 0, 0, 3, 0, 1): 4}):
        f = Poly(_NX + _NL, fspec)
        assert _apply(c, f) == _apply(a, _apply(b, f)) - _apply(b, _apply(a, f))


def _realization(label):
    rs, tab = get_algebra(label)
    return rs, tab, CurrentSet(rs, tab).ops


_REALIZATIONS = {label: _realization(label) for label in ("B2", "G2")}


@st.composite
def _perturbed_realization(draw):
    """The B2 or G2 realization with one operator perturbed: a monomial with a rational
    coefficient added to one slot, or the whole operator scaled by a rational other than 1."""
    rs, tab, ops = _REALIZATIONS[draw(st.sampled_from(sorted(_REALIZATIONS)))]
    lab = draw(st.sampled_from(list(ops)))
    op = ops[lab]
    if draw(st.booleans()):
        slot = draw(st.integers(0, len(op.coeffs) - 1))
        mono = draw(st.tuples(*[st.integers(0, 2)] * rs.n_pos))
        coeffs = list(op.coeffs)
        coeffs[slot] = coeffs[slot] + Poly(rs.n_pos, {mono: draw(_coef)})
        op = DiffOp(rs, coeffs)
    else:
        op = op.scale(draw(_coef.filter(lambda c: c != 1)))
    return tab, {**ops, lab: op}


@settings(deadline=None, max_examples=20)
@given(_perturbed_realization())
def test_verify_realization_matches_fraction_oracle(case):
    tab, ops = case
    bad = verify_realization(ops, tab)
    assert bad == realization_failures_fraction(ops, tab)
    assert bad


_TABLE_DEFECT_REALIZATIONS = {label: _realization(label) for label in ("B2", "G2", "A3")}


def _with_bracket(tab, pair, out):
    """A deep copy of ``tab`` whose f[pair] alone is replaced by ``out``."""
    tab = copy.deepcopy(tab)
    tab.f[pair] = out
    return tab


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(sorted(_TABLE_DEFECT_REALIZATIONS)), st.data())
def test_one_sided_table_defects_fail_only_their_ordered_pair(label, data):
    # the table's antisymmetry is data under test: a defect in f[(b, a)] alone
    # must fail (b, a) and nothing else, whatever f[(a, b)] says
    rs, tab, ops = _TABLE_DEFECT_REALIZATIONS[label]
    basis = list(ops)
    a, b = data.draw(st.lists(st.sampled_from(basis), min_size=2, max_size=2, unique=True))
    c = data.draw(st.sampled_from(basis))
    delta = data.draw(_coef)
    for pair in ((a, b), (b, a), (a, a)):
        out = dict(tab.bracket(*pair))
        out[c] = out.get(c, 0) + delta
        broken = _with_bracket(tab, pair, {k: v for k, v in out.items() if v})
        bad = verify_realization(ops, broken)
        assert bad == realization_failures_fraction(ops, broken) == [pair]


@pytest.mark.parametrize("lab", list(_REALIZATIONS["B2"][2]), ids=str)
def test_b2_scaled_operator_failures_match_fraction_oracle(lab):
    # the realization workload's canary: one B2 operator scaled by 2
    rs, tab, ops = _REALIZATIONS["B2"]
    scaled = {**ops, lab: ops[lab].scale(2)}
    bad = verify_realization(scaled, tab)
    assert bad == realization_failures_fraction(scaled, tab)
    assert len(bad) in (8, 14, 18)
