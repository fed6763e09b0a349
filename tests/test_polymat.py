from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    anomalous_term_fraction,
    assert_canonical_coefficients,
    eval_zero,
    mat_mul,
    matrix_function,
    nilpotent_powers,
    realization_polynomials_fraction,
)
from wakimoto.coeffs import RatFunc
from wakimoto.currents import CurrentSet
from wakimoto.fields import GAMMA
from wakimoto.liealg import build_root_system, build_structure_table
from wakimoto.polymat import (
    NilpotencyError,
    Packing,
    Poly,
    adjoint_matrix,
    anomalous_term,
    bernoulli_series,
    bracket_into,
    matrix_powers,
    matrix_series,
    mul_into,
    realization_polynomials,
)
from wakimoto.polymat import mat_mul as packed_mat_mul


def b2():
    rs = build_root_system("B2")
    return rs, build_structure_table(rs)


def x(rs, *pairs):
    """Poly helper: x(rs, (expo, coef), ...)."""
    p = Poly.zero(rs.n_pos)
    for expo, coef in pairs:
        p = p + Poly(rs.n_pos, {tuple(expo): Fraction(coef)})
    return p


def flip_sign_vars(p):
    """Substitute x -> -x on every variable."""
    return Poly(p.nvars, {e: -c if sum(e) % 2 else c for e, c in p.terms.items()})


def test_bernoulli_series_values():
    direct, inverse = bernoulli_series(6)
    assert direct[:5] == (
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    )
    assert inverse[:4] == (Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))
    # one computation per depth, shared by every algebra: immutable, so no caller can alter it
    assert bernoulli_series(6) is bernoulli_series(6)
    # product of the truncated series is 1 + O(u^7)
    prod = [Fraction(0)] * 7
    for i, a in enumerate(direct):
        for j, b in enumerate(inverse):
            if i + j < 7:
                prod[i + j] += a * b
    assert prod == [Fraction(1)] + [Fraction(0)] * 6


def test_adjoint_matrix_b2_entries_and_blocks():
    rs, tab = b2()
    C = adjoint_matrix(tab)
    np_ = rs.n_pos
    r = rs.rank
    i_a1 = rs.root_index((1, 0))
    i_a11 = rs.root_index((1, 1))
    # row alpha1, column alpha11: x^{alpha2} f_{alpha1,alpha2}^{alpha11} = x^2
    assert C[i_a1][i_a11] == x(rs, ((0, 1, 0, 0), 1))
    # zero blocks: (+, cartan), (+, -), (cartan, cartan), (cartan, -)
    for a in range(np_):
        for b in range(np_, 2 * np_ + r):
            assert C[a][b].is_zero
    for i in range(np_, np_ + r):
        for b in range(np_, 2 * np_ + r):
            assert C[i][b].is_zero
    # C_+^+ strictly upper triangular in the height order
    for a in range(np_):
        for b in range(a + 1):
            assert C[a][b].is_zero
    # linear homogeneous entries
    for row in C:
        for p in row:
            assert all(sum(e) == 1 for e in p.terms)


def test_adjoint_matrix_vanishes_at_zero():
    rs, tab = b2()
    C = adjoint_matrix(tab)
    for row in C:
        for p in row:
            assert eval_zero(p) == 0


def identity(d):
    return [{i: {0: 1}} for i in range(d)]


def packed(pk, M):
    """A Poly matrix as sparse packed rows."""
    return [{j: pk.pack(p) for j, p in enumerate(row) if not p.is_zero} for row in M]


def unpacked(pk, M, denom):
    return [[pk.unpack(row.get(j, {}), denom) for j in range(len(M))] for row in M]


def test_matrix_function_identity_at_zero_argument():
    rs, tab = b2()
    pk = Packing(rs.n_pos, 3, 1)
    series = [Fraction(7), Fraction(1), Fraction(1, 2)]
    powers = matrix_powers(identity(3), [{}, {}, {}], bound=3)
    out = unpacked(pk, *matrix_series(series, powers, 1))
    for i in range(3):
        for j in range(3):
            assert out[i][j] == (Poly.const(rs.n_pos, 7) if i == j else Poly.zero(rs.n_pos))


def test_matrix_function_rejects_non_nilpotent():
    with pytest.raises(NilpotencyError):
        matrix_powers(identity(1), [{0: {0: 1}}], bound=5)


def shift_matrix(d):
    """The d x d nilpotent shift: N^(d-1) != 0, N^d = 0."""
    return [{i + 1: {0: 1}} if i + 1 < d else {} for i in range(d)]


def test_nilpotent_powers_raises_past_its_bound():
    N = shift_matrix(3)
    assert len(matrix_powers(identity(3), N, bound=3)) == 3
    assert len(matrix_powers(identity(3), N, bound=2)) == 3
    with pytest.raises(NilpotencyError):
        matrix_powers(identity(3), N, bound=1)


def test_matrix_function_refuses_short_series():
    powers = matrix_powers(identity(3), shift_matrix(3), bound=3)
    assert matrix_series([Fraction(1)] * 3, powers, 1) == ([{0: {0: 1}, 1: {0: 1}, 2: {0: 1}},
                                                            {1: {0: 1}, 2: {0: 1}}, {2: {0: 1}}], 1)
    with pytest.raises(NilpotencyError):
        matrix_series([Fraction(1)] * 2, powers, 1)


def test_exp_inverse_on_b2():
    rs, tab = b2()
    C = adjoint_matrix(tab)
    d = len(C)
    depth = 12
    fact = [Fraction(1)]
    for m in range(1, depth + 1):
        fact.append(fact[-1] * m)
    exp_p = [Fraction(1) / fact[m] for m in range(depth)]
    exp_m = [Fraction(-1) ** m / fact[m] for m in range(depth)]
    pk = Packing.fit(rs.n_pos, [p for row in C for p in row], factors=2 * depth)
    powers = matrix_powers(identity(d), packed(pk, C), bound=depth - 1)
    E, l_e = matrix_series(exp_p, powers, pk.denom)
    Einv, l_einv = matrix_series(exp_m, powers, pk.denom)
    prod = unpacked(pk, packed_mat_mul(E, Einv), l_e * l_einv)
    for i in range(d):
        for j in range(d):
            expected = Poly.const(rs.n_pos, 1) if i == j else Poly.zero(rs.n_pos)
            assert prod[i][j] == expected


def test_matrix_series_over_a_denominator_matches_the_poly_oracle():
    # M = (2/3) C packs over D = 3, so the m-th packed power is 3^m M^m
    rs, tab = b2()
    M = [[p.scale(Fraction(2, 3)) for p in row] for row in adjoint_matrix(tab)]
    d = len(M)
    series = [Fraction(1, m + 1) for m in range(d)]
    pk = Packing.fit(rs.n_pos, [p for row in M for p in row], factors=d)
    assert pk.denom == 3
    powers = matrix_powers(identity(d), packed(pk, M), bound=d)
    assert unpacked(pk, *matrix_series(series, powers, pk.denom)) == matrix_function(series, nilpotent_powers(M))


def test_packing_does_not_carry_at_the_base_boundary():
    # emax = 5, so two-factor products reach x0^10: base 11 keeps the top
    # digit at base - 1, and base 10 would carry x0^10 into x1
    p = Poly(2, {(5, 5): Fraction(1, 2), (0, 1): Fraction(3)})
    q = Poly(2, {(5, 0): Fraction(-2, 3), (4, 5): Fraction(1)})
    pk = Packing.fit(2, [p, q])
    assert (pk.base, pk.denom) == (11, 6)
    prod = mul_into({}, pk.pack(p), pk.pack(q))
    assert pk.unpack(prod, pk.denom**2) == p * q
    assert pk.unpack(pk.partials(prod, 2)[0], pk.denom**2) == (p * q).deriv(0)
    tight = Packing(2, 10, 6)
    assert tight.unpack(mul_into({}, tight.pack(p), tight.pack(q)), 36) != p * q
    # three factors, as in anomalous_term: base 3 emax + 1 = 16 reaches x1^15
    pk3 = Packing.fit(2, [p, q], factors=3)
    assert pk3.base == 16
    prod3 = mul_into({}, mul_into({}, pk3.pack(p), pk3.pack(q)), pk3.pack(p))
    assert pk3.unpack(prod3, pk3.denom**3) == p * q * p


def test_realization_polynomials_b2_reference_values():
    rs, tab = b2()
    polys = realization_polynomials(rs, tab)
    i1 = rs.root_index((1, 0))
    i2 = rs.root_index((0, 1))
    i11 = rs.root_index((1, 1))
    ith = rs.root_index((1, 2))
    # V_{alpha1}^{alpha11} = -x^2/2 and V_{alpha1}^{theta} = -x^2 x^2/6
    assert polys.V_plus[i1][i11] == x(rs, ((0, 1, 0, 0), Fraction(-1, 2)))
    assert polys.V_plus[i1][ith] == x(rs, ((0, 2, 0, 0), Fraction(-1, 6)))
    # screening polynomials along alpha2
    assert polys.S[i2][i2] == x(rs, ((0, 0, 0, 0), -1))
    assert polys.S[i2][i11] == x(rs, ((1, 0, 0, 0), Fraction(1, 2)))
    assert polys.S[i2][ith] == x(rs, ((1, 1, 0, 0), Fraction(-1, 6)), ((0, 0, 1, 0), -1))
    # Q block values used by the first-kind witnesses
    assert polys.Q[i1][i1] == x(rs, ((0, 0, 0, 0), 1))
    assert polys.Q[i11][i1] == x(rs, ((0, 1, 0, 0), 2))
    assert polys.Q[i2][i1].is_zero
    assert polys.Q[ith][i1] == x(rs, ((0, 2, 0, 0), -1))


def test_v_at_zero_is_identity():
    for label in ("A1", "A2", "B2"):
        rs = build_root_system(label)
        tab = build_structure_table(rs)
        polys = realization_polynomials(rs, tab)
        for a in range(rs.n_pos):
            for b in range(rs.n_pos):
                expect = Fraction(1) if a == b else Fraction(0)
                assert eval_zero(polys.V_plus[a][b]) == expect
                assert eval_zero(polys.V_minus[a][b]) == 0


def test_v_plus_inverse_is_inverse():
    for label in ("A2", "B2"):
        rs = build_root_system(label)
        tab = build_structure_table(rs)
        polys = realization_polynomials(rs, tab)
        prod = mat_mul(polys.V_plus, polys.V_plus_inv)
        for a in range(rs.n_pos):
            for b in range(rs.n_pos):
                expected = Poly.const(rs.n_pos, 1) if a == b else Poly.zero(rs.n_pos)
                assert prod[a][b] == expected


def test_screening_polys_are_reflected_raising_polys():
    # S_alpha(x, d) = E_alpha(-x, -d) coefficientwise
    for label in ("A2", "B2"):
        rs = build_root_system(label)
        tab = build_structure_table(rs)
        polys = realization_polynomials(rs, tab)
        for a in range(rs.n_pos):
            for b in range(rs.n_pos):
                assert polys.S[a][b] == -flip_sign_vars(polys.V_plus[a][b])


def test_multiplicity_one_contracted_sequence_vanishes():
    rs, tab = b2()
    polys = realization_polynomials(rs, tab)
    np_ = rs.n_pos

    def contracted(j):
        out = []
        for sig in range(np_):
            acc = Poly.zero(np_)
            for g in range(np_):
                acc = acc + polys.S[j][g] * polys.S[j][sig].deriv(g)
            out.append(acc)
        return out

    i1 = rs.root_index((1, 0))
    i2 = rs.root_index((0, 1))
    assert all(p.is_zero for p in contracted(i1))  # multiplicity one
    seq = contracted(i2)  # multiplicity two: nonvanishing
    ith = rs.root_index((1, 2))
    assert seq[ith] == x(rs, ((1, 0, 0, 0), Fraction(-1, 3)))
    # rank 1: trivially zero
    rs1 = build_root_system("A1")
    polys1 = realization_polynomials(rs1, build_structure_table(rs1))
    assert all(
        (polys1.S[0][g] * polys1.S[0][0].deriv(g)).is_zero for g in range(rs1.n_pos)
    )


def _dgamma_terms(expr, pos):
    """The terms of a current that carry d gamma^pos."""
    return {t: c for t, c in expr.terms.items() if (GAMMA, pos, 1) in t[0]}


def test_anomalous_term_values():
    rs, tab = b2()
    polys = realization_polynomials(rs, tab)
    F = anomalous_term(rs, polys)
    i1 = rs.root_index((1, 0))
    ith = rs.root_index((1, 2))
    k = RatFunc.k()
    # the k-free part: 1/2 at zero for F_{alpha1}, nothing for F_theta
    assert eval_zero(F[i1][i1]) == Fraction(1, 2)
    assert F[ith][ith].is_zero
    # with the level part, the d gamma^1 coefficient of F_{alpha1} starts with
    # k + 1/2 and the d gamma^theta coefficient of F_theta is exactly k
    cs = CurrentSet(rs, tab, polys=polys).built()
    assert cs[("f", (1, 0))].terms[(((GAMMA, i1, 1),), (), None)] == k + Fraction(1, 2)
    assert _dgamma_terms(cs[("f", (1, 2))], ith) == {(((GAMMA, ith, 1),), (), None): k}
    # rank 1: single ghost pair, F = 0 and the d gamma coefficient is k
    rs1 = build_root_system("A1")
    tab1 = build_structure_table(rs1)
    polys1 = realization_polynomials(rs1, tab1)
    assert anomalous_term(rs1, polys1)[0][0].is_zero
    cs1 = CurrentSet(rs1, tab1, polys=polys1).built()
    assert _dgamma_terms(cs1[("f", (1,))], 0) == {(((GAMMA, 0, 1),), (), None): k}


_FAMILIES = ("V_plus", "V_cartan", "V_minus", "P", "Q", "S", "V_plus_inv")
_SIGNED = {label: build_root_system(label) for label in ("B2", "G2", "A3", "C3", "A4")}


@st.composite
def _signed_algebra(draw):
    """One of B2, G2, A3, C3, A4 with the extraspecial sign of every non-simple
    positive root drawn at random, as the benchmark's realization workload draws them."""
    rs = _SIGNED[draw(st.sampled_from(sorted(_SIGNED)))]
    signs = {a: draw(st.sampled_from((-1, 1))) for a in rs.pos_roots if sum(a) > 1}
    return rs, build_structure_table(rs, signs)


@settings(deadline=None, max_examples=25)
@given(_signed_algebra())
def test_realization_polynomials_match_the_fraction_oracle(alg):
    rs, tab = alg
    polys = realization_polynomials(rs, tab)
    want = realization_polynomials_fraction(rs, tab)
    for name in _FAMILIES:
        assert getattr(polys, name) == getattr(want, name), name
        for row in getattr(polys, name):
            for p in row:
                assert_canonical_coefficients(p)
    assert anomalous_term(rs, polys) == anomalous_term_fraction(rs, want)


def test_poly_rejects_ratfunc_coefficients():
    """The realization is over Q: a k-dependent coefficient cannot slip in."""
    k = RatFunc.k()
    with pytest.raises(TypeError):
        Poly.const(2, k)
    with pytest.raises(TypeError):
        Poly.var(2, 0, k)
    with pytest.raises(TypeError):
        Poly.var(2, 0).scale(k)
    with pytest.raises(TypeError):
        Poly.const(2, RatFunc.of(1))


_NV = 3
_coef = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
_poly = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * _NV), _coef, max_size=4
).map(lambda terms: Poly(_NV, terms))
_point = st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=7)] * _NV)
# generic points: a nonzero polynomial of this size vanishes at none of them
_GENERIC = [
    (Fraction(3761, 97), Fraction(-5209, 311), Fraction(461, 887)),
    (Fraction(-8123, 677), Fraction(1913, 53), Fraction(-2939, 43)),
]


def _value(p, pt):
    return sum((c * prod(v**e for v, e in zip(pt, m)) for m, c in p.terms.items()), Fraction(0))


def _slope(p, idx, pt, degree=8):
    """d p / d x_idx at pt from values on a line, by Lagrange interpolation."""
    nodes = range(degree + 1)
    total = Fraction(0)
    for j in nodes:
        shifted = tuple(v + j if i == idx else v for i, v in enumerate(pt))
        weight = sum(prod(-m for m in nodes if m not in (j, l)) for l in nodes if l != j)
        total += _value(p, shifted) * Fraction(weight, prod(j - m for m in nodes if m != j))
    return total


@settings(deadline=None, max_examples=150)
@given(_poly, _poly, _poly, _point, st.integers(0, _NV - 1))
def test_poly_arithmetic_matches_evaluation(p, q, r, pt, idx):
    """+, -, *, deriv agree with pointwise values; equal values are equal and hash equal."""
    u, v = _value(p, pt), _value(q, pt)
    assert _value(p + q, pt) == u + v
    assert _value(p - q, pt) == u - v
    assert _value(p * q, pt) == u * v
    assert _value(p.scale(Fraction(-2, 3)), pt) == u * Fraction(-2, 3)
    assert _value(p.deriv(idx), pt) == _slope(p, idx, pt)
    assert _value((p * q).deriv(idx), pt) == _slope(p * q, idx, pt)
    for a, b in ((p + q, q + p), (p * q, q * p), (p + q - q, p), (p * (q + r), p * q + p * r),
                 ((p * q).deriv(idx), p.deriv(idx) * q + p * q.deriv(idx)), (p, q)):
        same = all(_value(a, g) == _value(b, g) for g in _GENERIC)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)
        assert all(a.terms.values())  # no zero coefficient is stored


@settings(deadline=None, max_examples=100)
@given(_poly, _poly, st.integers(0, _NV))
def test_partials_are_the_nonzero_derivatives(p, q, nvars):
    """``Packing.partials(f, nvars)`` holds d_s f for exactly the s < nvars, in
    increasing order, where that derivative is nonzero, also for a packed product."""
    pk = Packing.fit(_NV, [p, q])
    prod_ = mul_into({}, pk.pack(p), pk.pack(q))
    for f, packed, denom in ((p, pk.pack(p), pk.denom), (q, pk.pack(q), pk.denom), (p * q, prod_, pk.denom**2)):
        got = pk.partials(packed, nvars)
        assert list(got) == [s for s in range(nvars) if f.deriv(s)]
        assert all(pk.unpack(d, denom) == f.deriv(s) for s, d in got.items())


def _stacked(co, T):
    return {m + i * T: c for i, p in enumerate(co) for m, c in p.items()}


# exponents of at most 2 keep the base at 2 * 2 + 1 = 5 or below, so 9 slots
# carry stacked slot tags above the base
@pytest.mark.parametrize("nslots", [_NV, _NV + 1, 9])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_one_bracket_on_stacked_partials_equals_the_slot_brackets(nslots, data):
    """One ``bracket_into`` call over every slot stacked at i base**nvars
    equals one call per slot on that slot's partials, re-tagged slot by slot."""
    a, b = (data.draw(st.lists(_poly, min_size=nslots, max_size=nslots)) for _ in range(2))
    pk = Packing.fit(_NV, a + b)
    assert pk.base <= 5
    T = pk.base**_NV
    ca, cb = ([pk.pack(p) for p in op] for op in (a, b))
    one = bracket_into({}, (ca, pk.partials(_stacked(ca, T), _NV)), (cb, pk.partials(_stacked(cb, T), _NV)), -3)
    per_slot = [bracket_into({}, (ca, pk.partials(ca[i], _NV)), (cb, pk.partials(cb[i], _NV)), -3)
                for i in range(nslots)]
    assert {m: c for m, c in one.items() if c} == {m: c for m, c in _stacked(per_slot, T).items() if c}


@pytest.mark.parametrize("label", ["B2", "G2"])
def test_currents_read_the_integer_form_of_the_families(label):
    """The currents and their packing read each family polynomial's num and den:
    no family Poly with a denominator builds its ``terms`` view of Fractions."""
    rs = build_root_system(label)
    cs = CurrentSet(rs, build_structure_table(rs))
    assert cs.currents and cs.packed is not None
    fams = [p for name in _FAMILIES for row in getattr(cs.polys, name) for p in row]
    assert any(p.den > 1 for p in fams)
    assert [p for p in fams if p.den > 1 and p._terms is not None] == []
