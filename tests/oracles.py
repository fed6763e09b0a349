"""Independent cross-check oracles used only by the test suite.

The Gauss-decomposition oracle works in the adjoint representation over dual
numbers (s^2 = 0): it multiplies out group elements directly and therefore
does not share any code path with the Bernoulli-series construction it
checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from wakimoto.coeffs import Exp, Pol, RatFunc
from wakimoto.diffop import DiffOp
from wakimoto.fields import (
    BETA,
    BGH,
    CGH,
    GAMMA,
    PHI,
    FieldExpr,
    UnsupportedContraction,
    _base_sort_key,
    base_expr,
    prim_parity,
    vertex_phi_coupling,
)
from wakimoto.liealg import Label, RootSystem, StructureTable
from wakimoto.polymat import (
    NilpotencyError,
    Poly,
    RealizationPolys,
    adjoint_matrix,
    bernoulli_series,
)
from wakimoto.series import SeriesExpr, _absorb_order, _cn_shift_factor, _rewritable


def root_string_positive_roots(cartan: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The positive roots of a finite-type Cartan matrix by root strings, in
    ``RootSystem.pos_roots`` order (height, then earlier simple roots first).

    Height by height: beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0,
    p the length of the alpha_i-string descending from beta."""
    r = len(cartan)
    simple = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(r):
                cand = tuple(beta[j] + simple[i][j] for j in range(r))
                if cand in roots:
                    continue
                pairing = sum(cartan[i][j] * beta[j] for j in range(r))
                p = 0
                cur = tuple(beta[j] - simple[i][j] for j in range(r))
                while cur in roots:
                    p += 1
                    cur = tuple(cur[j] - simple[i][j] for j in range(r))
                if p - pairing > 0:
                    roots.add(cand)
                    nxt.append(cand)
        layer = nxt
    return tuple(sorted(roots, key=lambda v: (sum(v), tuple(-c for c in v))))


def adjoint_matrices(rs: RootSystem, tab: StructureTable) -> dict:
    """Matrix of ad(label) acting on the ordered basis, entries as Fractions."""
    labels = tab.basis()
    index = {lab: i for i, lab in enumerate(labels)}
    d = len(labels)
    out = {}
    for lab in labels:
        M = [[Fraction(0)] * d for _ in range(d)]
        for b in labels:
            for c, v in tab.bracket(lab, b).items():
                M[index[c]][index[b]] += v
        out[lab] = M
    return out


def eval_zero(p: Poly) -> Fraction:
    """The value of p at x = 0."""
    return p.terms.get((0,) * p.nvars, Fraction(0))


# ---------------------------------------------------------------------------
# Poly-matrix construction of the realization polynomials (the reference for
# polymat's packed block construction)
# ---------------------------------------------------------------------------

def mat_mul(A: list[list[Poly]], B: list[list[Poly]]) -> list[list[Poly]]:
    n = len(A)
    m = len(B[0])
    kk = len(B)
    out = [[None] * m for _ in range(n)]  # type: ignore[list-item]
    for i in range(n):
        Ai = A[i]
        for j in range(m):
            acc = None
            for l in range(kk):
                if Ai[l].is_zero or B[l][j].is_zero:
                    continue
                p = Ai[l] * B[l][j]
                acc = p if acc is None else acc + p
            out[i][j] = acc if acc is not None else Poly.zero(Ai[0].nvars if Ai else 0)
    return out  # type: ignore[return-value]


def mat_is_zero(A: list[list[Poly]]) -> bool:
    return all(p.is_zero for row in A for p in row)


def nilpotent_powers(M: list[list[Poly]], bound: Optional[int] = None) -> list[list[list[Poly]]]:
    """[I, M, M^2, ...] through the last nonzero power of the nilpotent M.

    A nonzero M^m with m > ``bound`` (default: the dimension) raises
    NilpotencyError, since the block structure guarantees truncation.
    """
    d = len(M)
    nv = M[0][0].nvars if d else 0
    bound = bound if bound is not None else d
    powers = [[[Poly.const(nv, 1) if i == j else Poly.zero(nv) for j in range(d)] for i in range(d)]]
    power = M
    while not mat_is_zero(power):
        if len(powers) > bound:
            raise NilpotencyError("matrix is not nilpotent within the bound")
        powers.append(power)
        power = mat_mul(power, M)
    return powers


def matrix_function(
    series: Sequence[Fraction], powers: list[list[list[Poly]]]
) -> list[list[Poly]]:
    """Sum series[m] * M^m over the power sequence of ``nilpotent_powers``."""
    if len(series) < len(powers):
        raise NilpotencyError("series truncated before the matrix power vanished")
    d = len(powers[0])
    out = [[p.scale(series[0]) for p in row] for row in powers[0]]
    for c, power in zip(series[1:], powers[1:]):
        if c:
            for i in range(d):
                for j in range(d):
                    if not power[i][j].is_zero:
                        out[i][j] = out[i][j] + power[i][j].scale(c)
    return out


def realization_polynomials_fraction(rs: RootSystem, tab: StructureTable) -> RealizationPolys:
    """The realization families from full d x d matrices of Poly, the parent of
    ``polymat.realization_polynomials``."""
    C = adjoint_matrix(tab)
    np_ = rs.n_pos
    r = rs.rank
    d = len(C)
    height_bound = sum(rs.theta) * 2 + 2
    depth = min(d, 2 * sum(rs.theta) + 1) + 1

    bser, binv = bernoulli_series(depth)
    bser_neg = [-c if m % 2 else c for m, c in enumerate(bser)]
    exp_neg = [Fraction((-1) ** m, math.factorial(m)) for m in range(depth + 1)]

    powers = nilpotent_powers(C, height_bound)
    BC = matrix_function(bser, powers)
    Bneg = matrix_function(bser_neg, powers)
    Eneg = matrix_function(exp_neg, powers)
    Binv = matrix_function(binv, powers)

    pos, cartan, neg = slice(0, np_), slice(np_, np_ + r), slice(np_ + r, None)
    lower = Eneg[neg]  # rows -alpha of e^{-C}
    V_plus = [row[pos] for row in BC[pos]]
    V_cartan = [[-p for p in row[pos]] for row in C[cartan]]
    # V_minus = (e^{-C})_-^gamma B(-C)_gamma^beta, gamma over positive roots
    V_minus = mat_mul([row[pos] for row in lower], [row[pos] for row in Bneg[pos]])
    P = [row[cartan] for row in lower]
    Q = [row[neg] for row in lower]
    S = [[-p for p in row[pos]] for row in Bneg[pos]]
    V_plus_inv = [row[pos] for row in Binv[pos]]
    return RealizationPolys(V_plus, V_cartan, V_minus, P, Q, S, V_plus_inv)


def anomalous_term_fraction(rs: RootSystem, polys: RealizationPolys) -> list[list[Poly]]:
    """The k-free part of the normal-ordering corrections, one Poly product at a time.

    F_{alpha beta} = (V_+^{-1})_beta^mu  d_sigma V_mu^gamma  d_gamma V_{-alpha}^sigma;
    the level part (2k/alpha^2) (V_+^{-1})_beta^alpha of the d gamma^beta
    coefficient is added by ``currents.CurrentSet.currents``.
    """
    np_ = rs.n_pos
    # precompute derivative tables
    dV_plus = [
        [[polys.V_plus[mu][g].deriv(s) for g in range(np_)] for s in range(np_)]
        for mu in range(np_)
    ]
    dV_minus = [
        [[polys.V_minus[a][s].deriv(g) for s in range(np_)] for g in range(np_)]
        for a in range(np_)
    ]
    out: list[list[Poly]] = []
    for a in range(np_):
        row: list[Poly] = []
        for b in range(np_):
            acc = Poly.zero(np_)
            for mu in range(np_):
                if polys.V_plus_inv[b][mu].is_zero:
                    continue
                inner = Poly.zero(np_)
                for s in range(np_):
                    for g in range(np_):
                        p1 = dV_plus[mu][s][g]
                        if p1.is_zero:
                            continue
                        p2 = dV_minus[a][g][s]
                        if p2.is_zero:
                            continue
                        inner = inner + p1 * p2
                if not inner.is_zero:
                    acc = acc + polys.V_plus_inv[b][mu] * inner
            row.append(acc)
        out.append(row)
    return out


class DualMat:
    """Pair (A0, A1) representing A0 + s A1 with s^2 = 0, entries Poly."""

    def __init__(self, a0, a1):
        self.a0 = a0
        self.a1 = a1

    @staticmethod
    def identity(d, nvars):
        one = Poly.const(nvars, 1)
        zero = Poly.zero(nvars)
        return DualMat(
            [[one if i == j else zero for j in range(d)] for i in range(d)],
            [[zero for _ in range(d)] for _ in range(d)],
        )

    def __mul__(self, other):
        return DualMat(
            mat_mul(self.a0, other.a0),
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(mat_mul(self.a0, other.a1), mat_mul(self.a1, other.a0))
            ],
        )

    def __eq__(self, other):
        for x, y in ((self.a0, other.a0), (self.a1, other.a1)):
            for r1, r2 in zip(x, y):
                for p, q in zip(r1, r2):
                    if not (p - q).is_zero:
                        return False
        return True

    def is_nilzero(self):
        return all(p.is_zero for row in self.a0 for p in row) and all(
            p.is_zero for row in self.a1 for p in row
        )


def dual_exp(M: DualMat, d: int) -> DualMat:
    """exp of a nilpotent dual matrix by direct summation."""
    nvars = M.a0[0][0].nvars
    out = DualMat.identity(d, nvars)
    term = DualMat.identity(d, nvars)
    fact = Fraction(1)
    for m in range(1, 2 * d + 4):
        term = term * M
        if term.is_nilzero():
            return out
        fact *= m
        inv = 1 / fact
        out = DualMat(
            [[a + b.scale(inv) for a, b in zip(r1, r2)] for r1, r2 in zip(out.a0, term.a0)],
            [[a + b.scale(inv) for a, b in zip(r1, r2)] for r1, r2 in zip(out.a1, term.a1)],
        )
    raise AssertionError("dual exponential did not truncate")


def lie_elem(admats, coeffs, nvars) -> list[list[Poly]]:
    """Poly matrix for sum coeffs[label] * ad(label), coefficients Poly."""
    d = len(next(iter(admats.values())))
    zero = Poly.zero(nvars)
    out = [[zero for _ in range(d)] for _ in range(d)]
    for lab, poly in coeffs.items():
        M = admats[lab]
        for i in range(d):
            for j in range(d):
                if M[i][j]:
                    out[i][j] = out[i][j] + poly.scale(M[i][j])
    return out


def check_gauss_decomposition(rs: RootSystem, tab: StructureTable, polys: RealizationPolys) -> list:
    """Verify the defining decomposition for every generator; returns failures."""
    admats = adjoint_matrices(rs, tab)
    d = len(tab.basis())
    np_ = rs.n_pos
    zero = Poly.zero(np_)

    gplus = lie_elem(
        admats, {("e", a): Poly.var(np_, i) for i, a in enumerate(rs.pos_roots)}, np_
    )
    E = dual_exp(DualMat(gplus, [[zero] * d for _ in range(d)]), d)

    failures = []
    for a, alpha in enumerate(rs.pos_roots):
        # raising: G_+(x) e^{s e_a} = exp(g_+(x) + s V_a^b e_b)
        lhs = E * dual_exp(
            DualMat([[zero] * d for _ in range(d)], lie_elem(admats, {("e", alpha): Poly.const(np_, 1)}, np_)),
            d,
        )
        rhs = dual_exp(
            DualMat(
                gplus,
                lie_elem(admats, {("e", b): polys.V_plus[a][bi] for bi, b in enumerate(rs.pos_roots)}, np_),
            ),
            d,
        )
        if not lhs == rhs:
            failures.append(("e", alpha))
        # screening: e^{-s e_a} G_+(x) = exp(g_+(x) + s S_a^b e_b)
        lhs = (
            dual_exp(
                DualMat(
                    [[zero] * d for _ in range(d)],
                    lie_elem(admats, {("e", alpha): Poly.const(np_, -1)}, np_),
                ),
                d,
            )
            * E
        )
        rhs = dual_exp(
            DualMat(
                gplus,
                lie_elem(admats, {("e", b): polys.S[a][bi] for bi, b in enumerate(rs.pos_roots)}, np_),
            ),
            d,
        )
        if not lhs == rhs:
            failures.append(("s", alpha))

    for i in range(rs.rank):
        # Cartan: G_+(x) e^{s h_i} = e^{s h_i} exp(g_+(x) + s V_i^b e_b)
        lhs = E * dual_exp(
            DualMat([[zero] * d for _ in range(d)], lie_elem(admats, {("h", i): Poly.const(np_, 1)}, np_)),
            d,
        )
        rhs = dual_exp(
            DualMat([[zero] * d for _ in range(d)], lie_elem(admats, {("h", i): Poly.const(np_, 1)}, np_)),
            d,
        ) * dual_exp(
            DualMat(
                gplus,
                lie_elem(admats, {("e", b): polys.V_cartan[i][bi] for bi, b in enumerate(rs.pos_roots)}, np_),
            ),
            d,
        )
        if not lhs == rhs:
            failures.append(("h", i))

    for a, alpha in enumerate(rs.pos_roots):
        # lowering: G_+(x) e^{s f_a}
        #   = exp(s Q_a^b f_b) exp(s P_a^j h_j) exp(g_+(x) + s V_{-a}^b e_b)
        lhs = E * dual_exp(
            DualMat([[zero] * d for _ in range(d)], lie_elem(admats, {("f", alpha): Poly.const(np_, 1)}, np_)),
            d,
        )
        mf = dual_exp(
            DualMat(
                [[zero] * d for _ in range(d)],
                lie_elem(admats, {("f", b): polys.Q[a][bi] for bi, b in enumerate(rs.pos_roots)}, np_),
            ),
            d,
        )
        mh = dual_exp(
            DualMat(
                [[zero] * d for _ in range(d)],
                lie_elem(admats, {("h", j): polys.P[a][j] for j in range(rs.rank)}, np_),
            ),
            d,
        )
        me = dual_exp(
            DualMat(
                gplus,
                lie_elem(admats, {("e", b): polys.V_minus[a][bi] for bi, b in enumerate(rs.pos_roots)}, np_),
            ),
            d,
        )
        rhs = mf * (mh * me)
        if not lhs == rhs:
            failures.append(("f", alpha))
    return failures


# ---------------------------------------------------------------------------
# Fraction bracket-table oracles: the structure checks over Q, term by term
# ---------------------------------------------------------------------------

def expected_ope_reference(cs, a: Label, b: Label) -> dict:
    """``currents.expected_ope`` built with ``FieldExpr.scale`` and ``+``."""
    out = {}
    kap = cs.tab.kappa_of(a, b)
    if kap:
        out[2] = FieldExpr.const(RatFunc.k() * kap)
    first = FieldExpr.zero()
    for c, v in cs.tab.bracket(a, b).items():
        first = first + cs.currents[c].scale(v)
    if not first.is_structurally_zero:
        out[1] = first
    return out


def commutator_fraction(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] slot by slot in ``Poly`` arithmetic, re-deriving every partial."""
    np_ = a.rs.n_pos
    da = [(sig, p) for sig, p in enumerate(a.coeffs[:np_]) if not p.is_zero]
    db = [(sig, p) for sig, p in enumerate(b.coeffs[:np_]) if not p.is_zero]
    out = []
    for ai, bi in zip(a.coeffs, b.coeffs):
        acc = Poly.zero(np_)
        for sig, pa in da:
            d = bi.deriv(sig)
            if not d.is_zero:
                acc = acc + pa * d
        for sig, pb in db:
            d = ai.deriv(sig)
            if not d.is_zero:
                acc = acc - pb * d
        out.append(acc)
    return DiffOp(a.rs, out)


def realized(ops: dict[Label, DiffOp], coeffs: dict[Label, Fraction]) -> DiffOp:
    """The operator sum_c coeffs[c] J_c."""
    rs = next(iter(ops.values())).rs
    out = DiffOp(rs, [Poly.zero(rs.n_pos)] * (rs.n_pos + rs.rank))
    for lab, c in coeffs.items():
        out = out + ops[lab].scale(c)
    return out


def realization_failures_fraction(ops: dict[Label, DiffOp], tab: StructureTable) -> list:
    """Ordered pairs (a, b) with [J_a, J_b] != f_ab^c J_c, in ``ops`` order."""
    return [
        (a, b)
        for a in ops
        for b in ops
        if not (commutator_fraction(ops[a], ops[b]) - realized(ops, tab.bracket(a, b))).is_zero
    ]


def _bracket_elements(
    tab: StructureTable, x: dict[Label, Fraction], y: dict[Label, Fraction]
) -> dict[Label, Fraction]:
    out: dict[Label, Fraction] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for c, v in tab.bracket(a, b).items():
                val = ca * cb * v
                if val:
                    out[c] = out.get(c, Fraction(0)) + val
    return {c: v for c, v in out.items() if v}


def jacobi_failures_fraction(tab: StructureTable) -> list:
    """Basis triples violating the graded Jacobi identity, over Q."""
    basis = tab.basis()
    bad = []
    for a in basis:
        pa = tab.label_parity(a)
        for b in basis:
            pb = tab.label_parity(b)
            for c in basis:
                # [[a,b],c] - [a,[b,c]] + (-1)^{|a||b|} [b,[a,c]] = 0
                acc: dict[Label, Fraction] = {}

                def add(coeffs: dict[Label, Fraction], sign: int) -> None:
                    for lab, v in coeffs.items():
                        acc[lab] = acc.get(lab, Fraction(0)) + sign * v

                add(_bracket_elements(tab, tab.bracket(a, b), {c: Fraction(1)}), 1)
                add(_bracket_elements(tab, {a: Fraction(1)}, tab.bracket(b, c)), -1)
                s = -1 if (pa and pb) else 1
                add(_bracket_elements(tab, {b: Fraction(1)}, tab.bracket(a, c)), s)
                if any(v for v in acc.values()):
                    bad.append((a, b, c))
    return bad


def verify_killing_invariance(tab: StructureTable) -> list:
    """kappa([x,y],z) = kappa(x,[y,z]) on all basis triples; returns the violating ones."""
    basis = tab.basis()
    bad = []
    for a in basis:
        for b in basis:
            ab = tab.bracket(a, b)
            for c in basis:
                lhs = sum((v * tab.kappa_of(lab, c) for lab, v in ab.items()), Fraction(0))
                bc = tab.bracket(b, c)
                rhs = sum((v * tab.kappa_of(a, lab) for lab, v in bc.items()), Fraction(0))
                if lhs != rhs:
                    bad.append((a, b, c))
    return bad


# ---------------------------------------------------------------------------
# truncated mode-expansion oracle (bosonic sector)
# ---------------------------------------------------------------------------
#
# gamma(z) = sum gamma_m z^{-m}, beta(z) = sum beta_m z^{-m-1} with
# [beta_m, gamma_l] = delta_{m+l}; the scalar legs P_i have
# [P_m^i, P_l^j] = m t G_ij delta_{m+l}.  Vacuum two-point functions of
# normal-ordered composites are evaluated by explicit mode sums, truncated
# at |m| <= modes, and compared against the engine's pole expansion.

from itertools import permutations, product as iproduct

from wakimoto.coeffs import RatFunc
from wakimoto.fields import BETA, GAMMA, PHI
from wakimoto.ope import contract


def _mode_coef(h, d, m):
    """Coefficient of X_m z^{-m-h-d} in d^d X(z), as a Fraction."""
    c = Fraction(1)
    for j in range(d):
        c *= -(m + h + j)
    return c


def _factor_data(prim):
    kind, label, d = prim
    if kind == GAMMA:
        return ("g", label, 0, d)
    if kind == BETA:
        return ("b", label, 1, d)
    if kind == PHI:
        return ("a", label, 1, d)
    raise AssertionError("mode oracle covers the bosonic sector only")


def _creator_modes(tag, h, modes):
    top = 0 if tag == "g" else -1
    return range(-modes, top + 1)


def vacuum_two_point(rs, A, B, modes=4, orders=4):
    """<0|A(z)B(w)|0> as {(zpow, wpow): RatFunc}, truncated but exact
    for every key with wpow <= modes - 2."""
    out = {}
    t = RatFunc.t(rs.hvee)
    for (aprims, apfs, avert), ca in A.terms.items():
        assert not apfs and avert is None
        afac = [_factor_data(p) for p in aprims]
        for (bprims, bpfs, bvert), cb in B.terms.items():
            assert not bpfs and bvert is None
            bfac = [_factor_data(p) for p in bprims]
            if len(afac) != len(bfac):
                continue  # vacuum projection needs a perfect matching
            ranges = [_creator_modes(tag, h, modes) for tag, _, h, _ in bfac]
            for m128 in iproduct(*ranges):
                wpow = 0
                wcoef = Fraction(1)
                exc = []
                ok = True
                for (tag, label, h, d), m in zip(bfac, m128):
                    c = _mode_coef(h, d, m)
                    if not c:
                        ok = False
                        break
                    wcoef *= c
                    wpow += -(m + h + d)
                    exc.append((tag, label, m))
                if not ok:
                    continue
                # match every A factor with one excitation
                for perm in permutations(range(len(afac))):
                    zpow = 0
                    val = RatFunc.of(ca * cb * wcoef)
                    good = True
                    for (tag, label, h, d), ei in zip(afac, perm):
                        etag, elabel, em = exc[ei]
                        m = -em
                        c = _mode_coef(h, d, m)
                        if not c:
                            good = False
                            break
                        if tag == "b" and etag == "g" and label == elabel:
                            pass
                        elif tag == "g" and etag == "b" and label == elabel:
                            c = -c
                        elif tag == "a" and etag == "a":
                            g = rs.G[label][elabel]
                            if not g:
                                good = False
                                break
                            val = val * (t * g * m)
                        else:
                            good = False
                            break
                        val = val * c
                        zpow += -(m + h + d)
                    if not good:
                        continue
                    key = (zpow, wpow)
                    out[key] = out.get(key, RatFunc.zero()) + val
    window = modes - 2
    return {
        k: v for k, v in out.items() if not v.is_zero and 0 <= k[1] <= window
    }


def engine_vacuum_series(rs, A, B, orders=4, window=None):
    """Engine-side <0|A(z)B(w)|0> expanded in the same (zpow, wpow) grid."""
    res = contract(rs, A, B)
    window = window if window is not None else 2
    out = {}
    for q, expr in res.poles.items():
        s = expr.terms.get(((), (), None))
        if s is None:
            continue
        binom = 1
        for j in range(0, orders + 1):
            key = (-(q + j), j)
            out[key] = out.get(key, RatFunc.zero()) + s * Fraction(binom)
            binom = binom * (q + j) // (j + 1)
    return {k: v for k, v in out.items() if not v.is_zero and 0 <= k[1] <= 2}


# ---------------------------------------------------------------------------
# series zero test, term by term
# ---------------------------------------------------------------------------

def expand_power_levels_termwise(expr: FieldExpr) -> FieldExpr:
    """Reference level expansion: every term is rebuilt through Wick products
    of its lowered powers and one base copy per surplus level, and the pieces
    are summed one by one."""
    classes = {}
    for (prims, pfs, vertex) in expr.terms:
        for key, exp in pfs:
            cls = (key, exp.u, exp.w, exp.v % 1)
            cur = classes.get(cls)
            if cur is None or exp.v < cur:
                classes[cls] = exp.v
    if not classes:
        return expr
    out = FieldExpr.zero()
    for (prims, pfs, vertex), coef in expr.terms.items():
        piece = FieldExpr._from_raw([(coef, prims, (), vertex)])
        for key, exp in pfs:
            vmin = classes[(key, exp.u, exp.w, exp.v % 1)]
            surplus = exp.v - vmin
            assert surplus.denominator == 1 and surplus >= 0
            piece = piece * FieldExpr._from_raw([(RatFunc.one(), (), ((key, Exp(exp.u, vmin, exp.w)),), None)])
            for _ in range(int(surplus)):
                piece = piece * base_expr(key)
        out = out + piece
    return out


def series_residual_rescan(rs, series) -> FieldExpr:
    """Reference series residual: anchor term by term, then rewrite the least
    rewritable term and level-expand the whole body again, until none is left."""
    body = FieldExpr.zero()
    for term, coef in series.body.terms.items():
        j = int(next(e for _, e in term[1] if e.w == 1).v)
        piece = FieldExpr({term: coef})
        if j:
            piece = piece.shift_n(-j).scale(_cn_shift_factor(rs.hvee, j))
        body = body + piece
    body = expand_power_levels_termwise(body)
    for _ in range(500):
        targets = [t for t in body.terms if _rewritable(t) is not None]
        if not targets:
            return body
        term = min(targets, key=_absorb_order)
        _, key, pivot, rest = _rewritable(term)
        lam = body.terms[term] / dict(key)[pivot]
        prims, pfs, vertex = term
        removal = FieldExpr._from_raw([(lam * ctau, rest + tau, pfs, vertex) for tau, ctau in key])
        aidx = next(i for i, (_, e) in enumerate(pfs) if e.w == 1)
        bumped = pfs[:aidx] + ((key, pfs[aidx][1] + 1),) + pfs[aidx + 1:]
        promoted = SeriesExpr(FieldExpr._from_raw([(lam, rest, bumped, vertex)]))
        body = expand_power_levels_termwise(body - removal + promoted.anchored(rs).body)
    raise RuntimeError("reference copy elimination did not terminate")


# Sample points for the evaluation oracle: generic rationals, so a nonzero
# numerator of small degree vanishes at all of them only by accident.
_SAMPLE_POINTS = (
    (Fraction(3761, 97), Fraction(-5209, 311)),
    (Fraction(-8123, 677), Fraction(1913, 53)),
    (Fraction(461, 887), Fraction(7727, 229)),
    (Fraction(-2939, 43), Fraction(-613, 919)),
    (Fraction(9871, 557), Fraction(4447, 827)),
)


def ratfunc_value(x: RatFunc, k: Fraction, n: Fraction):
    """x at (k, n), summed from the monomials of its numerator and factors; None at a pole."""

    def pol(p):
        return sum((c * k**a * n**b for (a, b), c in p.terms.items()), Fraction(0))

    den = Fraction(1)
    for p, e in x.den:
        den *= pol(p) ** e
    return None if den == 0 else pol(x.num) / den


def assert_canonical_coefficients(x) -> None:
    """Each coefficient of x is an int, or a Fraction whose denominator is not
    1: no integral Fraction and no float.  x is a ``Pol``, a ``Poly`` or a
    ``RatFunc``, whose numerator and denominator factors are checked."""
    for p in [x.num, *(f for f, _ in x.den)] if isinstance(x, RatFunc) else [x]:
        for c in p.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (c, p)


def assert_one_form(c) -> None:
    """c is a stored field coefficient in its one form: an int, a Fraction
    whose denominator is not 1, or a ``RatFunc`` in which k or n appears,
    with canonical polynomial coefficients."""
    if type(c) is RatFunc:
        assert not c.is_rational, c
        assert_canonical_coefficients(c)
    else:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def assert_one_form_terms(expr) -> None:
    """``assert_one_form`` for every coefficient of a ``FieldExpr``, power bases included."""
    for (_, pfs, _), c in expr.terms.items():
        assert_one_form(c)
        for key, _ in pfs:
            for _, bc in key:
                assert_one_form(bc)


def ratfunc_values(x: RatFunc) -> list:
    """The values of x at the sample points (None at a pole)."""
    return [ratfunc_value(x, k, n) for k, n in _SAMPLE_POINTS]


def ratfuncs_equal_by_evaluation(x: RatFunc, y: RatFunc) -> bool:
    """Whether x and y agree at every sample point where neither has a pole."""
    pairs = [(a, b) for a, b in zip(ratfunc_values(x), ratfunc_values(y)) if None not in (a, b)]
    assert len(pairs) >= 3, "too many sample points hit a pole"
    return all(a == b for a, b in pairs)


class FracPol:
    """A polynomial in k and n as a dict of nonzero Fractions: the reference for
    ``Pol``'s integer numerators over one content denominator."""

    def __init__(self, terms: dict):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    @staticmethod
    def of(p: Pol) -> "FracPol":
        """p read from its stored integer form, not from its ``terms`` view."""
        return FracPol({m: Fraction(c, p.den) for m, c in p.num.items()})

    def matches(self, p: Pol) -> bool:
        return FracPol.of(p).terms == self.terms

    def __add__(self, other: "FracPol") -> "FracPol":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return FracPol(out)

    def __mul__(self, other: "FracPol") -> "FracPol":
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                m = (a1 + a2, b1 + b2)
                out[m] = out.get(m, 0) + c1 * c2
        return FracPol(out)

    def scale(self, c) -> "FracPol":
        return FracPol({m: v * c for m, v in self.terms.items()})

    def subs(self, k=None, n=None) -> "FracPol":
        """k or n (or both) replaced by a number, term by term."""
        out: dict = {}
        for (a, b), c in self.terms.items():
            if k is not None:
                c, a = c * Fraction(k) ** a, 0
            if n is not None:
                c, b = c * Fraction(n) ** b, 0
            out[(a, b)] = out.get((a, b), 0) + c
        return FracPol(out)

    def shift_n(self, delta: int) -> "FracPol":
        """n -> n + delta, as the product of (n + delta) taken b times per term."""
        out = FracPol({})
        for (a, b), c in self.terms.items():
            term = FracPol({(a, 0): c})
            for _ in range(b):
                term = term * FracPol({(0, 1): 1, (0, 0): delta})
            out = out + term
        return out


def divide_exact(num: Pol, divisor: Pol) -> Optional[Pol]:
    """num / divisor when it divides exactly, else None.

    Generic long division on the lex-leading monomial (k-power, n-power),
    for any nonzero divisor; ``coeffs`` divides by its monic linear factors
    with Horner's rule instead.
    """
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero:
        return Pol()
    if divisor.is_const:
        return num.scale(Fraction(1, divisor.const_value()))
    rem = Pol(dict(num.terms))
    quo: dict = {}
    lead = max(divisor.terms)
    lead_c = divisor.terms[lead]
    # each step removes the lex-leading monomial of rem, and lex order
    # well-orders N^2, so the loop ends
    while not rem.is_zero:
        m = max(rem.terms)
        qm = (m[0] - lead[0], m[1] - lead[1])
        if qm[0] < 0 or qm[1] < 0:
            return None
        qc = Fraction(rem.terms[m], lead_c)
        quo[qm] = quo.get(qm, Fraction(0)) + qc
        rem = rem - Pol({qm: qc}) * divisor
    return Pol({m: c for m, c in quo.items() if c})


def make_reference(num: Pol, den) -> RatFunc:
    """The canonical num / prod(p^e for p, e in den), the one route every
    product and sum took before cancellation across operands: the factors
    are merged, made monic and sorted, and each is cancelled by long division."""
    if num.is_zero:
        return RatFunc(Pol())
    scale = Fraction(1)
    merged: dict = {}
    for p, e in den:
        if p.is_const:
            scale *= p.const_value() ** e
            continue
        lc = p.terms[max(p.terms)]
        if lc != 1:
            scale *= lc**e
            p = p.scale(Fraction(1, lc))
        merged[p] = merged.get(p, 0) + e
    if scale != 1:
        num = num.scale(Fraction(1, scale))
    out = []
    for p in sorted(merged, key=Pol.frozen):
        e = merged[p]
        while e > 0 and (q := divide_exact(num, p)) is not None:
            num, e = q, e - 1
        if e > 0:
            out.append((p, e))
    return RatFunc(num, tuple(out))


def mul_reference(x: RatFunc, y: RatFunc) -> RatFunc:
    return make_reference(x.num * y.num, x.den + y.den)


def add_reference(x: RatFunc, y: RatFunc) -> RatFunc:
    """x + y over the least common denominator, through ``make_reference``."""
    xd, yd = dict(x.den), dict(y.den)
    common, xh, yh = [], Pol.const(1), Pol.const(1)
    for p in sorted(xd.keys() | yd.keys(), key=Pol.frozen):
        e = max(xd.get(p, 0), yd.get(p, 0))
        common.append((p, e))
        xh = xh * p ** (e - xd.get(p, 0))
        yh = yh * p ** (e - yd.get(p, 0))
    return make_reference(x.num * xh + y.num * yh, common)


# ---------------------------------------------------------------------------
# Wick engine over RatFunc coefficients
# ---------------------------------------------------------------------------
#
# The Wick engine as it stood before plain rationals were carried through
# it: every kernel, product and sum is a RatFunc, every term pair builds its
# own w-side items, the crossing sign is rescanned at each contraction, and
# terms are canonicalized by a RatFunc-only copy of the canonicalization.

_REF_FACT = [1]
for _i in range(1, 40):
    _REF_FACT.append(_REF_FACT[-1] * _i)


def from_raw_reference(raw) -> FieldExpr:
    """Canonical form of raw (RatFunc coef, prims, pfs, vertex) terms, summed as RatFuncs."""
    out = {}
    stack = [(RatFunc.of(c), p, f, v) for c, p, f, v in raw]
    while stack:
        coef, prims, pfs, vertex = stack.pop()
        if coef.is_zero:
            continue
        lst = list(prims)
        sign = 1
        for i in range(1, len(lst)):
            j = i
            while j > 0 and lst[j - 1] > lst[j]:
                if prim_parity(lst[j - 1]) and prim_parity(lst[j]):
                    sign = -sign
                lst[j - 1], lst[j] = lst[j], lst[j - 1]
                j -= 1
        if any(a == b and prim_parity(a) for a, b in zip(lst, lst[1:])):
            continue
        sp = tuple(lst)
        if sign < 0:
            coef = -coef
        grouped = {}
        for key, exp in pfs:
            grouped[key] = grouped[key] + exp if key in grouped else exp
        kept = []
        expand = []
        for key in sorted(grouped, key=_base_sort_key):
            exp = grouped[key]
            if exp.is_const:
                if exp.v == 0:
                    continue
                if exp.v.denominator == 1 and exp.v > 0:
                    expand.append((key, int(exp.v)))
                    continue
            kept.append((key, exp))
        if expand:
            # one copy of the last expandable base per pop; every other one rides along
            key, power = expand.pop()
            rest = tuple(kept + [(k, Exp.const(m)) for k, m in expand])
            rest += ((key, Exp.const(power - 1)),) if power > 1 else ()
            for bprims, bcoef in key:
                stack.append((coef * bcoef, sp + bprims, rest, vertex))
            continue
        term = (sp, tuple(kept), vertex)
        cur = out.get(term)
        if cur is None:
            out[term] = coef
        else:
            cur = cur + coef
            if cur.is_zero:
                del out[term]
            else:
                out[term] = cur
    return FieldExpr(out)


def _derivative_reference(rs, expr: FieldExpr) -> FieldExpr:
    """d(expr) for an expression without power factors (a z-side part)."""
    raw = []
    for (prims, pfs, vertex), coef in expr.terms.items():
        assert not pfs
        for i, p in enumerate(prims):
            raw.append((coef, prims[:i] + ((p[0], p[1], p[2] + 1),) + prims[i + 1:], (), vertex))
        if vertex is not None:
            for j, nu in enumerate(vertex_phi_coupling(rs, vertex)):
                if not nu.is_zero:
                    raw.append((coef * nu, prims + ((PHI, j, 0),), (), vertex))
    return from_raw_reference(raw)


def _pair_kernel_reference(rs, zp, wp):
    kz, lz, m = zp
    kw, lw, l = wp
    if kz == BETA and kw == GAMMA and lz == lw:
        return m + l + 1, RatFunc.of(Fraction((-1) ** m * _REF_FACT[m + l]))
    if kz == GAMMA and kw == BETA and lz == lw:
        return m + l + 1, RatFunc.of(Fraction(-((-1) ** m) * _REF_FACT[m + l]))
    if kz == BGH and kw == CGH and lz == lw:
        return m + l + 1, RatFunc.of(Fraction((-1) ** m * _REF_FACT[m + l]))
    if kz == CGH and kw == BGH and lz == lw:
        return m + l + 1, RatFunc.of(Fraction((-1) ** m * _REF_FACT[m + l]))
    if kz == PHI and kw == PHI:
        g = rs.G[lz][lw]
        if not g:
            return None
        return m + l + 2, RatFunc.t(rs.hvee) * Fraction(g * (-1) ** m * _REF_FACT[m + l + 1])
    return None


def _vertex_kernel_reference(momentum, prim, z_side: bool):
    kind, label, m = prim
    if kind != PHI or momentum[label].is_zero:
        return None
    mu = momentum[label]
    if z_side:
        return m + 1, mu * Fraction((-1) ** m * _REF_FACT[m])
    return m + 1, -mu * Fraction(_REF_FACT[m])


class _RefItem:
    def __init__(self, kind, prim=None, base=None, exp=None):
        self.kind = kind  # "prim", "pf" or "vertex"
        self.prim = prim
        self.base = base
        self.exp = exp
        self.alive = True
        self.parity = prim_parity(prim) if kind == "prim" else 0


def _taylor_reference(rs, prims, vertex, top):
    """Levels m = 0..top of d^m/m! of :prims vertex: as (RatFunc, prims, vertex)
    triples, up to and including the first (empty) level that vanishes."""
    expr = from_raw_reference([(RatFunc.one(), prims, (), vertex)])
    levels = []
    for m in range(top + 1):
        inv = Fraction(1, _REF_FACT[m])
        levels.append([(c * inv, p, v) for (p, _, v), c in expr.terms.items()])
        if expr.is_structurally_zero:
            break
        expr = _derivative_reference(rs, expr)
    return levels


def contract_reference(rs, A: FieldExpr, B: FieldExpr, *, min_order: int = 1) -> dict:
    """{pole order: FieldExpr} of A(z)B(w) for the orders >= min_order."""
    raw = {}
    for ta, ca in A.terms.items():
        if ta[1]:
            raise UnsupportedContraction("symbolic power factors on the left operand are not supported")
        for tb, cb in B.terms.items():
            if ta[2] is not None and tb[2] is not None:
                raise UnsupportedContraction("vertex-vertex contraction is out of scope")
            _contract_pair_reference(rs, min_order, raw, ta, ca, tb, cb)
    poles = {}
    for q, terms in raw.items():
        expr = from_raw_reference(terms)
        if not expr.is_structurally_zero:
            poles[q] = expr
    return poles


def _contract_pair_reference(rs, min_order, raw, ta, ca, tb, cb):
    zprims, _, zvertex = ta
    wprims, wpfs, wvertex = tb
    zalive = [True] * len(zprims)
    witems = [_RefItem("prim", prim=p) for p in wprims]
    witems += [_RefItem("pf", base=key, exp=exp) for key, exp in wpfs]
    if wvertex is not None:
        witems.append(_RefItem("vertex"))
    contractions = []

    def crossing_parity(iz, pos):
        odd = sum(prim_parity(zprims[j]) for j in range(iz + 1, len(zprims)) if zalive[j])
        odd += sum(item.parity for item in witems[:pos] if item.alive)
        return odd % 2

    def emit():
        q = sum(o for o, _ in contractions)
        if q < min_order:
            return
        coef = ca * cb
        for _, c in contractions:
            coef = coef * c
        wleft = [item for item in witems if item.alive]
        rest_prims = tuple(item.prim for item in wleft if item.kind == "prim")
        rest_pfs = tuple((item.base, item.exp) for item in wleft if item.kind == "pf")
        zleft = tuple(p for p, alive in zip(zprims, zalive) if alive)
        for m, level in enumerate(_taylor_reference(rs, zleft, zvertex, q - min_order)):
            bucket = raw.setdefault(q - m, [])
            for tc, tprims, tvertex in level:
                bucket.append((coef * tc, tprims + rest_prims, rest_pfs, tvertex if tvertex is not None else wvertex))

    def stage_two(widx):
        if zvertex is None or widx == len(witems):
            emit()
            return
        item = witems[widx]
        stage_two(widx + 1)
        if item.alive and item.kind == "prim":
            ker = _vertex_kernel_reference(zvertex, item.prim, z_side=False)
            if ker is not None:
                item.alive = False
                contractions.append(ker)
                stage_two(widx + 1)
                contractions.pop()
                item.alive = True

    def walk(iz):
        if iz == len(zprims):
            stage_two(0)
            return
        zp = zprims[iz]
        walk(iz + 1)
        zalive[iz] = False
        for pos, item in enumerate(witems):
            if not item.alive:
                continue
            sgn = -1 if (prim_parity(zp) and crossing_parity(iz, pos)) else 1
            if item.kind == "prim":
                ker = _pair_kernel_reference(rs, zp, item.prim)
                if ker is None:
                    continue
                item.alive = False
                contractions.append((ker[0], ker[1] * sgn))
                walk(iz + 1)
                contractions.pop()
                item.alive = True
            elif item.kind == "pf":
                for bprims, bcoef in item.base:
                    for i, g in enumerate(bprims):
                        ker = _pair_kernel_reference(rs, zp, g)
                        if ker is None:
                            continue
                        gsgn = -1 if prim_parity(g) and sum(map(prim_parity, bprims[:i])) % 2 else 1
                        pval = item.exp.as_ratfunc(rs.hvee)
                        old_exp = item.exp
                        item.exp = old_exp - 1
                        if item.exp.is_const and item.exp.v == 0:
                            item.alive = False
                        remainder = bprims[:i] + bprims[i + 1:]
                        witems[pos:pos] = [_RefItem("prim", prim=p) for p in remainder]
                        contractions.append((ker[0], ker[1] * bcoef * gsgn * pval * sgn))
                        walk(iz + 1)
                        contractions.pop()
                        del witems[pos: pos + len(remainder)]
                        item.exp = old_exp
                        item.alive = True
            else:
                ker = _vertex_kernel_reference(wvertex, zp, z_side=True)
                if ker is not None:
                    contractions.append(ker)
                    walk(iz + 1)
                    contractions.pop()
        zalive[iz] = True

    walk(0)
