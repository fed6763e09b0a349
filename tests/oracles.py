"""Independent cross-check oracles used only by the test suite.

The Gauss-decomposition oracle works in the adjoint representation over dual
numbers (s^2 = 0): it multiplies out group elements directly and therefore
does not share any code path with the Bernoulli-series construction it
checks.
"""

from __future__ import annotations

from fractions import Fraction

from wakimoto.coeffs import Exp, RatFunc
from wakimoto.fields import FieldExpr, base_expr
from wakimoto.liealg import RootSystem, StructureTable
from wakimoto.polymat import Poly, RealizationPolys, _mat_mul
from wakimoto.series import SeriesExpr, _absorb_order, _cn_shift_factor, _rewritable


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
            _mat_mul(self.a0, other.a0),
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(_mat_mul(self.a0, other.a1), _mat_mul(self.a1, other.a0))
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


def vacuum_two_point(ctx, A, B, modes=4, orders=4):
    """<0|A(z)B(w)|0> as {(zpow, wpow): RatFunc}, truncated but exact
    for every key with wpow <= modes - 2."""
    out = {}
    t = ctx.t()
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
                            g = ctx.G[label][elabel]
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


def engine_vacuum_series(ctx, A, B, orders=4, window=None):
    """Engine-side <0|A(z)B(w)|0> expanded in the same (zpow, wpow) grid."""
    res = contract(ctx, A, B)
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


def series_residual_rescan(ctx, series) -> FieldExpr:
    """Reference series residual: anchor term by term, then rewrite the least
    rewritable term and level-expand the whole body again, until none is left."""
    body = FieldExpr.zero()
    for term, coef in series.body.terms.items():
        j = int(next(e for _, e in term[1] if e.w == 1).v)
        piece = FieldExpr({term: coef})
        if j:
            piece = piece.shift_n(-j).scale(_cn_shift_factor(ctx.hvee, j))
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
        body = expand_power_levels_termwise(body - removal + promoted.anchored(ctx).body)
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


def ratfunc_values(x: RatFunc) -> list:
    """The values of x at the sample points (None at a pole)."""
    return [ratfunc_value(x, k, n) for k, n in _SAMPLE_POINTS]


def ratfuncs_equal_by_evaluation(x: RatFunc, y: RatFunc) -> bool:
    """Whether x and y agree at every sample point where neither has a pole."""
    pairs = [(a, b) for a, b in zip(ratfunc_values(x), ratfunc_values(y)) if None not in (a, b)]
    assert len(pairs) >= 3, "too many sample points hit a pole"
    return all(a == b for a, b in pairs)
